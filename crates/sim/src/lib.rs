//! # hc-sim — discrete-event simulation of dynamic HC workloads
//!
//! The paper's terminology distinguishes a **task type** (an executable program)
//! from a **task** (one execution of it). The measure framework characterizes the
//! *static* ETC matrix of task types × machines; this crate closes the loop to the
//! *dynamic* setting its applications live in (performance prediction, reference
//! \[9\]; heuristic selection, reference \[3\]): a stream of task instances arrives
//! over time and an online mapper assigns each to a machine.
//!
//! * [`workload`] — Poisson arrival streams over the task types, deterministic
//!   per seed.
//! * [`policy`] — immediate-mode online policies (OLB, MET, MCT, KPB) and
//!   batch-mode policies (Min-Min, Sufferage) operating on machine ready times.
//! * [`sim`] — the event-driven simulator: machine queues, ready times, per-task
//!   records.
//! * [`metrics`] — makespan, mean/max flowtime, machine utilization, queue peaks.
//!
//! The X8 experiment (see the `hc-repro` crate) runs this simulator across
//! environments generated at controlled TMA and shows the static measures predict
//! dynamic scheduler behaviour.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod availability;
pub mod metrics;
pub mod policy;
pub mod sim;
pub mod workload;

pub use metrics::SimMetrics;
pub use policy::{BatchPolicy, OnlinePolicy, Policy};
pub use sim::{simulate, SimConfig, SimResult, TaskRecord};
pub use workload::{Workload, WorkloadSpec};
