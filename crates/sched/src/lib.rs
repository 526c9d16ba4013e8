//! # hc-sched — independent-task mapping heuristics
//!
//! The paper motivates its measures partly by *"selecting appropriate heuristics
//! to use in an HC environment based on its heterogeneity"* (reference \[3\]). This
//! crate supplies that substrate: the classic static mapping heuristics for
//! independent tasks on heterogeneous machines (the Braun et al. 2001 suite the
//! paper cites as reference \[6\]) plus a steady-state genetic algorithm, a makespan
//! evaluator, and ensemble studies correlating heuristic performance with the
//! (MPH, TDH, TMA) measures.
//!
//! Heuristics implemented: OLB, MET, MCT, Min-Min, Max-Min, Sufferage, KPB, and
//! a GA seeded by Min-Min. [`select`] is the `heuristic` selector `hcm
//! schedule` and `POST /schedule` share. All operate on an ETC matrix where row `i` is a task
//! (an instance to execute once) and column `j` a machine; `∞` marks
//! incompatibility.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod eval;
pub mod exact;
pub mod ga;
pub mod heuristics;
pub mod problem;
pub mod robustness;
pub mod select;

pub use heuristics::{all_heuristics, Heuristic, HeuristicKind};
pub use problem::{MappingProblem, Schedule};
