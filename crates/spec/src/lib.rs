//! # hc-spec — the evaluation dataset (synthetic SPEC CPU2006 rate matrices)
//!
//! The paper's Sec. V evaluates the measures on ETC matrices extracted from the
//! SPEC CINT2006Rate (12 task types) and CFP2006Rate (17 task types) peak-runtime
//! tables for five named machines (the paper's Figs. 5–7).
//!
//! **Substitution note** (see DESIGN.md): the numeric runtime tables did not
//! survive the text extraction of the paper, and SPEC's published measurements are
//! external data we do not ship. This crate therefore provides a **calibrated
//! synthetic dataset**: matrices carrying the paper's real benchmark and machine
//! names, with runtimes synthesized so that the three measures equal the values
//! the paper reports —
//!
//! | matrix | TDH | MPH | TMA |
//! |---|---|---|---|
//! | CINT2006Rate (12×5) | 0.90 | 0.82 | 0.07 |
//! | CFP2006Rate (17×5) | 0.91 | 0.83 | ≈0.11 |
//!
//! (the paper prints the CFP TMA imprecisely in our source; 0.11 preserves the
//! paper's stated comparison "floating-point task types have more affinity to
//! machines than the integer ones"). Every claim the paper makes about this data
//! is a claim about these measure values, so the substitution exercises the exact
//! code path (ETC → ECS → canonical → standard form → SVD → measures) with the
//! same outcomes.
//!
//! [`fig8`] reconstructs the paper's Fig. 8 2×2 example pairs exactly from their
//! reported measure values. [`csv`] round-trips labeled ETC matrices through a
//! plain CSV format so users can load real SPEC data when they have it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod csv;
pub mod dataset;
pub mod fig8;
pub mod names;

pub use dataset::{cfp2006, cint2006, SpecDataset, SpecTargets};
pub use names::{machines, CFP_BENCHMARKS, CINT_BENCHMARKS, MACHINES};
