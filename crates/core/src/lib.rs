//! # hc-core — heterogeneity measures for task–machine ETC matrices
//!
//! Reproduction of the measure framework of:
//!
//! > A. M. Al-Qawasmeh, A. A. Maciejewski, R. G. Roberts, H. J. Siegel,
//! > *Characterizing Task-Machine Affinity in Heterogeneous Computing
//! > Environments*, IPDPS 2011.
//!
//! A heterogeneous computing (HC) environment is represented by an **ETC matrix**
//! (estimated time to compute: entry `(i, j)` is the runtime of task type `i` on
//! machine `j`) or, equivalently, its entrywise reciprocal, the **ECS matrix**
//! (estimated computation speed, Eq. 1). Three independent, scale-invariant
//! measures characterize the environment:
//!
//! * **MPH** — machine performance homogeneity (Eq. 3): the average ratio of a
//!   machine's performance (ECS column sum, Eq. 2/4) to its next better machine,
//!   after sorting. In `(0, 1]`; 1 means all machines perform equally.
//! * **TDH** — task difficulty homogeneity (Eq. 7, this paper's new measure): the
//!   same construction on task difficulties (ECS row sums, Eq. 6). In `(0, 1]`.
//! * **TMA** — task-machine affinity (Eq. 5/8): the mean of the non-maximum
//!   singular values of the **standard form** ECS matrix (row sums all `√(M/T)`,
//!   column sums all `√(T/M)`; then σ₁ = 1 by Theorem 2). In `[0, 1]`; 0 means
//!   proportional columns (no affinity), 1 means orthogonal machine specialization.
//!
//! The crate also implements the alternative homogeneity measures the paper
//! compares against (`R`, `G`, `COV`, Sec. II-D), the weighted generalizations of
//! Eqs. 4 and 6, what-if deltas, and the worked example matrices from Figures 1–4.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analyzer;
pub mod canonical;
pub mod ecs;
pub mod error;
pub mod extremes;
pub mod measures;
pub mod report;
pub mod sensitivity;
pub mod standard;
pub mod stats;
pub mod weights;
pub mod whatif;

pub use analyzer::Analyzer;
pub use canonical::{canonical_form, is_canonical, CanonicalForm};
pub use ecs::{Ecs, Etc};
pub use error::MeasureError;
pub use measures::{machine_performances, mph, mph_from_performances, task_difficulties, tdh};
pub use report::{characterize, characterize_in, characterize_with, MeasureReport};
pub use standard::{
    standard_form, standard_form_in, tma, tma_with, StandardForm, TmaOptions, ZeroPolicy,
};
pub use weights::Weights;
