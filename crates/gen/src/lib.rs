//! # hc-gen — ETC matrix generation
//!
//! One of the paper's motivating applications is *"generating ETC matrices for
//! simulation studies that span the entire range of heterogeneities"* (reference
//! \[2\] of the paper). This crate implements three generators:
//!
//! * [`range_based`](mod@range_based) — the classic range-based method of Ali et al. 2000
//!   (reference \[4\]), the de-facto standard in the resource-allocation literature.
//! * [`cvb`](mod@cvb) — the coefficient-of-variation-based method (also Ali et al.), built
//!   on an in-crate Marsaglia–Tsang gamma sampler ([`dist`]).
//! * [`targeted`](mod@targeted) — **measure-targeted synthesis**: produce an ECS matrix whose
//!   (MPH, TDH, TMA) hit prescribed values exactly (up to the stated tolerances),
//!   by combining three facts proved in the paper:
//!   1. the standard form fixes σ₁ = 1 and TMA is a function of the remaining
//!      singular values only (Theorem 2);
//!   2. TMA is invariant under diagonal rescaling (Theorem 1's uniqueness);
//!   3. MPH and TDH are functions of the marginals alone, which a generalized
//!      Sinkhorn balance can set to anything.
//!
//!   So: build a balanced matrix with the target TMA (bisection on a blend
//!   between a rank-1 "no affinity" matrix and a block-identity "full affinity"
//!   matrix), then rebalance it to marginals whose adjacent-ratio homogeneities
//!   are the target MPH and TDH.
//!
//! [`ensemble`] provides deterministic, seed-addressed parallel batch generation
//! for the benchmark sweeps. [`mode`] is the generator table that `hcm
//! generate` and `POST /generate` share, read through [`params::Params`], the
//! one typed parameter reader both front ends implement.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod braun;
pub mod consistency;
pub mod cvb;
pub mod dist;
pub mod ensemble;
pub mod mode;
pub mod params;
pub mod range_based;
pub mod rng;
pub mod targeted;

pub use consistency::{classify, consistency_degree, make_consistent, Consistency};
pub use cvb::{cvb, CvbParams};
pub use range_based::{range_based, RangeParams};
pub use targeted::{synth2x2, targeted, targeted_with_marginals, TargetSpec};
