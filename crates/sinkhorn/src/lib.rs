//! # hc-sinkhorn — matrix balancing and zero-structure analysis
//!
//! The TMA measure of Al-Qawasmeh et al. (IPDPS 2011) is defined on the **standard
//! form** of an ECS matrix: a rescaling `D₁·ECS·D₂` whose row sums are all equal and
//! whose column sums are all equal (Theorem 1 of the paper, an extension of Sinkhorn
//! 1964 to rectangular matrices). This crate provides:
//!
//! * [`balance`] — the iterative row/column normalization of the paper's Eq. 9,
//!   generalized to arbitrary positive target marginals, with full convergence
//!   diagnostics (iteration history, stall detection, scaling-divergence detection).
//! * [`structure`] — analysis of the zero pattern that decides *whether* an exact
//!   balancing exists (Sec. VI of the paper): bipartite maximum matching
//!   (Hopcroft–Karp), support and total support tests (Sinkhorn–Knopp 1967),
//!   full-indecomposability tests (Marshall–Olkin 1968), and a coarse
//!   Dulmage–Mendelsohn decomposition.
//! * [`regularized`] — ε-regularized balancing for matrices with zeros, the
//!   extension the paper lists as future work ("evaluating the TMA for ECS matrices
//!   that cannot be row and column normalized").
//!
//! Terminology used throughout (matching Sinkhorn–Knopp):
//!
//! * A square nonnegative matrix has **support** when it has a positive diagonal
//!   (a perfect matching in its bipartite graph).
//! * It has **total support** when *every* positive entry lies on a positive
//!   diagonal. Exact balancing `D₁AD₂` exists iff the matrix has total support.
//! * It is **fully indecomposable** when no row/column permutation brings it to the
//!   block-triangular form of the paper's Eq. 11; this is sufficient (not necessary)
//!   for exact balanceability of the pattern, and implies uniqueness of the scaling.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod balance;
pub mod graph;
pub mod regularized;
pub mod structure;

pub use balance::{
    balance_with, standard_targets, standardize, standardize_in, BalanceOptions, BalanceOutcome,
    BalanceStatus, SweepOrder,
};
pub use structure::{analyze_square, analyze_structure, Balanceability, StructureReport};
