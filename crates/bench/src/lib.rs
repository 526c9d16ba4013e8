//! # hc-bench — shared fixtures for the benchmark binaries
//!
//! The `snapshot` bin times the `characterize` pipeline and Sinkhorn balancing
//! over [`ABLATION_SIZES`]; this library crate holds its deterministic inputs
//! so every lane measures computation, not setup.

#![deny(missing_docs)]
#![warn(clippy::all)]

use hc_core::ecs::Ecs;
use hc_linalg::Matrix;

/// Deterministic positive matrix (pseudo-random but seedless — a fixed LCG-style
/// fill) of the given shape, entries in (0.05, 1.05).
pub fn dense_fixture(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.05 + ((i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 1000) as f64 / 1000.0
    })
}

/// A valid ECS environment of the given shape from [`dense_fixture`].
pub fn ecs_fixture(tasks: usize, machines: usize) -> Ecs {
    Ecs::new(dense_fixture(tasks, machines)).expect("positive fixture is valid")
}

/// The sizes used by the scaling ablations.
pub const ABLATION_SIZES: [(usize, usize); 4] = [(17, 5), (32, 32), (64, 64), (128, 64)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_deterministic_and_valid() {
        let a = dense_fixture(10, 7);
        let b = dense_fixture(10, 7);
        assert_eq!(a, b);
        assert!(a.is_positive());
        let e = ecs_fixture(6, 4);
        assert_eq!(e.num_tasks(), 6);
    }
}
