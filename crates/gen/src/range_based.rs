//! The range-based ETC generation method (Ali et al. 2000, the paper's
//! reference \[4\] — "used widely" per the paper's Sec. I).
//!
//! Each task gets a baseline `τ_i ~ U(1, R_task)`; each ETC entry multiplies the
//! baseline by an independent machine factor: `ETC(i, j) = τ_i · U(1, R_mach)`.
//! `R_task` controls task heterogeneity, `R_mach` machine heterogeneity. The
//! classic regimes are LoLo (low/low), LoHi, HiLo, HiHi with ranges around
//! 10/100/3000 in the literature.

use hc_core::ecs::Etc;
use hc_core::error::MeasureError;
use hc_linalg::Matrix;

use crate::rng::{Rng, StdRng};

/// Parameters for the range-based generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeParams {
    /// Number of task types (rows).
    pub tasks: usize,
    /// Number of machines (columns).
    pub machines: usize,
    /// Upper end of the task-baseline range `U(1, r_task)`.
    pub r_task: f64,
    /// Upper end of the machine-factor range `U(1, r_mach)`.
    pub r_mach: f64,
}

impl RangeParams {
    /// The classic low-task/low-machine heterogeneity regime.
    pub fn lo_lo(tasks: usize, machines: usize) -> Self {
        RangeParams {
            tasks,
            machines,
            r_task: 10.0,
            r_mach: 10.0,
        }
    }

    /// Low task, high machine heterogeneity.
    pub fn lo_hi(tasks: usize, machines: usize) -> Self {
        RangeParams {
            tasks,
            machines,
            r_task: 10.0,
            r_mach: 1000.0,
        }
    }

    /// High task, low machine heterogeneity.
    pub fn hi_lo(tasks: usize, machines: usize) -> Self {
        RangeParams {
            tasks,
            machines,
            r_task: 3000.0,
            r_mach: 10.0,
        }
    }

    /// High task, high machine heterogeneity.
    pub fn hi_hi(tasks: usize, machines: usize) -> Self {
        RangeParams {
            tasks,
            machines,
            r_task: 3000.0,
            r_mach: 1000.0,
        }
    }
}

/// Generates an ETC matrix with the range-based method, deterministically from
/// `seed`.
pub fn range_based(params: &RangeParams, seed: u64) -> Result<Etc, MeasureError> {
    if params.tasks == 0 || params.machines == 0 {
        return Err(MeasureError::InvalidEnvironment {
            reason: "range_based requires at least one task and one machine".into(),
        });
    }
    if !(params.r_task >= 1.0 && params.r_mach >= 1.0) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "range_based ranges must be >= 1".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let baselines: Vec<f64> = (0..params.tasks)
        .map(|_| rng.gen_range(1.0..=params.r_task))
        .collect();
    let m = Matrix::from_fn(params.tasks, params.machines, |i, _| {
        baselines[i] * rng.gen_range(1.0..=params.r_mach)
    });
    Etc::new(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::measures::{mph, tdh};

    #[test]
    fn shape_and_positivity() {
        let etc = range_based(&RangeParams::lo_lo(8, 5), 1).unwrap();
        assert_eq!(etc.num_tasks(), 8);
        assert_eq!(etc.num_machines(), 5);
        assert!(etc.matrix().is_positive());
        assert!(etc.matrix().min().unwrap() >= 1.0);
        assert!(etc.matrix().max().unwrap() <= 100.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = range_based(&RangeParams::hi_hi(6, 4), 77).unwrap();
        let b = range_based(&RangeParams::hi_hi(6, 4), 77).unwrap();
        assert_eq!(a.matrix(), b.matrix());
        let c = range_based(&RangeParams::hi_hi(6, 4), 78).unwrap();
        assert!(a.matrix().max_abs_diff(c.matrix()) > 0.0);
    }

    #[test]
    fn regime_heterogeneity_ordering() {
        // Averaged over seeds, HiLo task ranges produce lower TDH (more task
        // heterogeneity) than LoLo; LoHi produces lower MPH than LoLo.
        let n = 24;
        let avg = |p: RangeParams, f: &dyn Fn(&hc_core::Ecs) -> f64| -> f64 {
            (0..n)
                .map(|s| f(&range_based(&p, s).unwrap().to_ecs()))
                .sum::<f64>()
                / n as f64
        };
        let tdh_lolo = avg(RangeParams::lo_lo(10, 6), &|e| tdh(e).unwrap());
        let tdh_hilo = avg(RangeParams::hi_lo(10, 6), &|e| tdh(e).unwrap());
        assert!(
            tdh_hilo < tdh_lolo,
            "high task range must lower TDH: {tdh_hilo} vs {tdh_lolo}"
        );
        let mph_lolo = avg(RangeParams::lo_lo(10, 6), &|e| mph(e).unwrap());
        let mph_lohi = avg(RangeParams::lo_hi(10, 6), &|e| mph(e).unwrap());
        assert!(
            mph_lohi < mph_lolo,
            "high machine range must lower MPH: {mph_lohi} vs {mph_lolo}"
        );
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(range_based(
            &RangeParams {
                tasks: 0,
                machines: 3,
                r_task: 10.0,
                r_mach: 10.0
            },
            0
        )
        .is_err());
        assert!(range_based(
            &RangeParams {
                tasks: 2,
                machines: 2,
                r_task: 0.5,
                r_mach: 10.0
            },
            0
        )
        .is_err());
    }
}
