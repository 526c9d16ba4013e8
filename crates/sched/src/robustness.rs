//! Makespan robustness of a schedule against ETC estimation error.
//!
//! The authors' broader research program (the paper's references \[1\], \[11\] and
//! the "robust heterogeneous computing systems" interest noted in the
//! biographies) quantifies how much the ETC estimates can be off before a
//! schedule's makespan guarantee breaks. The standard FePIA-style result for
//! independent-task mapping: with the makespan requirement `makespan ≤ τ` and
//! perturbations measured in the ℓ₂ norm on each machine's assigned-task
//! runtimes, machine `j`'s robustness radius is
//!
//! ```text
//! r_j = (τ − L_j) / √(n_j)
//! ```
//!
//! where `L_j` is its load and `n_j` its task count (the worst-case direction
//! raises all `n_j` runtimes equally), and the schedule's **robustness radius**
//! is `min_j r_j`.

use crate::problem::{MappingProblem, Schedule};
use hc_core::error::MeasureError;

/// Robustness analysis of one schedule against a makespan bound `tau`.
#[derive(Debug, Clone)]
pub struct Robustness {
    /// The makespan requirement the analysis is against.
    pub tau: f64,
    /// Achieved makespan (must be ≤ τ for a meaningful radius).
    pub makespan: f64,
    /// Per-machine radii `(τ − L_j)/√n_j`; `+∞` for idle machines.
    pub per_machine: Vec<f64>,
    /// The schedule's robustness radius `min_j r_j`.
    pub radius: f64,
    /// Index of the critical (radius-determining) machine.
    pub critical_machine: usize,
}

/// Computes the ℓ₂ robustness radius of `schedule` under makespan bound `tau`.
///
/// Errors when `tau` is not finite-positive or the schedule already violates it
/// (the radius would be negative — the guarantee is already broken).
pub fn robustness_radius(
    p: &MappingProblem,
    schedule: &Schedule,
    tau: f64,
) -> Result<Robustness, MeasureError> {
    if !tau.is_finite() || tau <= 0.0 {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("tau must be positive and finite, got {tau}"),
        });
    }
    let loads = schedule.machine_loads(p)?;
    let makespan = loads.iter().copied().fold(0.0_f64, f64::max);
    if makespan > tau {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("schedule makespan {makespan} already exceeds tau {tau}"),
        });
    }
    let mut counts = vec![0usize; p.num_machines()];
    for &j in &schedule.assignment {
        counts[j] += 1;
    }
    let per_machine: Vec<f64> = loads
        .iter()
        .zip(&counts)
        .map(|(&l, &n)| {
            if n == 0 {
                f64::INFINITY
            } else {
                (tau - l) / (n as f64).sqrt()
            }
        })
        .collect();
    let (critical_machine, radius) = per_machine
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite radii"))
        .expect("at least one machine");
    Ok(Robustness {
        tau,
        makespan,
        per_machine,
        radius,
        critical_machine,
    })
}

/// Empirically validates a radius: perturbs the critical machine's assigned
/// runtimes uniformly by `delta/√n_j` each (the worst-case ℓ₂-norm-`delta`
/// direction) and reports the resulting makespan. Used by tests to confirm the
/// analytic radius is tight.
pub fn perturbed_makespan(
    p: &MappingProblem,
    schedule: &Schedule,
    machine: usize,
    delta: f64,
) -> Result<f64, MeasureError> {
    if machine >= p.num_machines() {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("machine {machine} out of range"),
        });
    }
    let n = schedule
        .assignment
        .iter()
        .filter(|&&j| j == machine)
        .count();
    if n == 0 {
        return schedule.makespan(p);
    }
    let per_task = delta / (n as f64).sqrt();
    let loads = schedule.machine_loads(p)?;
    let mut max = 0.0_f64;
    for (j, &l) in loads.iter().enumerate() {
        let adj = if j == machine {
            l + per_task * n as f64
        } else {
            l
        };
        max = max.max(adj);
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::Matrix;

    fn setup() -> (MappingProblem, Schedule) {
        let p = MappingProblem::new(
            Matrix::from_rows(&[&[2.0, 9.0], &[3.0, 9.0], &[9.0, 4.0]]).unwrap(),
        )
        .unwrap();
        // Loads: m0 = 5 (2 tasks), m1 = 4 (1 task).
        let s = Schedule {
            assignment: vec![0, 0, 1],
        };
        (p, s)
    }

    #[test]
    fn radius_formula() {
        let (p, s) = setup();
        let r = robustness_radius(&p, &s, 8.0).unwrap();
        assert_eq!(r.makespan, 5.0);
        // m0: (8-5)/√2 ≈ 2.1213; m1: (8-4)/1 = 4.
        assert!((r.per_machine[0] - 3.0 / 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((r.per_machine[1] - 4.0).abs() < 1e-12);
        assert_eq!(r.critical_machine, 0);
        assert!((r.radius - 3.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn radius_is_tight() {
        // Perturbing the critical machine by exactly the radius reaches τ; by
        // slightly more exceeds it.
        let (p, s) = setup();
        let r = robustness_radius(&p, &s, 8.0).unwrap();
        let at = perturbed_makespan(&p, &s, r.critical_machine, r.radius).unwrap();
        assert!((at - 8.0).abs() < 1e-9, "at radius: {at}");
        let over = perturbed_makespan(&p, &s, r.critical_machine, r.radius * 1.01).unwrap();
        assert!(over > 8.0);
    }

    #[test]
    fn idle_machine_infinite_radius() {
        let p = MappingProblem::new(Matrix::from_rows(&[&[1.0, 5.0]]).unwrap()).unwrap();
        let s = Schedule {
            assignment: vec![0],
        };
        let r = robustness_radius(&p, &s, 10.0).unwrap();
        assert_eq!(r.per_machine[1], f64::INFINITY);
        assert_eq!(r.critical_machine, 0);
    }

    #[test]
    fn violated_bound_rejected() {
        let (p, s) = setup();
        assert!(robustness_radius(&p, &s, 4.0).is_err());
        assert!(robustness_radius(&p, &s, 0.0).is_err());
        assert!(robustness_radius(&p, &s, f64::NAN).is_err());
    }

    #[test]
    fn tighter_tau_smaller_radius() {
        let (p, s) = setup();
        let loose = robustness_radius(&p, &s, 20.0).unwrap().radius;
        let tight = robustness_radius(&p, &s, 6.0).unwrap().radius;
        assert!(tight < loose);
    }

    #[test]
    fn better_schedules_are_more_robust() {
        // Among schedules meeting the same τ, a lower-makespan schedule has a
        // radius at least as large on its critical machine when loads are
        // balanced. Verify with the optimal vs a skewed schedule.
        let p =
            MappingProblem::new(Matrix::from_rows(&[&[2.0, 2.0], &[2.0, 2.0]]).unwrap()).unwrap();
        let balanced = Schedule {
            assignment: vec![0, 1],
        };
        let skewed = Schedule {
            assignment: vec![0, 0],
        };
        let tau = 6.0;
        let rb = robustness_radius(&p, &balanced, tau).unwrap().radius;
        let rs = robustness_radius(&p, &skewed, tau).unwrap().radius;
        assert!(rb > rs, "balanced {rb} vs skewed {rs}");
    }

    #[test]
    fn perturbed_makespan_edge_cases() {
        let (p, s) = setup();
        assert!(perturbed_makespan(&p, &s, 9, 1.0).is_err());
        // Perturbing an idle machine leaves the makespan unchanged.
        let p1 = MappingProblem::new(Matrix::from_rows(&[&[1.0, 5.0]]).unwrap()).unwrap();
        let s1 = Schedule {
            assignment: vec![0],
        };
        assert_eq!(perturbed_makespan(&p1, &s1, 1, 100.0).unwrap(), 1.0);
    }
}
