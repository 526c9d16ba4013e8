//! MPH, TDH, and the alternative homogeneity measures.
//!
//! All measures operate on the ECS representation. MPH (Eq. 3) and TDH (Eq. 7)
//! share one construction — sort the aggregate values ascending and average the
//! ratio of each value to its successor — applied to machine performances (column
//! sums, Eq. 2/4) and task difficulties (row sums, Eq. 6) respectively. Both lie
//! in `(0, 1]`, are invariant to scaling the ECS matrix, and degrade gracefully:
//! a single machine (or task) yields homogeneity 1.
//!
//! Sec. II-D's alternative measures `R` (min/max performance ratio), `G`
//! (geometric mean of adjacent ratios) and `COV` (coefficient of variation,
//! population standard deviation over mean) are provided for the Fig. 2
//! comparison; the paper shows only MPH matches intuition.

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::weights::Weights;
use hc_linalg::Workspace;

/// Machine performances `MP_j` (Eq. 4; Eq. 2 under uniform weights): the weighted
/// column sums of the ECS matrix, in machine order (not sorted).
pub fn machine_performances(ecs: &Ecs, weights: &Weights) -> Result<Vec<f64>, MeasureError> {
    machine_performances_in(ecs, weights, &mut Workspace::new())
}

/// [`machine_performances`] into a workspace-pooled vector; the caller may
/// return it with [`Workspace::recycle_vec`].
pub fn machine_performances_in(
    ecs: &Ecs,
    weights: &Weights,
    ws: &mut Workspace,
) -> Result<Vec<f64>, MeasureError> {
    weights.check(ecs)?;
    let m = ecs.matrix();
    let mut out = ws.take_vec(m.cols(), 0.0);
    for (i, row) in m.row_iter().enumerate() {
        let wt = weights.task()[i];
        for (j, &v) in row.iter().enumerate() {
            out[j] += wt * v;
        }
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o *= weights.machine()[j];
    }
    Ok(out)
}

/// Task difficulties `TD_i` (Eq. 6): the weighted row sums of the ECS matrix, in
/// task order (not sorted). Higher = easier (more of the task completed per time).
pub fn task_difficulties(ecs: &Ecs, weights: &Weights) -> Result<Vec<f64>, MeasureError> {
    task_difficulties_in(ecs, weights, &mut Workspace::new())
}

/// [`task_difficulties`] into a workspace-pooled vector.
pub fn task_difficulties_in(
    ecs: &Ecs,
    weights: &Weights,
    ws: &mut Workspace,
) -> Result<Vec<f64>, MeasureError> {
    weights.check(ecs)?;
    let m = ecs.matrix();
    let mut out = ws.take_vec(m.rows(), 0.0);
    for (i, row) in m.row_iter().enumerate() {
        let s: f64 = row
            .iter()
            .zip(weights.machine())
            .map(|(&v, &wm)| wm * v)
            .sum();
        out[i] = weights.task()[i] * s;
    }
    Ok(out)
}

/// The shared adjacent-ratio homogeneity: sort ascending, average `v[k]/v[k+1]`.
/// Defined as 1 for a single value. All values must be positive.
pub fn adjacent_ratio_homogeneity(values: &[f64]) -> Result<f64, MeasureError> {
    adjacent_ratio_homogeneity_in(values, &mut Workspace::new())
}

/// [`adjacent_ratio_homogeneity`] with the sort scratch drawn from `ws`.
///
/// Uses an unstable in-place sort (no merge buffer); the values are positive
/// and finite, so equal values are bit-identical and the sorted sequence — and
/// with it the adjacent-ratio sum — does not depend on sort stability.
pub fn adjacent_ratio_homogeneity_in(
    values: &[f64],
    ws: &mut Workspace,
) -> Result<f64, MeasureError> {
    if values.is_empty() {
        return Err(MeasureError::InvalidEnvironment {
            reason: "homogeneity of an empty value set".into(),
        });
    }
    if values.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "homogeneity requires positive finite values".into(),
        });
    }
    if values.len() == 1 {
        return Ok(1.0);
    }
    let mut sorted = ws.take_vec_copy(values);
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("validated finite"));
    let sum: f64 = sorted.windows(2).map(|w| w[0] / w[1]).sum();
    let h = sum / (sorted.len() - 1) as f64;
    ws.recycle_vec(sorted);
    Ok(h)
}

/// MPH from a pre-computed machine-performance vector (Eq. 3) — the form used for
/// the Fig. 2 environments, which are specified directly by their performances.
pub fn mph_from_performances(performances: &[f64]) -> Result<f64, MeasureError> {
    adjacent_ratio_homogeneity(performances)
}

/// Machine performance homogeneity (Eq. 3) under uniform weights.
pub fn mph(ecs: &Ecs) -> Result<f64, MeasureError> {
    mph_weighted(ecs, &Weights::uniform(ecs.num_tasks(), ecs.num_machines()))
}

/// Machine performance homogeneity under explicit weights (Eqs. 3 + 4).
pub fn mph_weighted(ecs: &Ecs, weights: &Weights) -> Result<f64, MeasureError> {
    adjacent_ratio_homogeneity(&machine_performances(ecs, weights)?)
}

/// Task difficulty homogeneity (Eq. 7) under uniform weights.
pub fn tdh(ecs: &Ecs) -> Result<f64, MeasureError> {
    tdh_weighted(ecs, &Weights::uniform(ecs.num_tasks(), ecs.num_machines()))
}

/// Task difficulty homogeneity under explicit weights (Eqs. 6 + 7).
pub fn tdh_weighted(ecs: &Ecs, weights: &Weights) -> Result<f64, MeasureError> {
    adjacent_ratio_homogeneity(&task_difficulties(ecs, weights)?)
}

/// Alternative measure `R` (Sec. II-D): ratio of the lowest to the highest
/// machine performance.
pub fn ratio_measure(performances: &[f64]) -> Result<f64, MeasureError> {
    if performances.is_empty() {
        return Err(MeasureError::InvalidEnvironment {
            reason: "R of an empty value set".into(),
        });
    }
    if performances.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "R requires positive finite values".into(),
        });
    }
    let min = performances.iter().copied().fold(f64::INFINITY, f64::min);
    let max = performances.iter().copied().fold(0.0_f64, f64::max);
    Ok(min / max)
}

/// Alternative measure `G` (Sec. II-D): geometric mean of the adjacent
/// performance ratios — always equals `R^(1/(n−1))`, which is exactly why it
/// cannot distinguish the Fig. 2 environments.
pub fn geometric_mean_measure(performances: &[f64]) -> Result<f64, MeasureError> {
    if performances.len() < 2 {
        return Ok(1.0);
    }
    if performances.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "G requires positive finite values".into(),
        });
    }
    let mut sorted = performances.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
    let prod_log: f64 = sorted.windows(2).map(|w| (w[0] / w[1]).ln()).sum();
    Ok((prod_log / (sorted.len() - 1) as f64).exp())
}

/// Alternative measure `COV` (Sec. II-D): population standard deviation over mean
/// (a heterogeneity measure — larger is more heterogeneous).
pub fn cov(values: &[f64]) -> Result<f64, MeasureError> {
    if values.is_empty() {
        return Err(MeasureError::InvalidEnvironment {
            reason: "COV of an empty value set".into(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(MeasureError::InvalidEnvironment {
            reason: "COV requires finite values".into(),
        });
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return Err(MeasureError::InvalidEnvironment {
            reason: "COV undefined for zero mean".into(),
        });
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    Ok(var.sqrt() / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::Matrix;

    /// Figure 2's four example environments (machine performances).
    const ENV1: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
    const ENV2: [f64; 5] = [1.0, 1.0, 1.0, 1.0, 16.0];
    const ENV3: [f64; 5] = [1.0, 16.0, 16.0, 16.0, 16.0];
    const ENV4: [f64; 5] = [1.0, 4.0, 4.0, 4.0, 16.0];

    #[test]
    fn figure2_mph_values() {
        assert!((mph_from_performances(&ENV1).unwrap() - 0.5).abs() < 1e-12);
        assert!((mph_from_performances(&ENV2).unwrap() - 0.765625).abs() < 1e-12);
        assert!((mph_from_performances(&ENV3).unwrap() - 0.765625).abs() < 1e-12);
        assert!((mph_from_performances(&ENV4).unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn figure2_alternative_measures() {
        // R = 1/16 ≈ 0.06 and G = 0.5 for all four environments — they cannot
        // distinguish them, which is the paper's point.
        for env in [&ENV1, &ENV2, &ENV3, &ENV4] {
            assert!((ratio_measure(env).unwrap() - 0.0625).abs() < 1e-12);
            assert!((geometric_mean_measure(env).unwrap() - 0.5).abs() < 1e-12);
        }
        // COV (population): 0.88, 1.5, 0.46, 0.90.
        assert!((cov(&ENV1).unwrap() - 0.88).abs() < 0.005);
        assert!((cov(&ENV2).unwrap() - 1.5).abs() < 1e-12);
        assert!((cov(&ENV3).unwrap() - 0.46).abs() < 0.005);
        assert!((cov(&ENV4).unwrap() - 0.90).abs() < 0.005);
    }

    #[test]
    fn figure2_intuition_ordering() {
        // Env 1 most heterogeneous, envs 2 and 3 equal, env 4 between — only MPH
        // reflects this ordering.
        let m1 = mph_from_performances(&ENV1).unwrap();
        let m2 = mph_from_performances(&ENV2).unwrap();
        let m3 = mph_from_performances(&ENV3).unwrap();
        let m4 = mph_from_performances(&ENV4).unwrap();
        assert!(m1 < m4 && m4 < m2);
        assert!((m2 - m3).abs() < 1e-12);
        // COV violates it: it ranks env2 and env3 differently.
        assert!((cov(&ENV2).unwrap() - cov(&ENV3).unwrap()).abs() > 0.5);
    }

    #[test]
    fn machine_performance_column_sums() {
        let ecs = Ecs::from_rows(&[&[2.0, 1.0], &[5.0, 3.0], &[4.0, 2.0], &[6.0, 1.0]]).unwrap();
        let w = Weights::uniform(4, 2);
        let mp = machine_performances(&ecs, &w).unwrap();
        assert_eq!(mp, vec![17.0, 7.0]);
        let td = task_difficulties(&ecs, &w).unwrap();
        assert_eq!(td, vec![3.0, 8.0, 6.0, 7.0]);
    }

    #[test]
    fn weighted_performances_eq4() {
        let ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let w = Weights::new(vec![2.0, 1.0], vec![1.0, 0.5]).unwrap();
        // MP_1 = 1 * (2*1 + 1*3) = 5; MP_2 = 0.5 * (2*2 + 1*4) = 4.
        let mp = machine_performances(&ecs, &w).unwrap();
        assert_eq!(mp, vec![5.0, 4.0]);
        // TD_1 = 2 * (1*1 + 0.5*2) = 4; TD_2 = 1 * (1*3 + 0.5*4) = 5.
        let td = task_difficulties(&ecs, &w).unwrap();
        assert_eq!(td, vec![4.0, 5.0]);
    }

    #[test]
    fn homogeneous_environment_all_measures_one() {
        let ecs = Ecs::new(Matrix::filled(3, 4, 2.0)).unwrap();
        assert!((mph(&ecs).unwrap() - 1.0).abs() < 1e-12);
        assert!((tdh(&ecs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        let base = Matrix::from_rows(&[&[1.0, 5.0, 2.0], &[3.0, 1.0, 4.0]]).unwrap();
        let a = Ecs::new(base.clone()).unwrap();
        let b = Ecs::new(base.scaled(3600.0)).unwrap(); // seconds → hours scale change
        assert!((mph(&a).unwrap() - mph(&b).unwrap()).abs() < 1e-12);
        assert!((tdh(&a).unwrap() - tdh(&b).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn single_machine_or_task() {
        let one_machine = Ecs::from_rows(&[&[1.0], &[5.0]]).unwrap();
        assert_eq!(mph(&one_machine).unwrap(), 1.0);
        assert!((tdh(&one_machine).unwrap() - 0.2).abs() < 1e-12);
        let one_task = Ecs::from_rows(&[&[1.0, 5.0]]).unwrap();
        assert_eq!(tdh(&one_task).unwrap(), 1.0);
        assert!((mph(&one_task).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mph_bounds() {
        // MPH ∈ (0, 1] always.
        let ecs = Ecs::from_rows(&[&[1e-6, 1.0, 1e6], &[1e-6, 1.0, 1e6]]).unwrap();
        let v = mph(&ecs).unwrap();
        assert!(v > 0.0 && v <= 1.0);
    }

    #[test]
    fn g_equals_r_root() {
        // G = R^(1/(n−1)) identically.
        let vals = [0.3, 2.0, 7.5, 11.0];
        let g = geometric_mean_measure(&vals).unwrap();
        let r = ratio_measure(&vals).unwrap();
        assert!((g - r.powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(adjacent_ratio_homogeneity(&[]).is_err());
        assert!(adjacent_ratio_homogeneity(&[1.0, 0.0]).is_err());
        assert!(adjacent_ratio_homogeneity(&[1.0, -1.0]).is_err());
        assert!(ratio_measure(&[]).is_err());
        assert!(ratio_measure(&[0.0]).is_err());
        assert!(cov(&[]).is_err());
        assert!(cov(&[f64::NAN]).is_err());
        assert!(cov(&[1.0, -1.0]).is_err());
        assert!(geometric_mean_measure(&[0.0, 1.0]).is_err());
        assert_eq!(geometric_mean_measure(&[5.0]).unwrap(), 1.0);
    }

    #[test]
    fn workspace_variants_match_owned() {
        let ecs = Ecs::from_rows(&[&[2.0, 1.0], &[5.0, 3.0], &[4.0, 2.0]]).unwrap();
        let w = Weights::new(vec![2.0, 1.0, 0.5], vec![1.0, 0.25]).unwrap();
        let mut ws = Workspace::new();
        let mp = machine_performances_in(&ecs, &w, &mut ws).unwrap();
        assert_eq!(mp, machine_performances(&ecs, &w).unwrap());
        let td = task_difficulties_in(&ecs, &w, &mut ws).unwrap();
        assert_eq!(td, task_difficulties(&ecs, &w).unwrap());
        assert_eq!(
            adjacent_ratio_homogeneity_in(&mp, &mut ws).unwrap(),
            adjacent_ratio_homogeneity(&mp).unwrap()
        );
        ws.recycle_vec(mp);
        ws.recycle_vec(td);
    }

    #[test]
    fn order_independence() {
        // MPH sorts internally: permuting machines does not change it.
        let a = Ecs::from_rows(&[&[1.0, 9.0, 3.0], &[2.0, 1.0, 4.0]]).unwrap();
        let b = Ecs::from_rows(&[&[3.0, 1.0, 9.0], &[4.0, 2.0, 1.0]]).unwrap();
        assert!((mph(&a).unwrap() - mph(&b).unwrap()).abs() < 1e-12);
    }
}
