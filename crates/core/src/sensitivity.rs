//! Per-entry sensitivity analysis of the measures.
//!
//! Answers "which task/machine pair drives this environment's affinity?" and
//! "which entry should improve to homogenize the machines?" — the quantitative
//! version of the paper's what-if application, at the granularity of single ECS
//! entries. Gradients are central finite differences with relative step `h` on
//! each entry (the measures are smooth in the positive entries).

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::measures::adjacent_ratio_homogeneity_in;
use crate::standard::{standard_form_in, tma_from_standard_form, TmaOptions};
use hc_linalg::{Matrix, Workspace};

/// Per-entry gradients of the three measures.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// `d MPH / d ECS(i,j)` scaled by the entry (elasticity-style: response to a
    /// 1% relative change).
    pub mph: Matrix,
    /// `d TDH / d ECS(i,j)`, same scaling.
    pub tdh: Matrix,
    /// `d TMA / d ECS(i,j)`, same scaling.
    pub tma: Matrix,
}

impl SensitivityReport {
    /// The entry with the largest |d TMA| (the affinity driver).
    pub fn tma_driver(&self) -> (usize, usize) {
        argmax_abs(&self.tma)
    }

    /// The entry with the largest |d MPH|.
    pub fn mph_driver(&self) -> (usize, usize) {
        argmax_abs(&self.mph)
    }
}

fn argmax_abs(m: &Matrix) -> (usize, usize) {
    let mut best = (0, 0);
    let mut best_v = -1.0;
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if m[(i, j)].abs() > best_v {
                best_v = m[(i, j)].abs();
                best = (i, j);
            }
        }
    }
    best
}

/// Computes relative-perturbation sensitivities for all three measures.
///
/// `rel_step` is the relative finite-difference step (e.g. `1e-4`); entries are
/// perturbed multiplicatively, so zero entries (incompatibilities) report zero
/// sensitivity rather than being given phantom capability.
pub fn sensitivities(
    ecs: &Ecs,
    opts: &TmaOptions,
    rel_step: f64,
) -> Result<SensitivityReport, MeasureError> {
    let mut ws = Workspace::new();
    sensitivities_in(ecs, opts, rel_step, &mut ws)
}

/// Uniform-weight MPH, TDH, and TMA of `e`, with all scratch drawn from `ws`.
///
/// Weighting by 1.0 is exact in IEEE arithmetic, so homogeneity of the raw
/// row/column sums is bit-identical to `mph()`/`tdh()`.
fn measures_of(
    e: &Ecs,
    opts: &TmaOptions,
    ws: &mut Workspace,
) -> Result<(f64, f64, f64), MeasureError> {
    let m = e.matrix();
    let mut cs = ws.take_vec(m.cols(), 0.0);
    for r in m.row_iter() {
        for (s, &v) in cs.iter_mut().zip(r) {
            *s += v;
        }
    }
    let mph_v = adjacent_ratio_homogeneity_in(&cs, ws)?;
    ws.recycle_vec(cs);
    let mut rs = ws.take_vec(m.rows(), 0.0);
    for (i, r) in m.row_iter().enumerate() {
        rs[i] = r.iter().sum();
    }
    let tdh_v = adjacent_ratio_homogeneity_in(&rs, ws)?;
    ws.recycle_vec(rs);
    let sf = standard_form_in(e, opts, ws)?;
    let tma_v = tma_from_standard_form(&sf, opts.svd, None, ws);
    sf.recycle(ws);
    Ok((mph_v, tdh_v, tma_v?))
}

/// [`sensitivities`] in a caller-supplied workspace.
///
/// One scratch environment is reused across all probes: each probe writes the
/// perturbed entry in place, evaluates the measures, and restores the original
/// value — no per-entry matrix clone or revalidation. Perturbed entries stay
/// strictly positive (`v > 0`, `rel_step < 0.5`), so the skipped `Ecs`
/// validation could never have failed.
pub fn sensitivities_in(
    ecs: &Ecs,
    opts: &TmaOptions,
    rel_step: f64,
    ws: &mut Workspace,
) -> Result<SensitivityReport, MeasureError> {
    if !rel_step.is_finite() || rel_step <= 0.0 || rel_step >= 0.5 {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!("rel_step must be in (0, 0.5), got {rel_step}"),
        });
    }
    let (t, m) = (ecs.num_tasks(), ecs.num_machines());
    let mut d_mph = Matrix::zeros(t, m);
    let mut d_tdh = Matrix::zeros(t, m);
    let mut d_tma = Matrix::zeros(t, m);

    let mut probe = ecs.clone();
    for i in 0..t {
        for j in 0..m {
            let v = ecs.get(i, j);
            if v == 0.0 {
                continue;
            }
            probe.matrix_mut()[(i, j)] = v * (1.0 + rel_step);
            let (mp, tp, ap) = measures_of(&probe, opts, ws)?;
            probe.matrix_mut()[(i, j)] = v * (1.0 - rel_step);
            let (mm_, tm_, am_) = measures_of(&probe, opts, ws)?;
            probe.matrix_mut()[(i, j)] = v;
            // Elasticity: d measure per 100% relative change of the entry.
            let denom = 2.0 * rel_step;
            d_mph[(i, j)] = (mp - mm_) / denom;
            d_tdh[(i, j)] = (tp - tm_) / denom;
            d_tma[(i, j)] = (ap - am_) / denom;
        }
    }
    Ok(SensitivityReport {
        mph: d_mph,
        tdh: d_tdh,
        tma: d_tma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{mph, tdh};
    use crate::standard::tma_with;

    #[test]
    fn single_scratch_matches_clone_per_entry_reference() {
        // The old implementation cloned (and revalidated) the matrix twice per
        // probed entry; the in-place rewrite must reproduce it exactly.
        let e = Ecs::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, 4.0, 2.0], &[0.5, 2.0, 5.0]]).unwrap();
        let opts = TmaOptions::default();
        let h = 1e-4;
        let s = sensitivities(&e, &opts, h).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let v = e.get(i, j);
                let eval = |factor: f64| {
                    let mut mat = e.matrix().clone();
                    mat[(i, j)] = v * factor;
                    let pe = Ecs::new(mat).unwrap();
                    (
                        mph(&pe).unwrap(),
                        tdh(&pe).unwrap(),
                        tma_with(&pe, &opts).unwrap(),
                    )
                };
                let (mp, tp, ap) = eval(1.0 + h);
                let (mm_, tm_, am_) = eval(1.0 - h);
                let denom = 2.0 * h;
                assert_eq!(s.mph[(i, j)], (mp - mm_) / denom, "mph ({i},{j})");
                assert_eq!(s.tdh[(i, j)], (tp - tm_) / denom, "tdh ({i},{j})");
                assert_eq!(s.tma[(i, j)], (ap - am_) / denom, "tma ({i},{j})");
            }
        }
    }

    #[test]
    fn rank_one_has_zero_tma_gradient_structure() {
        // Rank-1 environment: TMA sits at its minimum (0), so the central
        // difference is ~0 everywhere (second-order behaviour at a boundary
        // minimum: both perturbations raise TMA equally).
        let e = Ecs::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-4).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!(
                    s.tma[(i, j)].abs() < 0.2,
                    "rank-1 TMA gradient should be near zero, got {}",
                    s.tma[(i, j)]
                );
            }
        }
    }

    #[test]
    fn tma_elasticities_sum_to_zero_along_rows_and_columns() {
        // TMA is invariant under diagonal scaling, so the directional derivative
        // along "scale one whole row (or column) relatively" vanishes — i.e. the
        // per-entry elasticities sum to ~0 across every row and every column.
        // This is the sharp structural property the sensitivity report must obey.
        let e = Ecs::from_rows(&[&[1.0, 1.1, 0.2], &[1.1, 1.0, 0.2], &[0.3, 0.3, 9.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-4).unwrap();
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| s.tma[(i, j)]).sum();
            assert!(row_sum.abs() < 1e-4, "row {i} elasticity sum {row_sum}");
        }
        for j in 0..3 {
            let col_sum: f64 = (0..3).map(|i| s.tma[(i, j)]).sum();
            assert!(col_sum.abs() < 1e-4, "col {j} elasticity sum {col_sum}");
        }
        // And the gradient is not trivially zero: individual entries do matter.
        assert!(s.tma.max_abs_diff(&Matrix::zeros(3, 3)) > 0.01);
        // The driver accessors return a valid index.
        let (di, dj) = s.tma_driver();
        assert!(di < 3 && dj < 3);
        let (mi, mj) = s.mph_driver();
        assert!(mi < 3 && mj < 3);
    }

    #[test]
    fn mph_gradient_sign_matches_intuition() {
        // Strengthening the weakest machine raises MPH; strengthening the
        // strongest lowers it.
        let e = Ecs::from_rows(&[&[1.0, 4.0], &[1.0, 4.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-4).unwrap();
        assert!(s.mph[(0, 0)] > 0.0, "weak machine entry: {}", s.mph[(0, 0)]);
        assert!(
            s.mph[(0, 1)] < 0.0,
            "strong machine entry: {}",
            s.mph[(0, 1)]
        );
    }

    #[test]
    fn tdh_gradient_sign_matches_intuition() {
        // Making the hardest task easier raises TDH.
        let e = Ecs::from_rows(&[&[1.0, 1.0], &[4.0, 4.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-4).unwrap();
        assert!(s.tdh[(0, 0)] > 0.0, "hard task entry: {}", s.tdh[(0, 0)]);
        assert!(s.tdh[(1, 0)] < 0.0, "easy task entry: {}", s.tdh[(1, 0)]);
    }

    #[test]
    fn zero_entries_report_zero() {
        let e = Ecs::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-4).unwrap();
        assert_eq!(s.tma[(0, 1)], 0.0);
        assert_eq!(s.mph[(0, 1)], 0.0);
    }

    #[test]
    fn bad_step_rejected() {
        let e = Ecs::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(sensitivities(&e, &TmaOptions::default(), 0.0).is_err());
        assert!(sensitivities(&e, &TmaOptions::default(), 0.9).is_err());
        assert!(sensitivities(&e, &TmaOptions::default(), f64::NAN).is_err());
    }

    #[test]
    fn gradient_matches_direct_difference() {
        // Cross-check the central difference against an explicit recomputation.
        let e = Ecs::from_rows(&[&[3.0, 1.0], &[1.0, 4.0]]).unwrap();
        let s = sensitivities(&e, &TmaOptions::default(), 1e-5).unwrap();
        let h = 1e-5;
        let mut up = e.matrix().clone();
        up[(0, 0)] = 3.0 * (1.0 + h);
        let mut dn = e.matrix().clone();
        dn[(0, 0)] = 3.0 * (1.0 - h);
        let g = (mph(&Ecs::new(up).unwrap()).unwrap() - mph(&Ecs::new(dn).unwrap()).unwrap())
            / (2.0 * h);
        assert!((s.mph[(0, 0)] - g).abs() < 1e-9);
    }
}
