//! A reusable analysis context: one [`Workspace`] threaded through every
//! measure kernel.
//!
//! [`Analyzer`] owns the scratch arena the workspace kernels draw from
//! ([`characterize_in`], [`standard_form_in`], [`sensitivities_in`]) and keeps
//! a cached uniform-weight vector, so steady-state analysis of repeated shapes
//! — the serving daemon's workload — performs zero numeric heap allocations.
//! Results are bit-identical to the one-shot entry points; the only difference
//! is where the buffers come from.

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::report::{characterize_in, MeasureReport};
use crate::sensitivity::{sensitivities_in, SensitivityReport};
use crate::standard::{standard_form_in, StandardForm, TmaOptions};
use crate::weights::Weights;
use hc_linalg::{Budget, Workspace, WorkspaceStats};

/// A long-lived analysis context owning its scratch workspace.
///
/// Intended to live for the duration of a worker thread or CLI invocation:
/// call the analysis methods, serialize or consume the results, then hand the
/// result buffers back via the `recycle_*` methods so the next call on the
/// same shape is allocation-free.
#[derive(Debug, Default)]
pub struct Analyzer {
    ws: Workspace,
    /// Cached uniform weights, rebuilt only when the environment shape changes.
    uniform: Option<((usize, usize), Weights)>,
}

impl Analyzer {
    /// Creates an analyzer with an empty workspace.
    pub fn new() -> Self {
        Analyzer {
            ws: Workspace::new(),
            uniform: None,
        }
    }

    fn uniform_weights(&mut self, t: usize, m: usize) {
        let stale = match &self.uniform {
            Some((shape, _)) => *shape != (t, m),
            None => true,
        };
        if stale {
            self.uniform = Some(((t, m), Weights::uniform(t, m)));
        }
    }

    /// [`crate::report::characterize`]: MPH, TDH, and TMA with uniform weights
    /// and default options, reusing this analyzer's buffers.
    pub fn characterize(&mut self, ecs: &Ecs) -> Result<MeasureReport, MeasureError> {
        self.characterize_with(ecs, None, &TmaOptions::default())
    }

    /// [`crate::report::characterize_with`] reusing this analyzer's buffers.
    /// `weights: None` uses cached uniform weights (no per-call allocation).
    pub fn characterize_with(
        &mut self,
        ecs: &Ecs,
        weights: Option<&Weights>,
        opts: &TmaOptions,
    ) -> Result<MeasureReport, MeasureError> {
        self.characterize_budgeted(ecs, weights, opts, None)
    }

    /// [`Analyzer::characterize_with`] with a cooperative cancellation
    /// [`Budget`] threaded through the standardization and SVD loops. Expiry
    /// surfaces as [`MeasureError::DeadlineExceeded`] with iteration-progress
    /// diagnostics; `budget: None` is exactly the unbudgeted path.
    pub fn characterize_budgeted(
        &mut self,
        ecs: &Ecs,
        weights: Option<&Weights>,
        opts: &TmaOptions,
        budget: Option<&Budget>,
    ) -> Result<MeasureReport, MeasureError> {
        match weights {
            Some(w) => characterize_in(ecs, w, opts, budget, &mut self.ws),
            None => {
                self.uniform_weights(ecs.num_tasks(), ecs.num_machines());
                let (_, w) = self.uniform.as_ref().expect("just cached");
                characterize_in(ecs, w, opts, budget, &mut self.ws)
            }
        }
    }

    /// [`crate::standard::standard_form`] reusing this analyzer's buffers.
    /// Recycle the result with [`Analyzer::recycle_standard_form`].
    pub fn standard_form(
        &mut self,
        ecs: &Ecs,
        opts: &TmaOptions,
    ) -> Result<StandardForm, MeasureError> {
        standard_form_in(ecs, opts, &mut self.ws)
    }

    /// [`crate::sensitivity::sensitivities`] reusing this analyzer's buffers.
    pub fn sensitivity(
        &mut self,
        ecs: &Ecs,
        opts: &TmaOptions,
        rel_step: f64,
    ) -> Result<SensitivityReport, MeasureError> {
        sensitivities_in(ecs, opts, rel_step, &mut self.ws)
    }

    /// Returns a report's buffers to the workspace for reuse.
    pub fn recycle_report(&mut self, report: MeasureReport) {
        report.recycle(&mut self.ws);
    }

    /// Returns a standard form's matrix buffer to the workspace for reuse.
    pub fn recycle_standard_form(&mut self, sf: StandardForm) {
        sf.recycle(&mut self.ws);
    }

    /// Buffer reuse statistics of the underlying workspace.
    pub fn stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Resets the reuse statistics (the pooled buffers are kept).
    pub fn reset_stats(&mut self) {
        self.ws.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{characterize, characterize_with};

    fn sample() -> Ecs {
        Ecs::from_rows(&[&[2.0, 1.0, 3.0], &[5.0, 3.0, 1.0], &[4.0, 2.0, 2.0]]).unwrap()
    }

    #[test]
    fn analyzer_matches_one_shot_path_bitwise() {
        let e = sample();
        let owned = characterize(&e).unwrap();
        let mut an = Analyzer::new();
        let r = an.characterize(&e).unwrap();
        assert_eq!(r.mph.to_bits(), owned.mph.to_bits());
        assert_eq!(r.tdh.to_bits(), owned.tdh.to_bits());
        assert_eq!(r.tma.to_bits(), owned.tma.to_bits());
        assert_eq!(r.machine_performances, owned.machine_performances);
        assert_eq!(r.task_difficulties, owned.task_difficulties);
        assert_eq!(
            r.standardization_iterations,
            owned.standardization_iterations
        );
        an.recycle_report(r);
    }

    #[test]
    fn analyzer_with_explicit_weights_matches() {
        let e = sample();
        let w = Weights::new(vec![2.0, 1.0, 0.5], vec![1.0, 0.25, 3.0]).unwrap();
        let opts = TmaOptions::default();
        let owned = characterize_with(&e, &w, &opts).unwrap();
        let mut an = Analyzer::new();
        let r = an.characterize_with(&e, Some(&w), &opts).unwrap();
        assert_eq!(r.mph.to_bits(), owned.mph.to_bits());
        assert_eq!(r.tma.to_bits(), owned.tma.to_bits());
        assert_eq!(r.machine_performances, owned.machine_performances);
        an.recycle_report(r);
    }

    #[test]
    fn warm_analyzer_characterize_is_allocation_free() {
        let e = sample();
        let mut an = Analyzer::new();
        let cold = an.characterize(&e).unwrap();
        an.recycle_report(cold);
        an.reset_stats();
        let warm = an.characterize(&e).unwrap();
        assert_eq!(
            an.stats().fresh,
            0,
            "warm characterize must draw every buffer from the pool: {:?}",
            an.stats()
        );
        an.recycle_report(warm);
    }

    #[test]
    fn analyzer_survives_shape_changes() {
        let mut an = Analyzer::new();
        for (t, m) in [(2usize, 5usize), (6, 3), (4, 4), (2, 5)] {
            let e = Ecs::new(hc_linalg::Matrix::from_fn(t, m, |i, j| {
                0.5 + ((i * 7 + j * 3) % 9) as f64
            }))
            .unwrap();
            let owned = characterize(&e).unwrap();
            let r = an.characterize(&e).unwrap();
            assert_eq!(r.tma.to_bits(), owned.tma.to_bits(), "shape {t}x{m}");
            an.recycle_report(r);
        }
    }

    #[test]
    fn expired_budget_maps_to_measure_deadline_exceeded() {
        let e = sample();
        let mut an = Analyzer::new();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        match an.characterize_budgeted(&e, None, &TmaOptions::default(), Some(&expired)) {
            Err(MeasureError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous budget produces bit-identical results to the plain path.
        let generous = Budget::with_deadline(std::time::Duration::from_secs(600));
        let plain = an.characterize(&e).unwrap();
        let budgeted = an
            .characterize_budgeted(&e, None, &TmaOptions::default(), Some(&generous))
            .unwrap();
        assert_eq!(plain.tma.to_bits(), budgeted.tma.to_bits());
        an.recycle_report(plain);
        an.recycle_report(budgeted);
    }

    #[test]
    fn analyzer_standard_form_and_sensitivity() {
        let e = sample();
        let mut an = Analyzer::new();
        let opts = TmaOptions::default();
        let sf = an.standard_form(&e, &opts).unwrap();
        let owned = crate::standard::standard_form(&e, &opts).unwrap();
        assert_eq!(sf.matrix, owned.matrix);
        an.recycle_standard_form(sf);
        let s = an.sensitivity(&e, &opts, 1e-4).unwrap();
        let owned_s = crate::sensitivity::sensitivities(&e, &opts, 1e-4).unwrap();
        assert_eq!(s.tma, owned_s.tma);
    }
}
