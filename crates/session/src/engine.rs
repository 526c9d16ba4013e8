//! The incremental recompute engine behind a live session.
//!
//! A [`SessionEngine`] owns one ECS environment plus the *warm state* left by
//! the previous analysis: the Sinkhorn scaling vectors `D₁/D₂`. Every
//! [`SessionEngine::recompute`] runs one path — optional prior →
//! [`hc_sinkhorn::balance::standardize_in`] → the values-only SVD kernel
//! ([`hc_linalg::svd::spectrum_in`]) → measures. After an
//! edit, Sinkhorn restarts from `diag(D₁)·A'·diag(D₂)` (the `prior`
//! argument): for a small perturbation `A'` of the previously balanced matrix
//! this is already near the fixed point. The spectrum always runs cold; a
//! cold Golub–Reinsch pass beats any warm-started SVD at every session size.
//!
//! **Fallback criterion:** the warm balance must clear exactly the tolerance
//! the cold one uses: it must report
//! [`Converged`](hc_sinkhorn::balance::BalanceStatus::Converged) under the
//! same `tol`. If it does not, the engine silently rebalances cold and
//! increments the `session_warm_fallback_total` counter, so a warm answer is
//! never *less* converged than a cold one. The warm balance is additionally
//! panic-isolated (`catch_unwind`): a panic inside it — chaos-injected via
//! `HC_FAILPOINT=sinkhorn.iteration:panic:N`, or a real bug — is another
//! fallback, never a failed request. Matrices with zeros always take the cold
//! path (their standard form may only exist as a limit; warm seeding has no
//! theory there).

use hc_core::ecs::Ecs;
use hc_core::error::MeasureError;
use hc_core::measures::{
    adjacent_ratio_homogeneity_in, machine_performances_in, task_difficulties_in,
};
use hc_core::report::{characterize_in, MeasureReport};
use hc_core::standard::{tma_of_spectrum, TmaOptions};
use hc_core::weights::Weights;
use hc_linalg::svd::spectrum_in;
use hc_linalg::{Budget, LinAlgError, Workspace};
use hc_sinkhorn::balance::{standardize_in, BalanceOutcome};

/// How a [`SessionEngine::recompute`] call did its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecomputeStats {
    /// Sinkhorn iterations the standardization took.
    pub sinkhorn_iterations: usize,
    /// Bidiagonal-phase iterations the spectrum took: qd transforms under
    /// the default SVD, sweeps under Jacobi.
    pub svd_iterations: usize,
    /// `true` when the standardization started from the previous scalings.
    pub warm: bool,
    /// `true` when the warm balance was attempted but failed its convergence
    /// check and the result came from a silent cold recompute.
    pub fallback: bool,
    /// Always `false`: sessions no longer skip warm starts by size. Kept
    /// for readers of the field.
    pub cutover: bool,
}

/// Warm state carried between recomputes: the Sinkhorn scalings.
struct WarmState {
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,
}

/// A stateful analysis engine for one live session.
pub struct SessionEngine {
    ecs: Ecs,
    weights: Weights,
    opts: TmaOptions,
    ws: Workspace,
    warm: Option<WarmState>,
    force_cold: bool,
}

impl SessionEngine {
    /// Wraps an environment; the first [`SessionEngine::recompute`] is
    /// necessarily cold.
    pub fn new(ecs: Ecs) -> Self {
        let weights = Weights::uniform(ecs.num_tasks(), ecs.num_machines());
        SessionEngine {
            ecs,
            weights,
            opts: TmaOptions::default(),
            ws: Workspace::new(),
            warm: None,
            force_cold: false,
        }
    }

    /// Disables warm starting entirely (every recompute runs cold) — the
    /// control arm for benchmarks and A/B tests.
    pub fn with_force_cold(mut self, force_cold: bool) -> Self {
        self.force_cold = force_cold;
        self
    }

    /// The current environment.
    pub fn ecs(&self) -> &Ecs {
        &self.ecs
    }

    /// Edits one ECS entry in place (see [`Ecs::set`]); the next recompute
    /// picks it up incrementally.
    pub fn set(&mut self, task: usize, machine: usize, value: f64) -> Result<(), MeasureError> {
        self.ecs.set(task, machine, value)
    }

    /// Recomputes MPH/TDH/TMA, warm-starting the standardization from the
    /// previous scalings when possible and falling back to a cold balance
    /// when the warm one misses the cold tolerance.
    pub fn recompute(
        &mut self,
        budget: Option<&Budget>,
    ) -> Result<(MeasureReport, RecomputeStats), MeasureError> {
        let mut obs = hc_obs::span("session.recompute");
        let (report, stats) = if self.ecs.is_positive() {
            self.solve(budget)?
        } else {
            // Zeros: the standard characterize pipeline, and no warm state.
            let _phase = hc_obs::span("session.cold_solve");
            self.clear_warm();
            let report =
                characterize_in(&self.ecs, &self.weights, &self.opts, budget, &mut self.ws)?;
            let stats = RecomputeStats {
                sinkhorn_iterations: report.standardization_iterations,
                ..RecomputeStats::default()
            };
            (report, stats)
        };
        hc_obs::obs_counter!("session_recompute_total").inc();
        if stats.warm {
            hc_obs::obs_counter!("session_recompute_warm_total").inc();
        }
        hc_obs::recorder::note_u64(
            "session_sinkhorn_iterations",
            stats.sinkhorn_iterations as u64,
        );
        hc_obs::recorder::note_u64("session_svd_iterations", stats.svd_iterations as u64);
        hc_obs::recorder::note_u64("session_warm", u64::from(stats.warm));
        if obs.armed() {
            obs.field_u64("tasks", self.ecs.num_tasks() as u64);
            obs.field_u64("machines", self.ecs.num_machines() as u64);
            obs.field_u64("sinkhorn_iterations", stats.sinkhorn_iterations as u64);
            obs.field_u64("svd_iterations", stats.svd_iterations as u64);
            obs.field_bool("warm", stats.warm);
            obs.field_bool("fallback", stats.fallback);
        }
        Ok((report, stats))
    }

    /// The recompute path for a positive matrix: standardize (warm when a
    /// prior exists, cold otherwise or after a fallback), compute the
    /// spectrum, assemble the measures, and keep the new scalings as the next
    /// prior.
    fn solve(
        &mut self,
        budget: Option<&Budget>,
    ) -> Result<(MeasureReport, RecomputeStats), MeasureError> {
        let mut fallback = false;
        let mut warm_out = None;
        if !self.force_cold && self.warm.is_some() {
            // The warm attempt is opportunistic, so it is panic-isolated like
            // a handler (DESIGN.md §10): a panic inside it — a chaos failpoint
            // such as `sinkhorn.iteration:panic:N`, or a genuine bug — is
            // contained here and becomes a cold fallback, never a failed
            // request. The prior is read-only during the attempt and is only
            // replaced after full success, so catching mid-solve leaves the
            // engine valid.
            let _phase = hc_obs::span("session.warm_solve");
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.standardize(true, budget)
            }));
            match attempt {
                Ok(Ok(out)) if out.is_converged() => warm_out = Some(out),
                Ok(Ok(out)) => {
                    out.recycle(&mut self.ws);
                    fallback = true;
                }
                Ok(Err(e @ LinAlgError::DeadlineExceeded { .. })) => return Err(e.into()),
                // Shape changes and the like: the prior no longer applies.
                Ok(Err(_)) | Err(_) => fallback = true,
            }
            if fallback {
                hc_obs::obs_counter!("session_warm_fallback_total").inc();
            }
        }
        let warm = warm_out.is_some();
        let out = match warm_out {
            Some(out) => out,
            None => {
                let _phase = hc_obs::span("session.cold_solve");
                let out = self.standardize(false, budget)?;
                if !out.is_converged() {
                    let err = MeasureError::BalanceDidNotConverge {
                        residual: out.residual,
                        iterations: out.iterations,
                    };
                    out.recycle(&mut self.ws);
                    return Err(err);
                }
                out
            }
        };
        let (sigma, svd_iterations) =
            match spectrum_in(out.matrix.view(), self.opts.svd, budget, &mut self.ws) {
                Ok(r) => r,
                Err(e) => {
                    out.recycle(&mut self.ws);
                    return Err(e.into());
                }
            };
        let stats = RecomputeStats {
            sinkhorn_iterations: out.iterations,
            svd_iterations,
            warm,
            fallback,
            cutover: false,
        };
        let report = self.assemble(&out, &sigma, budget);
        self.ws.recycle_vec(sigma);
        self.store_warm(out);
        Ok((report?, stats))
    }

    /// One Sinkhorn standardization of the current matrix, seeded from the
    /// stored scalings when `warm`.
    fn standardize(
        &mut self,
        warm: bool,
        budget: Option<&Budget>,
    ) -> Result<BalanceOutcome, LinAlgError> {
        let prior = match &self.warm {
            Some(w) if warm => Some((w.row_scale.as_slice(), w.col_scale.as_slice())),
            _ => None,
        };
        standardize_in(
            self.ecs.matrix().view(),
            prior,
            &self.opts.balance,
            budget,
            &mut self.ws,
        )
    }

    /// MPH/TDH/TMA from a converged standard form and its spectrum — the
    /// same arithmetic as [`characterize_in`], just with the balance outcome
    /// kept alive for the next warm start.
    fn assemble(
        &mut self,
        out: &BalanceOutcome,
        sigma: &[f64],
        budget: Option<&Budget>,
    ) -> Result<MeasureReport, MeasureError> {
        if let Some(b) = budget {
            b.check("session-measures", 0, f64::NAN)?;
        }
        let mp = machine_performances_in(&self.ecs, &self.weights, &mut self.ws)?;
        let td = task_difficulties_in(&self.ecs, &self.weights, &mut self.ws)?;
        let mph = adjacent_ratio_homogeneity_in(&mp, &mut self.ws)?;
        let tdh = adjacent_ratio_homogeneity_in(&td, &mut self.ws)?;
        Ok(MeasureReport {
            mph,
            tdh,
            tma: tma_of_spectrum(sigma),
            machine_performances: mp,
            task_difficulties: td,
            standardization_iterations: out.iterations,
            regularized: false,
            reduced_to_core: false,
        })
    }

    /// Replaces the warm state with a fresh balance's scalings, recycling the
    /// displaced buffers and the balanced matrix.
    fn store_warm(&mut self, out: BalanceOutcome) {
        self.clear_warm();
        let BalanceOutcome {
            matrix,
            row_scale,
            col_scale,
            history,
            ..
        } = out;
        self.ws.recycle_matrix(matrix);
        self.ws.recycle_vec(history);
        self.warm = Some(WarmState {
            row_scale,
            col_scale,
        });
    }

    fn clear_warm(&mut self) {
        if let Some(w) = self.warm.take() {
            self.ws.recycle_vec(w.row_scale);
            self.ws.recycle_vec(w.col_scale);
        }
    }

    /// Returns a report's buffers to the engine's workspace (call when the
    /// report is no longer needed and the session will recompute again).
    pub fn recycle_report(&mut self, report: MeasureReport) {
        report.recycle(&mut self.ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::Matrix;

    fn fixture(t: usize, m: usize) -> Ecs {
        Ecs::new(Matrix::from_fn(t, m, |i, j| {
            0.1 + ((i * 131 + j * 31 + 7) % 97) as f64 / 97.0
        }))
        .unwrap()
    }

    #[test]
    fn first_recompute_is_cold_and_matches_characterize() {
        let ecs = fixture(12, 8);
        let expect = hc_core::report::characterize(&ecs).unwrap();
        let mut eng = SessionEngine::new(ecs);
        let (report, stats) = eng.recompute(None).unwrap();
        assert!(!stats.warm);
        assert!(!stats.fallback);
        assert_eq!(report.mph.to_bits(), expect.mph.to_bits());
        assert_eq!(report.tdh.to_bits(), expect.tdh.to_bits());
        assert_eq!(report.tma.to_bits(), expect.tma.to_bits());
        assert_eq!(
            report.standardization_iterations,
            expect.standardization_iterations
        );
    }

    #[test]
    fn warm_recompute_matches_cold_within_tolerance_and_saves_iterations() {
        let ecs = fixture(64, 64);
        let mut warm_eng = SessionEngine::new(ecs.clone());
        let mut cold_eng = SessionEngine::new(ecs).with_force_cold(true);
        warm_eng.recompute(None).unwrap();
        cold_eng.recompute(None).unwrap();

        // A stream of single-cell edits, recomputed after each.
        for (step, (i, j)) in [(3usize, 5usize), (10, 20), (40, 1), (63, 63)]
            .iter()
            .enumerate()
        {
            let v = warm_eng.ecs().get(*i, *j) * (1.0 + 0.01 * (step as f64 + 1.0));
            warm_eng.set(*i, *j, v).unwrap();
            cold_eng.set(*i, *j, v).unwrap();
            let (wr, ws) = warm_eng.recompute(None).unwrap();
            let (cr, cs) = cold_eng.recompute(None).unwrap();
            assert!(ws.warm, "step {step} should be warm");
            assert!(!ws.fallback);
            assert!(!cs.warm);
            // Acceptance criterion: warm measures match cold within the
            // solvers' convergence tolerance (balance tol 1e-8 on marginals
            // bounds the measure difference well below 1e-6).
            assert!(
                (wr.mph - cr.mph).abs() < 1e-9,
                "mph {} vs {}",
                wr.mph,
                cr.mph
            );
            assert!((wr.tdh - cr.tdh).abs() < 1e-9);
            assert!(
                (wr.tma - cr.tma).abs() < 1e-6,
                "tma {} vs {}",
                wr.tma,
                cr.tma
            );
            // The saving is Sinkhorn's: the SVD is not warm-started, and its
            // transform count moves with the last bits of the standard form.
            assert!(
                ws.sinkhorn_iterations < cs.sinkhorn_iterations,
                "warm {} vs cold {} Sinkhorn iterations at step {step}",
                ws.sinkhorn_iterations,
                cs.sinkhorn_iterations
            );
        }
    }

    #[test]
    fn zero_entries_force_cold_path() {
        let ecs = Ecs::from_rows(&[&[1.0, 2.0, 1.0], &[2.0, 1.0, 3.0], &[1.0, 1.0, 2.0]]).unwrap();
        let mut eng = SessionEngine::new(ecs);
        eng.recompute(None).unwrap();
        eng.set(0, 1, 0.0).unwrap();
        let (_, stats) = eng.recompute(None).unwrap();
        assert!(!stats.warm, "matrix with zeros must recompute cold");
        // And back to positive: the next recompute is cold (no warm state was
        // stored for the zero matrix), the one after is warm again.
        eng.set(0, 1, 2.0).unwrap();
        let (_, s1) = eng.recompute(None).unwrap();
        assert!(!s1.warm);
        eng.set(0, 0, 1.5).unwrap();
        let (_, s2) = eng.recompute(None).unwrap();
        assert!(s2.warm);
    }

    #[test]
    fn failpoint_forces_fallback_and_counts_it() {
        // Arm the Sinkhorn iteration failpoint with a panic *after* the warm
        // state exists: the warm balance panics... no — failpoints are
        // process-global; use the budget-free path with an error action
        // instead. The unit-level equivalent of the chaos test: a prior from a
        // *different* shape falls back cleanly.
        let mut eng = SessionEngine::new(fixture(6, 4));
        eng.recompute(None).unwrap();
        // Simulate drift the warm theory does not cover by replacing the
        // environment wholesale behind the same engine (shape change).
        eng.ecs = fixture(5, 3);
        eng.weights = Weights::uniform(5, 3);
        let before = hc_obs::metrics::counter_value("session_warm_fallback_total").unwrap_or(0);
        let (report, stats) = eng.recompute(None).unwrap();
        assert!(stats.fallback, "shape-changed prior must fall back");
        assert!(!stats.warm);
        let after = hc_obs::metrics::counter_value("session_warm_fallback_total").unwrap_or(0);
        assert!(after > before, "fallback counter must tick");
        let expect = hc_core::report::characterize(&fixture(5, 3)).unwrap();
        assert!((report.tma - expect.tma).abs() < 1e-9);
    }

    #[test]
    fn expired_budget_propagates() {
        let mut eng = SessionEngine::new(fixture(8, 8));
        eng.recompute(None).unwrap();
        eng.set(0, 0, 5.0).unwrap();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            eng.recompute(Some(&expired)),
            Err(MeasureError::DeadlineExceeded { .. })
        ));
    }
}
