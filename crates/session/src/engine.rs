//! The incremental recompute engine behind a live session.
//!
//! A [`SessionEngine`] owns one ECS environment plus the *warm state* left by
//! the previous analysis — the Sinkhorn scaling vectors `D₁/D₂` and the SVD of
//! the standard form. After an edit, [`SessionEngine::recompute`] seeds both
//! solvers from that state:
//!
//! * Sinkhorn restarts from `diag(D₁)·A'·diag(D₂)` (the `prior` argument of
//!   [`hc_sinkhorn::balance::standardize_in`]) — for a small perturbation `A'`
//!   of the previously balanced matrix this is already near the fixed point.
//! * The SVD restarts one-sided Jacobi from the prior right singular vectors
//!   (see [`hc_linalg::svd::svd_warm_stats_budgeted_in`]) — the seeded working
//!   matrix has near-orthogonal columns, so one or two sweeps suffice where a
//!   cold run needs a full Golub–Reinsch factorization.
//!
//! **Fallback criterion:** the warm path must clear exactly the tolerances the
//! cold path uses — the balance must report [`BalanceStatus::Converged`] under
//! the same `tol`, and the warm SVD must pass the same orthogonality audit. If
//! either fails, the engine silently recomputes cold and increments the
//! `session_warm_fallback_total` counter, so a warm answer is never *less*
//! converged than a cold one. The whole warm attempt is additionally
//! panic-isolated (`catch_unwind`): a panic inside it — chaos-injected via
//! `HC_FAILPOINT=sinkhorn.iteration:panic:N`, or a real bug — is another
//! fallback, never a failed request. Matrices with zeros always take the cold path
//! (their standard form may only exist as a limit; warm seeding has no theory
//! there).
//!
//! **Size cutover:** fewer iterations is not the same as less wall time. A
//! warm Jacobi sweep is O(n³) against Golub–Reinsch's heavily-optimized
//! bidiagonalization, so past a matrix size the warm path *loses* wall time
//! despite saving 100×+ combined iterations (measured: ~1.8–2× slower at
//! 256×256 and 512×512, `session_warm_vs_cold` in the bench snapshots).
//! Matrices above [`DEFAULT_WARM_CUTOVER_CELLS`] therefore skip the warm
//! attempt entirely and run cold; each skip is counted in
//! `session_warm_cutover_total` (a sibling of `session_warm_fallback_total`)
//! and flagged in [`RecomputeStats::cutover`].

use hc_core::ecs::Ecs;
use hc_core::error::MeasureError;
use hc_core::measures::{
    adjacent_ratio_homogeneity_in, machine_performances_in, task_difficulties_in,
};
use hc_core::report::{characterize_in, MeasureReport};
use hc_core::standard::TmaOptions;
use hc_core::weights::Weights;
use hc_linalg::svd::{svd_warm_stats_budgeted_in, svd_with_stats_budgeted_in, Svd};
use hc_linalg::{Budget, LinAlgError, Workspace};
use hc_sinkhorn::balance::{standardize_in, BalanceOutcome, BalanceStatus};

/// Matrices with more cells than this run cold even when a warm prior exists.
///
/// Chosen from the `session_warm_vs_cold` bench lane: warm wins wall time at
/// 64×64 (4 096 cells, ~2.7× faster) and loses it from 256×256 up (65 536
/// cells, ~1.8× slower), so the cutover sits at 128×128. Override per engine
/// with [`SessionEngine::with_warm_cutover`] (`usize::MAX` disables).
pub const DEFAULT_WARM_CUTOVER_CELLS: usize = 16_384;

/// How a [`SessionEngine::recompute`] call did its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecomputeStats {
    /// Sinkhorn iterations the standardization took.
    pub sinkhorn_iterations: usize,
    /// SVD iterations (Jacobi sweeps or Golub–Reinsch QR steps).
    pub svd_iterations: usize,
    /// `true` when the warm-started path produced the result.
    pub warm: bool,
    /// `true` when the warm path was attempted but failed its convergence
    /// check and the result came from a silent cold recompute.
    pub fallback: bool,
    /// `true` when a warm prior existed but the matrix exceeded the size
    /// cutover, so the warm attempt was skipped on wall-time grounds.
    pub cutover: bool,
}

impl RecomputeStats {
    /// Total solver iterations — the number the `session_warm_vs_cold` bench
    /// lane compares across paths.
    pub fn total_iterations(&self) -> usize {
        self.sinkhorn_iterations + self.svd_iterations
    }
}

/// Warm state carried between recomputes.
struct WarmState {
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,
    svd: Svd,
}

/// A stateful analysis engine for one live session.
pub struct SessionEngine {
    ecs: Ecs,
    weights: Weights,
    opts: TmaOptions,
    ws: Workspace,
    warm: Option<WarmState>,
    force_cold: bool,
    warm_cutover_cells: usize,
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
            warm_cutover_cells: DEFAULT_WARM_CUTOVER_CELLS,
        }
    }

    /// Disables warm starting entirely (every recompute runs cold) — the
    /// control arm for benchmarks and A/B tests.
    pub fn with_force_cold(mut self, force_cold: bool) -> Self {
        self.force_cold = force_cold;
        self
    }

    /// Overrides the warm/cold size cutover (in matrix cells,
    /// tasks × machines). `usize::MAX` disables the cutover — the arm
    /// benchmarks use to measure iteration savings at sizes where wall time
    /// prefers cold.
    pub fn with_warm_cutover(mut self, cells: usize) -> Self {
        self.warm_cutover_cells = cells;
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

    /// Recomputes MPH/TDH/TMA, warm-starting from the previous solve when
    /// possible and falling back to a cold run when the warm path misses the
    /// cold path's convergence tolerances.
    pub fn recompute(
        &mut self,
        budget: Option<&Budget>,
    ) -> Result<(MeasureReport, RecomputeStats), MeasureError> {
        let mut obs = hc_obs::span("session.recompute");
        let cells = self.ecs.num_tasks() * self.ecs.num_machines();
        let over_cutover = cells > self.warm_cutover_cells;
        let warm_possible = !self.force_cold && self.warm.is_some() && self.ecs.is_positive();
        let warm_eligible = warm_possible && !over_cutover;
        // Only count a cutover when the cutover is what blocked an otherwise
        // viable warm start — force_cold/zero/no-prior skips are not cutovers.
        let cutover = warm_possible && over_cutover;
        if cutover {
            hc_obs::obs_counter!("session_warm_cutover_total").inc();
        }
        let mut fallback = false;
        // The warm attempt is opportunistic, so it is panic-isolated like a
        // handler (DESIGN.md §10): a panic inside it — a chaos failpoint such
        // as `sinkhorn.iteration:panic:N`, or a genuine bug — is contained
        // here and becomes a cold fallback, never a failed request. The prior
        // warm state is read-only during the attempt and is only replaced
        // after full success, so catching mid-solve leaves the engine valid.
        let result = if warm_eligible {
            let attempt =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.try_warm(budget)));
            match attempt {
                Ok(Ok(Some(ok))) => Some(ok),
                Ok(Err(e)) => return Err(e),
                Ok(Ok(None)) | Err(_) => {
                    fallback = true;
                    hc_obs::obs_counter!("session_warm_fallback_total").inc();
                    None
                }
            }
        } else {
            None
        };
        let (report, mut stats) = match result {
            Some(ok) => ok,
            None => self.cold(budget)?,
        };
        stats.fallback = fallback;
        stats.cutover = cutover;
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
        hc_obs::recorder::note_u64("session_cutover", u64::from(stats.cutover));
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

    /// Warm path. `Ok(None)` means "fell short of the cold tolerances — run
    /// cold"; hard errors (deadline expiry, invalid input) propagate.
    #[allow(clippy::type_complexity)]
    fn try_warm(
        &mut self,
        budget: Option<&Budget>,
    ) -> Result<Option<(MeasureReport, RecomputeStats)>, MeasureError> {
        let _phase = hc_obs::span("session.warm_solve");
        let prior = self.warm.as_ref().expect("warm_eligible checked");
        let out = match standardize_in(
            self.ecs.matrix().view(),
            Some((&prior.row_scale, &prior.col_scale)),
            &self.opts.balance,
            budget,
            &mut self.ws,
        ) {
            Ok(out) => out,
            Err(LinAlgError::DeadlineExceeded {
                op,
                iterations,
                residual,
            }) => {
                return Err(MeasureError::DeadlineExceeded {
                    op,
                    iterations,
                    residual,
                })
            }
            // Shape changes and the like: the prior no longer applies.
            Err(_) => return Ok(None),
        };
        if !matches!(out.status, BalanceStatus::Converged) {
            out.recycle(&mut self.ws);
            return Ok(None);
        }
        let (svd, sweeps) =
            match svd_warm_stats_budgeted_in(out.matrix.view(), &prior.svd, budget, &mut self.ws) {
                Ok(r) => r,
                Err(LinAlgError::DeadlineExceeded {
                    op,
                    iterations,
                    residual,
                }) => {
                    out.recycle(&mut self.ws);
                    return Err(MeasureError::DeadlineExceeded {
                        op,
                        iterations,
                        residual,
                    });
                }
                Err(_) => {
                    out.recycle(&mut self.ws);
                    return Ok(None);
                }
            };
        let stats = RecomputeStats {
            sinkhorn_iterations: out.iterations,
            svd_iterations: sweeps,
            warm: true,
            ..RecomputeStats::default()
        };
        let report = self.assemble(&out, &svd, budget)?;
        self.store_warm(out, svd);
        Ok(Some((report, stats)))
    }

    /// Cold path: positive matrices drive the solvers directly (so the scaling
    /// vectors and spectrum can be retained as the next warm seed); matrices
    /// with zeros delegate to the standard characterize pipeline and leave no
    /// warm state.
    fn cold(
        &mut self,
        budget: Option<&Budget>,
    ) -> Result<(MeasureReport, RecomputeStats), MeasureError> {
        let _phase = hc_obs::span("session.cold_solve");
        if !self.ecs.is_positive() {
            self.clear_warm();
            let report =
                characterize_in(&self.ecs, &self.weights, &self.opts, budget, &mut self.ws)?;
            let stats = RecomputeStats {
                sinkhorn_iterations: report.standardization_iterations,
                ..RecomputeStats::default()
            };
            return Ok((report, stats));
        }
        let out = standardize_in(
            self.ecs.matrix().view(),
            None,
            &self.opts.balance,
            budget,
            &mut self.ws,
        )?;
        if !out.is_converged() {
            let err = MeasureError::BalanceDidNotConverge {
                residual: out.residual,
                iterations: out.iterations,
            };
            out.recycle(&mut self.ws);
            return Err(err);
        }
        let (svd, svd_iterations) = match svd_with_stats_budgeted_in(
            out.matrix.view(),
            self.opts.svd,
            budget,
            &mut self.ws,
        ) {
            Ok(r) => r,
            Err(e) => {
                out.recycle(&mut self.ws);
                return Err(e.into());
            }
        };
        let stats = RecomputeStats {
            sinkhorn_iterations: out.iterations,
            svd_iterations,
            ..RecomputeStats::default()
        };
        let report = self.assemble(&out, &svd, budget)?;
        self.store_warm(out, svd);
        Ok((report, stats))
    }

    /// MPH/TDH/TMA from a converged standard form and its SVD — the same
    /// arithmetic as [`characterize_in`], just with the solver outputs
    /// kept alive for the next warm start.
    fn assemble(
        &mut self,
        out: &BalanceOutcome,
        svd: &Svd,
        budget: Option<&Budget>,
    ) -> Result<MeasureReport, MeasureError> {
        if let Some(b) = budget {
            b.check("session-measures", 0, f64::NAN)?;
        }
        let mp = machine_performances_in(&self.ecs, &self.weights, &mut self.ws)?;
        let td = task_difficulties_in(&self.ecs, &self.weights, &mut self.ws)?;
        let mph = adjacent_ratio_homogeneity_in(&mp, &mut self.ws)?;
        let tdh = adjacent_ratio_homogeneity_in(&td, &mut self.ws)?;
        let k = svd.singular_values.len();
        let tma = if k <= 1 {
            0.0
        } else {
            let sum: f64 = svd.singular_values[1..].iter().sum();
            (sum / (k - 1) as f64).clamp(0.0, 1.0)
        };
        Ok(MeasureReport {
            mph,
            tdh,
            tma,
            machine_performances: mp,
            task_difficulties: td,
            standardization_iterations: out.iterations,
            regularized: false,
            reduced_to_core: false,
        })
    }

    /// Replaces the warm state with a fresh solve's outputs, recycling the
    /// displaced buffers and the balanced matrix (only the scalings and the
    /// spectrum are needed for seeding).
    fn store_warm(&mut self, out: BalanceOutcome, svd: Svd) {
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
            svd,
        });
    }

    fn clear_warm(&mut self) {
        if let Some(w) = self.warm.take() {
            self.ws.recycle_vec(w.row_scale);
            self.ws.recycle_vec(w.col_scale);
            w.svd.recycle(&mut self.ws);
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
            assert!(
                ws.total_iterations() < cs.total_iterations(),
                "warm {} vs cold {} at step {step}",
                ws.total_iterations(),
                cs.total_iterations()
            );
        }
    }

    #[test]
    fn size_cutover_skips_warm_and_counts_it() {
        // 8×8 = 64 cells with a cutover at 32: a warm prior exists, but the
        // second recompute must run cold on wall-time grounds and say why.
        let mut eng = SessionEngine::new(fixture(8, 8)).with_warm_cutover(32);
        let (_, s0) = eng.recompute(None).unwrap();
        assert!(!s0.warm);
        // First solve had no prior: big, but not a cutover.
        assert!(!s0.cutover);
        eng.set(1, 1, 3.0).unwrap();
        let before = hc_obs::metrics::counter_value("session_warm_cutover_total").unwrap_or(0);
        let (report, s1) = eng.recompute(None).unwrap();
        assert!(s1.cutover, "prior + oversize must flag the cutover");
        assert!(!s1.warm);
        assert!(!s1.fallback, "a cutover is not a fallback");
        let after = hc_obs::metrics::counter_value("session_warm_cutover_total").unwrap_or(0);
        assert!(after > before, "cutover counter must tick");
        // The cold result is still correct.
        let expect = hc_core::report::characterize(eng.ecs()).unwrap();
        assert!((report.tma - expect.tma).abs() < 1e-9);
        // Raising the cutover re-enables warm starting on the stored prior.
        let mut eng = eng.with_warm_cutover(usize::MAX);
        eng.set(2, 2, 1.25).unwrap();
        let (_, s2) = eng.recompute(None).unwrap();
        assert!(s2.warm && !s2.cutover);
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
