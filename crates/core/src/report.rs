//! One-call characterization of an HC environment.

use crate::ecs::Ecs;
use crate::error::MeasureError;
use crate::measures::{
    adjacent_ratio_homogeneity_in, machine_performances_in, task_difficulties_in,
};
use crate::standard::{standard_form_budgeted_in, tma_from_standard_form, TmaOptions};
use crate::weights::Weights;
use hc_linalg::{Budget, Workspace};

/// The three paper measures plus diagnostics, computed together.
#[derive(Debug, Clone)]
pub struct MeasureReport {
    /// Machine performance homogeneity (Eq. 3), in `(0, 1]`.
    pub mph: f64,
    /// Task difficulty homogeneity (Eq. 7), in `(0, 1]`.
    pub tdh: f64,
    /// Task-machine affinity (Eq. 8), in `[0, 1]`.
    pub tma: f64,
    /// Machine performances `MP_j` in machine order.
    pub machine_performances: Vec<f64>,
    /// Task difficulties `TD_i` in task order.
    pub task_difficulties: Vec<f64>,
    /// Sinkhorn iterations the standard form took.
    pub standardization_iterations: usize,
    /// `true` when TMA was computed through ε-regularization.
    pub regularized: bool,
    /// `true` when TMA was computed on the total-support core (limit form).
    pub reduced_to_core: bool,
}

impl MeasureReport {
    /// Renders the report as a GitHub-flavored markdown table with per-machine
    /// and per-task breakdowns.
    pub fn to_markdown(&self, task_names: &[String], machine_names: &[String]) -> String {
        let mut out = String::from("| measure | value |\n|---|---|\n");
        out.push_str(&format!("| MPH | {:.4} |\n", self.mph));
        out.push_str(&format!("| TDH | {:.4} |\n", self.tdh));
        out.push_str(&format!("| TMA | {:.4} |\n", self.tma));
        out.push_str(&format!(
            "| standardization iterations | {} |\n\n",
            self.standardization_iterations
        ));
        out.push_str("| machine | performance |\n|---|---|\n");
        for (k, v) in self.machine_performances.iter().enumerate() {
            let name = machine_names.get(k).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("| {name} | {v:.6} |\n"));
        }
        out.push_str("\n| task | difficulty |\n|---|---|\n");
        for (k, v) in self.task_difficulties.iter().enumerate() {
            let name = task_names.get(k).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("| {name} | {v:.6} |\n"));
        }
        out
    }

    /// Renders the report as a JSON object, pairing each machine performance and
    /// task difficulty with its name (missing names degrade to `"?"`).
    ///
    /// Non-finite values (which the measures cannot produce, but the raw
    /// per-machine/per-task vectors could in degenerate inputs) serialize as
    /// `null` so the output is always valid JSON.
    pub fn to_json(&self, task_names: &[String], machine_names: &[String]) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        fn named_map(names: &[String], values: &[f64]) -> String {
            let mut out = String::from("{");
            for (k, v) in values.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let name = names.get(k).map(String::as_str).unwrap_or("?");
                out.push_str(&format!("{}:{}", json_string(name), num(*v)));
            }
            out.push('}');
            out
        }
        format!(
            "{{\"mph\":{},\"tdh\":{},\"tma\":{},\
             \"machine_performances\":{},\"task_difficulties\":{},\
             \"standardization_iterations\":{},\"regularized\":{},\"reduced_to_core\":{}}}",
            num(self.mph),
            num(self.tdh),
            num(self.tma),
            named_map(machine_names, &self.machine_performances),
            named_map(task_names, &self.task_difficulties),
            self.standardization_iterations,
            self.regularized,
            self.reduced_to_core,
        )
    }

    /// Renders the report as a compact single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "MPH = {:.2}, TDH = {:.2}, TMA = {:.2} ({} standardization iterations)",
            self.mph, self.tdh, self.tma, self.standardization_iterations
        )
    }

    /// Returns the per-machine/per-task vectors to `ws` so a later
    /// [`characterize_in`] call on the same shape runs without allocations.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_vec(self.machine_performances);
        ws.recycle_vec(self.task_difficulties);
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
///
/// Shared by [`MeasureReport::to_json`] and downstream crates (the HTTP server)
/// that hand-roll JSON without a serialization dependency.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Computes MPH, TDH, and TMA with default options and uniform weights.
///
/// ```
/// use hc_core::ecs::Ecs;
/// use hc_core::report::characterize;
///
/// // A rank-1 (proportional-column) environment: machines differ in speed only.
/// let ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]).unwrap();
/// let r = characterize(&ecs).unwrap();
/// assert!(r.tma < 1e-7);           // no affinity
/// assert!(r.mph > 0.0 && r.mph <= 1.0);
/// ```
pub fn characterize(ecs: &Ecs) -> Result<MeasureReport, MeasureError> {
    characterize_with(
        ecs,
        &Weights::uniform(ecs.num_tasks(), ecs.num_machines()),
        &TmaOptions::default(),
    )
}

std::thread_local! {
    /// Per-thread scratch workspace backing the owned entry points
    /// ([`characterize`] / [`characterize_with`]). Repeated one-shot calls on
    /// a thread reuse the pooled buffers instead of reallocating the full
    /// intermediate set every call; only the per-report output vectors leave
    /// the pool. Callers who want explicit control still use
    /// [`characterize_in`] with their own [`Workspace`].
    static ONE_SHOT_WS: std::cell::RefCell<Workspace> = std::cell::RefCell::new(Workspace::new());
}

/// Computes MPH, TDH, and TMA with explicit weights and TMA options.
///
/// The weights are used for MPH/TDH per Eqs. 4 and 6; TMA sees the entrywise
/// weighted matrix when `opts.weights` is set (note TMA is invariant under
/// diagonal weighting by construction — the standard form quotients it out).
///
/// Runs in a per-thread pooled [`Workspace`], so repeated calls settle into a
/// near-allocation-free steady state; results are bit-identical to a fresh
/// workspace.
pub fn characterize_with(
    ecs: &Ecs,
    weights: &Weights,
    opts: &TmaOptions,
) -> Result<MeasureReport, MeasureError> {
    ONE_SHOT_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => characterize_in(ecs, weights, opts, None, &mut ws),
        // Unreachable today (nothing below re-enters), but a fresh workspace
        // keeps the entry point total rather than panicking if that changes.
        Err(_) => characterize_in(ecs, weights, opts, None, &mut Workspace::new()),
    })
}

/// The characterization kernel: [`characterize_with`] in a caller-supplied
/// workspace. Every intermediate — performance vectors, homogeneity sort
/// scratch, the standard form, and the SVD — is pooled. On a warm workspace
/// (same shape as a previous, recycled report) the whole computation performs
/// zero heap allocations. MPH/TDH are computed from the already-accumulated
/// performance vectors, which is bit-identical to computing them separately.
///
/// `budget` is threaded through the standardization and SVD phases. Expiry
/// surfaces as [`MeasureError::DeadlineExceeded`] with iteration-progress
/// diagnostics; `None` polls nothing and gives bit-identical results.
pub fn characterize_in(
    ecs: &Ecs,
    weights: &Weights,
    opts: &TmaOptions,
    budget: Option<&Budget>,
    ws: &mut Workspace,
) -> Result<MeasureReport, MeasureError> {
    let mut obs = hc_obs::span("core.characterize");
    if let Some(b) = budget {
        b.check("characterize", 0, f64::NAN)?;
    }
    let mp = machine_performances_in(ecs, weights, ws)?;
    let td = task_difficulties_in(ecs, weights, ws)?;
    let mph = adjacent_ratio_homogeneity_in(&mp, ws)?;
    let tdh = adjacent_ratio_homogeneity_in(&td, ws)?;
    let sf = {
        let mut s = hc_obs::span("measure.standardize");
        let sf = standard_form_budgeted_in(ecs, opts, budget, ws)?;
        if s.armed() {
            s.field_u64("iterations", sf.iterations as u64);
            s.field_f64("residual", sf.residual);
            s.field_bool("regularized", sf.regularized);
            s.field_bool("reduced_to_core", sf.reduced_to_core);
        }
        sf
    };
    let tma = {
        let mut s = hc_obs::span("measure.svd");
        let tma = tma_from_standard_form(&sf, opts.svd, budget, ws)?;
        if s.armed() {
            s.field_f64("tma", tma);
        }
        tma
    };
    hc_obs::obs_counter!("core_characterize_total").inc();
    hc_obs::recorder::note_u64("standardization_iterations", sf.iterations as u64);
    if obs.armed() {
        obs.field_u64("tasks", ecs.num_tasks() as u64);
        obs.field_u64("machines", ecs.num_machines() as u64);
        obs.field_f64("mph", mph);
        obs.field_f64("tdh", tdh);
        obs.field_f64("tma", tma);
    }
    let report = MeasureReport {
        mph,
        tdh,
        tma,
        machine_performances: mp,
        task_difficulties: td,
        standardization_iterations: sf.iterations,
        regularized: sf.regularized,
        reduced_to_core: sf.reduced_to_core,
    };
    sf.recycle(ws);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_basic() {
        let ecs = Ecs::from_rows(&[&[2.0, 1.0], &[5.0, 3.0], &[4.0, 2.0], &[6.0, 1.0]]).unwrap();
        let r = characterize(&ecs).unwrap();
        assert!(r.mph > 0.0 && r.mph <= 1.0);
        assert!(r.tdh > 0.0 && r.tdh <= 1.0);
        assert!((0.0..=1.0).contains(&r.tma));
        assert_eq!(r.machine_performances, vec![17.0, 7.0]);
        assert_eq!(r.task_difficulties, vec![3.0, 8.0, 6.0, 7.0]);
        assert!(!r.regularized);
        assert!(!r.reduced_to_core);
        assert!(r.summary().contains("MPH"));
    }

    #[test]
    fn report_matches_individual_measures() {
        let ecs = Ecs::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, 4.0, 2.0], &[0.5, 2.0, 5.0]]).unwrap();
        let r = characterize(&ecs).unwrap();
        assert!((r.mph - crate::measures::mph(&ecs).unwrap()).abs() < 1e-12);
        assert!((r.tdh - crate::measures::tdh(&ecs).unwrap()).abs() < 1e-12);
        assert!((r.tma - crate::standard::tma(&ecs).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn markdown_rendering() {
        let ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let r = characterize(&ecs).unwrap();
        let md = r.to_markdown(ecs.task_names(), ecs.machine_names());
        assert!(md.contains("| MPH |"));
        assert!(md.contains("| t1 |"));
        assert!(md.contains("| m2 |"));
        // Missing names degrade gracefully.
        let partial = r.to_markdown(&[], &[]);
        assert!(partial.contains("| ? |"));
    }

    #[test]
    fn json_rendering() {
        let ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let r = characterize(&ecs).unwrap();
        let j = r.to_json(ecs.task_names(), ecs.machine_names());
        assert!(j.starts_with("{\"mph\":"));
        assert!(j.contains("\"tma\":"));
        assert!(j.contains("\"machine_performances\":{\"m1\":"));
        assert!(j.contains("\"task_difficulties\":{\"t1\":"));
        assert!(j.contains("\"regularized\":false"));
        assert!(j.ends_with('}'));
        // Missing names degrade to "?", still valid JSON keys.
        assert!(r.to_json(&[], &[]).contains("\"?\":"));
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn core_reduction_reported() {
        // Triangular pattern: limit policy reduces to the diagonal core.
        let ecs = Ecs::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let r = characterize(&ecs).unwrap();
        assert!(r.reduced_to_core);
        assert!((r.tma - 1.0).abs() < 1e-7, "limit TMA should be 1");
    }
}
