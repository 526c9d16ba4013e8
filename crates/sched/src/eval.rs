//! Ensemble evaluation: heuristic performance as a function of the heterogeneity
//! measures (the paper's application \[3\] — "selecting appropriate heuristics to
//! use in an HC environment based on its heterogeneity").

use crate::ga::{ga, GaParams};
use crate::heuristics::{Heuristic, HeuristicKind};
use crate::problem::MappingProblem;
use hc_core::ecs::Ecs;
use hc_core::error::MeasureError;
use hc_core::report::characterize;
use hc_linalg::par;

/// Per-heuristic result on one instance.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// Heuristic display name.
    pub name: &'static str,
    /// Achieved makespan.
    pub makespan: f64,
    /// Makespan normalized by the best heuristic on the same instance (1 = won).
    pub relative: f64,
}

/// Results for one environment: its measures and every heuristic's makespan.
#[derive(Debug, Clone)]
pub struct InstanceStudy {
    /// MPH of the environment.
    pub mph: f64,
    /// TDH of the environment.
    pub tdh: f64,
    /// TMA of the environment.
    pub tma: f64,
    /// Per-heuristic outcomes (same order as the heuristic list passed in).
    pub results: Vec<HeuristicResult>,
}

impl InstanceStudy {
    /// Name of the winning heuristic (lowest makespan; first on ties).
    pub fn winner(&self) -> &'static str {
        self.results
            .iter()
            .min_by(|a, b| a.makespan.partial_cmp(&b.makespan).expect("finite"))
            .map(|r| r.name)
            .unwrap_or("-")
    }
}

/// Evaluates the heuristic suite on one environment.
pub fn study_instance(
    ecs: &Ecs,
    heuristics: &[HeuristicKind],
    include_ga: bool,
) -> Result<InstanceStudy, MeasureError> {
    let report = characterize(ecs)?;
    let p = MappingProblem::from_etc(&ecs.to_etc());
    let mut results = Vec::with_capacity(heuristics.len() + usize::from(include_ga));
    for h in heuristics {
        let s = h.map(&p)?;
        results.push(HeuristicResult {
            name: h.name(),
            makespan: s.makespan(&p)?,
            relative: 0.0,
        });
    }
    if include_ga {
        let s = ga(&p, &GaParams::default())?;
        results.push(HeuristicResult {
            name: "GA",
            makespan: s.makespan(&p)?,
            relative: 0.0,
        });
    }
    let best = results
        .iter()
        .map(|r| r.makespan)
        .fold(f64::INFINITY, f64::min);
    for r in &mut results {
        r.relative = r.makespan / best;
    }
    Ok(InstanceStudy {
        mph: report.mph,
        tdh: report.tdh,
        tma: report.tma,
        results,
    })
}

/// Evaluates the suite over an ensemble in parallel (index order preserved).
pub fn study_ensemble(
    envs: &[Ecs],
    heuristics: &[HeuristicKind],
    include_ga: bool,
) -> Vec<Result<InstanceStudy, MeasureError>> {
    par::par_map_indexed(envs.len(), par::num_threads(), |i| {
        study_instance(&envs[i], heuristics, include_ga)
    })
}

/// Win counts per heuristic name over an ensemble.
pub fn win_table(studies: &[InstanceStudy]) -> Vec<(&'static str, usize)> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for s in studies {
        let w = s.winner();
        match names.iter().position(|&n| n == w) {
            Some(k) => counts[k] += 1,
            None => {
                names.push(w);
                counts.push(1);
            }
        }
    }
    let mut out: Vec<(&'static str, usize)> = names.into_iter().zip(counts).collect();
    out.sort_by_key(|w| std::cmp::Reverse(w.1));
    out
}

/// Pearson correlation between a measure extractor and a heuristic's relative
/// makespan over an ensemble (e.g., "does Min-Min's advantage grow with TMA?").
pub fn correlation(
    studies: &[InstanceStudy],
    measure: impl Fn(&InstanceStudy) -> f64,
    heuristic_name: &str,
) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = studies
        .iter()
        .filter_map(|s| {
            let r = s.results.iter().find(|r| r.name == heuristic_name)?;
            Some((measure(s), r.relative))
        })
        .collect();
    if pairs.len() < 3 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::all_heuristics;
    use hc_gen::targeted::{targeted, TargetSpec};

    fn env(tma: f64, seed: u64) -> Ecs {
        targeted(
            &TargetSpec {
                jitter: 0.5,
                ..TargetSpec::exact(10, 4, 0.7, 0.7, tma)
            },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn instance_study_complete() {
        let e = env(0.2, 1);
        let s = study_instance(&e, &all_heuristics(), false).unwrap();
        assert_eq!(s.results.len(), all_heuristics().len());
        assert!(s.results.iter().any(|r| (r.relative - 1.0).abs() < 1e-12));
        assert!(s.results.iter().all(|r| r.relative >= 1.0 - 1e-12));
        assert!((s.tma - 0.2).abs() < 1e-4);
    }

    #[test]
    fn ga_included_when_requested() {
        let e = env(0.1, 2);
        let s = study_instance(&e, &[HeuristicKind::MinMin], true).unwrap();
        assert_eq!(s.results.len(), 2);
        assert_eq!(s.results[1].name, "GA");
        // GA seeded with Min-Min can only match or beat it.
        assert!(s.results[1].makespan <= s.results[0].makespan + 1e-12);
    }

    #[test]
    fn ensemble_study_and_win_table() {
        let envs: Vec<Ecs> = (0..6).map(|s| env(0.15, s)).collect();
        let studies: Vec<InstanceStudy> = study_ensemble(&envs, &all_heuristics(), false)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(studies.len(), 6);
        let wins = win_table(&studies);
        let total: usize = wins.iter().map(|w| w.1).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn correlation_computes() {
        let envs: Vec<Ecs> = [0.0, 0.1, 0.2, 0.3, 0.4]
            .iter()
            .enumerate()
            .map(|(i, &t)| env(t, i as u64))
            .collect();
        let studies: Vec<InstanceStudy> = study_ensemble(&envs, &all_heuristics(), false)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let c = correlation(&studies, |s| s.tma, "MET");
        assert!(c.is_some());
        assert!(c.unwrap().abs() <= 1.0 + 1e-12);
        assert!(correlation(&studies[..2], |s| s.tma, "MET").is_none());
        assert!(correlation(&studies, |s| s.tma, "nope").is_none());
    }
}
