//! The `heuristic` selector of `hcm schedule` and `POST /schedule`: one
//! value names what runs (`all`, a heuristic such as `min-min` or `kpb=25`,
//! or a search: `ga`, `sa`, `tabu`, `optimal`), and the best of what ran is
//! picked here, so both front ends only render the result.

use hc_core::error::MeasureError;

use crate::exact::{optimal, simulated_annealing, tabu, SaParams, TabuParams};
use crate::ga::{ga, GaParams};
use crate::heuristics::{all_heuristics, Heuristic, HeuristicKind};
use crate::problem::{MappingProblem, Schedule};

/// One schedule a selector value ran.
#[derive(Debug, Clone)]
pub struct Run {
    /// Display name: the heuristic's name, `GA`, `SA`, `Tabu` or `optimal`.
    pub name: &'static str,
    /// The schedule's makespan.
    pub makespan: f64,
    /// The schedule.
    pub schedule: Schedule,
}

/// What a selector value ran, in run order, and which run is best.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Every run, in the order it ran; never empty.
    pub runs: Vec<Run>,
    /// Index into `runs` of the first run with the smallest makespan.
    pub best: usize,
}

/// Runs what `which` selects on `p` and picks the best. `all` runs every
/// heuristic, then GA and SA. Errors are messages: an unknown value, or the
/// first mapping, then the first makespan, that failed.
pub fn select(p: &MappingProblem, which: &str) -> Result<Selection, String> {
    let ran = |name: &'static str, schedule: Result<Schedule, MeasureError>| {
        schedule.map(|s| (name, s)).map_err(|e| e.to_string())
    };
    let ga_run = || ran("GA", ga(p, &GaParams::default()));
    let sa_run = || ran("SA", simulated_annealing(p, &SaParams::default()));
    let schedules = match which {
        "all" => {
            let mut schedules = all_heuristics()
                .into_iter()
                .map(|h| ran(h.name(), h.map(p)))
                .collect::<Result<Vec<_>, _>>()?;
            schedules.push(ga_run()?);
            schedules.push(sa_run()?);
            schedules
        }
        "ga" => vec![ga_run()?],
        "sa" => vec![sa_run()?],
        "tabu" => vec![ran("Tabu", tabu(p, &TabuParams::default()))?],
        "optimal" => vec![ran("optimal", optimal(p, 1e7))?],
        named => {
            let h: HeuristicKind = named.parse()?;
            vec![ran(h.name(), h.map(p))?]
        }
    };
    let runs = schedules
        .into_iter()
        .map(|(name, schedule)| {
            let makespan = schedule.makespan(p).map_err(|e| e.to_string())?;
            Ok(Run {
                name,
                makespan,
                schedule,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut best = 0;
    for (k, run) in runs.iter().enumerate() {
        if run.makespan < runs[best].makespan {
            best = k;
        }
    }
    Ok(Selection { runs, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::Matrix;

    fn problem() -> MappingProblem {
        MappingProblem::new(Matrix::from_rows(&[&[2.0, 8.0], &[6.0, 3.0]]).unwrap()).unwrap()
    }

    #[test]
    fn all_runs_every_heuristic_then_the_searches() {
        let s = select(&problem(), "all").unwrap();
        let names: Vec<&str> = s.runs.iter().map(|r| r.name).collect();
        let heuristics = all_heuristics();
        assert_eq!(names.len(), heuristics.len() + 2);
        assert_eq!(&names[heuristics.len()..], ["GA", "SA"]);
        let smallest = s
            .runs
            .iter()
            .map(|r| r.makespan)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(s.runs[s.best].makespan, smallest);
        assert!(s.runs[..s.best].iter().all(|r| r.makespan > smallest));
    }

    #[test]
    fn one_value_runs_one_schedule() {
        for (which, name) in [
            ("ga", "GA"),
            ("sa", "SA"),
            ("tabu", "Tabu"),
            ("optimal", "optimal"),
            ("min-min", "Min-Min"),
        ] {
            let s = select(&problem(), which).unwrap();
            assert_eq!(s.runs.len(), 1, "{which}");
            assert_eq!((s.best, s.runs[0].name), (0, name), "{which}");
        }
        // t1 → m1 (2), t2 → m2 (3).
        assert_eq!(select(&problem(), "optimal").unwrap().runs[0].makespan, 3.0);
        let err = select(&problem(), "bogus").unwrap_err();
        assert_eq!(err, "bogus".parse::<HeuristicKind>().unwrap_err());
    }
}
