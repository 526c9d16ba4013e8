//! A steady-state genetic algorithm for static mapping (the GA baseline of the
//! Braun et al. comparison study the paper cites as reference \[6\]).
//!
//! Chromosome = assignment vector. Population seeded with Min-Min plus random
//! valid assignments; tournament selection, uniform crossover, point mutation
//! (reassign one task to a random compatible machine), elitist replacement.
//! Deterministic for a given seed.

use crate::heuristics::{Heuristic, HeuristicKind};
use crate::problem::{MappingProblem, Schedule};
use hc_core::error::MeasureError;
use hc_gen::rng::{Rng, StdRng};

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GaParams {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene crossover probability (uniform crossover).
    pub crossover_rate: f64,
    /// Per-chromosome mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 40,
            generations: 300,
            crossover_rate: 0.5,
            mutation_rate: 0.6,
            tournament: 3,
            seed: 0,
        }
    }
}

/// Runs the GA and returns the best schedule found.
pub fn ga(p: &MappingProblem, params: &GaParams) -> Result<Schedule, MeasureError> {
    if params.population < 2 || params.tournament == 0 {
        return Err(MeasureError::InvalidEnvironment {
            reason: "GA needs population >= 2 and tournament >= 1".into(),
        });
    }
    let mut obs = hc_obs::span("sched.ga");
    let evals_before = crate::problem::makespan_evals_on_thread();
    let t = p.num_tasks();
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Pre-compute compatible machine lists.
    let compat: Vec<Vec<usize>> = (0..t).map(|i| p.compatible_machines(i).collect()).collect();
    for (i, c) in compat.iter().enumerate() {
        if c.is_empty() {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("task {i} has no compatible machine"),
            });
        }
    }
    let random_chrom = |rng: &mut StdRng| -> Vec<usize> {
        (0..t)
            .map(|i| compat[i][rng.gen_range(0..compat[i].len())])
            .collect()
    };

    // Seed population: Min-Min + MCT + randoms.
    let mut pop: Vec<Vec<usize>> = Vec::with_capacity(params.population);
    pop.push(HeuristicKind::MinMin.map(p)?.assignment);
    pop.push(HeuristicKind::Mct.map(p)?.assignment);
    while pop.len() < params.population {
        pop.push(random_chrom(&mut rng));
    }

    let fitness = |chrom: &[usize]| -> f64 {
        Schedule {
            assignment: chrom.to_vec(),
        }
        .makespan(p)
        .expect("chromosomes are valid by construction")
    };
    let mut fit: Vec<f64> = pop.iter().map(|c| fitness(c)).collect();

    let tournament = params.tournament;
    let select = |rng: &mut StdRng, fit: &[f64]| -> usize {
        let mut best = rng.gen_range(0..fit.len());
        for _ in 1..tournament {
            let c = rng.gen_range(0..fit.len());
            if fit[c] < fit[best] {
                best = c;
            }
        }
        best
    };

    for _ in 0..params.generations {
        // Produce one offspring; replace the worst if improved (steady state).
        let a = select(&mut rng, &fit);
        let b = select(&mut rng, &fit);
        let mut child: Vec<usize> = (0..t)
            .map(|i| {
                if rng.gen_bool(params.crossover_rate) {
                    pop[a][i]
                } else {
                    pop[b][i]
                }
            })
            .collect();
        if rng.gen_bool(params.mutation_rate) {
            let i = rng.gen_range(0..t);
            child[i] = compat[i][rng.gen_range(0..compat[i].len())];
        }
        let f = fitness(&child);
        let worst = (0..pop.len())
            .max_by(|&x, &y| fit[x].partial_cmp(&fit[y]).expect("finite"))
            .expect("non-empty");
        if f < fit[worst] {
            pop[worst] = child;
            fit[worst] = f;
        }
    }

    let best = (0..pop.len())
        .min_by(|&x, &y| fit[x].partial_cmp(&fit[y]).expect("finite"))
        .expect("non-empty");
    let evals = crate::problem::makespan_evals_on_thread() - evals_before;
    hc_obs::obs_counter!("sched_heuristic_runs_ga").inc();
    hc_obs::obs_counter!("sched_makespan_evals_ga").add(evals);
    if obs.armed() {
        obs.field_u64("tasks", t as u64);
        obs.field_u64("generations", params.generations as u64);
        obs.field_u64("makespan_evals", evals);
        obs.field_f64("best_makespan", fit[best]);
    }
    Ok(Schedule {
        assignment: pop[best].clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_linalg::Matrix;

    fn problem(rows: &[&[f64]]) -> MappingProblem {
        MappingProblem::new(Matrix::from_rows(rows).unwrap()).unwrap()
    }

    #[test]
    fn ga_never_worse_than_minmin() {
        // Elitist steady state seeded with Min-Min ⇒ result ≤ Min-Min.
        let p = problem(&[
            &[4.0, 1.0, 7.0],
            &[2.0, 6.0, 3.0],
            &[9.0, 2.0, 1.0],
            &[1.0, 8.0, 5.0],
            &[3.0, 3.0, 3.0],
            &[6.0, 2.0, 4.0],
        ]);
        let minmin = HeuristicKind::MinMin.map(&p).unwrap().makespan(&p).unwrap();
        let g = ga(&p, &GaParams::default()).unwrap().makespan(&p).unwrap();
        assert!(g <= minmin + 1e-12, "GA {g} vs Min-Min {minmin}");
    }

    #[test]
    fn ga_finds_optimum_on_tiny_instance() {
        // 2 tasks, 2 machines; optimum splits them: makespan 2.
        let p = problem(&[&[2.0, 5.0], &[5.0, 2.0]]);
        let g = ga(&p, &GaParams::default()).unwrap();
        assert_eq!(g.makespan(&p).unwrap(), 2.0);
    }

    #[test]
    fn ga_deterministic_per_seed() {
        let p = problem(&[&[4.0, 1.0], &[2.0, 6.0], &[9.0, 2.0]]);
        let a = ga(&p, &GaParams::default()).unwrap();
        let b = ga(&p, &GaParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ga_respects_compatibility() {
        let p = problem(&[&[f64::INFINITY, 2.0], &[1.0, f64::INFINITY]]);
        let g = ga(&p, &GaParams::default()).unwrap();
        assert_eq!(g.assignment, vec![1, 0]);
    }

    #[test]
    fn ga_param_validation() {
        let p = problem(&[&[1.0]]);
        assert!(ga(
            &p,
            &GaParams {
                population: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ga(
            &p,
            &GaParams {
                tournament: 0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
