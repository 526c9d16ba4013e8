//! The classic Braun et al. 2001 benchmark categories (the paper's reference
//! \[6\]): twelve ETC classes crossing heterogeneity regime × consistency class.
//!
//! Naming follows the literature: `u_x_ttmm` where `x ∈ {c, s, i}` (consistent,
//! semi-consistent, inconsistent) and `tt`/`mm` ∈ {hi, lo} are task/machine
//! heterogeneity. Semi-consistency sorts the even-indexed machine columns.

use crate::consistency::make_partially_consistent;
use crate::range_based::{range_based, RangeParams};
use hc_core::ecs::Etc;
use hc_core::error::MeasureError;

/// Heterogeneity regime for one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Het {
    /// High heterogeneity.
    Hi,
    /// Low heterogeneity.
    Lo,
}

/// Consistency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyClass {
    /// Rows fully sorted (global machine order).
    Consistent,
    /// Even-indexed columns sorted, odd columns untouched.
    SemiConsistent,
    /// No sorting.
    Inconsistent,
}

/// One of the twelve benchmark categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BraunCategory {
    /// Consistency class.
    pub class: ConsistencyClass,
    /// Task heterogeneity.
    pub task_het: Het,
    /// Machine heterogeneity.
    pub machine_het: Het,
}

impl BraunCategory {
    /// The literature's `u_x_tttmm` name.
    pub fn name(&self) -> String {
        let x = match self.class {
            ConsistencyClass::Consistent => 'c',
            ConsistencyClass::SemiConsistent => 's',
            ConsistencyClass::Inconsistent => 'i',
        };
        let tt = match self.task_het {
            Het::Hi => "hi",
            Het::Lo => "lo",
        };
        let mm = match self.machine_het {
            Het::Hi => "hi",
            Het::Lo => "lo",
        };
        format!("u_{x}_{tt}{mm}")
    }
}

/// All twelve categories in the canonical order.
pub fn all_categories() -> Vec<BraunCategory> {
    let mut out = Vec::with_capacity(12);
    for class in [
        ConsistencyClass::Consistent,
        ConsistencyClass::SemiConsistent,
        ConsistencyClass::Inconsistent,
    ] {
        for task_het in [Het::Hi, Het::Lo] {
            for machine_het in [Het::Hi, Het::Lo] {
                out.push(BraunCategory {
                    class,
                    task_het,
                    machine_het,
                });
            }
        }
    }
    out
}

/// Generates one ETC matrix of the given category (range-based base with the
/// literature's classic ranges: task 3000/100, machine 1000/10).
pub fn braun(
    category: BraunCategory,
    tasks: usize,
    machines: usize,
    seed: u64,
) -> Result<Etc, MeasureError> {
    let r_task = match category.task_het {
        Het::Hi => 3000.0,
        Het::Lo => 100.0,
    };
    let r_mach = match category.machine_het {
        Het::Hi => 1000.0,
        Het::Lo => 10.0,
    };
    let base = range_based(
        &RangeParams {
            tasks,
            machines,
            r_task,
            r_mach,
        },
        seed,
    )?;
    let raw = base.matrix();
    let shaped = match category.class {
        ConsistencyClass::Inconsistent => raw.clone(),
        ConsistencyClass::Consistent => {
            let all: Vec<usize> = (0..machines).collect();
            make_partially_consistent(raw, &all)?
        }
        ConsistencyClass::SemiConsistent => {
            let evens: Vec<usize> = (0..machines).step_by(2).collect();
            make_partially_consistent(raw, &evens)?
        }
    };
    Etc::new(shaped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::{classify, Consistency};
    use hc_core::measures::{mph, tdh};
    use hc_core::standard::tma;

    #[test]
    fn twelve_categories_with_unique_names() {
        let cats = all_categories();
        assert_eq!(cats.len(), 12);
        let mut names: Vec<String> = cats.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert!(names.contains(&"u_c_hihi".to_string()));
        assert!(names.contains(&"u_i_lolo".to_string()));
        assert!(names.contains(&"u_s_hilo".to_string()));
    }

    #[test]
    fn consistency_classes_realized() {
        for cat in all_categories() {
            let etc = braun(cat, 10, 6, 7).unwrap();
            let got = classify(etc.matrix());
            match cat.class {
                ConsistencyClass::Consistent => {
                    assert_eq!(got, Consistency::Consistent, "{}", cat.name())
                }
                ConsistencyClass::SemiConsistent => {
                    assert_ne!(got, Consistency::Inconsistent, "{}", cat.name())
                }
                ConsistencyClass::Inconsistent => {
                    // Random range-based matrices of this size are essentially
                    // never globally consistent.
                    assert_ne!(got, Consistency::Consistent, "{}", cat.name())
                }
            }
        }
    }

    #[test]
    fn heterogeneity_axes_move_the_measures() {
        let avg = |cat: BraunCategory, f: &dyn Fn(&hc_core::Ecs) -> f64| -> f64 {
            (0..16)
                .map(|s| f(&braun(cat, 10, 6, s).unwrap().to_ecs()))
                .sum::<f64>()
                / 16.0
        };
        let hi_task = BraunCategory {
            class: ConsistencyClass::Inconsistent,
            task_het: Het::Hi,
            machine_het: Het::Lo,
        };
        let lo_task = BraunCategory {
            task_het: Het::Lo,
            ..hi_task
        };
        assert!(
            avg(hi_task, &|e| tdh(e).unwrap()) < avg(lo_task, &|e| tdh(e).unwrap()),
            "high task heterogeneity must lower TDH"
        );
        let hi_mach = BraunCategory {
            class: ConsistencyClass::Inconsistent,
            task_het: Het::Lo,
            machine_het: Het::Hi,
        };
        let lo_mach = BraunCategory {
            machine_het: Het::Lo,
            ..hi_mach
        };
        assert!(
            avg(hi_mach, &|e| mph(e).unwrap()) < avg(lo_mach, &|e| mph(e).unwrap()),
            "high machine heterogeneity must lower MPH"
        );
    }

    #[test]
    fn consistent_categories_have_lower_tma() {
        let avg_tma = |class: ConsistencyClass| -> f64 {
            (0..12)
                .map(|s| {
                    let cat = BraunCategory {
                        class,
                        task_het: Het::Hi,
                        machine_het: Het::Hi,
                    };
                    tma(&braun(cat, 10, 6, s).unwrap().to_ecs()).unwrap()
                })
                .sum::<f64>()
                / 12.0
        };
        let c = avg_tma(ConsistencyClass::Consistent);
        let i = avg_tma(ConsistencyClass::Inconsistent);
        let s = avg_tma(ConsistencyClass::SemiConsistent);
        assert!(c < i, "consistent TMA {c} must be below inconsistent {i}");
        assert!(c <= s && s <= i + 1e-9, "semi {s} between {c} and {i}");
    }

    #[test]
    fn deterministic() {
        let cat = all_categories()[0];
        let a = braun(cat, 6, 4, 3).unwrap();
        let b = braun(cat, 6, 4, 3).unwrap();
        assert_eq!(a.matrix(), b.matrix());
    }
}
