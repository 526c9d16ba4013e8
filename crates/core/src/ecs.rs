//! ETC and ECS matrix types.
//!
//! The paper's Eq. 1: `ECS(i, j) = 1 / ETC(i, j)`. An infinite ETC entry (task
//! type `i` cannot run on machine `j`) maps to an ECS entry of 0 and vice versa.
//! Both matrices are nonnegative; the model excludes all-zero ECS rows (a task no
//! machine can run) and all-zero ECS columns (a machine that can run nothing).

use crate::error::MeasureError;
use hc_linalg::Matrix;

/// An estimated-time-to-compute matrix: `etc[(i, j)]` is the time task type `i`
/// takes on machine `j` when run alone. Entries are positive; `f64::INFINITY`
/// marks an incompatible (task, machine) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Etc {
    matrix: Matrix,
    task_names: Vec<String>,
    machine_names: Vec<String>,
}

/// An estimated-computation-speed matrix (entrywise reciprocal of an [`Etc`]):
/// `ecs[(i, j)]` is the amount of task type `i` completed per unit time on
/// machine `j`. Entries are nonnegative; 0 marks an incompatible pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecs {
    matrix: Matrix,
    task_names: Vec<String>,
    machine_names: Vec<String>,
}

fn default_task_names(t: usize) -> Vec<String> {
    (1..=t).map(|i| format!("t{i}")).collect()
}

fn default_machine_names(m: usize) -> Vec<String> {
    (1..=m).map(|j| format!("m{j}")).collect()
}

fn validate_names(
    matrix: &Matrix,
    task_names: &[String],
    machine_names: &[String],
) -> Result<(), MeasureError> {
    if task_names.len() != matrix.rows() || machine_names.len() != matrix.cols() {
        return Err(MeasureError::InvalidEnvironment {
            reason: format!(
                "label counts ({} tasks, {} machines) do not match the {}x{} matrix",
                task_names.len(),
                machine_names.len(),
                matrix.rows(),
                matrix.cols()
            ),
        });
    }
    check_names(task_names, "task")?;
    check_names(machine_names, "machine")
}

/// Rejects a name holding a line break, which fits on no CSV line, and a
/// repeated name, naming it and the 1-based positions of its first two
/// occurrences. Two empty names are a repeat too.
fn check_names(names: &[String], axis: &'static str) -> Result<(), MeasureError> {
    let mut seen = std::collections::HashMap::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        if name.contains('\n') {
            return Err(MeasureError::NameWithLineBreak {
                axis,
                name: name.clone(),
                position: i + 1,
            });
        }
        if let Some(first) = seen.insert(name.as_str(), i) {
            return Err(MeasureError::DuplicateName {
                axis,
                name: name.clone(),
                positions: (first + 1, i + 1),
            });
        }
    }
    Ok(())
}

impl Etc {
    /// Builds an ETC matrix. Entries must be positive (possibly `+∞`); every task
    /// must be runnable on at least one machine and every machine must run at
    /// least one task.
    pub fn new(matrix: Matrix) -> Result<Self, MeasureError> {
        let t = matrix.rows();
        let m = matrix.cols();
        Self::with_names(matrix, default_task_names(t), default_machine_names(m))
    }

    /// Builds an ETC matrix with explicit task and machine labels.
    pub fn with_names(
        matrix: Matrix,
        task_names: Vec<String>,
        machine_names: Vec<String>,
    ) -> Result<Self, MeasureError> {
        if matrix.is_empty() {
            return Err(MeasureError::InvalidEnvironment {
                reason: "ETC matrix is empty".into(),
            });
        }
        validate_names(&matrix, &task_names, &machine_names)?;
        for i in 0..matrix.rows() {
            for j in 0..matrix.cols() {
                let v = matrix[(i, j)];
                if v.is_nan() || v <= 0.0 {
                    return Err(MeasureError::InvalidEnvironment {
                        reason: format!("ETC({i}, {j}) = {v}; entries must be positive or +inf"),
                    });
                }
            }
        }
        for i in 0..matrix.rows() {
            if (0..matrix.cols()).all(|j| matrix[(i, j)].is_infinite()) {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("task type {i} cannot run on any machine (all-infinite row)"),
                });
            }
        }
        for j in 0..matrix.cols() {
            if (0..matrix.rows()).all(|i| matrix[(i, j)].is_infinite()) {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("machine {j} cannot run any task (all-infinite column)"),
                });
            }
        }
        Ok(Etc {
            matrix,
            task_names,
            machine_names,
        })
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Number of task types `T`.
    pub fn num_tasks(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of machines `M`.
    pub fn num_machines(&self) -> usize {
        self.matrix.cols()
    }

    /// Task labels.
    pub fn task_names(&self) -> &[String] {
        &self.task_names
    }

    /// Machine labels.
    pub fn machine_names(&self) -> &[String] {
        &self.machine_names
    }

    /// Converts to the ECS representation (Eq. 1): `ECS = 1/ETC`, `∞ ↦ 0`.
    pub fn to_ecs(&self) -> Ecs {
        self.clone().into_ecs(false)
    }

    /// [`Etc::to_ecs`] in this matrix's own buffer, with the names moved.
    /// With `speeds` the entries already are speeds (a file read with
    /// `--ecs`), so only `∞ ↦ 0`; the result then holds every
    /// [`Ecs::with_names`] invariant, since positive-or-∞ entries with no
    /// all-∞ row or column become finite nonnegative ones with no all-zero
    /// row or column.
    pub fn into_ecs(mut self, speeds: bool) -> Ecs {
        self.matrix.map_inplace(|v| {
            if v.is_infinite() {
                0.0
            } else if speeds {
                v
            } else {
                1.0 / v
            }
        });
        Ecs {
            matrix: self.matrix,
            task_names: self.task_names,
            machine_names: self.machine_names,
        }
    }
}

impl Ecs {
    /// Builds an ECS matrix. Entries must be finite and nonnegative; no all-zero
    /// row or column.
    pub fn new(matrix: Matrix) -> Result<Self, MeasureError> {
        let t = matrix.rows();
        let m = matrix.cols();
        Self::with_names(matrix, default_task_names(t), default_machine_names(m))
    }

    /// Builds an ECS matrix with explicit labels.
    pub fn with_names(
        matrix: Matrix,
        task_names: Vec<String>,
        machine_names: Vec<String>,
    ) -> Result<Self, MeasureError> {
        if matrix.is_empty() {
            return Err(MeasureError::InvalidEnvironment {
                reason: "ECS matrix is empty".into(),
            });
        }
        validate_names(&matrix, &task_names, &machine_names)?;
        if let Some((i, j)) = matrix.first_non_finite() {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("ECS({i}, {j}) is not finite"),
            });
        }
        if !matrix.is_nonnegative() {
            return Err(MeasureError::InvalidEnvironment {
                reason: "ECS entries must be nonnegative".into(),
            });
        }
        for (i, s) in matrix.row_sums().iter().enumerate() {
            if *s == 0.0 {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("task type {i} cannot run on any machine (all-zero row)"),
                });
            }
        }
        for (j, s) in matrix.col_sums().iter().enumerate() {
            if *s == 0.0 {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("machine {j} cannot run any task (all-zero column)"),
                });
            }
        }
        Ok(Ecs {
            matrix,
            task_names,
            machine_names,
        })
    }

    /// Convenience constructor from row slices.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MeasureError> {
        Self::new(Matrix::from_rows(rows)?)
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Number of task types `T`.
    pub fn num_tasks(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of machines `M`.
    pub fn num_machines(&self) -> usize {
        self.matrix.cols()
    }

    /// Task labels.
    pub fn task_names(&self) -> &[String] {
        &self.task_names
    }

    /// Machine labels.
    pub fn machine_names(&self) -> &[String] {
        &self.machine_names
    }

    /// `true` when every entry is strictly positive (no incompatible pairs).
    pub fn is_positive(&self) -> bool {
        self.matrix.is_positive()
    }

    /// Converts to the ETC representation: `ETC = 1/ECS`, `0 ↦ ∞`.
    pub fn to_etc(&self) -> Etc {
        let m = self
            .matrix
            .map(|v| if v == 0.0 { f64::INFINITY } else { 1.0 / v });
        Etc {
            matrix: m,
            task_names: self.task_names.clone(),
            machine_names: self.machine_names.clone(),
        }
    }

    /// Entry accessor.
    pub fn get(&self, task: usize, machine: usize) -> f64 {
        self.matrix[(task, machine)]
    }

    /// Crate-internal mutable access for in-place perturbation (sensitivity
    /// analysis). Callers must keep the matrix a valid ECS — nonnegative with
    /// no all-zero row or column.
    pub(crate) fn matrix_mut(&mut self) -> &mut Matrix {
        &mut self.matrix
    }

    /// Sets entry `(task, machine)` to `value` (ECS units: speed, 0 =
    /// incompatible), preserving the environment invariants: the value must be
    /// finite and nonnegative, and a zero must not leave the task's row or the
    /// machine's column all-zero. The incremental-session subsystem edits live
    /// matrices through this.
    pub fn set(&mut self, task: usize, machine: usize, value: f64) -> Result<(), MeasureError> {
        let (t, m) = (self.num_tasks(), self.num_machines());
        if task >= t || machine >= m {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!("edit ({task}, {machine}) out of bounds for {t}x{m}"),
            });
        }
        if !value.is_finite() || value < 0.0 {
            return Err(MeasureError::InvalidEnvironment {
                reason: format!(
                    "ECS({task}, {machine}) = {value}; entries must be finite and nonnegative"
                ),
            });
        }
        if value == 0.0 {
            let row_alive = (0..m).any(|j| j != machine && self.matrix[(task, j)] > 0.0);
            if !row_alive {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("edit would leave task {task} unable to run on any machine"),
                });
            }
            let col_alive = (0..t).any(|i| i != task && self.matrix[(i, machine)] > 0.0);
            if !col_alive {
                return Err(MeasureError::InvalidEnvironment {
                    reason: format!("edit would leave machine {machine} unable to run any task"),
                });
            }
        }
        self.matrix[(task, machine)] = value;
        Ok(())
    }

    /// Returns a new environment restricted to the given task and machine indices
    /// (used by what-if studies and the Fig. 8 submatrix extraction).
    pub fn subenvironment(&self, tasks: &[usize], machines: &[usize]) -> Result<Ecs, MeasureError> {
        let sub = self.matrix.submatrix(tasks, machines)?;
        let tn = tasks.iter().map(|&i| self.task_names[i].clone()).collect();
        let mn = machines
            .iter()
            .map(|&j| self.machine_names[j].clone())
            .collect();
        Ecs::with_names(sub, tn, mn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_ecs_reads_times_or_speeds() {
        let etc = Etc::with_names(
            Matrix::from_rows(&[&[2.0, f64::INFINITY], &[4.0, 0.5]]).unwrap(),
            vec!["t1".into(), "t2".into()],
            vec!["m1".into(), "m2".into()],
        )
        .unwrap();
        let times = etc.clone().into_ecs(false);
        assert_eq!(times.matrix().as_slice(), [0.5, 0.0, 0.25, 2.0]);
        assert_eq!(times, etc.to_ecs());
        let speeds = etc.into_ecs(true);
        assert_eq!(speeds.matrix().as_slice(), [2.0, 0.0, 4.0, 0.5]);
        assert_eq!(speeds.machine_names(), ["m1", "m2"]);
    }

    #[test]
    fn etc_ecs_round_trip() {
        let etc =
            Etc::new(Matrix::from_rows(&[&[2.0, 4.0], &[0.5, f64::INFINITY]]).unwrap()).unwrap();
        let ecs = etc.to_ecs();
        assert_eq!(ecs.get(0, 0), 0.5);
        assert_eq!(ecs.get(0, 1), 0.25);
        assert_eq!(ecs.get(1, 0), 2.0);
        assert_eq!(ecs.get(1, 1), 0.0);
        let back = ecs.to_etc();
        assert_eq!(back.matrix()[(1, 1)], f64::INFINITY);
        assert_eq!(back.matrix()[(0, 0)], 2.0);
    }

    #[test]
    fn default_labels() {
        let ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(ecs.task_names(), &["t1".to_string(), "t2".to_string()]);
        assert_eq!(ecs.machine_names(), &["m1".to_string(), "m2".to_string()]);
    }

    #[test]
    fn etc_rejects_bad_entries() {
        assert!(Etc::new(Matrix::from_rows(&[&[1.0, -1.0]]).unwrap()).is_err());
        assert!(Etc::new(Matrix::from_rows(&[&[1.0, 0.0]]).unwrap()).is_err());
        assert!(Etc::new(Matrix::from_rows(&[&[1.0, f64::NAN]]).unwrap()).is_err());
        // All-infinite row.
        assert!(Etc::new(
            Matrix::from_rows(&[&[f64::INFINITY, f64::INFINITY], &[1.0, 2.0]]).unwrap()
        )
        .is_err());
        // All-infinite column.
        assert!(Etc::new(
            Matrix::from_rows(&[&[f64::INFINITY, 1.0], &[f64::INFINITY, 2.0]]).unwrap()
        )
        .is_err());
    }

    #[test]
    fn ecs_rejects_bad_entries() {
        assert!(Ecs::from_rows(&[&[1.0, -0.5]]).is_err());
        assert!(Ecs::from_rows(&[&[f64::INFINITY, 1.0]]).is_err());
        assert!(Ecs::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).is_err());
        assert!(Ecs::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).is_err());
        assert!(Ecs::new(Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn zeros_allowed_when_rows_cols_covered() {
        let ecs = Ecs::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert!(!ecs.is_positive());
        assert_eq!(ecs.num_tasks(), 2);
        assert_eq!(ecs.num_machines(), 2);
    }

    #[test]
    fn set_preserves_invariants() {
        let mut ecs = Ecs::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        ecs.set(0, 1, 9.0).unwrap();
        assert_eq!(ecs.get(0, 1), 9.0);
        // Zeroing is fine while the row and column stay covered.
        ecs.set(0, 1, 0.0).unwrap();
        assert_eq!(ecs.get(0, 1), 0.0);
        // But not when it would orphan a row or column.
        assert!(ecs.set(0, 0, 0.0).is_err());
        let mut col = Ecs::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(col.set(1, 1, 0.0).is_err());
        // Bad values and bounds.
        assert!(ecs.set(0, 0, f64::NAN).is_err());
        assert!(ecs.set(0, 0, -1.0).is_err());
        assert!(ecs.set(0, 0, f64::INFINITY).is_err());
        assert!(ecs.set(5, 0, 1.0).is_err());
    }

    #[test]
    fn label_mismatch_rejected() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(Ecs::with_names(
            m,
            vec!["a".into(), "b".into()],
            vec!["x".into(), "y".into()]
        )
        .is_err());
    }

    #[test]
    fn repeated_names_rejected_with_both_positions() {
        let m = || Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[3.0, 1.0, 2.0]]).unwrap();
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err =
            Etc::with_names(m(), names(&["t1", "t2"]), names(&["m1", "m2", "m1"])).unwrap_err();
        assert_eq!(
            err,
            MeasureError::DuplicateName {
                axis: "machine",
                name: "m1".into(),
                positions: (1, 3),
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid HC environment: machine name \"m1\" appears twice (machines 1 and 3); \
             names must be unique"
        );
        let err = Ecs::with_names(m(), names(&["", ""]), names(&["a", "b", "c"])).unwrap_err();
        assert_eq!(
            err,
            MeasureError::DuplicateName {
                axis: "task",
                name: String::new(),
                positions: (1, 2),
            }
        );
        assert!(Ecs::with_names(m(), names(&["t", "T"]), names(&["a", "b", "c"])).is_ok());
    }

    #[test]
    fn names_with_line_breaks_are_refused() {
        let m = || Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = Etc::with_names(m(), names(&["t1", "t2"]), names(&["m1", "a\nb"])).unwrap_err();
        assert_eq!(
            err,
            MeasureError::NameWithLineBreak {
                axis: "machine",
                name: "a\nb".into(),
                position: 2,
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid HC environment: machine name \"a\\nb\" (machine 2) holds a line break; \
             a name must fit on one CSV line"
        );
        let err = Ecs::with_names(m(), names(&["t\r\n", "t\r\n"]), names(&["a", "b"])).unwrap_err();
        assert!(matches!(
            err,
            MeasureError::NameWithLineBreak {
                axis: "task",
                position: 1,
                ..
            }
        ));
        // A carriage return alone fits on a line: `to_csv` quotes it.
        assert!(Etc::with_names(m(), names(&["t\r", "\r"]), names(&["a\r", "b"])).is_ok());
    }

    #[test]
    fn subenvironment_extracts_labels() {
        let ecs = Ecs::with_names(
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap(),
            vec!["bzip2".into(), "gcc".into(), "mcf".into()],
            vec!["xeon".into(), "sparc".into(), "opteron".into()],
        )
        .unwrap();
        let sub = ecs.subenvironment(&[0, 2], &[1]).unwrap();
        assert_eq!(sub.num_tasks(), 2);
        assert_eq!(sub.num_machines(), 1);
        assert_eq!(sub.task_names(), &["bzip2".to_string(), "mcf".to_string()]);
        assert_eq!(sub.machine_names(), &["sparc".to_string()]);
        assert_eq!(sub.get(1, 0), 8.0);
    }

    #[test]
    fn subenvironment_rejects_invalid_result() {
        // Selecting only the zero column would make a machine with no tasks.
        let ecs = Ecs::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert!(ecs.subenvironment(&[0, 1], &[1]).is_err());
        // Out-of-bounds index.
        assert!(ecs.subenvironment(&[5], &[0]).is_err());
    }
}
