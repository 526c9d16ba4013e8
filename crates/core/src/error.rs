//! Error type for measure computations.

use hc_linalg::LinAlgError;
use std::fmt;

/// Errors produced while constructing matrices or computing measures.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// Underlying linear-algebra failure.
    LinAlg(LinAlgError),
    /// The ETC/ECS matrix is structurally invalid for the paper's model
    /// (negative entries, all-zero row = task no machine can run, all-zero
    /// column = machine that can run nothing, NaN, …).
    InvalidEnvironment {
        /// What is wrong.
        reason: String,
    },
    /// TMA was requested on a matrix with zeros whose pattern admits no exact
    /// standard form (paper Sec. VI), and the zero policy forbids fallbacks.
    NotBalanceable {
        /// Diagnostic from the structure analysis.
        detail: String,
    },
    /// The balancing iteration did not reach the tolerance within its budget.
    BalanceDidNotConverge {
        /// Residual at stop.
        residual: f64,
        /// Iterations performed.
        iterations: usize,
    },
    /// Two tasks or two machines share a name, so a name cannot address one
    /// row or column (and a JSON object keyed by name would drop one).
    DuplicateName {
        /// `"task"` or `"machine"`.
        axis: &'static str,
        /// The repeated name.
        name: String,
        /// 1-based positions of its first two occurrences.
        positions: (usize, usize),
    },
    /// A task or machine name holds a line break, so it fits on no CSV line
    /// and could not be written out and read back.
    NameWithLineBreak {
        /// `"task"` or `"machine"`.
        axis: &'static str,
        /// The name.
        name: String,
        /// Its 1-based position.
        position: usize,
    },
    /// A weights vector has the wrong length or non-positive entries.
    InvalidWeights {
        /// What is wrong.
        reason: String,
    },
    /// A cooperative cancellation budget expired while an iterative kernel was
    /// still running (see [`hc_linalg::Budget`]). Carries partial-progress
    /// diagnostics for the caller's timeout report.
    DeadlineExceeded {
        /// The kernel that was cancelled.
        op: &'static str,
        /// Iterations completed before the budget tripped.
        iterations: usize,
        /// Residual at the point of cancellation (`NaN` when not tracked).
        residual: f64,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::LinAlg(e) => write!(f, "linear algebra error: {e}"),
            MeasureError::InvalidEnvironment { reason } => {
                write!(f, "invalid HC environment: {reason}")
            }
            MeasureError::NotBalanceable { detail } => {
                write!(f, "no exact standard form exists: {detail}")
            }
            MeasureError::BalanceDidNotConverge {
                residual,
                iterations,
            } => write!(
                f,
                "standard-form iteration did not converge ({iterations} iterations, residual {residual:.3e})"
            ),
            MeasureError::DuplicateName {
                axis,
                name,
                positions: (first, second),
            } => write!(
                f,
                "invalid HC environment: {axis} name {name:?} appears twice \
                 ({axis}s {first} and {second}); names must be unique"
            ),
            MeasureError::NameWithLineBreak {
                axis,
                name,
                position,
            } => write!(
                f,
                "invalid HC environment: {axis} name {name:?} ({axis} {position}) holds a \
                 line break; a name must fit on one CSV line"
            ),
            MeasureError::InvalidWeights { reason } => write!(f, "invalid weights: {reason}"),
            MeasureError::DeadlineExceeded {
                op,
                iterations,
                residual,
            } => write!(
                f,
                "deadline exceeded in {op} after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::LinAlg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinAlgError> for MeasureError {
    fn from(e: LinAlgError) -> Self {
        match e {
            // Deadline expiry is a first-class outcome (it maps to a 504 with
            // diagnostics in the serving layer), not a generic numeric failure.
            LinAlgError::DeadlineExceeded {
                op,
                iterations,
                residual,
            } => MeasureError::DeadlineExceeded {
                op,
                iterations,
                residual,
            },
            other => MeasureError::LinAlg(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MeasureError::InvalidEnvironment {
            reason: "all-zero row 3".into(),
        };
        assert!(e.to_string().contains("all-zero row 3"));
        let e = MeasureError::NotBalanceable {
            detail: "no total support".into(),
        };
        assert!(e.to_string().contains("no total support"));
        let e = MeasureError::BalanceDidNotConverge {
            residual: 1e-3,
            iterations: 42,
        };
        assert!(e.to_string().contains("42"));
        let e = MeasureError::InvalidWeights {
            reason: "negative".into(),
        };
        assert!(e.to_string().contains("negative"));
    }

    #[test]
    fn from_linalg() {
        let e: MeasureError = LinAlgError::Empty { op: "svd" }.into();
        assert!(matches!(e, MeasureError::LinAlg(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn from_linalg_deadline_is_first_class() {
        let e: MeasureError = LinAlgError::DeadlineExceeded {
            op: "sinkhorn-balance",
            iterations: 9,
            residual: 0.5,
        }
        .into();
        match e {
            MeasureError::DeadlineExceeded {
                op,
                iterations,
                residual,
            } => {
                assert_eq!(op, "sinkhorn-balance");
                assert_eq!(iterations, 9);
                assert_eq!(residual, 0.5);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let display = MeasureError::DeadlineExceeded {
            op: "jacobi-svd",
            iterations: 3,
            residual: 1e-2,
        }
        .to_string();
        assert!(
            display.contains("deadline exceeded in jacobi-svd"),
            "{display}"
        );
    }
}
