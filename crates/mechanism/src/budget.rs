//! Typed validation in front of the Laplace mechanism.
//!
//! [`crate::measure`] asserts on misuse; a serving engine needs typed errors
//! it can return to callers instead. [`validate_request`] checks the privacy
//! parameter and data-vector shape against an explicit remaining budget, and
//! [`crate::Pipeline::run`] calls it before any noise is drawn.

/// Typed failures of budget-aware measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The requested ε is not a positive finite number.
    InvalidEpsilon {
        /// The offending value.
        eps: f64,
    },
    /// The request would overspend the remaining privacy budget.
    BudgetExhausted {
        /// ε requested by this measurement.
        requested: f64,
        /// ε still available.
        remaining: f64,
    },
    /// The data vector does not match the strategy's domain size.
    DataVectorMismatch {
        /// Cells expected by the domain.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::InvalidEpsilon { eps } => {
                write!(
                    f,
                    "privacy parameter must be positive and finite, got {eps}"
                )
            }
            MechanismError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "measurement requests eps={requested} but only {remaining} remains"
            ),
            MechanismError::DataVectorMismatch { expected, got } => {
                write!(f, "data vector has {got} cells, domain has {expected}")
            }
        }
    }
}

impl std::error::Error for MechanismError {}

/// The typed checks in front of every checked pipeline, in the order
/// callers see them: `eps` positive and finite, `eps` within `remaining`
/// (a request for exactly the remaining budget passes despite float dust),
/// and a data vector of `got_cells` matching the domain's `expected_cells`.
pub fn validate_request(
    eps: f64,
    remaining: f64,
    expected_cells: usize,
    got_cells: usize,
) -> Result<(), MechanismError> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(MechanismError::InvalidEpsilon { eps });
    }
    if eps > remaining * (1.0 + 1e-12) {
        return Err(MechanismError::BudgetExhausted {
            requested: eps,
            remaining,
        });
    }
    if got_cells != expected_cells {
        return Err(MechanismError::DataVectorMismatch {
            expected: expected_cells,
            got: got_cells,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_budget_is_rejected() {
        assert_eq!(
            validate_request(2.0, 1.0, 8, 8).unwrap_err(),
            MechanismError::BudgetExhausted {
                requested: 2.0,
                remaining: 1.0
            }
        );
    }

    #[test]
    fn exact_remaining_budget_is_allowed() {
        assert!(validate_request(1.0, 1.0, 8, 8).is_ok());
    }

    #[test]
    fn invalid_epsilon_is_typed() {
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                validate_request(eps, 10.0, 8, 8),
                Err(MechanismError::InvalidEpsilon { .. })
            ));
        }
    }

    #[test]
    fn shape_mismatch_is_typed() {
        assert_eq!(
            validate_request(1.0, 1.0, 8, 5).unwrap_err(),
            MechanismError::DataVectorMismatch {
                expected: 8,
                got: 5
            }
        );
    }
}
