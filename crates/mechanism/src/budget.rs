//! Budget-aware measurement: typed validation in front of the Laplace
//! mechanism.
//!
//! [`crate::measure`] asserts on misuse; a serving engine needs typed errors
//! it can return to callers instead. [`try_measure`] validates the privacy
//! parameter and data-vector shape against an explicit remaining budget and
//! only then runs the (ε-differentially-private) measurement.

use crate::{measure, reconstruct, MechanismResult, Strategy};
use hdmm_workload::Workload;
use rand::Rng;

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

/// MEASURE with typed validation: checks `eps` is positive and finite, fits
/// within `remaining` budget, and `x` matches `expected_cells`, then runs the
/// vector-form Laplace mechanism. Consumes exactly `eps` of budget on success
/// and nothing on failure (errors are returned before any noise is drawn).
pub fn try_measure(
    strategy: &Strategy,
    x: &[f64],
    eps: f64,
    remaining: f64,
    expected_cells: usize,
    rng: &mut impl Rng,
) -> Result<crate::Measurements, MechanismError> {
    validate_request(eps, remaining, expected_cells, x.len())?;
    Ok(measure(strategy, x, eps, rng))
}

/// The full checked pipeline: budget-validated MEASURE, then RECONSTRUCT and
/// workload answering (both ε-free post-processing).
pub fn try_run_mechanism(
    workload: &Workload,
    strategy: &Strategy,
    x: &[f64],
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
) -> Result<MechanismResult, MechanismError> {
    let meas = try_measure(strategy, x, eps, remaining, workload.domain().size(), rng)?;
    let x_hat = reconstruct(strategy, &meas);
    let answers = workload.answer(&x_hat);
    Ok(MechanismResult { x_hat, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (hdmm_workload::Workload, Strategy, Vec<f64>) {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        (w, s, vec![1.0; 8])
    }

    #[test]
    fn over_budget_is_rejected_before_measuring() {
        let (_, s, x) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let err = try_measure(&s, &x, 2.0, 1.0, 8, &mut rng).unwrap_err();
        assert_eq!(
            err,
            MechanismError::BudgetExhausted {
                requested: 2.0,
                remaining: 1.0
            }
        );
    }

    #[test]
    fn exact_remaining_budget_is_allowed() {
        let (_, s, x) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(try_measure(&s, &x, 1.0, 1.0, 8, &mut rng).is_ok());
    }

    #[test]
    fn invalid_epsilon_is_typed() {
        let (_, s, x) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                try_measure(&s, &x, eps, 10.0, 8, &mut rng),
                Err(MechanismError::InvalidEpsilon { .. })
            ));
        }
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let (_, s, _) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let err = try_measure(&s, &[1.0; 5], 1.0, 1.0, 8, &mut rng).unwrap_err();
        assert_eq!(
            err,
            MechanismError::DataVectorMismatch {
                expected: 8,
                got: 5
            }
        );
    }

    #[test]
    fn checked_pipeline_matches_unchecked_per_seed() {
        let (w, s, x) = setup();
        let checked =
            try_run_mechanism(&w, &s, &x, 1000.0, 1000.0, &mut StdRng::seed_from_u64(7)).unwrap();
        let unchecked = crate::run_mechanism(&w, &s, &x, 1000.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(checked.answers, unchecked.answers);
    }
}
