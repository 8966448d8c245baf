//! Measure-once/answer-many sessions.
//!
//! A session captures the reconstructed estimate `x̄` from one noisy
//! measurement. By the post-processing property of differential privacy,
//! *any* function of `x̄` — in particular, answering arbitrary follow-up
//! workloads over the same domain — consumes zero additional privacy budget.

use hdmm_core::{Domain, EngineError, PrivateSession, SessionId, Workload};

/// One completed measurement: the reconstructed estimate plus its provenance.
#[derive(Debug, Clone)]
pub struct Session {
    id: SessionId,
    dataset: String,
    domain: Domain,
    x_hat: Vec<f64>,
    eps_spent: f64,
}

impl Session {
    pub(crate) fn new(
        id: SessionId,
        dataset: String,
        domain: Domain,
        x_hat: Vec<f64>,
        eps_spent: f64,
    ) -> Self {
        debug_assert_eq!(x_hat.len(), domain.size());
        Session {
            id,
            dataset,
            domain,
            x_hat,
            eps_spent,
        }
    }

    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The dataset the measurement was taken on.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The reconstructed data-vector estimate `x̄`.
    pub fn estimate(&self) -> &[f64] {
        &self.x_hat
    }

    /// Answers a batch of follow-up workloads against this session's
    /// estimate, sharing one set of Kronecker scratch buffers across every
    /// term of every workload — the amortized form of calling
    /// [`PrivateSession::answer`] in a loop. Entry `i` is bitwise identical
    /// to `self.answer(workloads[i])`, and like any post-processing of `x̄`
    /// the batch consumes zero additional privacy budget.
    ///
    /// All-or-nothing: a domain mismatch on any workload fails the batch
    /// before anything is answered.
    pub fn answer_batch(&self, workloads: &[&Workload]) -> Result<Vec<Vec<f64>>, EngineError> {
        for w in workloads {
            if w.domain() != &self.domain {
                return Err(EngineError::DomainMismatch {
                    expected: self.domain.clone(),
                    got: w.domain().clone(),
                });
            }
        }
        Ok(hdmm_mechanism::answer_many_from_parts(
            &self.x_hat,
            workloads,
        ))
    }

    /// [`Session::answer_batch`] fanned over an executor: each workload's
    /// `W·x̄` pass runs as an independent task with its own scratch buffers,
    /// so answers are bitwise identical to the serial batch at any lane
    /// count. The engine routes [`serve_batch_from_session`] here with its
    /// shard-worker executor.
    ///
    /// [`serve_batch_from_session`]: crate::Engine::serve_batch_from_session
    pub fn answer_batch_on(
        &self,
        workloads: &[&Workload],
        exec: &hdmm_mechanism::ScopedExecutor,
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        for w in workloads {
            if w.domain() != &self.domain {
                return Err(EngineError::DomainMismatch {
                    expected: self.domain.clone(),
                    got: w.domain().clone(),
                });
            }
        }
        Ok(hdmm_mechanism::answer_many_from_parts_on(
            &self.x_hat,
            workloads,
            exec,
        ))
    }
}

impl PrivateSession for Session {
    fn domain(&self) -> &Domain {
        &self.domain
    }

    fn eps_spent(&self) -> f64 {
        self.eps_spent
    }

    fn answer(&self, workload: &Workload) -> Result<Vec<f64>, EngineError> {
        if workload.domain() != &self.domain {
            return Err(EngineError::DomainMismatch {
                expected: self.domain.clone(),
                got: workload.domain().clone(),
            });
        }
        Ok(workload.answer(&self.x_hat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::builders;

    fn session() -> Session {
        Session::new(
            SessionId(1),
            "d".into(),
            Domain::one_dim(4),
            vec![1.0, 2.0, 3.0, 4.0],
            0.5,
        )
    }

    #[test]
    fn answers_any_workload_over_the_domain() {
        let s = session();
        let prefix = builders::prefix_1d(4);
        assert_eq!(s.answer(&prefix).unwrap(), vec![1.0, 3.0, 6.0, 10.0]);
        // A different workload over the same domain works from the same x̄.
        let ranges = builders::all_range_1d(4);
        assert_eq!(s.answer(&ranges).unwrap().len(), ranges.query_count());
        assert!(
            (s.eps_spent() - 0.5).abs() < 1e-12,
            "answering spends nothing"
        );
    }

    #[test]
    fn rejects_mismatched_domains() {
        let s = session();
        let other = builders::prefix_1d(8);
        assert!(matches!(
            s.answer(&other),
            Err(EngineError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn batch_matches_individual_answers_bitwise() {
        let s = session();
        let prefix = builders::prefix_1d(4);
        let ranges = builders::all_range_1d(4);
        let batch = s.answer_batch(&[&prefix, &ranges]).unwrap();
        assert_eq!(batch[0], s.answer(&prefix).unwrap());
        assert_eq!(batch[1], s.answer(&ranges).unwrap());
    }

    #[test]
    fn parallel_batch_is_bitwise_identical_at_any_lane_count() {
        let s = session();
        let prefix = builders::prefix_1d(4);
        let ranges = builders::all_range_1d(4);
        let workloads: [&hdmm_core::Workload; 3] = [&prefix, &ranges, &prefix];
        let serial = s.answer_batch(&workloads).unwrap();
        for threads in [1, 2, 4, 7] {
            let exec = hdmm_mechanism::ScopedExecutor::new(threads);
            let par = s.answer_batch_on(&workloads, &exec).unwrap();
            assert_eq!(serial, par, "lane count {threads} changed answers");
        }
    }

    #[test]
    fn parallel_batch_rejects_mismatched_domains() {
        let s = session();
        let good = builders::prefix_1d(4);
        let bad = builders::prefix_1d(8);
        assert!(matches!(
            s.answer_batch_on(&[&good, &bad], &hdmm_mechanism::ScopedExecutor::new(1)),
            Err(EngineError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn batch_is_all_or_nothing_on_domain_mismatch() {
        let s = session();
        let good = builders::prefix_1d(4);
        let bad = builders::prefix_1d(8);
        assert!(matches!(
            s.answer_batch(&[&good, &bad]),
            Err(EngineError::DomainMismatch { .. })
        ));
    }
}
