//! Per-phase timing hooks for the serving layer.
//!
//! The mechanism pipeline has three observable phases — MEASURE,
//! RECONSTRUCT, answer (Table 1(b); SELECT happens upstream in the planner) —
//! whose relative cost drives serving decisions: the paper's Figure 6 shows
//! SELECT dominating, which is what justifies strategy caching, while the
//! per-request phases here are the floor a cache hit pays. An engine passes a
//! [`PhaseObserver`] to [`try_run_mechanism_observed`] to feed its latency
//! histograms without this crate depending on any telemetry machinery.

use crate::budget::{try_measure, MechanismError};
use crate::{reconstruct_with, MechanismResult, PreparedReconstruct, Strategy};
use hdmm_workload::Workload;
use rand::Rng;
use std::time::{Duration, Instant};

/// One observable phase of the per-request pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismPhase {
    /// Vector-form Laplace measurement of the strategy queries.
    Measure,
    /// Least-squares reconstruction of the data-vector estimate.
    Reconstruct,
    /// Workload answering from the reconstructed estimate.
    Answer,
}

impl MechanismPhase {
    /// Stable lowercase name (telemetry label).
    pub fn name(self) -> &'static str {
        match self {
            MechanismPhase::Measure => "measure",
            MechanismPhase::Reconstruct => "reconstruct",
            MechanismPhase::Answer => "answer",
        }
    }
}

/// Receives the wall-clock duration of each completed phase.
///
/// Implementations must be cheap and non-blocking — the hook runs on the
/// serving path. `Sync` so one observer (an engine's telemetry registry) can
/// be shared by every worker thread.
pub trait PhaseObserver: Sync {
    /// Called once per phase, immediately after the phase finishes.
    fn phase_complete(&self, phase: MechanismPhase, elapsed: Duration);

    /// Called once per completed *shard task* of a sharded phase
    /// ([`crate::measure_sharded`] and friends), with the shard index the
    /// task served. Default: ignored, so plain observers need no changes.
    fn shard_phase_complete(&self, phase: MechanismPhase, shard: usize, elapsed: Duration) {
        let _ = (phase, shard, elapsed);
    }
}

/// Observer that discards timings ([`crate::try_run_mechanism`] uses it).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {
    fn phase_complete(&self, _phase: MechanismPhase, _elapsed: Duration) {}
}

impl<T: PhaseObserver + ?Sized> PhaseObserver for &T {
    fn phase_complete(&self, phase: MechanismPhase, elapsed: Duration) {
        (**self).phase_complete(phase, elapsed);
    }

    fn shard_phase_complete(&self, phase: MechanismPhase, shard: usize, elapsed: Duration) {
        (**self).shard_phase_complete(phase, shard, elapsed);
    }
}

/// The full checked pipeline with per-phase timing: budget-validated MEASURE,
/// then RECONSTRUCT and workload answering, reporting each phase's duration
/// to `observer`. Identical results to [`crate::try_run_mechanism`] — the
/// observer sees timings only, never data or noise.
pub fn try_run_mechanism_observed(
    workload: &Workload,
    strategy: &Strategy,
    x: &[f64],
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    observer: &impl PhaseObserver,
) -> Result<MechanismResult, MechanismError> {
    try_run_mechanism_prepared_observed(
        workload,
        strategy,
        &PreparedReconstruct::new(strategy),
        x,
        eps,
        remaining,
        rng,
        observer,
    )
}

/// [`try_run_mechanism_observed`] with the strategy factorization supplied by
/// the caller, so warm cache hits skip rebuilding `(AᵀA)⁺` on every request.
/// Bitwise identical to the unprepared variant for a `prepared` built from
/// `strategy` — the factorization is a pure function of the strategy, and the
/// RECONSTRUCT timing the observer sees now reflects only the per-request
/// work.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_prepared_observed(
    workload: &Workload,
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    x: &[f64],
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    observer: &impl PhaseObserver,
) -> Result<MechanismResult, MechanismError> {
    let t = Instant::now();
    let meas = try_measure(strategy, x, eps, remaining, workload.domain().size(), rng)?;
    observer.phase_complete(MechanismPhase::Measure, t.elapsed());

    let t = Instant::now();
    let x_hat = reconstruct_with(prepared, strategy, &meas);
    observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

    let t = Instant::now();
    let answers = workload.answer(&x_hat);
    observer.phase_complete(MechanismPhase::Answer, t.elapsed());

    Ok(MechanismResult { x_hat, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Mutex;

    /// Collects `(phase, elapsed)` pairs for assertions.
    struct Recorder(Mutex<Vec<MechanismPhase>>);

    impl PhaseObserver for Recorder {
        fn phase_complete(&self, phase: MechanismPhase, _elapsed: Duration) {
            self.0.lock().unwrap().push(phase);
        }
    }

    #[test]
    fn observed_pipeline_reports_all_three_phases_in_order() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let rec = Recorder(Mutex::new(Vec::new()));
        let mut rng = StdRng::seed_from_u64(0);
        let res = try_run_mechanism_observed(&w, &s, &[1.0; 8], 1.0, 1.0, &mut rng, &rec).unwrap();
        assert_eq!(res.answers.len(), w.query_count());
        assert_eq!(
            *rec.0.lock().unwrap(),
            vec![
                MechanismPhase::Measure,
                MechanismPhase::Reconstruct,
                MechanismPhase::Answer
            ]
        );
    }

    #[test]
    fn observed_matches_unobserved_per_seed() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let observed = try_run_mechanism_observed(
            &w,
            &s,
            &[2.0; 8],
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(3),
            &NoopObserver,
        )
        .unwrap();
        let plain =
            crate::try_run_mechanism(&w, &s, &[2.0; 8], 1.0, 1.0, &mut StdRng::seed_from_u64(3))
                .unwrap();
        assert_eq!(observed.answers, plain.answers);
    }

    #[test]
    fn prepared_matches_unprepared_bitwise_per_seed() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let prepared = PreparedReconstruct::new(&s);
        let got = try_run_mechanism_prepared_observed(
            &w,
            &s,
            &prepared,
            &[2.0; 8],
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(3),
            &NoopObserver,
        )
        .unwrap();
        let plain = try_run_mechanism_observed(
            &w,
            &s,
            &[2.0; 8],
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(3),
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(got.x_hat, plain.x_hat);
        assert_eq!(got.answers, plain.answers);
    }

    #[test]
    fn failed_measure_reports_nothing() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let rec = Recorder(Mutex::new(Vec::new()));
        let mut rng = StdRng::seed_from_u64(0);
        let err =
            try_run_mechanism_observed(&w, &s, &[1.0; 8], 2.0, 1.0, &mut rng, &rec).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        assert!(rec.0.lock().unwrap().is_empty(), "no phase completed");
    }
}
