//! The one checked pipeline and its per-phase timing hooks.
//!
//! Every served request runs [`Pipeline::run`]: typed validation, Laplace
//! MEASURE, least-squares RECONSTRUCT with the caller's cached
//! [`PreparedReconstruct`], then ANSWER (Table 1(b); SELECT happens upstream
//! in the planner), all over the slabs of a [`ShardedView`] on one
//! [`ScopedExecutor`]. Dense data is a one-slab view and runs the contiguous
//! kernels. The only choice left to the caller is where MEASURE's per-slab
//! trailing products run — the [`SlabForward`] source: in-process
//! [`Lanes`](crate::Lanes), or remote workers. Answers are bitwise identical
//! to the unchecked dense reference [`crate::run_mechanism`] for every slab
//! count, lane count and source.
//!
//! The three phases' relative cost drives serving decisions: the paper's
//! Figure 6 shows SELECT dominating, which is what justifies strategy
//! caching, while the per-request phases here are the floor a cache hit
//! pays. The pipeline reports each phase's duration to a [`PhaseObserver`],
//! which feeds an engine's latency histograms without this crate depending
//! on any telemetry machinery.

use crate::budget::validate_request;
use crate::sharded::{answer_sharded, measure_view, reconstruct_sharded_with, SlabForward};
use crate::{MechanismResult, PreparedReconstruct, ScopedExecutor, ShardedView, Strategy};
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

    /// Called once per completed *shard job* of a sharded phase
    /// ([`crate::measure_sharded`] and friends), with the shard index the
    /// job served. Default: ignored, so plain observers need no changes.
    fn shard_phase_complete(&self, phase: MechanismPhase, shard: usize, elapsed: Duration) {
        let _ = (phase, shard, elapsed);
    }
}

/// Observer that discards timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {
    fn phase_complete(&self, _phase: MechanismPhase, _elapsed: Duration) {}
}

/// One request through the checked pipeline: what to answer, from which
/// data, at what ε, on which lanes, reporting to which observer.
pub struct Pipeline<'a, O: PhaseObserver + ?Sized> {
    /// The workload to answer.
    pub workload: &'a Workload,
    /// The measurement strategy.
    pub strategy: &'a Strategy,
    /// The strategy's reconstruction factorization (cached by servers; a
    /// pure function of `strategy`, so a fresh one gives identical bytes).
    pub prepared: &'a PreparedReconstruct,
    /// The data, one slab when dense.
    pub view: &'a ShardedView<'a>,
    /// ε this request spends.
    pub eps: f64,
    /// ε still available; `eps` above it is refused before any noise.
    pub remaining: f64,
    /// Lanes for every in-process stage.
    pub lanes: &'a ScopedExecutor,
    /// Receives phase and shard timings (never data or noise).
    pub observer: &'a O,
}

impl<O: PhaseObserver + ?Sized> Pipeline<'_, O> {
    /// Validates the request, then MEASURE with the trailing products from
    /// `source`, RECONSTRUCT, and ANSWER, reporting each phase's duration.
    ///
    /// Typed validation errors come back before any noise is drawn. On a
    /// `source` failure the RNG may be partially consumed; a caller that
    /// retries on another source must reseed it to redraw the same noise.
    pub fn run<S: SlabForward>(
        &self,
        rng: &mut impl Rng,
        source: &S,
    ) -> Result<MechanismResult, S::Error> {
        let (view, lanes, observer) = (self.view, self.lanes, self.observer);
        validate_request(
            self.eps,
            self.remaining,
            self.workload.domain().size(),
            view.total_len(),
        )?;

        let t = Instant::now();
        let meas = measure_view(
            self.strategy,
            view,
            self.eps,
            rng,
            lanes,
            observer,
            &mut |trailing| source.trailing_parts(trailing, view, lanes, observer),
        )?;
        observer.phase_complete(MechanismPhase::Measure, t.elapsed());

        let t = Instant::now();
        let x_hat =
            reconstruct_sharded_with(self.prepared, self.strategy, &meas, view, lanes, observer);
        observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

        let t = Instant::now();
        let answers = answer_sharded(self.workload, &x_hat, view.shard_count(), lanes, observer);
        observer.phase_complete(MechanismPhase::Answer, t.elapsed());

        Ok(MechanismResult { x_hat, answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_mechanism, Lanes, MechanismError};
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

    fn run_dense(
        eps: f64,
        remaining: f64,
        seed: u64,
        observer: &(impl PhaseObserver + ?Sized),
    ) -> Result<MechanismResult, MechanismError> {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let x = [2.0; 8];
        let view = ShardedView::partition(&x, 8, 1);
        Pipeline {
            workload: &w,
            strategy: &s,
            prepared: &PreparedReconstruct::new(&s),
            view: &view,
            eps,
            remaining,
            lanes: &ScopedExecutor::new(1),
            observer,
        }
        .run(&mut StdRng::seed_from_u64(seed), &Lanes)
    }

    #[test]
    fn observed_pipeline_reports_all_three_phases_in_order() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let res = run_dense(1.0, 1.0, 0, &rec).unwrap();
        assert_eq!(res.answers.len(), 8);
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
        let observed = run_dense(1.0, 1.0, 3, &NoopObserver).unwrap();
        let plain = run_mechanism(&w, &s, &[2.0; 8], 1.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(observed.answers, plain.answers);
        assert_eq!(observed.x_hat, plain.x_hat);
    }

    #[test]
    fn failed_measure_reports_nothing() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let err = run_dense(2.0, 1.0, 0, &rec).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        assert!(rec.0.lock().unwrap().is_empty(), "no phase completed");
    }
}
