//! Remote serving: MEASURE's per-slab trailing products as RPCs to TCP
//! shard workers.
//!
//! Only MEASURE crosses the wire, because only MEASURE needs the data slabs
//! the workers hold. [`SlabRpc`] is the [`SlabForward`] source that turns
//! each slab's trailing-factor product (the bulk of MEASURE's flops) into a
//! [`SlabForward`](crate::Frame::SlabForward) RPC; the checked
//! [`Pipeline`](hdmm_mechanism::Pipeline) does everything else on the
//! coordinator's lanes — the ordered merge and leading contraction, noise,
//! RECONSTRUCT with the caller's cached `PreparedReconstruct`, and ANSWER —
//! through exactly the code local sharded serving runs. Workers run the same
//! `kmatvec_trailing_slab` kernel on the same slices, so the answers are
//! **bitwise identical** to the dense single-node pipeline for any worker
//! count — the exactness contract of [`hdmm_mechanism::sharded`] extends
//! across the wire unchanged.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does the
//! pipeline surface a [`RemoteError`] — callers such as the serving engine
//! then rerun the pipeline on local lanes with a reseeded RNG, preserving
//! byte-identity even through total pool loss.

use crate::client::{RetryPolicy, WorkerPool};
use crate::wire::NetError;
use hdmm_linalg::StructuredMatrix;
use hdmm_mechanism::{
    MechanismError, MechanismPhase, PhaseObserver, ScopedExecutor, ShardedView, SlabForward,
};
use hdmm_obs::{NoopSpanSink, SpanSink};
use std::time::Instant;

/// Configuration of a coordinator's shard workers
/// ([`WorkerPool::connect`] takes its two fields).
#[derive(Debug, Clone, Default)]
pub struct RemoteOptions {
    /// Worker addresses (`host:port`) to register at connect time.
    pub workers: Vec<String>,
    /// Failure-handling policy for shard tasks.
    pub policy: RetryPolicy,
}

/// A failure of the remote pipeline.
#[derive(Debug)]
pub enum RemoteError {
    /// Request validation failed (budget, epsilon, data shape) — the same
    /// typed errors the local pipeline raises; retrying locally cannot help.
    Mechanism(MechanismError),
    /// The worker pool could not complete a shard task (after retry and
    /// reassignment). The request is still servable locally.
    Net(NetError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Mechanism(e) => write!(f, "{e}"),
            RemoteError::Net(e) => write!(f, "remote shard fan-out failed: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<MechanismError> for RemoteError {
    fn from(e: MechanismError) -> Self {
        RemoteError::Mechanism(e)
    }
}

impl From<NetError> for RemoteError {
    fn from(e: NetError) -> Self {
        RemoteError::Net(e)
    }
}

/// The remote [`SlabForward`] source: one slab RPC per slab of one dataset,
/// with every attempt (retries included) and the worker-side kernel spans
/// shipped back in the replies recorded into `sink`, parented under the
/// MEASURE phase span — one connected span tree per request even across the
/// wire. Tracing never changes the computation: the sink is consulted
/// outside the numeric path.
pub struct SlabRpc<'a> {
    /// The worker pool.
    pub pool: &'a WorkerPool,
    /// The dataset whose slabs the workers hold.
    pub dataset: &'a str,
    /// Where RPC and worker spans go.
    pub sink: &'a dyn SpanSink,
}

impl<'a> SlabRpc<'a> {
    /// A source that records no spans.
    pub fn untraced(pool: &'a WorkerPool, dataset: &'a str) -> Self {
        SlabRpc {
            pool,
            dataset,
            sink: &NoopSpanSink,
        }
    }
}

impl SlabForward for SlabRpc<'_> {
    type Error = RemoteError;

    /// The RPCs block on the network rather than a core, so they run on one
    /// lane per slab regardless of the pipeline's lane count.
    fn trailing_parts<O: PhaseObserver + ?Sized>(
        &self,
        trailing: &[&StructuredMatrix],
        view: &ShardedView<'_>,
        _lanes: &ScopedExecutor,
        observer: &O,
    ) -> Result<Vec<Vec<f64>>, RemoteError> {
        let phase = MechanismPhase::Measure;
        let trailing: Vec<StructuredMatrix> = trailing.iter().map(|f| (*f).clone()).collect();
        let trailing = &trailing;
        let parts = ScopedExecutor::new(view.shard_count()).run(
            view.slabs
                .iter()
                .enumerate()
                .map(|(shard, slab)| {
                    move || {
                        let t = Instant::now();
                        let part = self.pool.run_slab_task_traced(
                            self.dataset,
                            shard as u64,
                            trailing,
                            (slab.rows.start as u64, slab.rows.end as u64),
                            slab.values,
                            self.sink,
                            phase.name(),
                        );
                        if part.is_ok() {
                            observer.shard_phase_complete(phase, shard, t.elapsed());
                        }
                        part
                    }
                })
                .collect(),
        );
        Ok(parts.into_iter().collect::<Result<_, NetError>>()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_mechanism::{
        run_mechanism, MarginalsStrategy, MechanismResult, NoopObserver, Pipeline,
        PreparedReconstruct, Strategy, UnionGroup,
    };
    use hdmm_workload::{blocks, builders, Domain, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    fn spawn_pool(n: usize) -> (Vec<WorkerHandle>, WorkerPool) {
        let workers: Vec<WorkerHandle> = (0..n)
            .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap())
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let policy = RetryPolicy {
            task_timeout: Duration::from_secs(2),
            attempts: 3,
            backoff: Duration::from_millis(5),
        };
        (workers, WorkerPool::connect(&addrs, policy))
    }

    /// The checked pipeline with MEASURE's slab products on `remote`.
    fn serve_remote(
        w: &Workload,
        s: &Strategy,
        view: &ShardedView<'_>,
        eps: f64,
        seed: u64,
        pool: &WorkerPool,
    ) -> Result<MechanismResult, RemoteError> {
        Pipeline {
            workload: w,
            strategy: s,
            prepared: &PreparedReconstruct::new(s),
            view,
            eps,
            remaining: 1.0,
            lanes: &ScopedExecutor::new(2),
            observer: &NoopObserver,
        }
        .run(
            &mut StdRng::seed_from_u64(seed),
            &SlabRpc::untraced(pool, "test"),
        )
    }

    fn strategies() -> Vec<(Workload, Strategy)> {
        vec![
            (
                builders::prefix_2d(6, 5),
                Strategy::kron(vec![
                    blocks::prefix(6).scaled(1.0 / 6.0),
                    blocks::prefix(5).scaled(0.2),
                ]),
            ),
            (
                builders::all_marginals(&Domain::new(&[4, 3])),
                Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[4, 3]))),
            ),
            (
                builders::range_total_union_2d(4, 4),
                Strategy::Union(vec![
                    UnionGroup::new(
                        0.5,
                        vec![blocks::prefix(4).scaled(0.25), blocks::total(4)],
                        vec![0],
                    ),
                    UnionGroup::new(
                        0.5,
                        vec![blocks::total(4), blocks::prefix(4).scaled(0.25)],
                        vec![1],
                    ),
                ]),
            ),
        ]
    }

    #[test]
    fn remote_pipeline_is_bitwise_identical_to_plain() {
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let plain = run_mechanism(&w, &s, &x, 1.0, &mut StdRng::seed_from_u64(42));
            for workers in [1usize, 2, 3] {
                let (_handles, exec) = spawn_pool(workers);
                let view = ShardedView::partition(&x, leading, 3);
                let got = serve_remote(&w, &s, &view, 1.0, 42, &exec).unwrap();
                assert!(
                    bits_eq(&got.answers, &plain.answers),
                    "{} workers={workers}: answers diverge",
                    s.kind()
                );
                assert!(
                    bits_eq(&got.x_hat, &plain.x_hat),
                    "{} workers={workers}: x_hat diverges",
                    s.kind()
                );
                let health = exec.health();
                assert!(
                    health.workers.iter().map(|h| h.tasks).sum::<u64>() > 0,
                    "workers must have served tasks"
                );
            }
        }
    }

    #[test]
    fn remote_validation_is_typed() {
        let (_handles, exec) = spawn_pool(1);
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = ShardedView::partition(&x, 4, 2);
        assert!(matches!(
            serve_remote(&w, &s, &view, 2.0, 0, &exec),
            Err(RemoteError::Mechanism(
                MechanismError::BudgetExhausted { .. }
            ))
        ));
    }

    #[test]
    fn dead_pool_surfaces_a_net_error() {
        let (handles, exec) = spawn_pool(2);
        for h in &handles {
            h.kill();
        }
        std::thread::sleep(Duration::from_millis(20));
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = ShardedView::partition(&x, 4, 2);
        let r = serve_remote(&w, &s, &view, 1.0, 0, &exec);
        assert!(matches!(r, Err(RemoteError::Net(_))));
    }
}
