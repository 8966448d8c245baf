//! `RemoteExecutor`: the distributed MEASURE pipeline that fans shard tasks
//! out to TCP workers.
//!
//! Only MEASURE crosses the wire, because only MEASURE needs the data slabs
//! the workers hold. The per-slab trailing-factor products (the bulk of its
//! flops) become [`SlabForward`](crate::Frame::SlabForward) RPCs, while the
//! ordered merge and the leading contraction run on the coordinator through
//! the *same* [`kron_forward_from_parts`] code the local path uses. Workers
//! run the same `kmatvec_trailing_slab` kernel on the same slices.
//!
//! RECONSTRUCT and ANSWER are post-processing of measurements the
//! coordinator already holds, so they run on the coordinator's local
//! executor through the in-process sharded stages, with the caller's cached
//! [`PreparedReconstruct`]. Shipping them to workers would cost one
//! domain-sized round-trip per marginal per shard for kernels that do O(1)
//! work per cell. The answers are therefore **bitwise identical** to the
//! dense single-node pipeline for any worker count — the exactness contract
//! of [`hdmm_mechanism::sharded`] extends across the wire unchanged.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does the
//! pipeline surface a [`RemoteError`] — callers such as the serving engine
//! then fall back to the local sharded path with a reseeded RNG, preserving
//! byte-identity even through total pool loss.

use crate::client::{PoolHealth, RetryPolicy, WorkerPool};
use crate::wire::NetError;
use hdmm_linalg::{leading_split, StructuredMatrix};
use hdmm_mechanism::{
    answer_sharded, explicit_forward_sharded, kron_forward_from_parts, measure_with,
    reconstruct_sharded_with, validate_request, MechanismError, MechanismPhase, MechanismResult,
    PhaseObserver, PreparedReconstruct, ScopedExecutor, ShardExecutor, ShardedView, Strategy,
};
use hdmm_obs::{NoopSpanSink, SpanSink};
use hdmm_workload::Workload;
use rand::Rng;
use std::time::Instant;

/// Configuration for a [`RemoteExecutor`].
#[derive(Debug, Clone, Default)]
pub struct RemoteOptions {
    /// Worker addresses (`host:port`) to register at connect time.
    pub workers: Vec<String>,
    /// Failure-handling policy for shard tasks.
    pub policy: RetryPolicy,
    /// Threads for the coordinator-local stages (merge-side contractions and
    /// ANSWER); 0 ⇒ available parallelism.
    pub local_threads: usize,
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

/// The distributed shard executor: a worker pool for the RPC fan-out plus a
/// local scoped-thread executor for the coordinator-side stages.
///
/// Implements [`ShardExecutor`] (delegating to the local executor) so it
/// slots anywhere the in-process fan-out does — the merge and leading
/// contractions of the remote pipeline run through exactly that
/// implementation.
pub struct RemoteExecutor {
    pool: WorkerPool,
    local: ScopedExecutor,
}

impl RemoteExecutor {
    /// Connects to the configured workers (best-effort: unreachable workers
    /// start dead and are retried lazily).
    pub fn connect(opts: &RemoteOptions) -> Self {
        RemoteExecutor {
            pool: WorkerPool::connect(&opts.workers, opts.policy.clone()),
            local: ScopedExecutor::new(opts.local_threads),
        }
    }

    /// The worker pool (registry, routing, health).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The coordinator-local executor used for merge-side stages.
    pub fn local(&self) -> &ScopedExecutor {
        &self.local
    }

    /// Point-in-time pool health for `Engine::metrics()`.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Registers one more worker at runtime; fails unless it answers a ping.
    pub fn add_worker(&self, addr: &str) -> Result<(), NetError> {
        self.pool.add_worker(addr)
    }

    /// Eagerly pushes every slab of `view` to its primary worker. Purely a
    /// warm-up: `run_slab_task` re-pushes on demand, so failures here only
    /// cost first-request latency.
    pub fn preload(&self, dataset: &str, view: &ShardedView<'_>) -> Result<(), NetError> {
        for (i, slab) in view.slabs.iter().enumerate() {
            self.pool.load_slab(
                dataset,
                i as u64,
                (slab.rows.start as u64, slab.rows.end as u64),
                slab.values,
            )?;
        }
        Ok(())
    }
}

impl ShardExecutor for RemoteExecutor {
    fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        self.local.run(tasks);
    }
}

impl std::fmt::Debug for RemoteExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteExecutor")
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

/// Fans the keyed slab tasks of `view` out to the pool, one concurrent RPC
/// per slab, returning the per-slab trailing products in slab order.
fn fan_out_slabs(
    pool: &WorkerPool,
    dataset: &str,
    view: &ShardedView<'_>,
    trailing: &[StructuredMatrix],
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    sink: &dyn SpanSink,
) -> Result<Vec<Vec<f64>>, NetError> {
    let results: Vec<Result<Vec<f64>, NetError>> = std::thread::scope(|s| {
        let handles: Vec<_> = view
            .slabs
            .iter()
            .enumerate()
            .map(|(shard, slab)| {
                s.spawn(move || {
                    let t = Instant::now();
                    let part = pool.run_slab_task_traced(
                        dataset,
                        shard as u64,
                        trailing,
                        (slab.rows.start as u64, slab.rows.end as u64),
                        slab.values,
                        sink,
                        phase.name(),
                    );
                    if part.is_ok() {
                        observer.shard_phase_complete(phase, shard, t.elapsed());
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard task thread"))
            .collect()
    });
    results.into_iter().collect()
}

/// The remote MEASURE fan-out over a dataset's slabs: phase 1 runs as
/// [`SlabForward`](crate::Frame::SlabForward) RPCs (slabs are cached on
/// workers), the merge and leading contraction run locally through
/// [`kron_forward_from_parts`] — bitwise identical to
/// [`kron_forward_sharded`](hdmm_mechanism::kron_forward_sharded).
#[allow(clippy::too_many_arguments)]
fn kron_forward_remote(
    exec: &RemoteExecutor,
    dataset: &str,
    factors: &[&StructuredMatrix],
    view: &ShardedView<'_>,
    observer: &(impl PhaseObserver + ?Sized),
    sink: &dyn SpanSink,
) -> Result<Vec<f64>, NetError> {
    let phase = MechanismPhase::Measure;
    let split = leading_split(factors);
    if view
        .ranges_on_axis(split.leading.cols(), split.trailing_cols())
        .is_none()
    {
        return Err(NetError::Unsupported(
            "slab boundaries do not align with the leading factor",
        ));
    }
    let trailing: Vec<StructuredMatrix> = split.trailing.iter().map(|f| (*f).clone()).collect();
    let parts = fan_out_slabs(exec.pool(), dataset, view, &trailing, observer, phase, sink)?;
    Ok(kron_forward_from_parts(
        factors,
        parts,
        exec.local(),
        observer,
        phase,
    ))
}

/// Untraced [`try_run_mechanism_remote_traced`] — the spans are discarded,
/// everything else (timing callbacks, retry, results) is identical.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_remote_observed(
    workload: &Workload,
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    dataset: &str,
    view: &ShardedView<'_>,
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    exec: &RemoteExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Result<MechanismResult, RemoteError> {
    try_run_mechanism_remote_traced(
        workload,
        strategy,
        prepared,
        dataset,
        view,
        eps,
        remaining,
        rng,
        exec,
        observer,
        &NoopSpanSink,
    )
}

/// The full checked remote pipeline with per-phase timing: budget-validated
/// MEASURE with the slab fan-out over the worker pool, then RECONSTRUCT with
/// the caller's cached `prepared` factorization and ANSWER, both through the
/// in-process sharded stages on the coordinator's local executor.
///
/// Results are bitwise identical to
/// [`try_run_mechanism_sharded_prepared_observed`](hdmm_mechanism::try_run_mechanism_sharded_prepared_observed)
/// on the same view with the same RNG — and therefore to the plain dense
/// pipeline — for every worker count. On [`RemoteError::Net`] the RNG may be
/// partially consumed; callers that fall back locally must reseed.
///
/// When `sink` traces, every RPC attempt of the fan-out (retries included)
/// and every worker-side kernel span shipped back in the replies is recorded
/// into it, parented under the phase spans the sink pre-allocates — giving
/// one connected span tree per request even across the wire. Tracing never
/// changes the computation: the sink is consulted outside the numeric path.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_remote_traced(
    workload: &Workload,
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    dataset: &str,
    view: &ShardedView<'_>,
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    exec: &RemoteExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    sink: &dyn SpanSink,
) -> Result<MechanismResult, RemoteError> {
    validate_request(eps, remaining, workload.domain().size(), view.total_len())?;

    let t = Instant::now();
    let meas = measure_with(
        strategy,
        eps,
        rng,
        &mut |a| {
            // Explicit strategies live on small 1-D domains — not worth a
            // round-trip; identical to the local sharded path by definition.
            let x = view.assemble();
            Ok(explicit_forward_sharded(
                a,
                &x,
                view.shard_count(),
                exec.local(),
                observer,
                MechanismPhase::Measure,
            ))
        },
        &mut |refs| kron_forward_remote(exec, dataset, refs, view, observer, sink),
    )?;
    observer.phase_complete(MechanismPhase::Measure, t.elapsed());

    let t = Instant::now();
    let x_hat = reconstruct_sharded_with(prepared, strategy, &meas, view, exec.local(), observer);
    observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

    let t = Instant::now();
    let answers = answer_sharded(workload, &x_hat, view.shard_count(), exec.local(), observer);
    observer.phase_complete(MechanismPhase::Answer, t.elapsed());

    Ok(MechanismResult { x_hat, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_linalg::partition_rows;
    use hdmm_mechanism::{
        try_run_mechanism, DataSlab, MarginalsStrategy, NoopObserver, UnionGroup,
    };
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    fn view_of(x: &[f64], leading: usize, shards: usize) -> ShardedView<'_> {
        let stride = x.len() / leading;
        let slabs = partition_rows(leading, shards)
            .into_iter()
            .map(|r| DataSlab {
                rows: r.clone(),
                values: &x[r.start * stride..r.end * stride],
            })
            .collect();
        ShardedView::new(leading, slabs)
    }

    fn spawn_pool(n: usize) -> (Vec<WorkerHandle>, RemoteExecutor) {
        let workers: Vec<WorkerHandle> = (0..n)
            .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap())
            .collect();
        let opts = RemoteOptions {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            policy: RetryPolicy {
                task_timeout: Duration::from_secs(2),
                attempts: 3,
                backoff: Duration::from_millis(5),
            },
            local_threads: 2,
        };
        let exec = RemoteExecutor::connect(&opts);
        (workers, exec)
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
            let plain =
                try_run_mechanism(&w, &s, &x, 1.0, 1.0, &mut StdRng::seed_from_u64(42)).unwrap();
            for workers in [1usize, 2, 3] {
                let (_handles, exec) = spawn_pool(workers);
                let view = view_of(&x, leading, 3);
                let got = try_run_mechanism_remote_observed(
                    &w,
                    &s,
                    &PreparedReconstruct::new(&s),
                    "test",
                    &view,
                    1.0,
                    1.0,
                    &mut StdRng::seed_from_u64(42),
                    &exec,
                    &NoopObserver,
                )
                .unwrap();
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
        let view = view_of(&x, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            try_run_mechanism_remote_observed(
                &w,
                &s,
                &PreparedReconstruct::new(&s),
                "d",
                &view,
                2.0,
                1.0,
                &mut rng,
                &exec,
                &NoopObserver
            ),
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
        let view = view_of(&x, 4, 2);
        let r = try_run_mechanism_remote_observed(
            &w,
            &s,
            &PreparedReconstruct::new(&s),
            "d",
            &view,
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(0),
            &exec,
            &NoopObserver,
        );
        assert!(matches!(r, Err(RemoteError::Net(_))));
    }
}
