//! The engine: request lifecycle over registered datasets.
//!
//! ## Concurrency architecture
//!
//! Engine state is sharded so the hot path never funnels through a global
//! mutex:
//!
//! * the **dataset registry** is an `RwLock<HashMap>` of immutable-after-
//!   registration entries — serving takes a brief read lock to clone a
//!   handle, and only registration writes;
//! * per-dataset **mutable state** (ε ledger, RNG stream) sits behind its own
//!   short-critical-section mutexes, so datasets never contend with each
//!   other and MEASURE/RECONSTRUCT run without holding any lock at all;
//! * the **strategy cache** is internally sharded with read-lock hits
//!   ([`StrategyCache`]);
//! * concurrent cache misses on one fingerprint deduplicate through a
//!   [`SingleFlight`] map — one SELECT runs, everyone shares the `Arc<Plan>`;
//! * **sessions** are sharded by id with a global FIFO eviction queue.
//!
//! Lock poisoning is recovered rather than propagated: every critical
//! section leaves its state consistent (single map operations, validated
//! single-field ledger updates), so a panicking request cannot wedge the
//! engine — see [`crate::sync`].

use crate::accountant::{EpsAccountant, TenantLedger};
use crate::cache::StrategyCache;
use crate::persist::PlanStore;
use crate::session::Session;
use crate::singleflight::{FlightOutcome, FlightProgress, SingleFlight};
use crate::sync::{lock_recover, read_recover, write_recover};
use crate::telemetry::{DatasetMetrics, EngineMetrics, ObsMetrics, Telemetry, TenantMetrics};
use crate::tracing::{RequestTracer, SELECT_SPAN_ID};
use crate::wal::{now_unix_ms, RecoveredDataset, Wal, WalRecord};
use hdmm_core::{
    BudgetAccountant, DataBackend, DenseVector, Domain, EngineError, HdmmOptions, Plan,
    PrivateSession, QueryEngine, QueryResponse, SessionId, ShardedDataVector, Workload,
    WorkloadFingerprint, WorkloadGrams,
};
use hdmm_mechanism::{DataSlab, Lanes, PhaseObserver, Pipeline, ScopedExecutor, ShardedView};
use hdmm_net::{RemoteError, RemoteOptions, SlabRpc, WorkerPool};
use hdmm_obs::trace::dur_ns;
use hdmm_obs::{AuditKind, AuditLog, Span, SpanCollector, SpanSink, TraceContext};
use hdmm_optimizer::planner::{optimize_with_choice_observed, select_optimizer, OptimizerChoice};
use hdmm_optimizer::RestartObserver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Optimizer options (restarts, seeds, p overrides) used by SELECT.
    pub hdmm: HdmmOptions,
    /// Maximum number of cached plans.
    pub cache_capacity: usize,
    /// Maximum number of retained sessions; the oldest is dropped when full
    /// (each session holds a domain-sized estimate, so this bounds memory).
    pub session_capacity: usize,
    /// Master seed: each dataset derives its own RNG stream from this seed
    /// and its name, so answers are deterministic per (seed, dataset,
    /// per-dataset request order) regardless of thread interleaving across
    /// datasets.
    pub seed: u64,
    /// Run full Algorithm 2 on every plan instead of the structural planner
    /// (slower, occasionally lower error; mirrors the paper's offline mode).
    pub exhaustive_planning: bool,
    /// Maximum threads a single request's shard fan-out may use
    /// (0 = the machine's available parallelism). Shard counts above this
    /// still work; tasks queue onto the available lanes.
    pub shard_workers: usize,
    /// Directory for the persistent strategy cache. `None` disables spill;
    /// with a directory set, plans survive restarts: the store is probed
    /// lazily on each in-memory cache miss and written back after each
    /// fresh SELECT (best-effort — I/O failures never fail a request).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Remote shard fan-out. With a transport configured, sharded datasets
    /// MEASURE over the worker pool and RECONSTRUCT on the coordinator
    /// (answers stay byte-identical to local serving); dense datasets and a
    /// fully failed pool serve locally. `None` keeps everything in-process.
    pub remote: Option<RemoteOptions>,
    /// Requests slower than this flush their span tree to the collector
    /// eagerly (even when unsampled) and count in
    /// [`crate::TelemetrySnapshot::slow_queries`]. `None` disables the
    /// slow-query log.
    pub slow_query_threshold: Option<Duration>,
    /// Spans the engine's [`SpanCollector`] retains (ring-buffered; overflow
    /// overwrites the oldest span and is drop-counted).
    pub trace_capacity: usize,
    /// Trace-sampling stride: every `trace_sample`-th request flushes its
    /// span tree to the collector (1 = every request, 0 = only slow ones).
    /// Phase/shard events always reach the latency histograms regardless.
    pub trace_sample: u64,
    /// ε-audit events the engine's [`AuditLog`] ring retains.
    pub audit_capacity: usize,
    /// Directory for the durable ε-ledger ([`crate::wal`]). `None` keeps the
    /// ledgers in memory only. With a directory set, every budget transition
    /// is journaled (commits fsynced before the answer is released), the
    /// ledger state is snapshotted periodically, and [`Engine::open`] replays
    /// snapshot + log to reconstruct exact spent-budget state after a crash —
    /// see `docs/DURABILITY.md`.
    pub wal_dir: Option<std::path::PathBuf>,
    /// WAL records between automatic snapshots (each snapshot also truncates
    /// the log). 0 disables automatic snapshotting; the log then grows until
    /// [`Engine::snapshot_wal`] is called.
    pub wal_snapshot_every: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            hdmm: HdmmOptions::default(),
            cache_capacity: 64,
            session_capacity: 1024,
            seed: 0,
            exhaustive_planning: false,
            shard_workers: 0,
            cache_dir: None,
            remote: None,
            slow_query_threshold: None,
            trace_capacity: 4096,
            trace_sample: 1,
            audit_capacity: 1024,
            wal_dir: None,
            wal_snapshot_every: 1024,
        }
    }
}

/// Registration-time dataset parameters beyond the domain and data.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Total ε budget granted to the dataset.
    pub total_eps: f64,
    /// Number of leading-axis slabs to partition the data vector into
    /// (clamped to `[1, n₁]`; 1 = contiguous dense storage).
    pub shards: usize,
    /// Owning tenant; spends are additionally charged against the tenant's
    /// quota when one is set via [`Engine::set_tenant_quota`].
    pub tenant: Option<String>,
}

impl DatasetConfig {
    /// Dense, tenant-less registration with the given budget.
    pub fn new(total_eps: f64) -> Self {
        DatasetConfig {
            total_eps,
            shards: 1,
            tenant: None,
        }
    }

    /// Partitions the data vector into `shards` leading-axis slabs.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Charges this dataset's spends against `tenant`'s quota as well.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// One registered dataset. `domain` and `data` are immutable after
/// registration and read lock-free; only the ledgers and the RNG stream
/// mutate, each behind its own short-lived mutex.
struct DatasetState {
    domain: Domain,
    data: Arc<dyn DataBackend>,
    accountant: Mutex<EpsAccountant>,
    /// The owning tenant's shared quota, when the dataset has one.
    tenant: Option<Arc<Mutex<TenantLedger>>>,
    /// The owning tenant's name (for metrics labels and audit events),
    /// duplicated here so reads never take the ledger lock.
    tenant_name: Option<String>,
    /// Per-dataset seeded stream: one `u64` is drawn per request to seed a
    /// request-local RNG, so a dataset's answer sequence depends only on its
    /// own request order, never on what other datasets' threads are doing.
    rng: Mutex<StdRng>,
    /// Requests that resolved to this dataset (including failures).
    requests: AtomicU64,
    /// Requests that failed (typed error or panic) after resolving.
    failures: AtomicU64,
}

/// The backend's slabs as the pipeline's view: one slab for dense data.
fn slab_view(data: &dyn DataBackend) -> ShardedView<'_> {
    let slabs = (0..data.shard_count())
        .map(|s| DataSlab {
            rows: data.shard_rows(s),
            values: data.shard_values(s),
        })
        .collect();
    ShardedView::new(data.leading_len(), slabs)
}

/// Number of session shards; ids are sequential, so round-robin spreads load.
const SESSION_SHARDS: usize = 8;

/// FIFO-bounded session registry, sharded by id for contention-free lookup.
struct SessionStore {
    shards: [RwLock<HashMap<SessionId, Arc<Session>>>; SESSION_SHARDS],
    /// Global insertion order for FIFO eviction; ids closed early are left
    /// stale and skipped when they reach the front.
    order: Mutex<VecDeque<SessionId>>,
    len: AtomicUsize,
    capacity: usize,
}

impl SessionStore {
    fn new(capacity: usize) -> Self {
        SessionStore {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            order: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
        }
    }

    fn shard(&self, id: SessionId) -> &RwLock<HashMap<SessionId, Arc<Session>>> {
        &self.shards[(id.0 as usize) % SESSION_SHARDS]
    }

    fn get(&self, id: SessionId) -> Option<Arc<Session>> {
        read_recover(self.shard(id)).get(&id).cloned()
    }

    fn insert(&self, session: Arc<Session>) {
        let id = session.id();
        write_recover(self.shard(id)).insert(id, session);
        self.len.fetch_add(1, Ordering::SeqCst);
        let mut order = lock_recover(&self.order);
        order.push_back(id);
        while self.len.load(Ordering::SeqCst) > self.capacity {
            let Some(oldest) = order.pop_front() else {
                break;
            };
            if write_recover(self.shard(oldest)).remove(&oldest).is_some() {
                self.len.fetch_sub(1, Ordering::SeqCst);
            }
            // A stale id (closed explicitly) already decremented `len`.
        }
    }

    fn remove(&self, id: SessionId) -> Option<Arc<Session>> {
        let removed = write_recover(self.shard(id)).remove(&id);
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::SeqCst);
        }
        removed
    }
}

/// An end-to-end private query-answering engine.
///
/// Owns registered datasets (each with its own ε ledger and seeded RNG
/// stream, so measurements on different datasets proceed concurrently and
/// deterministically), an internally sharded strategy cache keyed by
/// canonical workload fingerprints with single-flight miss deduplication, a
/// bounded sharded registry of the sessions produced by completed
/// measurements, and a lock-free telemetry registry. Shareable across
/// threads behind an `Arc`; every method takes `&self`.
pub struct Engine {
    options: EngineOptions,
    cache: StrategyCache,
    plan_store: Option<PlanStore>,
    inflight: SingleFlight<WorkloadFingerprint, Arc<Plan>>,
    datasets: RwLock<HashMap<String, Arc<DatasetState>>>,
    tenants: RwLock<HashMap<String, Arc<Mutex<TenantLedger>>>>,
    sessions: SessionStore,
    telemetry: Telemetry,
    shard_exec: ScopedExecutor,
    remote: Option<WorkerPool>,
    next_session: AtomicU64,
    collector: SpanCollector,
    audit: AuditLog,
    /// Per-request trace counter; trace ids derive from `(seed, counter)`.
    next_trace: AtomicU64,
    /// The durable ε-ledger, when [`EngineOptions::wal_dir`] is set.
    wal: Option<Wal>,
    /// Spent-ε recovered from the WAL for datasets not yet re-registered;
    /// re-registration under the same name re-attaches (and removes) the
    /// entry, restoring the spend onto the fresh ledger.
    recovered: Mutex<HashMap<String, RecoveredDataset>>,
}

/// Bridges the optimizer's per-restart callbacks into the engine's
/// observability surfaces: every completed cell bumps the
/// `restarts_run` counter and the single-flight progress (`done/total`,
/// visible to concurrent callers via [`Engine::select_progress`]), and —
/// on the traced serving path — lands as a span parented under the
/// request's SELECT span, one per `(restart, operator)` cell with its loss
/// attached. Restart cells complete on arbitrary executor threads, so all
/// three sinks are lock-free or internally synchronized.
struct SelectObserver<'a, 'f> {
    telemetry: &'a Telemetry,
    progress: &'f FlightProgress<'f, Arc<Plan>>,
    sink: Option<&'a (dyn SpanSink + Sync)>,
}

impl RestartObserver for SelectObserver<'_, '_> {
    fn grid_planned(&self, total_cells: usize) {
        self.progress.set_total(total_cells as u64);
    }

    fn restart_complete(&self, operator: &'static str, restart: usize, loss: f64, took: Duration) {
        self.telemetry.record_restart();
        self.progress.tick();
        if let Some(sink) = self.sink {
            if let Some(ctx) = sink.context() {
                let end = sink.rel_ns(Instant::now());
                let dur = dur_ns(took);
                sink.record(
                    Span::new(
                        ctx.trace_id,
                        sink.next_span_id(),
                        SELECT_SPAN_ID,
                        format!("restart:{operator}"),
                        end.saturating_sub(dur),
                        dur,
                    )
                    .attr("restart", restart.to_string())
                    .attr("loss", format!("{loss:e}")),
                );
            }
        }
    }
}

impl Engine {
    /// An engine with explicit options.
    ///
    /// # Panics
    /// Panics if [`EngineOptions::wal_dir`] is set and WAL recovery fails
    /// (corrupt snapshot, unreadable directory). Use [`Engine::open`] to
    /// handle recovery failure as a typed error instead.
    pub fn new(options: EngineOptions) -> Self {
        let wal_dir = options.wal_dir.clone();
        Engine::open(options).unwrap_or_else(|e| {
            let dir = wal_dir
                .map(|d| format!(" in {}", d.display()))
                .unwrap_or_default();
            panic!(
                "WAL recovery failed{dir}: {e}; restore the directory from backup \
                 or move it aside (losing budget history), or call Engine::open \
                 to handle this as a typed error"
            )
        })
    }

    /// An engine with explicit options, running durable-ledger recovery when
    /// [`EngineOptions::wal_dir`] is set: the ε spent before the crash (or
    /// clean shutdown) is reconstructed from snapshot + log *before* the
    /// engine serves its first query. Recovered tenant quotas are live
    /// immediately; recovered dataset ledgers re-attach when a dataset is
    /// re-registered under the same name (see `docs/DURABILITY.md` §6).
    ///
    /// Fails with [`EngineError::WalFailed`] when the durable state is
    /// corrupt beyond the tolerated torn tail — serving anyway could
    /// under-count spent ε, so the engine refuses to start.
    pub fn open(options: EngineOptions) -> Result<Self, EngineError> {
        let wal = match &options.wal_dir {
            Some(dir) => Some(Wal::open(dir.clone(), options.wal_snapshot_every)?),
            None => None,
        };
        let mut tenants = HashMap::new();
        let mut recovered = HashMap::new();
        if let Some(wal) = &wal {
            let state = wal.recovered();
            for (name, t) in &state.tenants {
                let mut ledger = TenantLedger::new(name.clone(), t.cap);
                ledger.restore_spent(t.spent);
                tenants.insert(name.clone(), Arc::new(Mutex::new(ledger)));
            }
            for (name, d) in &state.datasets {
                recovered.insert(name.clone(), d.clone());
            }
        }
        let telemetry = Telemetry::default();
        telemetry.set_select_threads(ScopedExecutor::new(options.hdmm.threads).threads() as u64);
        Ok(Engine {
            cache: StrategyCache::new(options.cache_capacity),
            plan_store: options.cache_dir.clone().map(PlanStore::new),
            inflight: SingleFlight::new(),
            sessions: SessionStore::new(options.session_capacity),
            telemetry,
            shard_exec: ScopedExecutor::new(options.shard_workers),
            remote: (options.remote.as_ref())
                .map(|r| WorkerPool::connect(&r.workers, r.policy.clone())),
            collector: SpanCollector::new(options.trace_capacity),
            audit: AuditLog::new(options.audit_capacity),
            options,
            datasets: RwLock::new(HashMap::new()),
            tenants: RwLock::new(tenants),
            next_session: AtomicU64::new(1),
            next_trace: AtomicU64::new(0),
            wal,
            recovered: Mutex::new(recovered),
        })
    }

    /// An engine with default options and the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Engine::new(EngineOptions {
            seed,
            ..Default::default()
        })
    }

    /// Derives the dataset's RNG seed from the master seed and its name
    /// (FNV-1a), so streams are stable across runs and distinct per dataset.
    fn dataset_seed(&self, name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ self.options.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Registers a dataset: its domain, data vector (cell counts in row-major
    /// order), and total ε budget, stored densely. The engine holds the only
    /// reference the serving path ever takes to raw data.
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        total_eps: f64,
    ) -> Result<(), EngineError> {
        self.register_dataset_with(name, domain, x, DatasetConfig::new(total_eps))
    }

    /// Registers a dataset partitioned into `shards` leading-axis slabs.
    /// Sharding is purely a storage/parallelism decision: answers are
    /// byte-identical to a dense registration with the same name and seed,
    /// for every `shards ≥ 1` (including non-divisible leading axes).
    pub fn register_dataset_sharded(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        shards: usize,
        total_eps: f64,
    ) -> Result<(), EngineError> {
        self.register_dataset_with(
            name,
            domain,
            x,
            DatasetConfig::new(total_eps).with_shards(shards),
        )
    }

    /// Full-control registration: shard count and tenant ownership.
    pub fn register_dataset_with(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        config: DatasetConfig,
    ) -> Result<(), EngineError> {
        if x.len() != domain.size() {
            return Err(EngineError::DataVectorMismatch {
                expected: domain.size(),
                got: x.len(),
            });
        }
        let backend: Arc<dyn DataBackend> = if config.shards <= 1 {
            Arc::new(DenseVector::new(&domain, x))
        } else {
            Arc::new(ShardedDataVector::partition(&domain, x, config.shards))
        };
        self.register_dataset_backend(name, domain, backend, config)
    }

    /// Registers a dataset over a caller-provided backend (custom slab
    /// layouts, memory-mapped storage, …). `config.shards` is ignored — the
    /// backend's own partition wins.
    pub fn register_dataset_backend(
        &self,
        name: impl Into<String>,
        domain: Domain,
        data: Arc<dyn DataBackend>,
        config: DatasetConfig,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if !(config.total_eps.is_finite() && config.total_eps > 0.0) {
            return Err(EngineError::InvalidEpsilon {
                eps: config.total_eps,
            });
        }
        if data.len() != domain.size() || data.leading_len() != domain.attr_size(0) {
            return Err(EngineError::DataVectorMismatch {
                expected: domain.size(),
                got: data.len(),
            });
        }
        // Validate the backend's slab partition once here (the same tiling
        // invariants `ShardedView::new` asserts), so a malformed custom
        // backend is a typed registration error rather than a panic on every
        // later serve.
        {
            let stride = data.len() / data.leading_len().max(1);
            let mut next = 0usize;
            for s in 0..data.shard_count() {
                let rows = data.shard_rows(s);
                if rows.start != next
                    || rows.end < rows.start
                    || data.shard_values(s).len() != (rows.end - rows.start) * stride
                {
                    return Err(EngineError::DataVectorMismatch {
                        expected: domain.size(),
                        got: data.len(),
                    });
                }
                next = rows.end;
            }
            if next != data.leading_len() || data.shard_count() == 0 {
                return Err(EngineError::DataVectorMismatch {
                    expected: domain.size(),
                    got: data.len(),
                });
            }
        }
        let tenant = config
            .tenant
            .as_ref()
            .map(|t| self.tenant_ledger_or_default(t));
        let seed = self.dataset_seed(&name);
        {
            let mut datasets = write_recover(&self.datasets);
            if datasets.contains_key(&name) {
                return Err(EngineError::DatasetExists { name });
            }
            // Journal before apply (still under the write lock, so the WAL's
            // registration order matches the registry's): if the durable
            // record cannot be written, the registration fails and nothing
            // was inserted — no rollback path to get wrong.
            if let Some(wal) = &self.wal {
                wal.append(&WalRecord::DatasetRegistered {
                    name: name.clone(),
                    total_eps: config.total_eps,
                    tenant: config.tenant.clone(),
                })?;
            }
            let mut ledger = EpsAccountant::new(name.clone(), config.total_eps);
            // A crash-recovered ledger under this name re-attaches here: the
            // new registration's grant and tenant win, the recovered spend is
            // restored (clamped to the grant — conservative, never negative).
            if let Some(prior) = lock_recover(&self.recovered).remove(&name) {
                ledger.restore_spent(prior.spent);
            }
            datasets.insert(
                name.clone(),
                Arc::new(DatasetState {
                    domain,
                    data: Arc::clone(&data),
                    accountant: Mutex::new(ledger),
                    tenant,
                    tenant_name: config.tenant.clone(),
                    rng: Mutex::new(StdRng::seed_from_u64(seed)),
                    requests: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                }),
            );
        }
        // Warm the remote workers with the new dataset's slabs — strictly
        // after the insert, so a rejected registration (duplicate name, bad
        // shape) never overwrites a live dataset's slabs on the workers.
        // Best-effort: `run_slab_task` re-pushes on demand, so a failure here
        // (worker down, pool empty) costs first-request latency only.
        if let Some(remote) = &self.remote {
            let view = slab_view(data.as_ref());
            if view.shard_count() > 1 {
                let _ = remote.preload(&name, &view);
            }
        }
        Ok(())
    }

    /// Registers one more shard worker at runtime; subsequent sharded
    /// requests may route tasks (and reassigned shards) to it. Fails with
    /// [`EngineError::WorkerUnavailable`] when the worker does not answer a
    /// ping — or when the engine was built without a remote transport.
    pub fn connect_worker(&self, addr: &str) -> Result<(), EngineError> {
        let Some(remote) = &self.remote else {
            return Err(EngineError::WorkerUnavailable {
                addr: addr.to_string(),
            });
        };
        remote
            .add_worker(addr)
            .map_err(|_| EngineError::WorkerUnavailable {
                addr: addr.to_string(),
            })
    }

    /// The tenant's shared ledger, created unlimited if absent.
    fn tenant_ledger_or_default(&self, tenant: &str) -> Arc<Mutex<TenantLedger>> {
        if let Some(l) = read_recover(&self.tenants).get(tenant) {
            return Arc::clone(l);
        }
        let mut tenants = write_recover(&self.tenants);
        Arc::clone(
            tenants
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(TenantLedger::new(tenant, f64::INFINITY)))),
        )
    }

    /// Sets (or updates) a tenant's ε quota: the sum of spends across all of
    /// the tenant's datasets may not exceed `eps_cap`. Lowering the cap
    /// below spend blocks further measurement until it is raised.
    pub fn set_tenant_quota(&self, tenant: &str, eps_cap: f64) -> Result<(), EngineError> {
        if eps_cap.is_nan() || eps_cap <= 0.0 {
            return Err(EngineError::InvalidEpsilon { eps: eps_cap });
        }
        // Journal before apply: a quota that was acked must survive restart
        // (replaying a cap the crash forgot would *loosen* a tenant's limit).
        if let Some(wal) = &self.wal {
            wal.append(&WalRecord::TenantQuotaSet {
                tenant: tenant.to_string(),
                cap: eps_cap,
            })?;
        }
        let ledger = self.tenant_ledger_or_default(tenant);
        lock_recover(&ledger).set_cap(eps_cap);
        Ok(())
    }

    /// Spent ε recovered from the durable ledger for a dataset that has not
    /// been re-registered since the restart. Returns `None` once the dataset
    /// re-attaches (its live ledger then carries the spend) or when nothing
    /// was recovered under the name.
    pub fn recovered_spent(&self, dataset: &str) -> Option<f64> {
        lock_recover(&self.recovered).get(dataset).map(|d| d.spent)
    }

    /// Forces a durable-ledger snapshot now (serialize ledger state, fsync,
    /// truncate the log) instead of waiting for
    /// [`EngineOptions::wal_snapshot_every`]. No-op without a WAL.
    pub fn snapshot_wal(&self) -> Result<(), EngineError> {
        match &self.wal {
            Some(wal) => wal.snapshot_now().map_err(EngineError::from),
            None => Ok(()),
        }
    }

    /// (cap, spent, remaining) ε for a tenant's quota.
    pub fn tenant_budget(&self, tenant: &str) -> Option<(f64, f64, f64)> {
        let ledger = Arc::clone(read_recover(&self.tenants).get(tenant)?);
        let l = lock_recover(&ledger);
        Some((l.cap(), l.spent(), l.remaining()))
    }

    /// Resolves a dataset handle, validating the workload domain against it
    /// (domains are immutable after registration, so one check suffices).
    fn resolve_dataset(
        &self,
        name: &str,
        workload: &Workload,
    ) -> Result<Arc<DatasetState>, EngineError> {
        let handle = read_recover(&self.datasets)
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownDataset {
                name: name.to_string(),
            })?;
        if workload.domain() != &handle.domain {
            return Err(EngineError::DomainMismatch {
                expected: handle.domain.clone(),
                got: workload.domain().clone(),
            });
        }
        Ok(handle)
    }

    /// Returns the optimized plan for `workload`, consulting the strategy
    /// cache first. The boolean is `true` on a cache hit. Selection is pure —
    /// no data, no budget — so this is safe to call speculatively (e.g. to
    /// pre-warm the cache before traffic arrives).
    ///
    /// Concurrent misses on the same fingerprint are deduplicated: one caller
    /// runs SELECT while the others wait and share the resulting plan
    /// (counted in [`crate::TelemetrySnapshot::dedup_waits`]).
    pub fn plan(&self, workload: &Workload) -> (Arc<Plan>, bool) {
        let fingerprint = workload.fingerprint();
        self.plan_keyed(&fingerprint, workload, None)
    }

    /// Live progress of an in-flight SELECT for `workload`, as
    /// `(restarts_done, restarts_total)` — the leader publishes a tick per
    /// completed restart cell. `None` when no SELECT for this workload is in
    /// flight (including after it lands in the cache); `Some((0, 0))` while
    /// a flight exists but its restart grid has not been planned yet. Lets a
    /// dashboard distinguish "optimizer 7/12 done" from a silent block.
    pub fn select_progress(&self, workload: &Workload) -> Option<(u64, u64)> {
        self.inflight.progress(&workload.fingerprint())
    }

    /// [`Engine::plan`] with the fingerprint supplied by the caller, so the
    /// serving path hashes the workload once and reuses the key for the
    /// prepared-reconstruct lookup.
    fn plan_keyed(
        &self,
        fingerprint: &WorkloadFingerprint,
        workload: &Workload,
        sink: Option<&(dyn SpanSink + Sync)>,
    ) -> (Arc<Plan>, bool) {
        if let Some(plan) = self.cache.get(fingerprint) {
            return (plan, true);
        }
        // SELECT can take seconds while cached requests keep flowing: the
        // optimization runs outside every lock, under single-flight dedup.
        let freshly_optimized = std::cell::Cell::new(false);
        let (plan, outcome) = self.inflight.run_with_progress(fingerprint, |flight| {
            // A completed flight may have populated the cache between our
            // miss and leader election; don't optimize twice.
            if let Some(plan) = self.cache.peek(fingerprint) {
                return plan;
            }
            // Lazy reload from the persistent store: a plan optimized before
            // a restart is exactly as good now (selection is a pure function
            // of the workload), so a disk hit skips SELECT entirely.
            if let Some(store) = &self.plan_store {
                if let Some(plan) = store.load(fingerprint, workload) {
                    let plan = Arc::new(plan);
                    self.telemetry.record_plan_disk_hit();
                    self.cache.insert(fingerprint.clone(), Arc::clone(&plan));
                    return plan;
                }
            }
            let _inflight = self.telemetry.select_started();
            let t = Instant::now();
            let observer = SelectObserver {
                telemetry: &self.telemetry,
                progress: flight,
                sink,
            };
            let plan = Arc::new(self.optimize_observed(workload, &observer));
            self.telemetry.record_select(t.elapsed());
            self.cache.insert(fingerprint.clone(), Arc::clone(&plan));
            freshly_optimized.set(true);
            plan
        });
        if outcome == FlightOutcome::Joined {
            self.telemetry.record_dedup_wait();
        }
        // Spill *after* the flight completes: the plan is already published
        // to the memory cache and the single-flight waiters, so the disk
        // write (best-effort, fsync included) never sits on the serving path
        // of anyone but this leader's tail.
        if freshly_optimized.get() {
            if let Some(store) = &self.plan_store {
                store.store(fingerprint, &plan, workload.domain());
            }
        }
        (plan, false)
    }

    fn optimize_observed(&self, workload: &Workload, observer: &dyn RestartObserver) -> Plan {
        let opts = &self.options.hdmm;
        let grams = WorkloadGrams::from_workload(workload);
        let ps = opts
            .ps
            .clone()
            .unwrap_or_else(|| hdmm_optimizer::default_ps(workload));
        let choice = if self.options.exhaustive_planning {
            OptimizerChoice::Exhaustive
        } else {
            select_optimizer(workload, opts).choice
        };
        let selected = optimize_with_choice_observed(&grams, &ps, opts, choice, observer);
        Plan::from_parts(selected, grams, workload.query_count())
    }

    /// The planner decision for a workload, without running the optimization
    /// (`EXPLAIN` for the SELECT phase).
    pub fn explain(&self, workload: &Workload) -> hdmm_optimizer::PlanDecision {
        select_optimizer(workload, &self.options.hdmm)
    }

    /// Looks up a session produced by a previous [`QueryEngine::serve`] call.
    pub fn session(&self, id: SessionId) -> Result<Arc<Session>, EngineError> {
        self.sessions
            .get(id)
            .ok_or(EngineError::UnknownSession { id })
    }

    /// Answers a batch of follow-up workloads from a stored session in one
    /// call — the serving-layer face of [`Session::answer_batch`]. The
    /// workloads fan out over the engine's shard-worker executor
    /// ([`EngineOptions::shard_workers`] lanes), each as an independent
    /// `W·x̄` task with its own scratch buffers, so a dashboard refiring `k`
    /// follow-ups pays one reconstruction (already done at session creation)
    /// and `k` answer passes that overlap on available cores. Zero
    /// additional ε; entry `i` is bitwise identical to answering
    /// `workloads[i]` through the session individually, at any lane count.
    /// The whole batch is recorded as one answer-phase observation.
    pub fn serve_batch_from_session(
        &self,
        id: SessionId,
        workloads: &[&Workload],
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        let session = self.session(id)?;
        let t = Instant::now();
        let out = session.answer_batch_on(workloads, &self.shard_exec)?;
        self.telemetry
            .phase_complete(hdmm_mechanism::MechanismPhase::Answer, t.elapsed());
        Ok(out)
    }

    /// Drops a session, releasing its domain-sized estimate immediately
    /// instead of waiting for capacity eviction.
    pub fn close_session(&self, id: SessionId) -> Result<(), EngineError> {
        self.sessions
            .remove(id)
            .map(|_| ())
            .ok_or(EngineError::UnknownSession { id })
    }

    /// (total, spent, remaining) ε for a dataset.
    pub fn budget(&self, dataset: &str) -> Result<(f64, f64, f64), EngineError> {
        let handle = read_recover(&self.datasets)
            .get(dataset)
            .cloned()
            .ok_or_else(|| EngineError::UnknownDataset {
                name: dataset.to_string(),
            })?;
        let a = lock_recover(&handle.accountant);
        Ok((a.total_budget(), a.spent(), a.remaining()))
    }

    /// Strategy-cache effectiveness counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// One-call observability: strategy-cache counters, per-phase latency
    /// histograms (select/measure/reconstruct/answer, plus per-shard task
    /// spans), serving counters, per-dataset request/failure counters and
    /// ε-budget gauges, tenant quotas, and span/audit pipeline counters.
    pub fn metrics(&self) -> EngineMetrics {
        let mut datasets: Vec<DatasetMetrics> = read_recover(&self.datasets)
            .iter()
            .map(|(name, s)| {
                let (eps_total, eps_spent, eps_remaining) = {
                    let a = lock_recover(&s.accountant);
                    (a.total_budget(), a.spent(), a.remaining())
                };
                DatasetMetrics {
                    name: name.clone(),
                    requests: s.requests.load(Ordering::Relaxed),
                    failures: s.failures.load(Ordering::Relaxed),
                    shards: s.data.shard_count(),
                    eps_total,
                    eps_spent,
                    eps_remaining,
                    tenant: s.tenant_name.clone(),
                }
            })
            .collect();
        datasets.sort_by(|a, b| a.name.cmp(&b.name));
        let mut tenants: Vec<TenantMetrics> = read_recover(&self.tenants)
            .iter()
            .map(|(name, ledger)| {
                let l = lock_recover(ledger);
                TenantMetrics {
                    tenant: name.clone(),
                    eps_cap: l.cap(),
                    eps_spent: l.spent(),
                    eps_remaining: l.remaining(),
                }
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        EngineMetrics {
            cache: self.cache.stats(),
            telemetry: self.telemetry.snapshot(),
            datasets,
            tenants,
            obs: ObsMetrics {
                spans_collected: self.collector.collected(),
                spans_dropped: self.collector.dropped(),
                trace_capacity: self.collector.capacity(),
                audit_events: self.audit.emitted(),
                audit_subscriber_drops: self.audit.subscriber_drops(),
            },
            remote: self.remote.as_ref().map(WorkerPool::health),
            wal: self.wal.as_ref().map(Wal::metrics),
        }
    }

    /// The live telemetry registry (histograms keep accumulating; use
    /// [`Engine::metrics`] for a consistent snapshot).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's span collector (bounded; see
    /// [`EngineOptions::trace_capacity`]).
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// The ε-budget audit stream: every reserve / commit / refund / denial,
    /// with the trace id of the request that caused it. Subscribe for live
    /// events or dump the retained ring as JSONL.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The retained spans of one trace (the `trace_id` of a
    /// [`QueryResponse`]), sorted by start time.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<Span> {
        self.collector.trace(trace_id)
    }

    /// One trace rendered as Chrome `trace_event` JSON — open the string in
    /// Perfetto or `chrome://tracing` as-is.
    pub fn chrome_trace(&self, trace_id: u64) -> String {
        hdmm_obs::chrome_trace(&self.trace_spans(trace_id))
    }

    /// [`Engine::metrics`] rendered in the Prometheus text exposition format
    /// (version 0.0.4) — what the `hdmm-metrics-exporter` binary serves at
    /// `/metrics`.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render_prometheus(&self.metrics())
    }

    /// Journals one budget transition to the durable ledger, when present.
    /// The caller chooses what a failure means: the reserve path fails the
    /// request (no noise drawn yet), deny/commit/refund paths absorb the
    /// error (the in-memory transition already happened; the failure is
    /// counted in [`crate::wal::WalMetrics::append_errors`]).
    fn journal(
        &self,
        kind: AuditKind,
        dataset: &str,
        tenant: Option<&str>,
        eps: f64,
        trace_id: u64,
    ) -> Result<(), EngineError> {
        if let Some(wal) = &self.wal {
            wal.append(&WalRecord::Budget {
                kind,
                dataset: dataset.to_string(),
                tenant: tenant.map(str::to_string),
                eps,
                trace_id,
                unix_ms: now_unix_ms(),
            })?;
        }
        Ok(())
    }

    /// The request lifecycle around [`Engine::serve_inner`]: mints the
    /// request's deterministic [`TraceContext`], runs the request under a
    /// [`RequestTracer`], and at the end flushes the span tree to the
    /// collector when the request is sampled or slow.
    fn serve_with_trace(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
        enqueued: Option<Instant>,
    ) -> Result<QueryResponse, EngineError> {
        let mut record = RecordRequestOnDrop {
            telemetry: &self.telemetry,
            outcome: None,
        };
        let counter = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceContext::derive(self.options.seed, counter);
        let tracer = RequestTracer::new(ctx, &self.collector, &self.telemetry);
        if let Some(at) = enqueued {
            tracer.record_queue(at);
        }
        let result = self.serve_inner(dataset, workload, eps, &tracer);
        record.outcome = Some(result.is_ok());
        // Stride 0 disables sampling entirely (the guard also keeps
        // `is_multiple_of(0)` from sampling request 0).
        let sampled =
            self.options.trace_sample != 0 && counter.is_multiple_of(self.options.trace_sample);
        let slow = tracer.finish(
            dataset,
            result.is_ok(),
            sampled,
            self.options.slow_query_threshold,
        );
        if slow {
            self.telemetry.record_slow_query();
        }
        result
    }

    /// [`QueryEngine::serve`] for a request that waited on a queue since
    /// `enqueued` (the [`crate::EngineServer`] worker loop calls this): the
    /// queue wait becomes the trace's `queue` span, so operators can tell
    /// backpressure latency from serving latency in one span tree.
    pub fn serve_queued(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
        enqueued: Instant,
    ) -> Result<QueryResponse, EngineError> {
        self.serve_with_trace(dataset, workload, eps, Some(enqueued))
    }

    fn serve_inner(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
        tracer: &RequestTracer<'_>,
    ) -> Result<QueryResponse, EngineError> {
        // Cheap validation first (microseconds, short registry read lock) so
        // a typo'd dataset or mismatched domain never pays for SELECT or
        // occupies a cache slot.
        let handle = self.resolve_dataset(dataset, workload)?;

        // From here the request is attributable to the dataset: count it in
        // the per-dataset counters, panics included (outcome `None` = failed).
        let mut per_dataset = RecordDatasetOnDrop {
            state: &handle,
            outcome: None,
        };

        let result = self.serve_resolved(dataset, &handle, workload, eps, tracer);
        per_dataset.outcome = Some(result.is_ok());
        result
    }

    fn serve_resolved(
        &self,
        dataset: &str,
        handle: &DatasetState,
        workload: &Workload,
        eps: f64,
        tracer: &RequestTracer<'_>,
    ) -> Result<QueryResponse, EngineError> {
        // SELECT (cache-aware, single-flight) — pure, no data, no budget.
        let select_started = Instant::now();
        let fingerprint = workload.fingerprint();
        let (plan, cache_hit) = self.plan_keyed(&fingerprint, workload, Some(tracer));
        tracer.record_select(select_started, cache_hit);

        // The strategy's reconstruction factorization, memoized next to the
        // cached plan: the first request for a plan builds `(AᵀA)⁺` (or the
        // per-factor/marginals equivalent), every later warm hit reuses it —
        // pure post-processing of the strategy, so answers are bitwise
        // unchanged.
        let prepared = self.cache.prepared(&fingerprint, &plan);

        // One u64 off the dataset's stream seeds a per-request RNG: the
        // dataset lock is held for nanoseconds, and the answer sequence is
        // deterministic per (engine seed, dataset, request order) no matter
        // how threads interleave across datasets. The seed is kept so a
        // failed remote fan-out can redraw the same noise locally.
        let req_seed = {
            let mut ds_rng = lock_recover(&handle.rng);
            ds_rng.gen::<u64>()
        };
        let mut rng = StdRng::seed_from_u64(req_seed);

        // Reserve the budget *before* measuring (all-or-nothing): concurrent
        // requests on one dataset can both measure at once, and optimistic
        // spend-after-measure could let both draw noise when only one fits
        // the remaining ε. The ledger lock is held only for the reservation.
        // The guard refunds on *any* non-success exit — typed error or
        // panic — since either way no noise was drawn against the ε. The
        // tenant quota is reserved second; its failure refunds the dataset.
        let trace_id = tracer.trace_id();
        let tenant_name = handle.tenant_name.as_deref();
        {
            let mut a = lock_recover(&handle.accountant);
            let outcome = a.try_spend(eps);
            let remaining = a.remaining();
            drop(a);
            match outcome {
                Ok(()) => {
                    self.audit.emit(
                        trace_id,
                        dataset,
                        tenant_name,
                        AuditKind::Reserve,
                        eps,
                        remaining,
                    );
                }
                Err(e) => {
                    self.audit.emit(
                        trace_id,
                        dataset,
                        tenant_name,
                        AuditKind::Deny,
                        eps,
                        remaining,
                    );
                    // A denial changes no ledger state; journaling it is
                    // best-effort forensic context, not a correctness need.
                    let _ = self.journal(AuditKind::Deny, dataset, tenant_name, eps, trace_id);
                    return Err(e);
                }
            }
        }
        let mut reservation = RefundOnFailure {
            accountant: &handle.accountant,
            tenant: None,
            eps,
            armed: true,
            audit: &self.audit,
            wal: self.wal.as_ref(),
            trace_id,
            dataset,
            tenant_name,
        };
        // Journal the reservation *after* arming the guard: if the durable
        // ledger cannot record it, the request fails (no noise drawn yet)
        // and the guard's drop refunds the in-memory ledger. The guard must
        // NOT journal that refund — the Reserve never reached the log, so a
        // Refund record would be unmatched and replay would subtract it from
        // previously *committed* spend, under-counting ε
        // (docs/DURABILITY.md §7).
        if let Err(e) = self.journal(AuditKind::Reserve, dataset, tenant_name, eps, trace_id) {
            reservation.wal = None;
            return Err(e);
        }
        if let Some(ledger) = &handle.tenant {
            let mut l = lock_recover(ledger);
            let outcome = l.try_spend(eps);
            let remaining = l.remaining();
            drop(l);
            if let Err(e) = outcome {
                // The dataset reservation is refunded (and audited) by the
                // guard's drop; the quota denial gets its own event first so
                // the stream reads Reserve → Deny → Refund in cause order
                // (the WAL mirrors the same order; replay relies on the
                // refund following its reserve — see docs/DURABILITY.md §4).
                self.audit.emit(
                    trace_id,
                    dataset,
                    tenant_name,
                    AuditKind::Deny,
                    eps,
                    remaining,
                );
                let _ = self.journal(AuditKind::Deny, dataset, tenant_name, eps, trace_id);
                return Err(e);
            }
            reservation.tenant = Some(ledger);
        }

        // MEASURE + RECONSTRUCT + answer, lock-free: the data is immutable
        // and the reservation already guaranteed the budget. `remaining =
        // eps` keeps the mechanism's own validation consistent with the
        // reservation. Dense data is a one-slab view and runs the contiguous
        // kernels; sharded data fans out per slab, its MEASURE products on
        // the remote workers when a transport is configured — with
        // byte-identical results either way.
        let view = slab_view(handle.data.as_ref());
        let pipeline = Pipeline {
            workload,
            strategy: plan.strategy(),
            prepared: &prepared,
            view: &view,
            eps,
            remaining: eps,
            lanes: &self.shard_exec,
            observer: tracer,
        };
        let result = match self.remote.as_ref().filter(|_| view.shard_count() > 1) {
            None => pipeline.run(&mut rng, &Lanes),
            Some(pool) => {
                let source = SlabRpc {
                    pool,
                    dataset,
                    sink: tracer,
                };
                match pipeline.run(&mut rng, &source) {
                    Ok(r) => Ok(r),
                    Err(RemoteError::Mechanism(e)) => Err(e),
                    Err(RemoteError::Net(_)) => {
                        // No worker could complete the request, even after
                        // retry and reassignment: serve locally. The RNG is
                        // reseeded from the request seed, so the local rerun
                        // redraws the identical noise stream — the fallback
                        // is invisible in the answer bytes.
                        self.telemetry.record_remote_fallback();
                        pipeline.run(&mut StdRng::seed_from_u64(req_seed), &Lanes)
                    }
                }
            }
        }
        .map_err(|e| EngineError::from_mechanism(e, dataset))?;
        // Noise was drawn: the ε is genuinely spent, keep the reservation.
        reservation.commit();
        self.telemetry
            .record_reconstruct_solve(prepared.solve_kind());

        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        let session = Arc::new(Session::new(
            id,
            dataset.to_string(),
            handle.domain.clone(),
            result.x_hat,
            eps,
        ));
        self.sessions.insert(session);

        Ok(QueryResponse {
            answers: result.answers,
            session: id,
            eps_spent: eps,
            cache_hit,
            operator: plan.operator(),
            expected_error: plan.expected_error(eps),
            shards: handle.data.shard_count(),
            trace_id,
        })
    }
}

/// Refunds a budget reservation whose measurement never completed — a typed
/// error return or a panic unwinding through `serve_inner`. Disarmed by
/// [`RefundOnFailure::commit`] once noise has actually been drawn. When a
/// tenant quota was also reserved, both ledgers are refunded together.
///
/// Both exits emit an audit event carrying the request's trace id: `Commit`
/// when the spend sticks, `Refund` when the reservation is released — so the
/// audit stream accounts for every ε that was ever reserved, panics
/// included.
struct RefundOnFailure<'a> {
    accountant: &'a Mutex<EpsAccountant>,
    tenant: Option<&'a Arc<Mutex<TenantLedger>>>,
    eps: f64,
    armed: bool,
    audit: &'a AuditLog,
    /// The durable ledger, when the engine has one: commit and refund are
    /// journaled on the same exits that emit the audit events. Cleared when
    /// the Reserve append itself fails, so the drop's refund is *not*
    /// journaled — an unmatched Refund would under-count committed spend on
    /// replay (docs/DURABILITY.md §7).
    wal: Option<&'a Wal>,
    trace_id: u64,
    dataset: &'a str,
    tenant_name: Option<&'a str>,
}

impl RefundOnFailure<'_> {
    /// Journals one transition to the WAL, best-effort: by the time commit
    /// or refund runs, the in-memory ledger has already moved, so a journal
    /// failure degrades durability (counted in
    /// [`crate::wal::WalMetrics::append_errors`]) rather than failing the
    /// request. Replay stays conservative either way: a reserve whose
    /// commit was lost still counts as spent, and a lost refund can only
    /// over-count spend.
    fn journal(&self, kind: AuditKind) {
        if let Some(wal) = self.wal {
            let _ = wal.append(&WalRecord::Budget {
                kind,
                dataset: self.dataset.to_string(),
                tenant: self.tenant_name.map(str::to_string),
                eps: self.eps,
                trace_id: self.trace_id,
                unix_ms: now_unix_ms(),
            });
        }
    }

    fn commit(mut self) {
        self.armed = false;
        let remaining = lock_recover(self.accountant).remaining();
        self.audit.emit(
            self.trace_id,
            self.dataset,
            self.tenant_name,
            AuditKind::Commit,
            self.eps,
            remaining,
        );
        // The commit append fsyncs (see `WalRecord::durable`) — the caller
        // only releases the answer after this returns, so an acked spend is
        // never observable as unspent after a crash (DURABILITY.md §5).
        self.journal(AuditKind::Commit);
    }
}

impl Drop for RefundOnFailure<'_> {
    fn drop(&mut self) {
        if self.armed {
            let remaining = {
                let mut a = lock_recover(self.accountant);
                a.refund(self.eps);
                a.remaining()
            };
            if let Some(tenant) = self.tenant {
                lock_recover(tenant).refund(self.eps);
            }
            self.audit.emit(
                self.trace_id,
                self.dataset,
                self.tenant_name,
                AuditKind::Refund,
                self.eps,
                remaining,
            );
            self.journal(AuditKind::Refund);
        }
    }
}

/// Per-dataset twin of [`RecordRequestOnDrop`]: attributes the request (and
/// its outcome, panics included) to the dataset it resolved to.
struct RecordDatasetOnDrop<'a> {
    state: &'a DatasetState,
    outcome: Option<bool>,
}

impl Drop for RecordDatasetOnDrop<'_> {
    fn drop(&mut self) {
        self.state.requests.fetch_add(1, Ordering::Relaxed);
        if !self.outcome.unwrap_or(false) {
            self.state.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts every request exactly once, panics included: a request that
/// unwinds (answered as a typed error by the server's catch-guard) must show
/// up in `requests`/`failures`, or fleets suffering panic-inducing workloads
/// would report `failures=0`.
struct RecordRequestOnDrop<'a> {
    telemetry: &'a Telemetry,
    outcome: Option<bool>,
}

impl Drop for RecordRequestOnDrop<'_> {
    fn drop(&mut self) {
        self.telemetry.record_request(self.outcome.unwrap_or(false));
    }
}

impl QueryEngine for Engine {
    fn serve(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
    ) -> Result<QueryResponse, EngineError> {
        self.serve_with_trace(dataset, workload, eps, None)
    }

    fn serve_from_session(
        &self,
        session: SessionId,
        workload: &Workload,
    ) -> Result<Vec<f64>, EngineError> {
        self.session(session)?.answer(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::builders;

    fn quick_engine(seed: u64) -> Engine {
        Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn serve_requires_a_registered_dataset() {
        let engine = quick_engine(0);
        let w = builders::prefix_1d(8);
        assert!(matches!(
            engine.serve("nope", &w, 0.1),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    #[test]
    fn registration_validates_shape_budget_and_uniqueness() {
        let engine = quick_engine(0);
        let d = Domain::one_dim(8);
        assert!(matches!(
            engine.register_dataset("d", d.clone(), vec![0.0; 7], 1.0),
            Err(EngineError::DataVectorMismatch {
                expected: 8,
                got: 7
            })
        ));
        assert!(matches!(
            engine.register_dataset("d", d.clone(), vec![0.0; 8], 0.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        engine
            .register_dataset("d", d.clone(), vec![0.0; 8], 1.0)
            .unwrap();
        assert!(matches!(
            engine.register_dataset("d", d, vec![0.0; 8], 1.0),
            Err(EngineError::DatasetExists { .. })
        ));
    }

    #[test]
    fn serve_spends_budget_and_mismatched_domain_is_rejected() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![5.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let resp = engine.serve("d", &w, 0.25).unwrap();
        assert_eq!(resp.answers.len(), w.query_count());
        let (total, spent, remaining) = engine.budget("d").unwrap();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((spent - 0.25).abs() < 1e-12);
        assert!((remaining - 0.75).abs() < 1e-12);

        let wrong = builders::prefix_1d(16);
        assert!(matches!(
            engine.serve("d", &wrong, 0.1),
            Err(EngineError::DomainMismatch { .. })
        ));
        // A failed request spends nothing.
        assert!((engine.budget("d").unwrap().1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn batch_from_session_matches_individual_follow_ups_bitwise() {
        let engine = quick_engine(11);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![3.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let resp = engine.serve("d", &w, 0.5).unwrap();
        let ranges = builders::all_range_1d(8);
        let batch = engine
            .serve_batch_from_session(resp.session, &[&w, &ranges])
            .unwrap();
        assert_eq!(
            batch[0],
            engine.serve_from_session(resp.session, &w).unwrap()
        );
        assert_eq!(
            batch[1],
            engine.serve_from_session(resp.session, &ranges).unwrap()
        );
        // Post-processing: the batch spent nothing.
        assert!((engine.budget("d").unwrap().1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_reserve_append_does_not_journal_an_unmatched_refund() {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-engine-reserve-fail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = Engine::new(EngineOptions {
                hdmm: HdmmOptions {
                    restarts: 1,
                    ..Default::default()
                },
                wal_dir: Some(dir.clone()),
                ..Default::default()
            });
            engine
                .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
                .unwrap();
            let w = builders::prefix_1d(8);
            engine.serve("d", &w, 0.25).unwrap();

            // Every WAL append now fails: the reserve path must fail the
            // request, refund the in-memory ledger, and journal *neither*
            // half of the aborted reservation (DURABILITY.md §7) — an
            // unmatched Refund would subtract the committed 0.25 on replay.
            let wal = engine.wal.as_ref().unwrap();
            wal.fail_appends
                .store(1, std::sync::atomic::Ordering::Relaxed);
            assert!(matches!(
                engine.serve("d", &w, 0.25),
                Err(EngineError::WalFailed { .. })
            ));
            wal.fail_appends
                .store(0, std::sync::atomic::Ordering::Relaxed);
            // In memory: the failed reservation was refunded.
            assert!((engine.budget("d").unwrap().1 - 0.25).abs() < 1e-12);
        }
        // On disk: recovery reproduces exactly the committed spend.
        let wal = crate::wal::Wal::open(&dir, 1024).unwrap();
        let spent = wal.recovered().datasets["d"].spent;
        assert!(
            (spent - 0.25).abs() < 1e-12,
            "recovered spent {spent} != committed 0.25 (unmatched record in WAL)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_is_cached_by_fingerprint() {
        let engine = quick_engine(0);
        let w = builders::prefix_2d(8, 8);
        let (_, hit1) = engine.plan(&w);
        let (_, hit2) = engine.plan(&w);
        assert!(!hit1 && hit2);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn session_store_is_bounded_and_closable() {
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            session_capacity: 2,
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 100.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let s1 = engine.serve("d", &w, 0.1).unwrap().session;
        let s2 = engine.serve("d", &w, 0.1).unwrap().session;
        let s3 = engine.serve("d", &w, 0.1).unwrap().session;
        // Capacity 2: the oldest session was evicted.
        assert!(matches!(
            engine.session(s1),
            Err(EngineError::UnknownSession { .. })
        ));
        assert!(engine.session(s2).is_ok() && engine.session(s3).is_ok());
        // Explicit close releases immediately; closing twice is typed.
        engine.close_session(s2).unwrap();
        assert!(matches!(
            engine.close_session(s2),
            Err(EngineError::UnknownSession { .. })
        ));
    }

    #[test]
    fn invalid_requests_never_occupy_the_strategy_cache() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
            .unwrap();
        let wrong_domain = builders::prefix_1d(16);
        assert!(engine.serve("d", &wrong_domain, 0.1).is_err());
        assert!(engine.serve("nope", &wrong_domain, 0.1).is_err());
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.len, stats.misses),
            (0, 0),
            "rejected requests must not reach SELECT: {stats:?}"
        );
        let t = engine.metrics().telemetry;
        assert_eq!((t.requests, t.failures), (2, 2));
    }

    #[test]
    fn same_seed_same_answers() {
        let w = builders::all_range_1d(16);
        let run = |seed| {
            let engine = quick_engine(seed);
            engine
                .register_dataset("d", Domain::one_dim(16), vec![3.0; 16], 2.0)
                .unwrap();
            engine.serve("d", &w, 1.0).unwrap().answers
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should perturb the noise");
    }

    #[test]
    fn dataset_streams_are_independent_of_cross_dataset_order() {
        // Serving d1 then d2 and d2 then d1 must produce identical answers
        // per dataset: each dataset draws from its own seeded stream.
        let w = builders::prefix_1d(8);
        let serve_both = |first: &str, second: &str| {
            let engine = quick_engine(5);
            for name in ["d1", "d2"] {
                engine
                    .register_dataset(name, Domain::one_dim(8), vec![2.0; 8], 10.0)
                    .unwrap();
            }
            let a = engine.serve(first, &w, 1.0).unwrap().answers;
            let b = engine.serve(second, &w, 1.0).unwrap().answers;
            (a, b)
        };
        let (d1_first, d2_second) = serve_both("d1", "d2");
        let (d2_first, d1_second) = serve_both("d2", "d1");
        assert_eq!(d1_first, d1_second, "d1's stream ignores d2's traffic");
        assert_eq!(d2_second, d2_first, "d2's stream ignores d1's traffic");
        assert_ne!(d1_first, d2_first, "streams are distinct per dataset");
    }

    #[test]
    fn metrics_expose_phase_latencies_and_select_counts() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        let w = builders::prefix_1d(16);
        engine.serve("d", &w, 1.0).unwrap();
        engine.serve("d", &w, 1.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.telemetry.selects_run, 1, "second serve hit the cache");
        assert_eq!(m.telemetry.select.count, 1);
        assert_eq!(m.telemetry.measure.count, 2);
        assert_eq!(m.telemetry.reconstruct.count, 2);
        assert_eq!(m.telemetry.answer.count, 2);
        assert_eq!(m.telemetry.requests, 2);
        assert_eq!(m.telemetry.inflight_selects, 0);
        assert!(
            m.telemetry.restarts_run >= 1,
            "the cold SELECT must report its restart cells, got {}",
            m.telemetry.restarts_run
        );
        assert!(
            m.telemetry.select_threads >= 1,
            "the resolved lane count is at least one"
        );
        assert_eq!(
            engine.select_progress(&w),
            None,
            "no SELECT in flight after the plan landed in the cache"
        );
    }

    #[test]
    fn restart_counter_scales_with_the_grid() {
        // 3 restarts on a 1-D workload: the targeted planner runs exactly one
        // operator per restart, so the counter equals the restart count.
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.telemetry.restarts_run, 3);
    }

    #[test]
    fn budget_reservation_refunds_when_measurement_unwinds() {
        let audit = AuditLog::new(16);
        let acc = Mutex::new(EpsAccountant::new("d", 1.0));
        lock_recover(&acc).try_spend(0.6).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _reservation = RefundOnFailure {
                accountant: &acc,
                tenant: None,
                eps: 0.6,
                armed: true,
                audit: &audit,
                wal: None,
                trace_id: 7,
                dataset: "d",
                tenant_name: None,
            };
            panic!("measurement died mid-flight");
        }));
        assert!(unwound.is_err());
        assert!(
            lock_recover(&acc).spent().abs() < 1e-12,
            "a panicked request must not leak its ε reservation"
        );
        // The unwound reservation is audited as a refund, trace id intact.
        let events = audit.recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AuditKind::Refund);
        assert_eq!(events[0].trace_id, 7);
        // The success path keeps the spend and audits a commit.
        lock_recover(&acc).try_spend(0.4).unwrap();
        RefundOnFailure {
            accountant: &acc,
            tenant: None,
            eps: 0.4,
            armed: true,
            audit: &audit,
            wal: None,
            trace_id: 8,
            dataset: "d",
            tenant_name: None,
        }
        .commit();
        assert!((lock_recover(&acc).spent() - 0.4).abs() < 1e-12);
        assert_eq!(audit.recent().last().unwrap().kind, AuditKind::Commit);
    }

    #[test]
    fn panicking_requests_are_counted_as_failures() {
        let telemetry = Telemetry::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _record = RecordRequestOnDrop {
                telemetry: &telemetry,
                outcome: None,
            };
            panic!("request died before returning");
        }));
        assert!(unwound.is_err());
        let t = telemetry.snapshot();
        assert_eq!((t.requests, t.failures), (1, 1));
    }

    #[test]
    fn concurrent_serves_on_one_dataset_never_overspend() {
        // 8 threads race 0.25-ε requests against a total budget of 1.0: the
        // reserve-before-measure ledger admits exactly 4.
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.plan(&w); // pre-warm so the race is over the ledger, not SELECT
        let successes: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let engine = &engine;
                    let w = &w;
                    s.spawn(move || engine.serve("d", w, 0.25).is_ok() as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 4, "exactly total/eps requests fit the budget");
        let (_, spent, remaining) = engine.budget("d").unwrap();
        assert!((spent - 1.0).abs() < 1e-9, "spent {spent}");
        assert!(remaining < 1e-9);
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn sharded_registration_serves_byte_identical_answers() {
        let domain = Domain::new(&[6, 4]);
        let x: Vec<f64> = (0..24).map(|i| ((i * 11) % 17) as f64).collect();
        let w = builders::prefix_2d(6, 4);
        let serve = |shards: usize| {
            let engine = quick_engine(3);
            engine
                .register_dataset_sharded("d", domain.clone(), x.clone(), shards, 10.0)
                .unwrap();
            let r1 = engine.serve("d", &w, 1.0).unwrap();
            let r2 = engine.serve("d", &w, 1.0).unwrap();
            assert_eq!(r1.shards, shards.clamp(1, 6));
            (r1.answers, r2.answers)
        };
        let dense = serve(1);
        for shards in [2usize, 3, 5, 6, 100] {
            let sharded = serve(shards);
            assert!(
                bits_eq(&dense.0, &sharded.0) && bits_eq(&dense.1, &sharded.1),
                "shards={shards}: answers must be byte-identical to dense"
            );
        }
    }

    #[test]
    fn sharded_requests_record_shard_spans() {
        let engine = quick_engine(0);
        engine
            .register_dataset_sharded("d", Domain::new(&[8, 4]), vec![1.0; 32], 4, 10.0)
            .unwrap();
        let w = builders::prefix_2d(8, 4);
        engine.serve("d", &w, 1.0).unwrap();
        let t = engine.metrics().telemetry;
        assert!(
            !t.shard_measure.is_empty(),
            "sharded MEASURE must report shard spans"
        );
        assert!(
            t.shard_measure.iter().any(|s| s.shard == 3),
            "all four shards appear: {:?}",
            t.shard_measure
        );
    }

    #[test]
    fn cold_select_records_per_restart_spans() {
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        let resp = engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let spans = engine.trace_spans(resp.trace_id);
        let restarts: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("restart:"))
            .collect();
        assert_eq!(restarts.len(), 2, "one span per restart cell: {spans:?}");
        assert!(
            restarts
                .iter()
                .all(|s| s.parent_id == crate::tracing::SELECT_SPAN_ID),
            "restart spans parent under the SELECT span"
        );
        // The warm path records none.
        let warm = engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let warm_spans = engine.trace_spans(warm.trace_id);
        assert!(warm_spans.iter().all(|s| !s.name.starts_with("restart:")));
    }

    #[test]
    fn per_dataset_counters_split_sharded_and_dense() {
        let engine = quick_engine(0);
        engine
            .register_dataset("dense", Domain::one_dim(8), vec![1.0; 8], 10.0)
            .unwrap();
        engine
            .register_dataset_sharded("sharded", Domain::new(&[8]), vec![1.0; 8], 4, 0.5)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.serve("dense", &w, 0.25).unwrap();
        engine.serve("sharded", &w, 0.25).unwrap();
        // Second spend overshoots the sharded dataset's ledger: a failure.
        assert!(engine.serve("sharded", &w, 0.5).is_err());
        let m = engine.metrics();
        assert_eq!(m.datasets.len(), 2);
        let dense = &m.datasets[0];
        let sharded = &m.datasets[1];
        assert_eq!(
            (dense.name.as_str(), dense.requests, dense.failures),
            ("dense", 1, 0)
        );
        assert_eq!(
            (sharded.name.as_str(), sharded.requests, sharded.failures),
            ("sharded", 2, 1)
        );
        assert_eq!((dense.shards, sharded.shards), (1, 4));
    }

    #[test]
    fn tenant_quota_caps_across_datasets_and_refunds() {
        let engine = quick_engine(0);
        engine.set_tenant_quota("acme", 0.5).unwrap();
        for name in ["a", "b"] {
            engine
                .register_dataset_with(
                    name,
                    Domain::one_dim(8),
                    vec![1.0; 8],
                    DatasetConfig::new(10.0).with_tenant("acme"),
                )
                .unwrap();
        }
        let w = builders::prefix_1d(8);
        engine.serve("a", &w, 0.3).unwrap();
        // Dataset "b" has plenty of its own budget, but the tenant quota
        // rejects — and the dataset ledger reservation is refunded.
        let err = engine.serve("b", &w, 0.3).unwrap_err();
        assert!(
            matches!(err, EngineError::TenantBudgetExceeded { ref tenant, .. } if tenant == "acme"),
            "{err:?}"
        );
        let (_, spent_b, _) = engine.budget("b").unwrap();
        assert!(spent_b.abs() < 1e-12, "refused spend must be refunded");
        // A smaller request still fits the remaining tenant quota.
        engine.serve("b", &w, 0.2).unwrap();
        let (cap, spent, remaining) = engine.tenant_budget("acme").unwrap();
        assert!((cap - 0.5).abs() < 1e-12);
        assert!((spent - 0.5).abs() < 1e-12);
        assert!(remaining < 1e-12);
    }

    #[test]
    fn malformed_custom_backends_are_rejected_at_registration() {
        /// A backend whose single slab claims the wrong row range.
        struct Gappy;
        impl hdmm_core::DataBackend for Gappy {
            fn len(&self) -> usize {
                8
            }
            fn leading_len(&self) -> usize {
                8
            }
            fn shard_count(&self) -> usize {
                1
            }
            fn shard_rows(&self, _s: usize) -> std::ops::Range<usize> {
                1..8 // gap: rows must start at 0
            }
            fn shard_values(&self, _s: usize) -> &[f64] {
                &[0.0; 7]
            }
            fn as_contiguous(&self) -> Option<&[f64]> {
                None
            }
        }
        let engine = quick_engine(0);
        let err = engine
            .register_dataset_backend(
                "bad",
                Domain::one_dim(8),
                Arc::new(Gappy),
                DatasetConfig::new(1.0),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::DataVectorMismatch { .. }),
            "malformed slab tiling must be a typed registration error: {err:?}"
        );
    }

    #[test]
    fn tenantless_datasets_ignore_quotas() {
        let engine = quick_engine(0);
        engine.set_tenant_quota("acme", 0.1).unwrap();
        engine
            .register_dataset("free", Domain::one_dim(8), vec![1.0; 8], 10.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.serve("free", &w, 5.0).unwrap();
        assert!(engine.tenant_budget("nobody").is_none());
    }

    #[test]
    fn plan_store_survives_engine_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-engine-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        let w = builders::prefix_2d(8, 8);

        let first = Engine::new(opts());
        let (plan_a, hit) = first.plan(&w);
        assert!(!hit);
        assert_eq!(first.metrics().telemetry.selects_run, 1);

        // A fresh engine (a "restart") finds the plan on disk: no SELECT.
        let second = Engine::new(opts());
        let (plan_b, hit) = second.plan(&w);
        assert!(!hit, "memory cache is cold after a restart");
        let t = second.metrics().telemetry;
        assert_eq!(t.selects_run, 0, "disk hit must skip optimization");
        assert_eq!(t.plan_disk_hits, 1);
        assert_eq!(plan_b.operator(), plan_a.operator());
        assert!(
            (plan_b.expected_error(1.0) - plan_a.expected_error(1.0)).abs()
                < 1e-12 * plan_a.expected_error(1.0),
        );
        // And the reloaded plan is a working strategy end to end.
        second
            .register_dataset("d", Domain::new(&[8, 8]), vec![2.0; 64], 10.0)
            .unwrap();
        let resp = second.serve("d", &w, 1.0).unwrap();
        assert_eq!(resp.answers.len(), w.query_count());

        // Corrupt every cached file: the third engine quietly re-optimizes.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
        }
        let third = Engine::new(opts());
        let _ = third.plan(&w);
        let t = third.metrics().telemetry;
        assert_eq!((t.plan_disk_hits, t.selects_run), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
