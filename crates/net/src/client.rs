//! The coordinator's side of the shard-worker protocol: a registry of
//! worker links with per-task timeouts, bounded retry with exponential
//! backoff, shard reassignment to surviving workers, and per-worker health
//! telemetry.
//!
//! The pool never owns data — the engine keeps the authoritative copy of
//! every slab and passes it alongside each task, so reassignment is always
//! possible while at least one worker answers: the new primary simply gets
//! the slab re-pushed before the task runs. Tasks are pure and idempotent
//! (see [`crate::wire`]), which is what makes at-least-once retry safe: a
//! task that timed out but actually completed on the worker changes nothing
//! when it runs again elsewhere.

use crate::wire::{
    read_frame_ext, write_frame_ext, ErrorCode, Frame, NetError, TraceExt, PROTO_V1, PROTO_V2,
};
use hdmm_linalg::StructuredMatrix;
use hdmm_mechanism::{ScopedExecutor, ShardedView};
use hdmm_obs::{NoopSpanSink, Span, SpanSink};
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Failure-handling policy for shard tasks.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt deadline: connect, write, and read must all finish within
    /// this window or the attempt counts as failed.
    pub task_timeout: Duration,
    /// Maximum attempts per task across all candidate workers (≥ 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per subsequent attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            task_timeout: Duration::from_secs(5),
            attempts: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Point-in-time health of one worker, as exposed through
/// `Engine::metrics()`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    /// The worker's address.
    pub addr: String,
    /// Whether the last interaction succeeded.
    pub alive: bool,
    /// Tasks completed successfully.
    pub tasks: u64,
    /// Failed attempts attributed to this worker.
    pub failures: u64,
    /// Mean per-task round-trip latency in microseconds.
    pub mean_task_micros: f64,
    /// Slabs currently assigned (pushed) to this worker.
    pub slabs: usize,
}

impl std::fmt::Display for WorkerHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<21} {} tasks={} failures={} mean={:.0}µs slabs={}",
            self.addr,
            if self.alive { "alive" } else { "DEAD " },
            self.tasks,
            self.failures,
            self.mean_task_micros,
            self.slabs,
        )
    }
}

/// Point-in-time health of the whole pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolHealth {
    /// Per-worker health, in registration order.
    pub workers: Vec<WorkerHealth>,
    /// Task attempts that were retried after a failure.
    pub retries: u64,
    /// Shards moved to a surviving worker after their primary failed.
    pub reassignments: u64,
}

impl std::fmt::Display for PoolHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "workers={} retries={} reassignments={}",
            self.workers.len(),
            self.retries,
            self.reassignments
        )?;
        for w in &self.workers {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

/// One coordinator→worker link: a lazily (re)connected TCP stream plus
/// health counters. The stream is mutex-serialized; concurrent shard tasks
/// to *different* workers run fully in parallel, tasks to the same worker
/// queue on its link.
struct WorkerLink {
    addr: String,
    conn: Mutex<Option<TcpStream>>,
    alive: AtomicBool,
    tasks: AtomicU64,
    failures: AtomicU64,
    task_nanos: AtomicU64,
    loaded: Mutex<HashSet<(String, u64)>>,
    /// Negotiated protocol version: 0 = not yet probed, [`PROTO_V1`] =
    /// legacy-only peer, [`PROTO_V2`] = traced frames confirmed.
    proto: AtomicU8,
}

impl WorkerLink {
    fn new(addr: &str) -> Self {
        WorkerLink {
            addr: addr.to_string(),
            conn: Mutex::new(None),
            alive: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            task_nanos: AtomicU64::new(0),
            loaded: Mutex::new(HashSet::new()),
            proto: AtomicU8::new(0),
        }
    }

    /// One request/response exchange under the per-attempt deadline:
    /// connect, write, and read all share one `timeout` window, enforced by
    /// [`DeadlineStream`] so a worker trickling bytes cannot stretch the
    /// attempt past it. Any failure drops the connection (the next call
    /// reconnects) — half-read streams cannot be resynchronized, so
    /// reconnect-and-retry is the only safe recovery.
    fn call_raw(
        &self,
        frame: &Frame,
        ext: Option<&TraceExt>,
        timeout: Duration,
    ) -> Result<(Frame, Option<TraceExt>), NetError> {
        let mut guard = self.conn.lock().expect("worker link");
        let deadline = Instant::now() + timeout;
        if guard.is_none() {
            let addr = self
                .addr
                .parse::<std::net::SocketAddr>()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            let stream = TcpStream::connect_timeout(&addr, timeout)?;
            stream.set_nodelay(true)?;
            *guard = Some(stream);
        }
        let mut stream = DeadlineStream {
            stream: guard.as_mut().expect("connected above"),
            deadline,
        };
        let exchange = write_frame_ext(&mut stream, frame, ext)
            .map_err(NetError::from)
            .and_then(|()| read_frame_ext(&mut stream));
        if exchange.is_err() {
            *guard = None;
        }
        exchange
    }

    /// Untraced exchange — always legacy (v1) bytes, accepted by every peer.
    fn call(&self, frame: &Frame, timeout: Duration) -> Result<Frame, NetError> {
        self.call_raw(frame, None, timeout).map(|(f, _)| f)
    }

    /// Traced exchange with per-link version negotiation. An old worker has
    /// no way to say "unknown version" — its strict magic check drops the
    /// connection — so the first traced call to an unprobed link tries v2
    /// and, on a transport/decode failure, downgrades the link to v1 and
    /// retries once without the extension (losing only that call's worker
    /// spans, never the call). A v2 success pins the link to v2, after which
    /// failures are treated as genuine. The one-time downgrade probe may
    /// spend up to a second `timeout` window; it happens at most once per
    /// link per process.
    fn call_traced(
        &self,
        frame: &Frame,
        ext: &TraceExt,
        timeout: Duration,
    ) -> Result<(Frame, Option<TraceExt>), NetError> {
        match self.proto.load(Ordering::Relaxed) {
            p if p == PROTO_V1 => self.call_raw(frame, None, timeout),
            p if p == PROTO_V2 => self.call_raw(frame, Some(ext), timeout),
            _ => match self.call_raw(frame, Some(ext), timeout) {
                Ok(ok) => {
                    self.proto.store(PROTO_V2, Ordering::Relaxed);
                    Ok(ok)
                }
                Err(NetError::Io(_) | NetError::Codec(_)) => {
                    // Distinguish "legacy peer" from "dead peer": only a v1
                    // success proves the worker is alive but version-blind.
                    // A dead worker stays unprobed so it can still negotiate
                    // v2 when it comes back.
                    let retry = self.call_raw(frame, None, timeout);
                    self.proto
                        .store(if retry.is_ok() { PROTO_V1 } else { 0 }, Ordering::Relaxed);
                    retry
                }
                Err(e) => Err(e),
            },
        }
    }

    fn health(&self) -> WorkerHealth {
        let tasks = self.tasks.load(Ordering::Relaxed);
        let nanos = self.task_nanos.load(Ordering::Relaxed);
        WorkerHealth {
            addr: self.addr.clone(),
            alive: self.alive.load(Ordering::Relaxed),
            tasks,
            failures: self.failures.load(Ordering::Relaxed),
            mean_task_micros: if tasks == 0 {
                0.0
            } else {
                nanos as f64 / tasks as f64 / 1_000.0
            },
            slabs: self.loaded.lock().expect("loaded set").len(),
        }
    }
}

/// A [`TcpStream`] view that enforces an absolute attempt deadline: before
/// every read/write syscall the socket timeout is shrunk to the time left,
/// and an exhausted deadline fails with `TimedOut` immediately. Socket
/// timeouts alone apply *per syscall*, so without this a worker trickling
/// one byte per timeout window could stretch a single attempt far beyond
/// [`RetryPolicy::task_timeout`].
struct DeadlineStream<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl DeadlineStream<'_> {
    fn remaining(&self) -> std::io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "attempt deadline exceeded")
            })
    }
}

impl std::io::Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        self.stream.read(buf)
    }
}

impl std::io::Write for DeadlineStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Identity of one RPC attempt inside a request's span tree: which sink to
/// record into, what to call the span, and which phase span to parent under.
#[derive(Clone, Copy)]
struct RpcSpan<'a> {
    sink: &'a dyn SpanSink,
    /// Span name: `rpc:forward`, `rpc:load`.
    name: &'static str,
    /// Label of the parent phase span ([`SpanSink::parent_for`]).
    phase: &'a str,
    /// Shard (or block) index — also the Chrome-trace lane, so concurrent
    /// shard RPCs render side by side instead of falsely nested.
    shard: u64,
    attempt: u32,
}

/// The coordinator's worker registry and task router.
pub struct WorkerPool {
    workers: RwLock<Vec<Arc<WorkerLink>>>,
    policy: RetryPolicy,
    /// `(dataset, shard) → worker index`: the current primary assignment.
    primary: Mutex<HashMap<(String, u64), usize>>,
    next_rr: AtomicUsize,
    retries: AtomicU64,
    reassignments: AtomicU64,
}

impl WorkerPool {
    /// Builds a pool over `addrs` and probes each worker once (best-effort —
    /// an unreachable worker starts dead and is skipped until it answers).
    /// Probes run concurrently, so startup blocks for at most one
    /// `task_timeout` even when every worker is unreachable, rather than
    /// workers × timeout.
    pub fn connect(addrs: &[String], policy: RetryPolicy) -> Self {
        let pool = WorkerPool {
            workers: RwLock::new(addrs.iter().map(|a| Arc::new(WorkerLink::new(a))).collect()),
            policy,
            primary: Mutex::new(HashMap::new()),
            next_rr: AtomicUsize::new(0),
            retries: AtomicU64::new(0),
            reassignments: AtomicU64::new(0),
        };
        {
            let workers = pool.workers.read().expect("worker registry");
            let timeout = pool.policy.task_timeout;
            let probes = workers.iter().map(|w| {
                move || {
                    let alive = matches!(w.call(&Frame::Ping, timeout), Ok(Frame::Pong { .. }));
                    w.alive.store(alive, Ordering::Relaxed);
                }
            });
            ScopedExecutor::new(workers.len()).run(probes.collect());
        }
        pool
    }

    /// Registers one more worker at runtime; fails unless it answers a ping.
    pub fn add_worker(&self, addr: &str) -> Result<(), NetError> {
        let link = Arc::new(WorkerLink::new(addr));
        match link.call(&Frame::Ping, self.policy.task_timeout)? {
            Frame::Pong { .. } => {
                link.alive.store(true, Ordering::Relaxed);
                self.workers.write().expect("worker registry").push(link);
                Ok(())
            }
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.workers.read().expect("worker registry").len()
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Point-in-time pool health (per-worker counters + pool counters).
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            workers: self
                .workers
                .read()
                .expect("worker registry")
                .iter()
                .map(|w| w.health())
                .collect(),
            retries: self.retries.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
        }
    }

    /// Eagerly pushes a slab to its primary worker (assigned round-robin on
    /// first touch). Registration-time warm-up: failures are returned but
    /// harmless — `run_slab_task` re-pushes on demand.
    pub fn load_slab(
        &self,
        dataset: &str,
        shard: u64,
        rows: (u64, u64),
        values: &[f64],
    ) -> Result<(), NetError> {
        let key = (dataset.to_string(), shard);
        let Some((_, link)) = self.pick_worker(&key, 0) else {
            return Err(NetError::NoWorkers);
        };
        let rpc = RpcSpan {
            sink: &NoopSpanSink,
            name: "rpc:load",
            phase: "",
            shard,
            attempt: 0,
        };
        self.push_slab(&link, dataset, shard, rows, values, &rpc)
    }

    /// Eagerly pushes every slab of `view` to its primary worker. Purely a
    /// warm-up: `run_slab_task` re-pushes on demand, so failures here only
    /// cost first-request latency.
    pub fn preload(&self, dataset: &str, view: &ShardedView<'_>) -> Result<(), NetError> {
        for (i, slab) in view.slabs.iter().enumerate() {
            self.load_slab(
                dataset,
                i as u64,
                (slab.rows.start as u64, slab.rows.end as u64),
                slab.values,
            )?;
        }
        Ok(())
    }

    /// Untraced [`WorkerPool::run_slab_task_traced`].
    pub fn run_slab_task(
        &self,
        dataset: &str,
        shard: u64,
        factors: &[StructuredMatrix],
        rows: (u64, u64),
        values: &[f64],
    ) -> Result<Vec<f64>, NetError> {
        self.run_slab_task_traced(dataset, shard, factors, rows, values, &NoopSpanSink, "")
    }

    /// Runs one MEASURE phase-1 task: the trailing-factor product over the
    /// given slab, on whichever worker currently holds (or receives) it.
    ///
    /// Failure handling: per-attempt timeout, up to `policy.attempts` total
    /// attempts with doubling backoff, and reassignment to the next live
    /// worker when the primary fails — re-pushing the slab from the
    /// coordinator's authoritative copy (`rows`/`values`) as needed.
    ///
    /// When `sink` traces, every attempt (including failed and retried ones)
    /// is recorded as an `rpc:forward` span — annotated with worker address,
    /// shard, attempt index, and outcome — parented under the phase span
    /// labeled `phase`, with the worker's own kernel spans re-based beneath
    /// it.
    #[allow(clippy::too_many_arguments)]
    pub fn run_slab_task_traced(
        &self,
        dataset: &str,
        shard: u64,
        factors: &[StructuredMatrix],
        rows: (u64, u64),
        values: &[f64],
        sink: &dyn SpanSink,
        phase: &str,
    ) -> Result<Vec<f64>, NetError> {
        let key = (dataset.to_string(), shard);
        let task = Frame::SlabForward {
            dataset: dataset.to_string(),
            shard,
            factors: factors.to_vec(),
        };
        let mut delay = self.policy.backoff;
        let mut last_err = NetError::NoWorkers;
        for attempt in 0..self.policy.attempts.max(1) {
            let Some((_, link)) = self.pick_worker(&key, attempt) else {
                break;
            };
            let rpc = RpcSpan {
                sink,
                name: "rpc:forward",
                phase,
                shard,
                attempt,
            };
            if !link.loaded.lock().expect("loaded set").contains(&key) {
                let load = RpcSpan {
                    name: "rpc:load",
                    ..rpc
                };
                if let Err(e) = self.push_slab(&link, dataset, shard, rows, values, &load) {
                    last_err = self.note_failure(&link, e, attempt, &mut delay);
                    continue;
                }
            }
            match self.exec(&link, &task, &rpc) {
                Ok(v) => return Ok(v),
                // The worker restarted and lost the slab: re-push and retry
                // on the same worker within this attempt.
                Err(NetError::Remote {
                    code: ErrorCode::UnknownSlab,
                    ..
                }) => {
                    link.loaded.lock().expect("loaded set").remove(&key);
                    let load = RpcSpan {
                        name: "rpc:load",
                        ..rpc
                    };
                    let recovered = self
                        .push_slab(&link, dataset, shard, rows, values, &load)
                        .and_then(|()| self.exec(&link, &task, &rpc));
                    match recovered {
                        Ok(v) => return Ok(v),
                        Err(e) => last_err = self.note_failure(&link, e, attempt, &mut delay),
                    }
                }
                Err(e) => last_err = self.note_failure(&link, e, attempt, &mut delay),
            }
        }
        Err(last_err)
    }

    /// One request/response exchange, recorded as one attempt span when the
    /// sink traces. The attempt span covers connect-to-reply wall time; any
    /// worker-side spans in the reply are parented beneath it, re-based onto
    /// the coordinator clock as ending when the reply arrived (accurate to
    /// within the attempt's network round-trip, since only durations travel).
    fn roundtrip(
        &self,
        link: &WorkerLink,
        task: &Frame,
        rpc: &RpcSpan<'_>,
    ) -> Result<Frame, NetError> {
        let Some(ctx) = rpc.sink.context() else {
            return link.call(task, self.policy.task_timeout);
        };
        let span_id = rpc.sink.next_span_id();
        let ext = TraceExt::request(ctx.trace_id, span_id);
        let start = Instant::now();
        let result = link.call_traced(task, &ext, self.policy.task_timeout);
        let end = Instant::now();
        let outcome = match &result {
            Ok((Frame::Error { .. }, _)) => "remote-error",
            Ok(_) => "ok",
            Err(_) => "transport-error",
        };
        let start_ns = rpc.sink.rel_ns(start);
        let end_ns = rpc.sink.rel_ns(end);
        let parent = rpc.sink.parent_for(rpc.phase).unwrap_or(ctx.span_id);
        let lane = rpc.shard.to_string();
        rpc.sink.record(
            Span::new(
                ctx.trace_id,
                span_id,
                parent,
                rpc.name,
                start_ns,
                end_ns.saturating_sub(start_ns),
            )
            .attr("worker", &link.addr)
            .attr("shard", rpc.shard.to_string())
            .attr("attempt", rpc.attempt.to_string())
            .attr("outcome", outcome)
            .attr("lane", &lane),
        );
        if let Ok((_, Some(reply_ext))) = &result {
            for ws in &reply_ext.spans {
                rpc.sink.record(
                    Span::new(
                        ctx.trace_id,
                        rpc.sink.next_span_id(),
                        span_id,
                        ws.name.clone(),
                        end_ns.saturating_sub(ws.dur_ns),
                        ws.dur_ns,
                    )
                    .attr("worker", &link.addr)
                    .attr("lane", &lane),
                );
            }
        }
        result.map(|(f, _)| f)
    }

    /// One timed, counted exchange expecting a `Part` response.
    fn exec(
        &self,
        link: &WorkerLink,
        task: &Frame,
        rpc: &RpcSpan<'_>,
    ) -> Result<Vec<f64>, NetError> {
        let t = Instant::now();
        match self.roundtrip(link, task, rpc)? {
            Frame::Part { values } => {
                link.tasks.fetch_add(1, Ordering::Relaxed);
                link.task_nanos
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                link.alive.store(true, Ordering::Relaxed);
                Ok(values)
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    fn push_slab(
        &self,
        link: &WorkerLink,
        dataset: &str,
        shard: u64,
        rows: (u64, u64),
        values: &[f64],
        rpc: &RpcSpan<'_>,
    ) -> Result<(), NetError> {
        let frame = Frame::LoadSlab {
            dataset: dataset.to_string(),
            shard,
            rows,
            values: values.to_vec(),
        };
        match self.roundtrip(link, &frame, rpc)? {
            Frame::Loaded => {
                link.alive.store(true, Ordering::Relaxed);
                link.loaded
                    .lock()
                    .expect("loaded set")
                    .insert((dataset.to_string(), shard));
                Ok(())
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    /// Marks a failed attempt against `link`, applies backoff, and returns
    /// the error for `last_err` bookkeeping. Worker-side task errors
    /// (`Remote`) mark the attempt failed but keep the link alive — the
    /// transport works; the task is at fault.
    fn note_failure(
        &self,
        link: &WorkerLink,
        e: NetError,
        attempt: u32,
        delay: &mut Duration,
    ) -> NetError {
        link.failures.fetch_add(1, Ordering::Relaxed);
        if !matches!(e, NetError::Remote { .. }) {
            link.alive.store(false, Ordering::Relaxed);
        }
        self.retries.fetch_add(1, Ordering::Relaxed);
        if attempt + 1 < self.policy.attempts {
            std::thread::sleep(*delay);
            *delay = delay.saturating_mul(2);
        }
        e
    }

    /// The worker for a keyed (slab-owning) task: the current primary while
    /// it is alive, otherwise the next live worker scanning cyclically —
    /// recording a reassignment. With every worker dead, the primary is
    /// returned anyway: the connect acts as a recovery probe, and a still-
    /// dead pool surfaces as a pool-level error the engine can fall back on.
    fn pick_worker(&self, key: &(String, u64), _attempt: u32) -> Option<(usize, Arc<WorkerLink>)> {
        let workers = self.workers.read().expect("worker registry");
        if workers.is_empty() {
            return None;
        }
        let mut primary = self.primary.lock().expect("assignment map");
        let idx = *primary
            .entry(key.clone())
            .or_insert_with(|| self.next_rr.fetch_add(1, Ordering::Relaxed) % workers.len());
        if workers[idx].alive.load(Ordering::Relaxed) {
            return Some((idx, Arc::clone(&workers[idx])));
        }
        for step in 1..workers.len() {
            let cand = (idx + step) % workers.len();
            if workers[cand].alive.load(Ordering::Relaxed) {
                primary.insert(key.clone(), cand);
                self.reassignments.fetch_add(1, Ordering::Relaxed);
                return Some((cand, Arc::clone(&workers[cand])));
            }
        }
        Some((idx, Arc::clone(&workers[idx])))
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerOptions};

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            task_timeout: Duration::from_millis(500),
            attempts: 3,
            backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn slab_tasks_route_and_reassign_on_failure() {
        let w1 = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let w2 = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(
            &[w1.addr().to_string(), w2.addr().to_string()],
            quick_policy(),
        );
        let values: Vec<f64> = (0..8).map(f64::from).collect();
        let factors = vec![StructuredMatrix::total(4)];
        let first = pool
            .run_slab_task("d", 0, &factors, (0, 2), &values)
            .unwrap();
        assert_eq!(first, vec![6.0, 22.0]);

        // Kill every worker the shard could live on except one; the task
        // must reassign (with the slab re-pushed) and still succeed.
        let health_before = pool.health();
        let primary = health_before
            .workers
            .iter()
            .position(|w| w.slabs == 1)
            .expect("one worker holds the slab");
        if primary == 0 {
            w1.kill()
        } else {
            w2.kill()
        }
        std::thread::sleep(Duration::from_millis(20));
        let again = pool
            .run_slab_task("d", 0, &factors, (0, 2), &values)
            .unwrap();
        assert_eq!(again, first, "reassigned task must compute the same bytes");
        let health = pool.health();
        assert!(health.reassignments >= 1, "reassignment must be recorded");
        assert!(
            health.workers[primary].failures >= 1 && !health.workers[primary].alive,
            "the killed worker's failure must be visible in health"
        );
    }

    #[test]
    fn all_workers_dead_is_a_pool_level_error() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(&[w.addr().to_string()], quick_policy());
        w.kill();
        std::thread::sleep(Duration::from_millis(20));
        let r = pool.run_slab_task("d", 0, &[StructuredMatrix::total(2)], (0, 1), &[1.0, 2.0]);
        assert!(r.is_err(), "a dead pool must surface an error");
    }
}
