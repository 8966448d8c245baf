//! The three workloads: set-up, closed-loop timed phases, correctness
//! gates, and the replays of the traced run.

use crate::gen::{self, ColdGen, ColdMix, Dataset, Followup, CENSUS_CLASSES, CENSUS_EPS};
use crate::stats;
use crate::trace::{RequestTrace, SpanLog, ROOT};
use hdmm_core::{
    DataBackend, HdmmOptions, QueryEngine, QueryResponse, SessionId, ShardedDataVector, Workload,
    WorkloadGrams,
};
use hdmm_engine::{
    DatasetConfig, Engine, EngineMetrics, EngineOptions, EngineServer, RemoteOptions,
    ServerOptions, Session,
};
use hdmm_linalg::{lsmr, KronScratch, LinOp, LsmrOptions, ScaledOp, StackedOp, StructuredMatrix};
use hdmm_mechanism::{
    answer_many_from_parts, measure, measure_sharded, reconstruct_sharded_with, reconstruct_with,
    DataSlab, Measurements, NoopObserver, PreparedReconstruct, ScopedExecutor, ShardedView,
    Strategy,
};
use hdmm_net::{spawn_worker, WorkerHandle, WorkerOptions};
use hdmm_optimizer::planner::{optimize_with_choice, select_optimizer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Windows of the timed phase whose memory peaks `peak_rss_mb` takes the
/// median of.
const RSS_WINDOWS: usize = 5;

/// No timed phase runs longer than this, whatever `--seconds` says, so a
/// stalled program still ends the run well inside its time limit.
const HARD_CAP: Duration = Duration::from_secs(100);

/// Share of requests dropped from each end before `rmse` averages the
/// per-request RMSE: one request whose error is thousands of times its
/// expectation would otherwise set the run's `rmse` alone. Such requests
/// fail the served-error gate instead.
const RMSE_TRIM: f64 = 0.05;

/// ε of every `cold_plan` request.
const COLD_EPS: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdPlan,
    CensusRelease,
    SessionFollowup,
    /// `cold_plan` with ad-hoc inputs; it reproduces the defects the README
    /// lists and is not one of the benchmark's workloads.
    ColdAdhoc,
}

impl Kind {
    /// The benchmark's workloads: the ones `BENCHMARK.json` names and the
    /// traced run runs.
    pub const ALL: [Kind; 3] = [Kind::ColdPlan, Kind::CensusRelease, Kind::SessionFollowup];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdPlan => "cold_plan",
            Kind::CensusRelease => "census_release",
            Kind::SessionFollowup => "session_followup",
            Kind::ColdAdhoc => "cold_adhoc",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL
            .into_iter()
            .chain([Kind::ColdAdhoc])
            .find(|k| k.name() == name)
    }
}

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The timed phase also runs until this many requests completed.
    pub min_requests: usize,
    /// Set-ups made; `setup_s` is their median.
    pub setup_reps: usize,
    /// Closed-loop clients of `census_release` and `session_followup`, and
    /// the shard workers and server workers behind them; `cold_plan` has
    /// one client.
    pub clients: usize,
    /// Directory for the run's WAL and other scratch files.
    pub scratch: PathBuf,
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Gate {
    fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// The end-to-end metrics of one workload run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: Option<f64>,
    pub latency_max_ms: f64,
    pub samples: usize,
    pub throughput_rps: f64,
    pub rmse: f64,
    pub expected_rmse: f64,
    pub attempted: usize,
    pub failed: usize,
    pub peak_rss_mb: f64,
    /// Per request class: requests, median latency (ms) and mean RMSE.
    pub classes: BTreeMap<&'static str, (usize, f64, f64)>,
}

/// A workload run's result: metrics, gates, and (traced) per-layer metrics.
pub struct Report {
    pub kind: Kind,
    pub e2e: EndToEnd,
    pub gates: Vec<Gate>,
    /// Per-layer metrics, `(name without the workload prefix, unit, value)`.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    pub spans: Vec<hdmm_obs::Span>,
    /// Extra lines for the printed report.
    pub notes: Vec<String>,
}

/// What one request reports back to the closed loop.
struct Outcome {
    /// The request's class: planner family or dataset.
    class: &'static str,
    latency_ms: f64,
    ok: bool,
    rmse: Option<f64>,
    expected_rmse: Option<f64>,
}

impl Outcome {
    fn failed(class: &'static str, latency_ms: f64) -> Outcome {
        Outcome {
            class,
            latency_ms,
            ok: false,
            rmse: None,
            expected_rmse: None,
        }
    }
}

/// Everything the gates check, gathered request by request.
#[derive(Default)]
struct Checks {
    /// Per class: empirical ÷ expected total squared error, per request.
    error_ratios: BTreeMap<&'static str, Vec<f64>>,
    hits: usize,
    misses: usize,
    /// Per dataset: ε granted in successful responses.
    granted: BTreeMap<&'static str, f64>,
    /// Successful serves, set-up included (each commits to the WAL).
    commits: usize,
    /// Follow-up answers that differ from `Workload::answer(estimate)`.
    mismatches: usize,
    first_error: Option<String>,
}

impl Checks {
    fn served(
        &mut self,
        class: &'static str,
        dataset: &'static str,
        resp: &QueryResponse,
        sq_err: f64,
    ) {
        self.error_ratios
            .entry(class)
            .or_default()
            .push(sq_err / resp.expected_error);
        if resp.cache_hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        *self.granted.entry(dataset).or_default() += resp.eps_spent;
        self.commits += 1;
    }

    fn error(&mut self, e: impl std::fmt::Display) {
        self.first_error.get_or_insert_with(|| e.to_string());
    }
}

/// Runs one engine call, turning a panic into an error: a request that
/// panics counts as failed instead of ending the run.
fn guarded<T>(call: impl FnOnce() -> Result<T, hdmm_core::EngineError>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => Err(format!(
            "panic: {}",
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

fn sq_err(answers: &[f64], truth: &[f64]) -> f64 {
    answers
        .iter()
        .zip(truth)
        .map(|(a, t)| (a - t) * (a - t))
        .sum()
}

/// A workload's request loop body.
trait Bench: Sync {
    fn request(&self, trace: Option<&SpanLog>) -> Outcome;
}

/// What a timed phase measured.
struct Phase {
    outcomes: Vec<Outcome>,
    wall_s: f64,
    /// Peak resident memory (MiB) of each of [`RSS_WINDOWS`] equal windows.
    rss_peaks: Vec<f64>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_ms).collect()
    }
}

/// Runs `clients` closed-loop clients: each sends its next request only when
/// the previous one returned. The phase ends once `seconds` have passed and
/// at least `min_requests` requests completed.
fn closed_loop(
    bench: &dyn Bench,
    clients: usize,
    seconds: f64,
    min_requests: usize,
    trace: Option<&SpanLog>,
) -> Phase {
    let done = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let deadline = Duration::from_secs_f64(seconds);
    let window = deadline / RSS_WINDOWS as u32;
    let mut rss_peaks = Vec::new();
    crate::host::reset_peak_rss();
    let start = Instant::now();
    let outcomes = std::thread::scope(|s| {
        // Restarts the peak count at each window boundary: set-up (run
        // several times) is left out, and one window's rare spike does not
        // decide the run's figure.
        let monitor = s.spawn(|| {
            let mut peaks = Vec::new();
            for k in 1..RSS_WINDOWS as u32 {
                while start.elapsed() < window * k && !finished.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                if finished.load(Ordering::SeqCst) {
                    break;
                }
                peaks.push(crate::host::peak_rss_mib());
                crate::host::reset_peak_rss();
            }
            peaks
        });
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let elapsed = start.elapsed();
                        if elapsed >= HARD_CAP
                            || (elapsed >= deadline && done.load(Ordering::SeqCst) >= min_requests)
                        {
                            return mine;
                        }
                        mine.push(bench.request(trace));
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect();
        finished.store(true, Ordering::SeqCst);
        rss_peaks = monitor.join().expect("the memory monitor panicked");
        outcomes
    });
    let wall_s = start.elapsed().as_secs_f64();
    rss_peaks.push(crate::host::peak_rss_mib());
    Phase {
        outcomes,
        wall_s,
        rss_peaks,
    }
}

/// Largest per-request ratio of empirical to expected total squared error
/// the served-error gate accepts. Reaching it takes a noise draw about 14
/// scale units out along some direction: probability about e^-14 (under
/// 1e-6) per request for Laplace noise.
const MAX_REQUEST_RATIO: f64 = 100.0;

/// The served-error gate of each class, on the per-request ratios of
/// empirical to expected total squared error (Definition 7 makes their
/// expectation exactly 1 for a least-squares reconstruction):
///
/// * no single ratio exceeds [`MAX_REQUEST_RATIO`];
/// * the class mean lies within five standard errors of 1 (a z-test on the
///   run's own ratios). For union (`OPT_+`) strategies the analytic error
///   sums each group's error as if the groups were reconstructed
///   separately; the joint least-squares solve can only do better, so there
///   the test is one-sided, mean ≤ 1 + 5 SE.
///
/// Classes with fewer than five requests skip the mean test.
fn served_error_gates(checks: &Checks) -> Vec<Gate> {
    checks
        .error_ratios
        .iter()
        .map(|(class, ratios)| {
            let name = format!("served_error[{class}]");
            let k = ratios.len();
            let mean = stats::mean(ratios);
            let worst = ratios.iter().copied().fold(0.0, f64::max);
            let se = stats::std_dev(ratios) / (k as f64).sqrt();
            let one_sided = matches!(*class, "plus" | "union");
            let mean_ok = k < 5 || mean - 1.0 <= 5.0 * se && (one_sided || 1.0 - mean <= 5.0 * se);
            let over = ratios.iter().filter(|&&r| r > MAX_REQUEST_RATIO).count();
            let detail = format!(
                "mean ratio {mean:.4} ± {se:.4} (SE) over {k} requests{}; max {worst:.3}, {over} above {MAX_REQUEST_RATIO}",
                if k < 5 { " (too few for the mean test)" } else if one_sided { ", one-sided" } else { "" }
            );
            Gate::new(name, mean_ok && over == 0, detail)
        })
        .collect()
}

/// Spent ε per dataset must equal the sum of the ε the responses granted.
fn budget_gates(engine: &Engine, checks: &Checks, datasets: &[&'static str]) -> Vec<Gate> {
    datasets
        .iter()
        .map(|&d| {
            let granted = checks.granted.get(d).copied().unwrap_or(0.0);
            match engine.budget(d) {
                Ok((_, spent, _)) => Gate::new(
                    format!("budget[{d}]"),
                    spent == granted,
                    format!("spent {spent} vs granted {granted}"),
                ),
                Err(e) => Gate::new(format!("budget[{d}]"), false, e.to_string()),
            }
        })
        .collect()
}

fn wal_gate(metrics: &EngineMetrics, checks: &Checks) -> Gate {
    match &metrics.wal {
        Some(wal) => Gate::new(
            "wal_fsyncs",
            wal.fsyncs >= checks.commits as u64,
            format!("{} fsyncs for {} commits", wal.fsyncs, checks.commits),
        ),
        None => Gate::new("wal_fsyncs", false, "the engine has no WAL"),
    }
}

fn cache_gate(checks: &Checks, metrics: &EngineMetrics, want_hits: bool, plan_misses: u64) -> Gate {
    let (hits, misses) = (checks.hits, checks.misses);
    let pass =
        (if want_hits { misses == 0 } else { hits == 0 }) && metrics.cache.misses == plan_misses;
    Gate::new(
        "cache",
        pass,
        format!(
            "responses: {hits} hits, {misses} misses; strategy cache: {} misses (want {plan_misses})",
            metrics.cache.misses
        ),
    )
}

/// End-to-end numbers of a timed phase.
fn end_to_end(setup_s: f64, phase: &Phase, expected_rmse: Option<f64>) -> EndToEnd {
    let lat = phase.latencies();
    let ok: Vec<&Outcome> = phase.outcomes.iter().filter(|o| o.ok).collect();
    let rmse: Vec<f64> = ok.iter().filter_map(|o| o.rmse).collect();
    let exp: Vec<f64> = ok.iter().filter_map(|o| o.expected_rmse).collect();
    EndToEnd {
        setup_s,
        latency_p50_ms: if lat.is_empty() {
            0.0
        } else {
            stats::median(&lat)
        },
        latency_p90_ms: stats::percentile(&lat, 0.9),
        latency_max_ms: lat.iter().copied().fold(0.0, f64::max),
        samples: lat.len(),
        throughput_rps: ok.len() as f64 / phase.wall_s,
        rmse: stats::trimmed_mean(&rmse, RMSE_TRIM),
        expected_rmse: expected_rmse.unwrap_or_else(|| stats::mean(&exp)),
        attempted: phase.outcomes.len(),
        failed: phase.outcomes.len() - ok.len(),
        peak_rss_mb: stats::median(&phase.rss_peaks),
        classes: {
            let mut by_class: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
            for o in &phase.outcomes {
                let entry = by_class.entry(o.class).or_default();
                entry.0.push(o.latency_ms);
                entry.1.extend(o.rmse);
            }
            by_class
                .into_iter()
                .map(|(c, (lat, rmse))| (c, (lat.len(), stats::median(&lat), stats::mean(&rmse))))
                .collect()
        },
    }
}

/// Runs one workload: set up `setup_reps` times, then one timed phase. With
/// `traced`, the timed phase is split into an untraced and a traced half and
/// the per-layer metrics are filled in.
pub fn run(kind: Kind, cfg: &Config, traced: bool) -> Result<Report, String> {
    match kind {
        Kind::ColdPlan => run_cold(kind, ColdMix::Paper, cfg, traced),
        Kind::ColdAdhoc => run_cold(kind, ColdMix::AdHoc, cfg, traced),
        Kind::CensusRelease => run_census(cfg, traced),
        Kind::SessionFollowup => run_session(cfg, traced),
    }
}

/// Set-up repeats until it has run for at least this long in total: a
/// set-up of microseconds timed a few dozen times reads the state of one
/// moment of the process, not its typical cost.
const SETUP_MIN_SECONDS: f64 = 0.5;

/// Sets up at least `reps` times and for at least [`SETUP_MIN_SECONDS`],
/// keeps the last, and returns it with the median set-up time. Earlier
/// set-ups are dropped (workers stopped, files removed) before the next
/// starts.
fn setup_median<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < reps.max(1) || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(kept.take());
        let (built, secs) = setup(times.len())?;
        times.push(secs);
        kept = Some(built);
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

/// Per-layer metrics that are the mean of the traced run's samples of the
/// same name.
fn sampled(
    log: &SpanLog,
    metrics: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str, f64)> {
    metrics
        .iter()
        .map(|&(name, unit)| (name, unit, stats::mean(&log.samples(name))))
        .collect()
}

/// The per-layer metrics every workload reports.
fn common_layers(
    checks: &Checks,
    before: &EngineMetrics,
    after: &EngineMetrics,
    overhead: f64,
) -> [(&'static str, &'static str, f64); 3] {
    let hits = checks.hits as f64 / (checks.hits + checks.misses).max(1) as f64;
    let collected = after.obs.spans_collected - before.obs.spans_collected;
    let dropped = after.obs.spans_dropped - before.obs.spans_dropped;
    [
        ("engine.cache_hit_frac", "ratio", hits),
        (
            "obs.spans_dropped_frac",
            "ratio",
            if collected == 0 {
                0.0
            } else {
                dropped as f64 / collected as f64
            },
        ),
        ("trace_overhead_frac", "ratio", overhead),
    ]
}

// ---------------------------------------------------------------------------
// cold_plan
// ---------------------------------------------------------------------------

struct ColdPlan {
    engine: Engine,
    seed: u64,
    data: BTreeMap<&'static str, Vec<f64>>,
    gen: Mutex<ColdGen>,
    checks: Mutex<Checks>,
    hdmm: HdmmOptions,
}

impl Bench for ColdPlan {
    fn request(&self, trace: Option<&SpanLog>) -> Outcome {
        let req = self.gen.lock().expect("generator poisoned").next_request();
        let x = &self.data[req.dataset];
        let started = Instant::now();
        let served = guarded(|| self.engine.serve(req.dataset, &req.workload, COLD_EPS));
        let ended = Instant::now();
        let latency_ms = (ended - started).as_secs_f64() * 1e3;
        let resp = match served {
            Ok(r) => r,
            Err(e) => {
                self.checks.lock().expect("checks poisoned").error(e);
                return Outcome::failed(req.dataset, latency_ms);
            }
        };
        let truth = req.workload.answer(x);
        let err = sq_err(&resp.answers, &truth);
        let q = resp.answers.len() as f64;
        self.checks.lock().expect("checks poisoned").served(
            req.family.tag(),
            req.dataset,
            &resp,
            err,
        );
        let _ = self.engine.close_session(resp.session);
        if let Some(log) = trace {
            let mut rt = log.request();
            rt.record("engine.serve", ROOT, started, ended);
            self.replay(&mut rt, &req.workload, x, req.index);
            rt.finish();
        }
        Outcome {
            class: req.dataset,
            latency_ms,
            ok: true,
            rmse: Some((err / q).sqrt()),
            expected_rmse: Some((resp.expected_error / q).sqrt()),
        }
    }
}

impl ColdPlan {
    /// The cold request again, one layer call at a time.
    fn replay(&self, rt: &mut RequestTrace<'_>, w: &Workload, x: &[f64], index: usize) {
        let replay = rt.reserve();
        let start = Instant::now();
        let (decision, _, ms) = rt.time("optimizer.planner", replay, || {
            select_optimizer(w, &self.hdmm)
        });
        rt.sample("optimizer.planner_us", ms * 1e3);
        let (grams, _, ms) = rt.time("workload.grams", replay, || WorkloadGrams::from_workload(w));
        rt.sample("workload.grams_ms", ms);
        let ps = hdmm_optimizer::default_ps(w);
        let tag = decision.choice.tag();
        let span = format!("optimizer.select.{tag}");
        let (selected, _, ms) = rt.time(&span, replay, || {
            optimize_with_choice(&grams, &ps, &self.hdmm, decision.choice)
        });
        rt.sample(select_metric(tag), ms);
        let strategy = &selected.strategy;
        let (prepared, _, ms) = rt.time("mechanism.prepare", replay, || {
            PreparedReconstruct::new(strategy)
        });
        rt.sample("mechanism.prepare_ms", ms);
        let mut rng = gen::rng_for(self.seed, "cold-replay", index as u64);
        let (meas, _, _) = rt.time("mechanism.measure", replay, || {
            measure(strategy, x, COLD_EPS, &mut rng)
        });
        let (x_hat, _, _) = rt.time("mechanism.reconstruct", replay, || {
            reconstruct_with(&prepared, strategy, &meas)
        });
        rt.time("mechanism.answer", replay, || {
            black_box(w.answer_with(&x_hat, &mut KronScratch::new()))
        });
        rt.record_as(replay, "replay", ROOT, start, Instant::now());
    }
}

fn select_metric(tag: &str) -> &'static str {
    match tag {
        "opt0" => "optimizer.select_ms.opt0",
        "kron" => "optimizer.select_ms.kron",
        "plus" => "optimizer.select_ms.plus",
        _ => "optimizer.select_ms.marginals",
    }
}

fn run_cold(kind: Kind, mix: ColdMix, cfg: &Config, traced: bool) -> Result<Report, String> {
    let datasets = gen::cold_datasets(cfg.seed, mix);
    let names: Vec<&'static str> = datasets.iter().map(|d| d.name).collect();
    let options = EngineOptions {
        seed: cfg.seed,
        ..Default::default()
    };
    let (engine, setup_s) = setup_median(cfg.setup_reps, |_| {
        let copies: Vec<Vec<f64>> = datasets.iter().map(|d| d.x.clone()).collect();
        let t = Instant::now();
        let engine = Engine::open(options.clone()).map_err(|e| e.to_string())?;
        for (d, x) in datasets.iter().zip(copies) {
            engine
                .register_dataset(d.name, d.domain.clone(), x, 1e9)
                .map_err(|e| e.to_string())?;
        }
        Ok((engine, t.elapsed().as_secs_f64()))
    })?;
    let bench = ColdPlan {
        engine,
        seed: cfg.seed,
        data: datasets.into_iter().map(|d| (d.name, d.x)).collect(),
        gen: Mutex::new(ColdGen::new(cfg.seed, mix)),
        checks: Mutex::new(Checks::default()),
        hdmm: options.hdmm.clone(),
    };
    let log = traced.then(SpanLog::new);
    let run = phases_with_metrics(&bench, cfg, 1, log.as_ref(), &bench.engine);
    let after = bench.engine.metrics();
    let checks = bench.checks.lock().expect("checks poisoned");
    let mut gates = served_error_gates(&checks);
    // Every attempted request looks its plan up once, and must miss.
    let attempts = bench.gen.lock().expect("generator poisoned").issued() as u64;
    gates.push(cache_gate(&checks, &after, false, attempts));
    gates.extend(budget_gates(&bench.engine, &checks, &names));
    let mut layers = Vec::new();
    if let (Some(log), Some((before, traced_after, _))) = (&log, &run.traced) {
        let (t, b) = (&traced_after.telemetry, &before.telemetry);
        let cells = (t.restarts_run - b.restarts_run) as f64
            / (t.selects_run - b.selects_run).max(1) as f64;
        layers = sampled(
            log,
            &[
                ("workload.grams_ms", "ms"),
                ("optimizer.planner_us", "us"),
                ("optimizer.select_ms.opt0", "ms"),
                ("optimizer.select_ms.kron", "ms"),
                ("optimizer.select_ms.marginals", "ms"),
                ("mechanism.prepare_ms", "ms"),
            ],
        );
        layers.push(("optimizer.restart_cells", "count", cells));
        layers.extend(common_layers(&checks, before, traced_after, run.overhead));
    }
    let e2e = end_to_end(setup_s, &run.phase, None);
    Ok(report(kind, e2e, gates, &checks, layers, log))
}

fn report(
    kind: Kind,
    e2e: EndToEnd,
    mut gates: Vec<Gate>,
    checks: &Checks,
    layers: Vec<(&'static str, &'static str, f64)>,
    log: Option<SpanLog>,
) -> Report {
    gates.push(Gate::new(
        "p90_samples",
        e2e.latency_p90_ms.is_some() || log.is_some(),
        format!(
            "{} samples; p90 needs ≥ {} beyond it",
            e2e.samples,
            stats::MIN_BEYOND
        ),
    ));
    Report {
        kind,
        e2e,
        gates,
        layers,
        spans: log.map(|l| l.spans()).unwrap_or_default(),
        notes: checks
            .first_error
            .iter()
            .map(|e| format!("first failed request: {e}"))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// census_release and session_followup share one serving stack
// ---------------------------------------------------------------------------

/// Workers, engine and (for `census_release`) server of one set-up, plus
/// the set-up requests' responses. Dropping it stops the workers and
/// removes its scratch directory.
struct Stack {
    server: Option<EngineServer>,
    engine: Arc<Engine>,
    /// Held for the engine's remote pool; dropping a handle stops its worker.
    _workers: Vec<WorkerHandle>,
    setup_responses: Vec<QueryResponse>,
    dir: PathBuf,
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Drain the server before its WAL directory goes.
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The census set-up: spawn `lanes` loopback shard workers, open the engine
/// with its WAL, register the four datasets, pre-warm every plan, serve each
/// dataset `releases` times from `lanes` threads (cache hits; the first also
/// builds the reconstruction factorization), and start the server when
/// `server` is set. Returns the stack, with the set-up responses in dataset
/// order, and the seconds those calls took; copying the input data does not
/// count.
fn census_stack(
    datasets: &[Dataset],
    seed: u64,
    dir: &Path,
    lanes: usize,
    releases: usize,
    server: bool,
) -> Result<(Stack, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let copies: Vec<Vec<f64>> = datasets.iter().map(|d| d.x.clone()).collect();
    let workloads: Vec<Workload> = datasets
        .iter()
        .map(|d| gen::census_workload(d.name))
        .collect();
    let t = Instant::now();
    let workers = (0..lanes)
        .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("spawning a loopback shard worker: {e}"))?;
    let mut stack = Stack {
        server: None,
        engine: Arc::new(
            Engine::open(EngineOptions {
                seed,
                wal_dir: Some(dir.join("wal")),
                remote: Some(RemoteOptions {
                    workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                    ..Default::default()
                }),
                ..Default::default()
            })
            .map_err(|e| e.to_string())?,
        ),
        _workers: workers,
        setup_responses: Vec::new(),
        dir: dir.to_path_buf(),
    };
    for (d, x) in datasets.iter().zip(copies) {
        let config = DatasetConfig::new(1e9).with_shards(d.shards);
        stack
            .engine
            .register_dataset_with(d.name, d.domain.clone(), x, config)
            .map_err(|e| e.to_string())?;
    }
    for w in &workloads {
        stack.engine.plan(w);
    }
    let next = AtomicUsize::new(0);
    let jobs = datasets.len() * releases;
    let mut served: Vec<(usize, Result<QueryResponse, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::SeqCst);
                        if job >= jobs {
                            return mine;
                        }
                        let d = job / releases;
                        let resp = stack
                            .engine
                            .serve(datasets[d].name, &workloads[d], CENSUS_EPS);
                        mine.push((job, resp.map_err(|e| e.to_string())));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a set-up thread panicked"))
            .collect()
    });
    served.sort_by_key(|(job, _)| *job);
    for (_, resp) in served {
        stack.setup_responses.push(resp?);
    }
    if server {
        stack.server = Some(EngineServer::start(
            Arc::clone(&stack.engine),
            ServerOptions {
                workers: lanes,
                ..Default::default()
            },
        ));
    }
    Ok((stack, t.elapsed().as_secs_f64()))
}

/// The census datasets as the benchmark keeps them for truth and replay.
struct CensusData {
    datasets: Vec<Dataset>,
    workloads: Vec<Workload>,
    truth: Vec<Vec<f64>>,
    /// CPH's slab partition, for the traced run's local sharded replay.
    cph_shards: ShardedDataVector,
}

impl CensusData {
    fn new(seed: u64, lanes: usize) -> CensusData {
        let datasets = gen::census_datasets(seed, lanes);
        let workloads: Vec<Workload> = datasets
            .iter()
            .map(|d| gen::census_workload(d.name))
            .collect();
        let truth = datasets
            .iter()
            .zip(&workloads)
            .map(|(d, w)| w.answer(&d.x))
            .collect();
        let cph = datasets
            .iter()
            .find(|d| d.name == "cph")
            .expect("census has CPH");
        let cph_shards = ShardedDataVector::partition(&cph.domain, cph.x.clone(), cph.shards);
        CensusData {
            datasets,
            workloads,
            truth,
            cph_shards,
        }
    }

    fn names(&self) -> Vec<&'static str> {
        self.datasets.iter().map(|d| d.name).collect()
    }

    fn cph_view(&self) -> ShardedView<'_> {
        let b = &self.cph_shards;
        let slabs = (0..b.shard_count())
            .map(|s| DataSlab {
                rows: b.shard_rows(s),
                values: b.shard_values(s),
            })
            .collect();
        ShardedView::new(b.leading_len(), slabs)
    }
}

fn setup_stack(
    cfg: &Config,
    data: &CensusData,
    releases: usize,
    server: bool,
) -> Result<(Stack, f64), String> {
    let tag = if server { "census" } else { "session" };
    setup_median(cfg.setup_reps, |rep| {
        let dir = cfg
            .scratch
            .join(format!("{tag}-{}-{rep}", std::process::id()));
        census_stack(
            &data.datasets,
            cfg.seed,
            &dir,
            cfg.clients,
            releases,
            server,
        )
    })
}

// ---------------------------------------------------------------------------
// census_release
// ---------------------------------------------------------------------------

/// Per census class (in [`CENSUS_CLASSES`] order): the engine's serve time
/// net of queue wait, and the same steps replayed in-process.
const CLASS_SERVE_MS: [&str; 4] = [
    "taxi.serve_ms",
    "adult.serve_ms",
    "union.serve_ms",
    "cph.serve_ms",
];
const CLASS_REPLAY_MS: [&str; 4] = [
    "taxi.replay_ms",
    "adult.replay_ms",
    "union.replay_ms",
    "cph.replay_ms",
];

struct Census<'a> {
    stack: Stack,
    data: &'a CensusData,
    seed: u64,
    next: AtomicUsize,
    checks: Mutex<Checks>,
    /// Per dataset, the traced run's own reconstruction factorization.
    prepared: Vec<PreparedReconstruct>,
    exec: ScopedExecutor,
}

impl Bench for Census<'_> {
    fn request(&self, trace: Option<&SpanLog>) -> Outcome {
        let index = self.next.fetch_add(1, Ordering::SeqCst);
        let class = gen::census_request(self.seed, index);
        let name = CENSUS_CLASSES[class].0;
        let w = &self.data.workloads[class];
        let server = self
            .stack
            .server
            .as_ref()
            .expect("census runs behind the server");
        let started = Instant::now();
        let served = server.submit(name, w, CENSUS_EPS).and_then(|t| t.join());
        let ended = Instant::now();
        let latency_ms = (ended - started).as_secs_f64() * 1e3;
        let resp = match served {
            Ok(r) => r,
            Err(e) => {
                self.checks.lock().expect("checks poisoned").error(e);
                return Outcome::failed(name, latency_ms);
            }
        };
        let err = sq_err(&resp.answers, &self.data.truth[class]);
        let q = resp.answers.len() as f64;
        self.checks
            .lock()
            .expect("checks poisoned")
            .served(name, name, &resp, err);
        let _ = self.stack.engine.close_session(resp.session);
        if let Some(log) = trace {
            let mut rt = log.request();
            let serve = rt.reserve();
            let queue = self
                .stack
                .engine
                .trace_spans(resp.trace_id)
                .into_iter()
                .find(|s| s.name == "queue")
                .map_or(0.0, |s| s.dur_ns as f64 / 1e6);
            if queue > 0.0 {
                rt.record(
                    "engine.queue",
                    serve,
                    started,
                    started + Duration::from_secs_f64(queue / 1e3),
                );
            }
            let serve_ms = rt.record_as(serve, "engine.serve", ROOT, started, ended);
            rt.sample("engine.queue_wait_ms", queue);
            let children = self.replay(&mut rt, class, index);
            rt.sample(CLASS_SERVE_MS[class], serve_ms - queue);
            rt.sample(CLASS_REPLAY_MS[class], children);
            rt.sample("engine.self_ms", serve_ms - queue - children);
            rt.finish();
        }
        Outcome {
            class: name,
            latency_ms,
            ok: true,
            rmse: Some((err / q).sqrt()),
            expected_rmse: Some((resp.expected_error / q).sqrt()),
        }
    }
}

impl Census<'_> {
    /// The warm request again, one layer call at a time. Returns the time of
    /// the calls the engine's serve also makes, for `engine.self_ms`.
    fn replay(&self, rt: &mut RequestTrace<'_>, class: usize, index: usize) -> f64 {
        let engine = &self.stack.engine;
        let dataset = &self.data.datasets[class];
        let w = &self.data.workloads[class];
        let replay = rt.reserve();
        let start = Instant::now();
        let (_, _, fp_ms) = rt.time("workload.fingerprint", replay, || {
            black_box(w.fingerprint())
        });
        rt.sample("workload.fingerprint_us", fp_ms * 1e3);
        let ((plan, hit), _, plan_ms) = rt.time("engine.plan", replay, || engine.plan(w));
        rt.sample("engine.plan_hit_us", plan_ms * 1e3);
        if !hit {
            self.checks
                .lock()
                .expect("checks poisoned")
                .error("a pre-warmed plan missed the cache");
        }
        let strategy = plan.strategy();
        let prepared = &self.prepared[class];
        let mut rng = gen::rng_for(self.seed, "census-replay", index as u64);
        let sharded = dataset.shards > 1;
        let view = self.data.cph_view();
        let (meas, _, measure_ms) = rt.time("mechanism.measure", replay, || {
            if sharded {
                measure_sharded(
                    strategy,
                    &view,
                    CENSUS_EPS,
                    &mut rng,
                    &self.exec,
                    &NoopObserver,
                )
            } else {
                measure(strategy, &dataset.x, CENSUS_EPS, &mut rng)
            }
        });
        rt.sample("mechanism.measure_ms", measure_ms);
        let draws: usize = meas.blocks.iter().map(|b| b.noisy.len()).sum();
        rt.sample("mechanism.noise_draws", draws as f64);
        let (x_hat, _, rec_ms) = rt.time("mechanism.reconstruct", replay, || {
            if sharded {
                reconstruct_sharded_with(
                    prepared,
                    strategy,
                    &meas,
                    &view,
                    &self.exec,
                    &NoopObserver,
                )
            } else {
                reconstruct_with(prepared, strategy, &meas)
            }
        });
        rt.sample("mechanism.reconstruct_ms", rec_ms);
        if let Strategy::Union(groups) = strategy {
            let (result, _, _) = rt.time("linalg.lsmr", replay, || union_lsmr(groups, &meas));
            rt.sample("linalg.lsmr_iters", result.iterations as f64);
            rt.sample(
                "linalg.lsmr_capped_frac",
                f64::from(u8::from(result.istop == 7)),
            );
        }
        let (_, _, answer_ms) = rt.time("mechanism.answer", replay, || {
            black_box(w.answer_with(&x_hat, &mut KronScratch::new()))
        });
        rt.record_as(replay, "replay", ROOT, start, Instant::now());
        fp_ms + plan_ms + measure_ms + rec_ms + answer_ms
    }
}

/// The union reconstruction's LSMR solve, built as `reconstruct_with` builds
/// it: each group's Kronecker operator whitened by its noise scale, stacked.
fn union_lsmr(
    groups: &[hdmm_mechanism::UnionGroup],
    meas: &Measurements,
) -> hdmm_linalg::LsmrResult {
    let mut ops: Vec<Box<dyn LinOp>> = Vec::with_capacity(groups.len());
    let mut rhs = Vec::new();
    for (g, block) in groups.iter().zip(&meas.blocks) {
        let w = 1.0 / block.noise_scale;
        ops.push(Box::new(ScaledOp {
            alpha: w,
            inner: StructuredMatrix::kron(g.factors.clone()),
        }));
        rhs.extend(block.noisy.iter().map(|v| v * w));
    }
    lsmr(&StackedOp::new(ops), &rhs, &LsmrOptions::default())
}

/// Times the traced run replays the census union's SELECT.
const UNION_SELECT_REPLAYS: usize = 3;

fn run_census(cfg: &Config, traced: bool) -> Result<Report, String> {
    let data = CensusData::new(cfg.seed, cfg.clients);
    let names = data.names();
    let (stack, setup_s) = setup_stack(cfg, &data, 1, true)?;
    let mut checks = Checks::default();
    for ((d, resp), truth) in data
        .datasets
        .iter()
        .zip(&stack.setup_responses)
        .zip(&data.truth)
    {
        checks.served(d.name, d.name, resp, sq_err(&resp.answers, truth));
        let _ = stack.engine.close_session(resp.session);
    }
    // Set-up serves count for the budget and cache gates, not for the
    // served-error statistics of the timed phase.
    checks.error_ratios.clear();
    let log = traced.then(SpanLog::new);
    let mut prepared = Vec::new();
    if let Some(log) = &log {
        // The factorizations the engine built during set-up, rebuilt under
        // the benchmark's spans.
        let mut rt = log.request();
        for w in &data.workloads {
            let (plan, _) = stack.engine.plan(w);
            let (p, _, ms) = rt.time("mechanism.prepare", ROOT, || {
                PreparedReconstruct::new(plan.strategy())
            });
            rt.sample("mechanism.prepare_ms", ms);
            prepared.push(p);
        }
        // The union's SELECT, replayed: cold `OPT_+` plans of never-seen
        // unions can fail (README, finding 5), so `cold_plan` has none and
        // this pre-warmed plan is where `OPT_+` is timed.
        let union = &data.workloads[gen::CENSUS_UNION];
        let hdmm = EngineOptions::default().hdmm;
        let choice = select_optimizer(union, &hdmm).choice;
        let grams = WorkloadGrams::from_workload(union);
        let ps = hdmm_optimizer::default_ps(union);
        for _ in 0..UNION_SELECT_REPLAYS {
            let (_, _, ms) = rt.time("optimizer.select.plus", ROOT, || {
                black_box(optimize_with_choice(&grams, &ps, &hdmm, choice))
            });
            rt.sample("optimizer.select_ms.plus", ms);
        }
        rt.finish();
    }
    let bench = Census {
        stack,
        data: &data,
        seed: cfg.seed,
        next: AtomicUsize::new(0),
        checks: Mutex::new(checks),
        prepared,
        exec: ScopedExecutor::new(0),
    };
    let run = phases_with_metrics(&bench, cfg, cfg.clients, log.as_ref(), &bench.stack.engine);
    let engine = &bench.stack.engine;
    let after = engine.metrics();
    let checks = bench.checks.lock().expect("checks poisoned");
    let mut gates = served_error_gates(&checks);
    gates.push(cache_gate(&checks, &after, true, names.len() as u64));
    gates.extend(budget_gates(engine, &checks, &names));
    gates.push(wal_gate(&after, &checks));
    let mut layers = Vec::new();
    if let (Some(log), Some((before, traced_after, requests))) = (&log, &run.traced) {
        let fsyncs = |m: &EngineMetrics| m.wal.as_ref().map_or(0, |w| w.fsyncs);
        let pool = |m: &EngineMetrics| {
            m.remote.as_ref().map_or((0u64, 0.0f64, 0u64), |p| {
                let tasks: u64 = p.workers.iter().map(|w| w.tasks).sum();
                let micros: f64 = p
                    .workers
                    .iter()
                    .map(|w| w.tasks as f64 * w.mean_task_micros)
                    .sum();
                (tasks, micros, p.retries)
            })
        };
        let (t0, us0, r0) = pool(before);
        let (t1, us1, r1) = pool(traced_after);
        let rpc_ms = if t1 > t0 {
            (us1 - us0) / (t1 - t0) as f64 / 1e3
        } else {
            0.0
        };
        let n = (*requests).max(1) as f64;
        layers = sampled(
            log,
            &[
                ("workload.fingerprint_us", "us"),
                ("optimizer.select_ms.plus", "ms"),
                ("mechanism.prepare_ms", "ms"),
                ("mechanism.measure_ms", "ms"),
                ("mechanism.noise_draws", "count"),
                ("mechanism.reconstruct_ms", "ms"),
                ("linalg.lsmr_iters", "count"),
                ("linalg.lsmr_capped_frac", "ratio"),
                ("engine.plan_hit_us", "us"),
                ("engine.self_ms", "ms"),
                ("engine.queue_wait_ms", "ms"),
            ],
        );
        layers.extend([
            (
                "engine.wal_fsyncs_per_request",
                "count",
                (fsyncs(traced_after) - fsyncs(before)) as f64 / n,
            ),
            ("net.rpc_ms", "ms", rpc_ms),
            ("net.retries", "count", (r1 - r0) as f64),
            (
                "net.fallbacks",
                "count",
                (traced_after.telemetry.remote_fallbacks - before.telemetry.remote_fallbacks)
                    as f64,
            ),
        ]);
        layers.extend(common_layers(&checks, before, traced_after, run.overhead));
    }
    let notes = log.as_ref().map_or_else(Vec::new, |log| {
        CENSUS_CLASSES
            .iter()
            .enumerate()
            .map(|(c, (name, _))| {
                let serve = log.samples(CLASS_SERVE_MS[c]);
                format!(
                    "class {name}: engine serve {:.2} ms mean (queue excluded), the same steps replayed in-process {:.2} ms mean, {} requests",
                    stats::mean(&serve),
                    stats::mean(&log.samples(CLASS_REPLAY_MS[c])),
                    serve.len()
                )
            })
            .collect()
    });
    let e2e = end_to_end(setup_s, &run.phase, None);
    drop(checks);
    let checks = bench.checks.into_inner().expect("checks poisoned");
    let mut report = report(Kind::CensusRelease, e2e, gates, &checks, layers, log);
    report.notes.extend(notes);
    Ok(report)
}

/// A phase run with the engine's counters read around its traced half.
struct Phased {
    phase: Phase,
    /// Engine metrics before and after the traced half, and its request count.
    traced: Option<(EngineMetrics, EngineMetrics, usize)>,
    overhead: f64,
}

fn phases_with_metrics(
    bench: &dyn Bench,
    cfg: &Config,
    clients: usize,
    log: Option<&SpanLog>,
    engine: &Engine,
) -> Phased {
    match log {
        None => Phased {
            phase: closed_loop(bench, clients, cfg.seconds, cfg.min_requests, None),
            traced: None,
            overhead: 0.0,
        },
        Some(log) => {
            let plain = closed_loop(bench, clients, cfg.seconds / 2.0, 1, None);
            let before = engine.metrics();
            let with = closed_loop(bench, clients, cfg.seconds / 2.0, 1, Some(log));
            let after = engine.metrics();
            let overhead =
                stats::median(&with.latencies()) / stats::median(&plain.latencies()) - 1.0;
            let n = with.outcomes.len();
            Phased {
                phase: plain,
                traced: Some((before, after, n)),
                overhead,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// session_followup
// ---------------------------------------------------------------------------

/// `session_followup` request classes: per census dataset, single calls
/// then batches.
const SESSION_CLASSES: [&str; 8] = [
    "taxi/single",
    "taxi/batch",
    "adult/single",
    "adult/batch",
    "union/single",
    "union/batch",
    "cph/single",
    "cph/batch",
];

struct Followups {
    stack: Stack,
    seed: u64,
    next: AtomicUsize,
    checks: Mutex<Checks>,
    /// Per dataset, its releases.
    sessions: Vec<Vec<(SessionId, Arc<Session>)>>,
    pools: Vec<Vec<Workload>>,
    /// `Workload::answer(session.estimate())` per dataset, release and pool
    /// entry.
    reference: Vec<Vec<Vec<Vec<f64>>>>,
    /// True answers `W·x` per dataset and pool entry.
    truth: Vec<Vec<Vec<f64>>>,
}

impl Bench for Followups {
    fn request(&self, trace: Option<&SpanLog>) -> Outcome {
        let index = self.next.fetch_add(1, Ordering::SeqCst);
        let (class, release, call) = gen::session_request(self.seed, index);
        let (id, session) = &self.sessions[class][release];
        let reference = &self.reference[class][release];
        let pool = &self.pools[class];
        let picks: Vec<usize> = match &call {
            Followup::Single(k) => vec![*k],
            Followup::Batch(ks) => ks.clone(),
        };
        let engine = &self.stack.engine;
        let kind = SESSION_CLASSES[2 * class + usize::from(matches!(call, Followup::Batch(_)))];
        let ws: Vec<&Workload> = picks.iter().map(|&k| &pool[k]).collect();
        let started = Instant::now();
        let served = guarded(|| match &call {
            Followup::Single(_) => engine.serve_from_session(*id, ws[0]).map(|a| vec![a]),
            Followup::Batch(_) => engine.serve_batch_from_session(*id, &ws),
        });
        let ended = Instant::now();
        let latency_ms = (ended - started).as_secs_f64() * 1e3;
        let answers = match served {
            Ok(a) => a,
            Err(e) => {
                self.checks.lock().expect("checks poisoned").error(e);
                return Outcome::failed(kind, latency_ms);
            }
        };
        let mut mismatches = 0;
        let (mut err, mut q) = (0.0, 0usize);
        for (a, &k) in answers.iter().zip(&picks) {
            if a.len() != reference[k].len()
                || a.iter()
                    .zip(&reference[k])
                    .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                mismatches += 1;
            }
            err += sq_err(a, &self.truth[class][k]);
            q += a.len();
        }
        mismatches += picks.len().abs_diff(answers.len());
        if mismatches > 0 {
            self.checks.lock().expect("checks poisoned").mismatches += mismatches;
        }
        if let Some(log) = trace {
            let mut rt = log.request();
            let name = if matches!(call, Followup::Single(_)) {
                "engine.serve_from_session"
            } else {
                "engine.serve_batch_from_session"
            };
            let (_, engine_ms) = rt.record(name, ROOT, started, ended);
            let replay = rt.reserve();
            let start = Instant::now();
            let x_hat = session.estimate();
            let (_, _, ms) = rt.time("mechanism.answer", replay, || match &call {
                Followup::Single(_) => {
                    vec![black_box(ws[0].answer_with(x_hat, &mut KronScratch::new()))]
                }
                Followup::Batch(_) => black_box(answer_many_from_parts(x_hat, &ws)),
            });
            rt.sample("mechanism.answer_ms", ms);
            if matches!(call, Followup::Batch(_)) {
                rt.sample("batch_engine_ms", engine_ms);
                rt.sample("batch_serial_ms", ms);
            }
            rt.record_as(replay, "replay", ROOT, start, Instant::now());
            rt.finish();
        }
        Outcome {
            class: kind,
            latency_ms,
            ok: true,
            rmse: Some((err / q.max(1) as f64).sqrt()),
            expected_rmse: None,
        }
    }
}

fn run_session(cfg: &Config, traced: bool) -> Result<Report, String> {
    let data = CensusData::new(cfg.seed, cfg.clients);
    let names = data.names();
    let (stack, setup_s) = setup_stack(cfg, &data, gen::RELEASES_PER_DATASET, false)?;
    let mut checks = Checks::default();
    let mut sessions = Vec::new();
    let mut expected = Vec::new();
    let releases = stack.setup_responses.chunks(gen::RELEASES_PER_DATASET);
    for ((d, responses), truth) in data.datasets.iter().zip(releases).zip(&data.truth) {
        let mut mine = Vec::new();
        for resp in responses {
            checks.served(d.name, d.name, resp, sq_err(&resp.answers, truth));
            let q = resp.answers.len() as f64;
            expected.push((resp.expected_error / q).sqrt());
            let session = stack
                .engine
                .session(resp.session)
                .map_err(|e| e.to_string())?;
            mine.push((resp.session, session));
        }
        sessions.push(mine);
    }
    // A few set-up serves per dataset: too few for the served-error test.
    checks.error_ratios.clear();
    let pools: Vec<Vec<Workload>> = data
        .datasets
        .iter()
        .map(|d| gen::followups(d.name, &d.domain))
        .collect();
    let reference = pools
        .iter()
        .zip(&sessions)
        .map(|(pool, releases)| {
            releases
                .iter()
                .map(|(_, s)| pool.iter().map(|w| w.answer(s.estimate())).collect())
                .collect()
        })
        .collect();
    let truth = pools
        .iter()
        .zip(&data.datasets)
        .map(|(pool, d)| pool.iter().map(|w| w.answer(&d.x)).collect())
        .collect();
    let bench = Followups {
        stack,
        seed: cfg.seed,
        next: AtomicUsize::new(0),
        checks: Mutex::new(checks),
        sessions,
        pools,
        reference,
        truth,
    };
    let log = traced.then(SpanLog::new);
    let run = phases_with_metrics(&bench, cfg, cfg.clients, log.as_ref(), &bench.stack.engine);
    let engine = &bench.stack.engine;
    let after = engine.metrics();
    let checks = bench.checks.lock().expect("checks poisoned");
    let mut gates = vec![Gate::new(
        "followups_bitwise",
        checks.mismatches == 0,
        format!(
            "{} follow-up answers differ from Workload::answer(estimate)",
            checks.mismatches
        ),
    )];
    gates.push(cache_gate(&checks, &after, true, names.len() as u64));
    gates.extend(budget_gates(engine, &checks, &names));
    gates.push(wal_gate(&after, &checks));
    let mut layers = Vec::new();
    if let (Some(log), Some((before, traced_after, requests))) = (&log, &run.traced) {
        let fsyncs = |m: &EngineMetrics| m.wal.as_ref().map_or(0, |w| w.fsyncs);
        let batch: f64 = log.samples("batch_engine_ms").iter().sum();
        let serial: f64 = log.samples("batch_serial_ms").iter().sum();
        layers = sampled(log, &[("mechanism.answer_ms", "ms")]);
        layers.extend([
            (
                "engine.wal_fsyncs_per_request",
                "count",
                (fsyncs(traced_after) - fsyncs(before)) as f64 / (*requests).max(1) as f64,
            ),
            (
                "engine.batch_vs_loop",
                "ratio",
                if serial > 0.0 { batch / serial } else { 0.0 },
            ),
        ]);
        layers.extend(common_layers(&checks, before, traced_after, run.overhead));
    }
    let e2e = end_to_end(setup_s, &run.phase, Some(stats::mean(&expected)));
    drop(checks);
    let checks = bench.checks.into_inner().expect("checks poisoned");
    Ok(report(
        Kind::SessionFollowup,
        e2e,
        gates,
        &checks,
        layers,
        log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest run that exercises every gate: 100 requests, so p90 has
    /// ten samples beyond it.
    fn smoke(kind: Kind) {
        let cfg = Config {
            seed: 1,
            seconds: 0.5,
            min_requests: 100,
            setup_reps: 1,
            clients: 2,
            scratch: PathBuf::from(".releasebench").join(format!(
                "test-{}-{}",
                kind.name(),
                std::process::id()
            )),
        };
        let report = run(kind, &cfg, false);
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        let report = report.expect("set-up succeeds");
        assert!(report.e2e.attempted >= 100);
        assert_eq!(report.e2e.failed, 0, "failed requests");
        for g in &report.gates {
            assert!(
                g.pass,
                "{} gate {} failed: {}",
                kind.name(),
                g.name,
                g.detail
            );
        }
    }

    #[test]
    fn smoke_cold_plan() {
        smoke(Kind::ColdPlan);
    }

    #[test]
    fn smoke_census_release() {
        smoke(Kind::CensusRelease);
    }

    #[test]
    fn smoke_session_followup() {
        smoke(Kind::SessionFollowup);
    }
}
