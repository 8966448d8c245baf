//! End-to-end release benchmark for the HDMM serving stack.
//!
//! ```text
//! releasebench --workload <cold_plan|census_release|session_followup>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload cold_adhoc` runs `cold_plan` on ad-hoc inputs that reproduce
//! known defects of the program; it is not one of the benchmark's workloads.
//!
//! With `--trace 0` it runs the named workload through the public
//! `Engine` / `EngineServer` API, checks the outputs, and prints the
//! end-to-end metrics. With `--trace 1` it runs all three workloads with the
//! benchmark's own spans around each layer call and prints the per-layer
//! metrics instead. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; a failed
//! correctness gate sets `correct` to false and is listed above it. The exit
//! code is 0 whenever that line is printed, 1 when a set-up call failed and
//! nothing was measured, and 2 on bad arguments. See `README.md`.

mod gen;
mod host;
mod run;
mod stats;
mod trace;

use host::{json_str, Stamp};
use run::{Config, Kind, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where results, span files and per-run scratch go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".releasebench";

/// Requests every untraced timed phase completes at least, so that p90 has
/// ten samples beyond it.
const MIN_REQUESTS: usize = 100;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: [(Kind, usize); 4] = [
    (Kind::ColdPlan, 25),
    (Kind::ColdAdhoc, 25),
    (Kind::CensusRelease, 3),
    (Kind::SessionFollowup, 3),
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("releasebench: {e}");
            eprintln!(
                "usage: releasebench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("releasebench: creating {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let stamp = Stamp::collect(args.seed);
    println!(
        "releasebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("stamp {}", stamp.to_json());
    let kinds: Vec<Kind> = if args.trace {
        Kind::ALL.to_vec()
    } else {
        vec![args.workload]
    };
    let mut reports = Vec::new();
    for kind in kinds {
        let cfg = Config {
            seed: args.seed,
            seconds: if args.trace {
                args.seconds / 3.0
            } else {
                args.seconds
            },
            min_requests: if args.trace { 1 } else { MIN_REQUESTS },
            setup_reps: if args.trace {
                1
            } else {
                SETUP_REPS.iter().find(|r| r.0 == kind).map_or(1, |r| r.1)
            },
            clients: host::nproc(),
            scratch: out.join("scratch"),
        };
        match run::run(kind, &cfg, args.trace) {
            Ok(r) => {
                print_report(&r, args.trace);
                if args.trace {
                    write_trace(&out, &r);
                }
                reports.push(r);
            }
            Err(e) => {
                // A set-up call failed: nothing was measured.
                eprintln!("releasebench: {} set-up failed: {e}", kind.name());
                let _ = std::fs::remove_dir_all(out.join("scratch"));
                return ExitCode::from(1);
            }
        }
    }
    let _ = std::fs::remove_dir_all(out.join("scratch"));
    let correct = reports.iter().all(|r| r.gates.iter().all(|g| g.pass));
    let attempted: usize = reports.iter().map(|r| r.e2e.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.e2e.failed).sum();
    let metrics = if args.trace {
        layer_metrics(&reports)
    } else {
        end_to_end_metrics(&reports[0])
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics
            .iter()
            .map(|(name, unit, v)| format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), json_number(*v), json_str(unit)))
            .collect::<Vec<_>>()
            .join(",")
    );
    let record = format!(
        "{{\"stamp\":{},\"workload\":{},\"trace\":{},\"result\":{result}}}\n",
        stamp.to_json(),
        json_str(args.workload.name()),
        args.trace
    );
    let file = out.join(format!(
        "result_{}_seed{}_trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("releasebench: writing {}: {e}", file.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; a non-finite value is a bug the gates
/// already report, printed as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn end_to_end_metrics(r: &Report) -> Vec<(String, &'static str, f64)> {
    let e = &r.e2e;
    vec![
        ("setup_s".into(), "s", e.setup_s),
        ("latency_p50_ms".into(), "ms", e.latency_p50_ms),
        // Without ten samples beyond it p90 is not reported: the p90 gate
        // fails and the slowest sample stands in.
        (
            "latency_p90_ms".into(),
            "ms",
            e.latency_p90_ms.unwrap_or(e.latency_max_ms),
        ),
        ("throughput_rps".into(), "req/s", e.throughput_rps),
        ("rmse".into(), "count", e.rmse),
        ("expected_rmse".into(), "count", e.expected_rmse),
        ("success_frac".into(), "ratio", success_frac(e)),
        ("peak_rss_mb".into(), "MiB", e.peak_rss_mb),
    ]
}

fn success_frac(e: &run::EndToEnd) -> f64 {
    1.0 - e.failed as f64 / e.attempted.max(1) as f64
}

fn layer_metrics(reports: &[Report]) -> Vec<(String, &'static str, f64)> {
    reports
        .iter()
        .flat_map(|r| {
            r.layers
                .iter()
                .map(move |(name, unit, v)| (format!("{}.{name}", r.kind.name()), *unit, *v))
        })
        .collect()
}

fn print_report(r: &Report, traced: bool) {
    let e = &r.e2e;
    let mut s = String::new();
    let _ = writeln!(s, "== {}", r.kind.name());
    if traced {
        let _ = writeln!(s, "per-layer metrics (traced half of the run):");
        for (name, unit, v) in &r.layers {
            let _ = writeln!(
                s,
                "  {:<48} {:>14.6} {unit}",
                format!("{}.{name}", r.kind.name()),
                v
            );
        }
        s.push_str(&trace::self_time_table(r.kind.name(), &r.spans));
    } else {
        let p90 = e
            .latency_p90_ms
            .map_or("n/a (fewer than 10 samples beyond p90)".to_string(), |v| {
                format!("{v:.4} ms")
            });
        let _ = writeln!(s, "  {:<16} {:>14.6} s", "setup_s", e.setup_s);
        let _ = writeln!(
            s,
            "  {:<16} {:>14.4} ms   (n={})",
            "latency_p50_ms", e.latency_p50_ms, e.samples
        );
        let _ = writeln!(
            s,
            "  {:<16} {p90:>17}   (n={})",
            "latency_p90_ms", e.samples
        );
        let _ = writeln!(
            s,
            "  {:<16} {:>14.4} req/s",
            "throughput_rps", e.throughput_rps
        );
        let _ = writeln!(s, "  {:<16} {:>14.4} count", "rmse", e.rmse);
        let _ = writeln!(
            s,
            "  {:<16} {:>14.4} count",
            "expected_rmse", e.expected_rmse
        );
        let _ = writeln!(
            s,
            "  {:<16} {:>14.6} ratio ({} of {} failed)",
            "failed_frac",
            1.0 - success_frac(e),
            e.failed,
            e.attempted
        );
        let _ = writeln!(s, "  {:<16} {:>14.2} MiB", "peak_rss_mb", e.peak_rss_mb);
        for (class, (n, p50, rmse)) in &e.classes {
            let _ = writeln!(
                s,
                "  class {class:<14} {n:>6} requests, median {p50:>9.3} ms, rmse {rmse:.3}"
            );
        }
    }
    for note in &r.notes {
        let _ = writeln!(s, "  {note}");
    }
    for g in &r.gates {
        let verdict = if g.pass { "pass" } else { "FAIL" };
        let _ = writeln!(s, "  gate {:<24} {verdict}  {}", g.name, g.detail);
    }
    print!("{s}");
}

fn write_trace(out: &Path, r: &Report) {
    let file = out.join(format!("trace_{}.json", r.kind.name()));
    match std::fs::write(&file, hdmm_engine::chrome_trace(&r.spans)) {
        Ok(()) => println!("  spans: {} written to {}", r.spans.len(), file.display()),
        Err(e) => eprintln!("releasebench: writing {}: {e}", file.display()),
    }
}
