//! The host and configuration stamp, and process memory.

use std::fmt::Write;
use std::path::Path;

/// Everything a result depends on besides the code under test: numbers
/// carrying different stamps must not be compared.
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub profile: &'static str,
    pub seed: u64,
    pub commit: String,
    pub select_threads_env: Option<String>,
    pub select_threads: usize,
    pub shard_lanes: usize,
}

impl Stamp {
    pub fn collect(seed: u64) -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let options = hdmm_core::HdmmOptions::default();
        Stamp {
            nproc: nproc(),
            cpu_model,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            select_threads_env: std::env::var("HDMM_SELECT_THREADS").ok(),
            select_threads: hdmm_optimizer::RestartExecutor::new(options.threads).threads(),
            shard_lanes: hdmm_mechanism::ScopedExecutor::new(0).threads(),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"nproc\":{},\"cpu_model\":{},\"profile\":\"{}\",\"seed\":{},\"commit\":{},\
             \"HDMM_SELECT_THREADS\":{},\"select_threads\":{},\"shard_lanes\":{}",
            self.nproc,
            json_str(&self.cpu_model),
            self.profile,
            self.seed,
            json_str(&self.commit),
            self.select_threads_env
                .as_deref()
                .map_or("null".to_string(), json_str),
            self.select_threads,
            self.shard_lanes,
        );
        s.push('}');
        s
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from the git metadata without running git;
/// `None` when the directory is not a git checkout.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Restarts the peak-resident-memory count (`VmHWM`) from the current
/// resident size, so [`peak_rss_mib`] covers only what follows. Best-effort:
/// kernels without the reset leave the peak since process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
