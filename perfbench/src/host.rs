//! Process and host readings from `/proc`, and the run-environment
//! record printed with every result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Current resident set size in bytes (`VmRSS`), 0 where unavailable.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Samples `VmRSS` every 25 ms until stopped and keeps the maximum.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(rss_bytes()));
        let handle = {
            let (stop, peak) = (stop.clone(), peak.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(rss_bytes(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        };
        RssSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stop sampling and return the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("rss sampler thread panicked");
        }
        self.peak.fetch_max(rss_bytes(), Ordering::Relaxed);
        self.peak.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

/// CPU time (user + system) this process has used, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // 100 ticks per second is the Linux USER_HZ on every mainstream
    // architecture.
    (ticks(11) + ticks(12)) * 10.0
}

/// Host-wide CPU ticks: (steal, total) from the `cpu` line of
/// `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let steal = v.get(7).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let total = v.iter().take(8).sum();
    (steal, total)
}

/// Share of host CPU ticks stolen by the hypervisor between two readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// The commit being measured: `.git/HEAD` resolved by hand (the
/// benchmark may run from a plain checkout, where there is none).
pub fn git_sha() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler this benchmark was built with (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}
