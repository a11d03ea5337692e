//! Host descriptor and noise guard: every result carries the machine it was
//! taken on, and a run that cannot mean what it says is refused.

use std::fs;

#[derive(Debug, Clone)]
pub struct Host {
    /// Online processors listed by `/proc/cpuinfo` (falls back to
    /// `available_parallelism`).
    pub nproc: usize,
    /// What the process may actually use (cgroup / affinity aware).
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub governor: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
    pub commit: String,
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

impl Host {
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
        let listed = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        let governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .map_or("unreadable".to_string(), |s| s.trim().to_string());
        let load1 = read("/proc/loadavg")
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Host {
            nproc: if listed > 0 {
                listed.min(available_parallelism)
            } else {
                available_parallelism
            },
            available_parallelism,
            cpu_model,
            governor,
            load1,
            commit: git_commit(),
        }
    }

    /// Worker count of every parallel workload: `min(nproc, 4)`.
    pub fn workers(&self) -> usize {
        self.nproc.clamp(1, 4)
    }

    pub fn describe(&self, workers: usize, seed: u64) -> String {
        format!(
            "host: nproc={} available_parallelism={} cpu=\"{}\" governor={} load1={:.2} W={} seed={} commit={}",
            self.nproc,
            self.available_parallelism,
            self.cpu_model,
            self.governor,
            self.load1,
            workers,
            seed,
            self.commit
        )
    }
}

/// `HEAD` of the checkout the benchmark runs from, when it is a git
/// repository (the acceptance driver's checkout is not).
fn git_commit() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).map_or(head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
