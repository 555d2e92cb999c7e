//! What every result is stamped with, so numbers from different hosts,
//! kernel dispatch paths or builds are never compared silently.

/// The build and host a result came from.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub host: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// The compiled-tree kernel's gather walk this host takes:
    /// `avx512`, `avx2` or `portable`.
    pub dispatch: &'static str,
    /// Whether `METIS_NO_GATHER` forced the portable walk.
    pub no_gather: bool,
    /// The `target-cpu` the benchmark and the program were built for.
    pub target_cpu: &'static str,
}

impl Stamp {
    pub fn current() -> Stamp {
        let no_gather = std::env::var_os("METIS_NO_GATHER").is_some_and(|v| v != "0");
        Stamp {
            host: read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: read_trimmed("/proc/cpuinfo")
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            dispatch: if no_gather {
                "portable"
            } else {
                gather_width()
            },
            no_gather,
            target_cpu: env!("PERFBENCH_TARGET_CPU"),
        }
    }

    /// `key=value` pairs in a fixed order.
    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("host", self.host.clone()),
            ("nproc", self.nproc.to_string()),
            ("cpu", self.cpu_model.clone()),
            ("dispatch", self.dispatch.to_string()),
            ("no_gather", self.no_gather.to_string()),
            ("target_cpu", self.target_cpu.to_string()),
        ]
    }
}

/// The widest gather walk `metis_dt`'s kernel selects on this CPU (the
/// same feature tests, in the same order).
#[cfg(target_arch = "x86_64")]
fn gather_width() -> &'static str {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
        "avx512"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "portable"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn gather_width() -> &'static str {
    "portable"
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
