//! Process facts read from `/proc`, the build/run stamp, and a seeded
//! generator for the benchmark's own choices.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Linux reports per-thread CPU time in `USER_HZ` ticks, fixed at 100 by
/// the kernel ABI.
const TICK_NS: u64 = 10_000_000;

/// CPU time (user + system) consumed so far by this process's threads
/// whose name starts with `prefix`, in nanoseconds.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
        // Fields after the parenthesized command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let Some((_, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        ticks += field(11) + field(12);
    }
    ticks * TICK_NS
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().chars().take(12).collect();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|rev| rev.trim().chars().take(12).collect()))
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `FTFFT_*` variables in the environment. The benchmark pins every knob
/// through `PlanSpec`/`ServiceConfig`, so any of these would silently
/// change what is measured.
pub fn ftfft_env_vars() -> Vec<String> {
    std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("FTFFT_")).collect()
}

/// SplitMix64: the benchmark's own seeded choices (which pooled input an
/// op uses, which spec a request gets).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent seed for one stream of a workload.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).scan(SplitMix::new(9), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(SplitMix::new(9), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(SplitMix::new(10), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
    }

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
