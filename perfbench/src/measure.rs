//! Process counters, the calibration kernel, and sample statistics.
//!
//! Everything here is standard-library only and independent of the
//! repository's crates, so a change to the program under test cannot move
//! the calibration kernel.

use std::time::Instant;

/// Byte counters from `/proc/self/io`: bytes passed to `read`/`write`
/// family syscalls, whatever the device (page cache included).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    rchar: u64,
    wchar: u64,
    /// Length of the `/proc/self/io` text this sample read. The kernel
    /// charges that read to `rchar` after rendering the text, so the next
    /// sample's `rchar` includes it; [`IoCounters::delta_since`] removes it.
    text_len: u64,
}

impl IoCounters {
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("/proc/self/io lacks {name}"))
        };
        Self {
            rchar: field("rchar:"),
            wchar: field("wchar:"),
            text_len: text.len() as u64,
        }
    }

    /// `(read, written)` bytes between `before` and `self`, excluding the
    /// counter reads themselves.
    pub fn delta_since(&self, before: &IoCounters) -> (u64, u64) {
        (
            self.rchar - before.rchar - before.text_len,
            self.wchar - before.wchar,
        )
    }
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status lacks VmHWM")
}

/// User + system CPU time of the whole process, every thread that ever
/// ran in it included, in seconds (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_s() -> f64 {
    // Linux reports these in clock ticks of `sysconf(_SC_CLK_TCK)`, which
    // is 100 on every supported architecture.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks =
        |i: usize| -> f64 { fields[i - 3].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(14) + ticks(15)) / TICKS_PER_S
}

/// `std::thread::available_parallelism`, or 1 when it is unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Keys the calibration kernel sorts: 1 MiB of `u64`, larger than a
/// typical L2, so the kernel feels memory contention as the program does.
const KERNEL_KEYS: usize = 1 << 17;

/// The calibration kernel: a fixed amount of allocation, sorting, ordered
/// map inserts and lookups — the kind of work the pipeline spends its time
/// on — with no repository code in it. Returns a checksum so the compiler
/// keeps the work.
pub fn kernel() -> u64 {
    let mut state = 0x5eed_0ff5_e7c0_ffeeu64;
    let mut keys: Vec<u64> = (0..KERNEL_KEYS).map(|_| splitmix(&mut state)).collect();
    keys.sort_unstable();
    let mut index = std::collections::BTreeMap::new();
    for (i, &k) in keys.iter().step_by(64).enumerate() {
        index.insert(k >> 24, i as u64);
    }
    let mut acc = 0u64;
    for &k in keys.iter().step_by(5) {
        if let Some((_, &i)) = index.range(..=(k >> 24)).next_back() {
            acc = acc.wrapping_add(i ^ k);
        }
    }
    acc ^ keys[KERNEL_KEYS / 2]
}

/// Time one kernel run on the calling thread, in milliseconds.
pub fn kernel_sample_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A seeded splitmix64 stream for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x00ff_5e7b_34c4)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn io_delta_excludes_counter_reads() {
        let a = IoCounters::read();
        let b = IoCounters::read();
        assert_eq!(b.delta_since(&a), (0, 0));
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
