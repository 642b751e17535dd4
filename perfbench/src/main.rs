//! The off-net inference system's benchmark: four workloads against the
//! library's public entry points, each op checked against the canonical
//! in-memory result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets up `SETUP_REPS` times (timing each), computes its reference
//! outputs, runs one discarded warm-up pass, then measures whole passes
//! until `--seconds` have passed. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! passes and prints the per-layer metrics, the tracing overhead among
//! them, and writes the spans to `.perfbench/traces/`. The last line of
//! standard output is one JSON object. `BENCHMARK.json` at the repository
//! root documents every workload and metric.
//!
//! Time metrics are calibrated: each op time is divided by the median time
//! of the calibration kernel ([`measure::kernel`]) samples taken nearest to
//! it and multiplied by [`NOMINAL_KERNEL_MS`], so machine-speed drift
//! within and between runs cancels while the units stay milliseconds and
//! seconds. The kernel runs between ops, when no program thread is alive,
//! on one thread: run on two threads at once, its samples spread more
//! than the two-worker ops they would calibrate.

mod append;
mod measure;
mod query;
mod sharded;
mod study;
mod trace;

use hgsim::{HgWorld, ScenarioConfig};
use measure::{kernel_sample_ms, mean, median, quantile, IoCounters};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Times each run sets up; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The calibration kernel's median time on the reference machine (2 vCPU
/// x86-64 VM). Calibrated times read as if measured there.
const NOMINAL_KERNEL_MS: f64 = 5.5;

/// A calibration sample follows an op once this much op time has passed
/// since the previous sample, so samples spread evenly over the run.
const KERNEL_EVERY: Duration = Duration::from_millis(100);

/// An op is calibrated by the median of this many kernel samples on each
/// side of it. The machine's speed drifts on a scale of seconds, so a
/// local median tracks it where a run-wide one cannot.
const KERNEL_NEIGHBOURS: usize = 2;

/// Kernel samples taken before each set-up and after the last one; a
/// set-up is calibrated by the samples on both sides of it.
const SETUP_KERNEL_SAMPLES: usize = 3;

/// End-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that never
/// enters a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("write_kib_per_op", "KiB"),
    ("read_kib_per_op", "KiB"),
    ("stored_kib", "KiB"),
    ("validate.ms", "ms"),
    ("validate.cache_hit_ratio", "ratio"),
    ("validate.chains_replayed_ratio", "ratio"),
    ("corpus.build_ms", "ms"),
    ("corpus.intern_ms", "ms"),
    ("corpus.interned_kib", "KiB"),
    ("pipeline.stages_ms", "ms"),
    ("artifact.fold_ms", "ms"),
    ("hgsim.endpoints_ms", "ms"),
    ("scanner.scan_ms", "ms"),
    ("hgsim.stream_ms", "ms"),
    ("delta.append_ms", "ms"),
    ("delta.methodology_ms", "ms"),
    ("delta.hgs_replayed_ratio", "ratio"),
    ("delta.cells_replayed_ratio", "ratio"),
    ("artifact.write_kib", "KiB"),
    ("artifact.size_kib", "KiB"),
    ("shard.cold_ms", "ms"),
    ("shard.admit_ms", "ms"),
    ("shard.segments_built", "count"),
    ("shard.peak_resident_kib", "KiB"),
    ("shard.write_kib", "KiB"),
    ("shard.read_kib", "KiB"),
    ("parallel.busy_share", "ratio"),
    ("artifact.read_payload_ms", "ms"),
    ("artifact.tables_parse_ms", "ms"),
    ("query.load_ms", "ms"),
    ("query.lookup_ns.ases", "ns"),
    ("query.lookup_ns.hosts", "ns"),
    ("query.lookup_ns.growth", "ns"),
    ("query.lookup_ns.as_curve", "ns"),
    ("query.lookup_ns.coverage", "ns"),
    ("query.lookup_ns.hgs_in_as", "ns"),
    ("bench.calib_ms", "ms"),
    ("bench.op_p50_raw_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["study", "append", "sharded", "query"];

/// One workload: a fixed pass of ops, run whole passes at a time.
pub trait Workload {
    fn pass_len(&self) -> usize;
    /// Threads the op may run at once.
    fn threads(&self) -> usize;
    /// Untimed: compute the reference outputs ops are checked against.
    fn reference(&mut self);
    /// Untimed: reset per-pass state.
    fn begin_pass(&mut self) {}
    /// Untimed: per-op preparation.
    fn prepare(&mut self, _i: usize) {}
    /// The timed op.
    fn run(&mut self, i: usize, tr: &mut Tracer);
    /// Untimed: check op `i`'s output. Returns whether it is right.
    fn check(&mut self, i: usize) -> bool;
    /// Untimed: check the pass's combined output. In a traced pass, also
    /// time here, after the ops, the layers an op does not expose as calls
    /// of their own, so that work cannot disturb the traced ops.
    fn end_pass(&mut self, _tr: &mut Tracer) -> bool {
        true
    }
    /// Per-layer metrics from the traced passes.
    fn layers(&self, t: &TraceSummary, m: &mut LayerMetrics);
}

/// What the traced passes measured, for [`Workload::layers`].
pub struct TraceSummary {
    /// Traced ops.
    pub ops: usize,
    /// Calibration factor applied to every time.
    factor: f64,
    /// Span name → (self time ns, span count).
    self_ns: BTreeMap<&'static str, (u64, u64)>,
    pub read_kib_per_op: f64,
    pub write_kib_per_op: f64,
}

impl TraceSummary {
    /// Calibrated self milliseconds per traced op in spans named `name`.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).map_or(0, |t| t.0);
        ns as f64 / 1e6 / self.ops.max(1) as f64 * self.factor
    }

    /// Calibrated mean self milliseconds of one span named `name`.
    pub fn ms_per_span(&self, name: &str) -> f64 {
        let (ns, n) = self.self_ns.get(name).copied().unwrap_or((0, 0));
        ns as f64 / 1e6 / n.max(1) as f64 * self.factor
    }
}

#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct OpSample {
    ms: f64,
    /// Kernel samples taken before this op.
    kernel_idx: usize,
    read: u64,
    written: u64,
    cpu_s: f64,
    traced: bool,
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    ops: Vec<OpSample>,
    /// Calibration samples taken between ops.
    kernel_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl Run {
    fn pass(&mut self, wl: &mut dyn Workload, tr: &mut Tracer, traced: bool, keep: bool) {
        tr.set_on(traced);
        wl.begin_pass();
        self.kernel_ms.push(kernel_sample_ms());
        let mut since_kernel = Duration::ZERO;
        let mut failed = 0;
        let n = wl.pass_len();
        for i in 0..n {
            wl.prepare(i);
            tr.set_op(Some(self.attempted as u64 + i as u64));
            let cpu0 = measure::process_cpu_s();
            let io0 = IoCounters::read();
            let start = Instant::now();
            tr.span("op", |tr| wl.run(i, tr));
            let elapsed = start.elapsed();
            let io1 = IoCounters::read();
            let cpu1 = measure::process_cpu_s();
            let (read, written) = io1.delta_since(&io0);
            if !wl.check(i) {
                failed += 1;
            }
            if keep {
                self.ops.push(OpSample {
                    ms: elapsed.as_secs_f64() * 1e3,
                    kernel_idx: self.kernel_ms.len(),
                    read,
                    written,
                    cpu_s: cpu1 - cpu0,
                    traced,
                });
            }
            since_kernel += elapsed;
            if since_kernel >= KERNEL_EVERY {
                self.kernel_ms.push(kernel_sample_ms());
                since_kernel = Duration::ZERO;
            }
        }
        tr.set_op(None);
        if !wl.end_pass(tr) {
            failed = n;
        }
        tr.set_on(false);
        self.attempted += n;
        self.failed += failed;
    }
}

/// Median of the samples within `half` places of position `idx` (the gap
/// before `samples[idx]`).
fn local_median(samples: &[f64], idx: usize, half: usize) -> f64 {
    median(&samples[idx.saturating_sub(half)..(idx + half).min(samples.len())])
}

/// Bytes in regular files under `dir`.
fn stored_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => stored_bytes(&e.path()),
            Ok(ft) if ft.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

fn setup<'w>(
    args: &Args,
    world: &'w HgWorld,
    work: &Path,
    tr: &mut Tracer,
) -> Box<dyn Workload + 'w> {
    match args.workload.as_str() {
        "study" => study::setup(world, tr),
        "append" => append::setup(world, work),
        "sharded" => sharded::setup(world, work),
        "query" => query::setup(world, work, args.seed),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args, work: &Path) -> Outcome {
    let mut tr = Tracer::new();
    let mut setup_kernel_ms = Vec::new();
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        for _ in 0..SETUP_KERNEL_SAMPLES {
            setup_kernel_ms.push(kernel_sample_ms());
        }
        std::fs::create_dir_all(work).expect("create the work directory");
        tr.set_on(args.trace);
        let start = Instant::now();
        let world = HgWorld::generate(ScenarioConfig::small().with_seed(args.seed));
        let mut wl = setup(args, &world, work, &mut tr);
        setup_s.push(start.elapsed().as_secs_f64());
        tr.set_on(false);
        if rep + 1 < SETUP_REPS {
            drop(wl);
            drop(world);
            std::fs::remove_dir_all(work).expect("clear the work directory");
            continue;
        }
        for _ in 0..SETUP_KERNEL_SAMPLES {
            setup_kernel_ms.push(kernel_sample_ms());
        }
        return measure_run(args, wl.as_mut(), &mut tr, work, &setup_s, &setup_kernel_ms);
    }
    unreachable!("SETUP_REPS > 0")
}

fn measure_run(
    args: &Args,
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    work: &Path,
    setup_s: &[f64],
    setup_kernel_ms: &[f64],
) -> Outcome {
    wl.reference();
    let mut r = Run::default();
    r.pass(wl, tr, false, false);
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = 0usize;
    loop {
        // Traced runs alternate untraced and traced passes, so both see
        // the same machine conditions and the overhead compares like with
        // like.
        let traced = args.trace && passes % 2 == 1;
        r.pass(wl, tr, traced, true);
        passes += 1;
        if start.elapsed() >= window && (!args.trace || passes.is_multiple_of(2)) {
            break;
        }
    }

    let calib_ms = median(&r.kernel_ms);
    let factor = NOMINAL_KERNEL_MS / calib_ms;
    let calibrated = |o: &OpSample| {
        o.ms * NOMINAL_KERNEL_MS / local_median(&r.kernel_ms, o.kernel_idx, KERNEL_NEIGHBOURS)
    };
    let untraced: Vec<f64> = r.ops.iter().filter(|o| !o.traced).map(calibrated).collect();
    let untraced_raw: Vec<f64> = r.ops.iter().filter(|o| !o.traced).map(|o| o.ms).collect();
    eprintln!(
        "perfbench: {} ops in {passes} passes; raw untraced op p50 {:.4} ms; calibration kernel median {calib_ms:.4} ms over {} samples",
        r.ops.len(),
        median(&untraced_raw),
        r.kernel_ms.len()
    );
    let mut metrics = Vec::new();
    let mut push = |table: &[(&'static str, &'static str)], name: &str, value: f64| {
        let (n, u) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not declared"));
        metrics.push((*n, *u, value));
    };
    if !args.trace {
        let setups: Vec<f64> = setup_s
            .iter()
            .enumerate()
            .map(|(rep, s)| {
                let idx = (rep + 1) * SETUP_KERNEL_SAMPLES;
                s * NOMINAL_KERNEL_MS / local_median(setup_kernel_ms, idx, SETUP_KERNEL_SAMPLES)
            })
            .collect();
        push(END_TO_END, "setup_s", median(&setups));
        push(END_TO_END, "op_p50_ms", quantile(&untraced, 0.5));
        push(END_TO_END, "op_p90_ms", quantile(&untraced, 0.9));
        push(END_TO_END, "ops_per_s", 1e3 / mean(&untraced));
        push(
            END_TO_END,
            "peak_rss_mib",
            measure::peak_rss_kib() as f64 / 1024.0,
        );
    } else {
        let traced_ops: Vec<&OpSample> = r.ops.iter().filter(|o| o.traced).collect();
        let kib_per_op = |f: fn(&OpSample) -> u64, ops: &[&OpSample]| {
            ops.iter().map(|o| f(o)).sum::<u64>() as f64 / 1024.0 / ops.len() as f64
        };
        let all_ops: Vec<&OpSample> = r.ops.iter().collect();
        let summary = TraceSummary {
            ops: traced_ops.len(),
            factor,
            self_ns: tr.self_ns_by_name(),
            read_kib_per_op: kib_per_op(|o| o.read, &traced_ops),
            write_kib_per_op: kib_per_op(|o| o.written, &traced_ops),
        };
        let mut layers = LayerMetrics::default();
        wl.layers(&summary, &mut layers);
        let cpu: f64 = r.ops.iter().map(|o| o.cpu_s).sum();
        let wall: f64 = r.ops.iter().map(|o| o.ms / 1e3).sum();
        layers.set("parallel.busy_share", cpu / (wall * wl.threads() as f64));
        layers.set("write_kib_per_op", kib_per_op(|o| o.written, &all_ops));
        layers.set("read_kib_per_op", kib_per_op(|o| o.read, &all_ops));
        layers.set("stored_kib", stored_bytes(work) as f64 / 1024.0);
        layers.set("bench.calib_ms", calib_ms);
        layers.set("bench.op_p50_raw_ms", median(&untraced_raw));
        // Each traced pass follows an untraced one; compare each op with
        // the same op of the pass before it.
        let per_pass: Vec<&[OpSample]> = r.ops.chunks(wl.pass_len()).collect();
        let ratios: Vec<f64> = per_pass
            .chunks_exact(2)
            .flat_map(|pair| pair[0].iter().zip(pair[1]))
            .map(|(plain, traced)| calibrated(traced) / calibrated(plain))
            .collect();
        layers.set("bench.trace_overhead_pct", (median(&ratios) - 1.0) * 100.0);
        for (name, _) in PER_LAYER {
            push(PER_LAYER, name, layers.0.get(name).copied().unwrap_or(0.0));
        }
        let path = PathBuf::from(".perfbench/traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = tr.write_chrome_json(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        metrics,
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Every pipeline context the library builds on its own (the delta
    // engine's, the reference study's) runs one thread; the sharded
    // workload sets its worker count explicitly.
    std::env::set_var("OFFNET_THREADS", "1");
    let work =
        PathBuf::from(".perfbench/work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{:<8} {name:<32} {value:>14.4} {unit}", args.workload);
    }
    println!("{}", json_line(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let from = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[from..];
            rest[..rest.find(']').expect("section closes")].to_owned()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let declared = s.matches("\"name\"").count();
            assert_eq!(declared, table.len(), "{key}: declared vs printed count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key} lacks {entry}");
            }
        }
        let s = section("workloads");
        for w in WORKLOADS {
            assert!(
                s.contains(&format!("\"name\": \"{w}\"")),
                "workloads lacks {w}"
            );
        }
    }
}
