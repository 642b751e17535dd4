//! Streaming sharded pipeline benchmarks: one snapshot processed through
//! the in-memory path vs the bounded-memory spill path, cold (segments
//! built and frozen to disk) and warm (segments admitted back from a
//! previous run's spill directory).
//!
//! The cold path is where the PR 10 producer pool earns its keep: shard
//! freezing (§4.1 validation, interning, columnar encode, SHA-256,
//! persist) fans out over `ShardingConfig::with_workers`, so the
//! criterion group reports 1/2/4-worker cold rows. After the sampled
//! group, `main` runs two checked measurements:
//!
//! - a cold-build scaling row per worker count, asserting ≥ 2.5× at 4
//!   workers over serial when the machine actually has ≥ 4 cores
//!   (single-core boxes print the rows and skip the assertion);
//! - warm admission through the v2 summary section vs the v1 whole-body
//!   decode, asserting the summary path is no slower (it skips the
//!   certificate re-parse and corpus rebuild entirely).
//!
//! Large-scale wall/footprint figures (the `--scale large` world the
//! spill path exists for) come from `reproduce --scale large
//! --shard-size 50000 shard-stats`, not from criterion — a multi-minute
//! iteration has no place in a sampled harness.

use criterion::{criterion_group, Criterion, Throughput};
use offnet_bench::small_world;
use offnet_core::shard::admit_segments_for_bench;
use offnet_core::{run_study, ShardingConfig, StudyConfig};
use scanner::ScanEngine;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SNAPSHOT: usize = 22;
const SHARD_SIZE: usize = 400;

fn spill_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("offnet-bench-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config() -> StudyConfig {
    StudyConfig {
        snapshots: (SNAPSHOT, SNAPSHOT),
        ..Default::default()
    }
}

/// A sharding config pinned to an explicit worker count (bench rows must
/// not depend on `OFFNET_THREADS` or the machine's core count).
fn sharded(dir: &Path, workers: usize) -> StudyConfig {
    StudyConfig {
        sharding: Some(ShardingConfig::new(SHARD_SIZE, dir.to_path_buf()).with_workers(workers)),
        ..base_config()
    }
}

fn bench_stream(c: &mut Criterion) {
    let world = small_world();
    let engine = ScanEngine::rapid7();
    let base = base_config();
    let endpoints = {
        let mut n = 0u64;
        world.for_each_endpoint(SNAPSHOT, |_| n += 1);
        n
    };

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(endpoints));

    group.bench_function("monolithic_snapshot", |b| {
        b.iter(|| std::hint::black_box(run_study(world, &engine, &base)))
    });

    // Cold: every iteration starts from an empty spill directory, so the
    // measured cost includes building, checksumming, and persisting every
    // segment — at 1, 2, and 4 freeze workers.
    for workers in [1usize, 2, 4] {
        let cold_dir = spill_dir(&format!("cold-w{workers}"));
        group.bench_function(&format!("sharded_snapshot_cold_w{workers}"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&cold_dir);
                std::hint::black_box(run_study(world, &engine, &sharded(&cold_dir, workers)))
            })
        });
        let _ = std::fs::remove_dir_all(&cold_dir);
    }

    // Warm: segments already on disk with matching fingerprints — every
    // shard is admitted from its frozen segment instead of rebuilt.
    // Serial workers, so the row measures admission cost, not the pool.
    let warm_dir = spill_dir("warm");
    run_study(world, &engine, &sharded(&warm_dir, 1));
    group.bench_function("sharded_snapshot_warm", |b| {
        b.iter(|| std::hint::black_box(run_study(world, &engine, &sharded(&warm_dir, 1))))
    });
    let _ = std::fs::remove_dir_all(&warm_dir);
    group.finish();
}

fn median_secs(samples: usize, mut run: impl FnMut()) -> f64 {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

/// Checked measurements behind the PR 10 acceptance bars: cold-build
/// worker scaling and summary-vs-whole-read warm admission.
fn scaling_and_warm_checks() {
    let world = small_world();
    let engine = ScanEngine::rapid7();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Cold-build scaling rows (3 samples each, median).
    let mut medians = Vec::new();
    for workers in [1usize, 2, 4] {
        let dir = spill_dir(&format!("scale-w{workers}"));
        let cfg = sharded(&dir, workers);
        let t = median_secs(3, || {
            let _ = std::fs::remove_dir_all(&dir);
            std::hint::black_box(run_study(world, &engine, &cfg));
        });
        println!("stream/cold_build_scaling w={workers}            median: {t:.3} s");
        medians.push(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let speedup = medians[0] / medians[2];
    println!("stream/cold_build_scaling speedup w1->w4: {speedup:.2}x ({cores} cores)");
    if cores >= 4 {
        assert!(
            speedup >= 2.5,
            "cold sharded build at 4 workers only {speedup:.2}x over serial (need >= 2.5x)"
        );
    } else {
        println!("stream/cold_build_scaling assertion skipped: {cores} core(s) available");
    }

    // Warm admission: the v2 summary-only path must be no slower than
    // the v1 whole-body decode it replaced.
    let dir = spill_dir("admit");
    let cfg = sharded(&dir, 1);
    run_study(world, &engine, &cfg);
    let sharding = cfg.sharding.as_ref().expect("sharded config");
    let admit = |full_decode: bool| {
        admit_segments_for_bench(world, &engine, SNAPSHOT, sharding, full_decode)
            .expect("segments admit cleanly")
    };
    let n_summary = admit(false);
    let n_full = admit(true);
    assert_eq!(n_summary, n_full, "admission paths saw different segments");
    assert!(n_summary > 0, "no segments on disk to admit");
    let summary_t = median_secs(7, || {
        admit(false);
    });
    let full_t = median_secs(7, || {
        admit(true);
    });
    println!(
        "stream/warm_admit summary: {:.3} ms  whole-read: {:.3} ms  ({n_summary} segments)",
        summary_t * 1e3,
        full_t * 1e3
    );
    assert!(
        summary_t <= full_t * 1.10,
        "summary admission ({summary_t:.4}s) slower than whole-read decode ({full_t:.4}s)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_stream);

fn main() {
    benches();
    scaling_and_warm_checks();
}
