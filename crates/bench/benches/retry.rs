//! Transient-failure layer benchmarks: the cost of the deterministic
//! retry/backoff policy on a single-snapshot scan at increasing failure
//! rates (0, 5%, 20%), and the cost of appending one snapshot's record to
//! a study log (fold + encode + checksum + append).
//!
//! Rate 0 is the tentpole's zero-cost claim: the policy is consulted per
//! target but never injects, so the delta over the bare engine bounds the
//! overhead of carrying the layer. Run `cargo bench --bench retry` for
//! the figures.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use offnet_bench::small_world;
use offnet_core::ArtifactBuilder;
use scanner::{observe_snapshot, ScanEngine, TransientPolicy};
use std::sync::Arc;

fn bench_retry(c: &mut Criterion) {
    let world = small_world();
    let t = 30usize;
    let targets = {
        let obs = observe_snapshot(world, &ScanEngine::rapid7(), t).expect("snapshot in corpus");
        obs.cert.health.targets
    };

    let mut group = c.benchmark_group("retry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(targets as u64));
    group.bench_function("scan_no_policy", |b| {
        let engine = ScanEngine::rapid7();
        b.iter(|| std::hint::black_box(observe_snapshot(world, &engine, t)))
    });
    for (label, rate) in [
        ("scan_rate_0", 0.0),
        ("scan_rate_5pct", 0.05),
        ("scan_rate_20pct", 0.20),
    ] {
        let engine = ScanEngine::rapid7().with_transients(Arc::new(TransientPolicy::new(11, rate)));
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(observe_snapshot(world, &engine, t)))
        });
    }
    group.finish();

    // One record append: a dense snapshot result folded, encoded,
    // checksummed and appended, as every study with `--artifact-out` pays
    // per snapshot. Each iteration appends the next snapshot index.
    let series = offnet_bench::small_study();
    let snap = series.snapshots.last().expect("study has snapshots");
    let dir = std::env::temp_dir().join(format!("offnet-bench-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = ArtifactBuilder::new(series.engine, series.header_fps.clone(), 0);
    builder
        .open_log(dir.join("study.offna"), 0..=usize::MAX)
        .expect("open log");
    let mut next = 0usize;

    let mut group = c.benchmark_group("study_log");
    group.sample_size(10);
    group.bench_function("append_record", |b| {
        b.iter(|| {
            builder
                .record(next, snap.clone(), None, |_| Vec::new())
                .expect("append");
            next += 1;
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_retry);
criterion_main!(benches);
