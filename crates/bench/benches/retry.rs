//! Transient-failure layer benchmarks: the cost of the deterministic
//! retry/backoff policy on a single-snapshot scan at increasing failure
//! rates (0, 5%, 20%), and the cost of persisting one snapshot checkpoint
//! artifact (encode + atomic write + fsync-free rename).
//!
//! Rate 0 is the tentpole's zero-cost claim: the policy is consulted per
//! target but never injects, so the delta over the bare engine bounds the
//! overhead of carrying the layer. `BENCH_retry.json` records the figures.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use offnet_bench::small_world;
use offnet_core::checkpoint::{CheckpointStore, SnapshotCheckpoint};
use offnet_core::{study_fingerprint, StudyConfig};
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

    // Checkpoint write cost: one dense snapshot artifact, encoded and
    // atomically persisted, as `--checkpoint-dir` pays per snapshot.
    let engine = ScanEngine::rapid7();
    let config = StudyConfig::default();
    let series = offnet_bench::small_study();
    let snap = series
        .snapshots
        .last()
        .expect("study has snapshots")
        .clone();
    let ckpt = SnapshotCheckpoint {
        snapshot_idx: snap.snapshot_idx,
        processed: true,
        result: snap,
        netflix_initial: series.netflix.initial.len(),
        netflix_with_expired: series.netflix.with_expired.len(),
        netflix_with_non_tls: series.netflix.with_non_tls.len(),
        netflix_ip_history: Vec::new(),
        report: None,
    };
    let dir = std::env::temp_dir().join(format!("offnet-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = study_fingerprint(world, &engine, &config);
    let store = CheckpointStore::open(&dir, fp).expect("open store");

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);
    group.bench_function("save_snapshot_artifact", |b| {
        b.iter(|| store.save(std::hint::black_box(&ckpt)).expect("save"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_retry);
criterion_main!(benches);
