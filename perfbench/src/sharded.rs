//! `sharded`: the cold streaming spill path.
//!
//! Each op deletes snapshot t's segment directory (untimed), then runs
//! `process_snapshot_sharded(t)` with 400-endpoint shards and two freeze
//! workers (never more than the machine's cores), so every op builds,
//! encodes, checksums, persists, admits and folds its own segments. Its
//! result must equal the monolithic `process_snapshot` result for t.

use crate::trace::Tracer;
use crate::{LayerMetrics, TraceSummary, Workload};
use hgsim::{HgWorld, ALL_HGS};
use offnet_core::shard::admit_segments_for_bench;
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{
    process_snapshot, process_snapshot_sharded, segment_path, PipelineContext, ShardingConfig,
    SnapshotResult, StudyConfig,
};
use scanner::{observe_snapshot, ScanEngine};
use std::fmt::Write as _;
use std::path::Path;

const SHARD_SIZE: usize = 400;
const WORKERS: usize = 2;

pub struct Sharded<'w> {
    world: &'w HgWorld,
    engine: ScanEngine,
    ctx: PipelineContext,
    sharding: ShardingConfig,
    snapshots: Vec<usize>,
    expected: Vec<String>,
    result: Option<SnapshotResult>,
    /// Traced-run totals.
    built: u64,
}

/// Everything `render_study` prints for one snapshot: scalars, validation
/// and quality, and every per-HG result in `ALL_HGS` order.
fn render_snapshot(r: &SnapshotResult) -> String {
    let mut out = String::new();
    let mut invalid: Vec<String> = r
        .validation
        .invalid
        .iter()
        .map(|(k, n)| format!("{k:?}={n}"))
        .collect();
    invalid.sort();
    writeln!(
        out,
        "t={} ips={} ases={} http_only={:?}\nvalidation: total={} valid={} invalid=[{}]\nquality: {:?}",
        r.snapshot_idx,
        r.total_ips_with_certs,
        r.n_ases_with_certs,
        r.http_only_ips,
        r.validation.total_records,
        r.validation.valid,
        invalid.join(" "),
        r.quality
    )
    .expect("write to String");
    for hg in ALL_HGS {
        writeln!(out, "{hg}: {:?}", r.per_hg.get(&hg)).expect("write to String");
    }
    out
}

fn workers() -> usize {
    WORKERS.min(crate::measure::nproc())
}

pub fn setup<'w>(world: &'w HgWorld, work: &Path) -> Box<dyn Workload + 'w> {
    let engine = ScanEngine::rapid7();
    let config = StudyConfig::default();
    let fps = learn_reference_fingerprints(world, &engine, config.header_reference_snapshot);
    let ctx =
        PipelineContext::new(world.pki().root_store().clone(), world.org_db(), fps).with_threads(1);
    let sharding = ShardingConfig::new(SHARD_SIZE, work.join("spill")).with_workers(workers());
    Box::new(Sharded {
        world,
        engine,
        ctx,
        sharding,
        snapshots: (config.snapshots.0..=config.snapshots.1).collect(),
        expected: Vec::new(),
        result: None,
        built: 0,
    })
}

impl Workload for Sharded<'_> {
    fn pass_len(&self) -> usize {
        self.snapshots.len()
    }

    fn threads(&self) -> usize {
        workers()
    }

    fn reference(&mut self) {
        // Untimed, so the monolithic references are computed on every
        // core the workload may use.
        let (world, engine, ctx) = (self.world, &self.engine, &self.ctx);
        let render = |t: usize| {
            observe_snapshot(world, engine, t)
                .map(|obs| render_snapshot(&process_snapshot(&obs, ctx)))
        };
        let lanes = workers();
        let mut rendered: Vec<(usize, Option<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    let ts: Vec<usize> = self
                        .snapshots
                        .iter()
                        .copied()
                        .skip(lane)
                        .step_by(lanes)
                        .collect();
                    s.spawn(move || ts.into_iter().map(|t| (t, render(t))).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference worker panicked"))
                .collect()
        });
        rendered.sort_by_key(|(t, _)| *t);
        self.expected = rendered
            .into_iter()
            .map(|(t, r)| r.unwrap_or_else(|| panic!("rapid7 covers snapshot {t}")))
            .collect();
    }

    fn prepare(&mut self, i: usize) {
        let t = self.snapshots[i];
        let dir = segment_path(&self.sharding.spill_dir, t, 0)
            .parent()
            .expect("segments live in a per-snapshot directory")
            .to_path_buf();
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot delete {}: {e}", dir.display()),
        }
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) {
        let t = self.snapshots[i];
        let (world, engine, ctx, sharding) = (self.world, &self.engine, &self.ctx, &self.sharding);
        let built_before = sharding.ledger.segments_built();
        self.result = tr.span("shard.cold", |_| {
            process_snapshot_sharded(world, engine, t, ctx, sharding)
                .expect("sharded snapshot processing failed")
        });
        if tr.is_on() {
            self.built += (sharding.ledger.segments_built() - built_before) as u64;
        }
    }

    fn check(&mut self, i: usize) -> bool {
        self.result
            .take()
            .is_some_and(|r| render_snapshot(&r) == self.expected[i])
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> bool {
        if tr.is_on() {
            // The endpoint stream the op walks, and the admission of the
            // segments it wrote, each on their own.
            let (world, engine, sharding) = (self.world, &self.engine, &self.sharding);
            for &t in &self.snapshots {
                tr.span("hgsim.stream", |_| {
                    let mut n = 0u64;
                    world.for_each_endpoint(t, |ep| {
                        std::hint::black_box(&ep);
                        n += 1;
                    });
                    n
                });
                tr.span("shard.admit", |_| {
                    admit_segments_for_bench(world, engine, t, sharding, false)
                        .expect("segments just written are admissible")
                });
            }
        }
        true
    }

    fn layers(&self, t: &TraceSummary, m: &mut LayerMetrics) {
        m.set("hgsim.stream_ms", t.ms_per_op("hgsim.stream"));
        m.set("shard.cold_ms", t.ms_per_op("shard.cold"));
        m.set("shard.admit_ms", t.ms_per_op("shard.admit"));
        m.set("shard.segments_built", self.built as f64 / t.ops as f64);
        m.set(
            "shard.peak_resident_kib",
            self.sharding.ledger.peak_resident_interned_bytes() as f64 / 1024.0,
        );
        m.set("shard.write_kib", t.write_kib_per_op);
        m.set("shard.read_kib", t.read_kib_per_op);
    }
}
