//! Streaming sharded pipeline equivalence: at `--scale small`, a study
//! processed through bounded-memory spilled segments must render
//! **byte-identically** to the in-memory path — in the sequential and
//! parallel study modes and through the append engine, with faults
//! injected, and when segments are reused from a previous run.

use hgsim::{HgWorld, ScenarioConfig};
use offnet_bench::{append_study, render_study};
use offnet_core::parallel::pipeline_depth;
use offnet_core::{
    run_study, try_run_study, DeltaStudyEngine, ShardingConfig, StudyConfig, StudyError, StudyMode,
};
use scanner::{FaultPlan, ScanEngine};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offnet-sharded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spill dir");
    dir
}

fn sharded_config(base: &StudyConfig, shard_size: usize, dir: &Path) -> StudyConfig {
    StudyConfig {
        sharding: Some(ShardingConfig::new(shard_size, dir.to_path_buf())),
        ..base.clone()
    }
}

#[test]
fn sharded_study_renders_byte_identical() {
    let w = world();
    let engine = ScanEngine::rapid7();
    // Straddle the Netflix expired-certificate window so the §6.2 fold
    // carries real cross-snapshot state through the sharded path.
    let base = StudyConfig {
        snapshots: (14, 22),
        ..Default::default()
    };
    let mono = render_study(&run_study(w, &engine, &base));

    let dir = temp_dir("seq");
    // A deliberately odd shard size: chunks never align with anything.
    let config = sharded_config(&base, 257, &dir);
    let sharded = run_study(w, &engine, &config);
    let ledger = config.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(mono, render_study(&sharded), "sharded render diverged");

    // The run actually sharded: multiple segments per snapshot, all
    // built fresh, none reused.
    assert!(ledger.segments_built() > 9, "{}", ledger.segments_built());
    assert_eq!(ledger.segments_reused(), 0);
    let rows = ledger.rows();
    assert!(rows.iter().all(|r| r.segment_bytes > 0 && !r.reused));
    assert!(rows.iter().any(|r| r.endpoints == 257));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard size beyond memory is one shard of the whole snapshot: the
/// chunk buffer grows with the endpoints instead of reserving the
/// nominal size, and the snapshot renders as on the in-memory path.
#[test]
fn shard_size_beyond_memory_is_one_whole_snapshot_shard() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (30, 30),
        ..Default::default()
    };
    let mono = render_study(&run_study(w, &engine, &base));
    let dir = temp_dir("huge");
    let config = sharded_config(&base, usize::MAX, &dir);
    assert_eq!(mono, render_study(&run_study(w, &engine, &config)));
    let ledger = &config.sharding.as_ref().unwrap().ledger;
    assert_eq!((ledger.segments_built(), ledger.segments_reused()), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_reuse_is_byte_identical_and_skips_rebuilds() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (18, 21),
        ..Default::default()
    };
    let dir = temp_dir("reuse");

    let first_cfg = sharded_config(&base, 400, &dir);
    let first = render_study(&run_study(w, &engine, &first_cfg));
    let first_ledger = first_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert!(first_ledger.segments_built() > 0);

    // Second run over the same spill dir: every segment is reused
    // (admitted, not rescanned), and the rendering is still identical.
    let second_cfg = sharded_config(&base, 400, &dir);
    let second = render_study(&run_study(w, &engine, &second_cfg));
    let second_ledger = second_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(first, second);
    assert_eq!(second_ledger.segments_built(), 0, "rebuilt despite cache");
    assert_eq!(
        second_ledger.segments_reused(),
        first_ledger.segments_built()
    );

    // A different shard size changes segment fingerprints: everything is
    // stale, everything rebuilds, and the output still matches.
    let resized_cfg = sharded_config(&base, 333, &dir);
    let resized = render_study(&run_study(w, &engine, &resized_cfg));
    let resized_ledger = resized_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(first, resized);
    assert_eq!(resized_ledger.segments_reused(), 0, "stale segments reused");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_segment_rebuilds_transparently() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (20, 20),
        ..Default::default()
    };
    let dir = temp_dir("corrupt");
    let cfg = sharded_config(&base, 500, &dir);
    let clean = render_study(&run_study(w, &engine, &cfg));

    // Truncate one segment and flip bytes in another.
    let seg_dir = dir.join("t0020");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    assert!(segs.len() >= 2, "want multiple segments, got {segs:?}");
    let bytes = std::fs::read(&segs[0]).unwrap();
    std::fs::write(&segs[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&segs[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&segs[1], &bytes).unwrap();

    let cfg2 = sharded_config(&base, 500, &dir);
    let rebuilt = render_study(&run_study(w, &engine, &cfg2));
    let ledger = cfg2.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(clean, rebuilt, "corruption leaked into results");
    assert_eq!(ledger.segments_built(), 2, "exactly the damaged segments");
    assert_eq!(ledger.segments_reused(), segs.len() - 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_partial_coverage_sharded_matches() {
    // Censys starts mid-study (skipped snapshots) and the fault plan
    // corrupts records: the sharded path must reproduce the quarantine
    // accounting and scan-health report byte-for-byte.
    let w = world();
    let base = StudyConfig {
        snapshots: (0, 30),
        ..Default::default()
    };
    let mk_engine = || {
        let plan = Arc::new(FaultPlan::uniform_record_faults(13, 0.08));
        ScanEngine::censys().with_faults(plan)
    };
    let mono = render_study(&run_study(w, &mk_engine(), &base));
    let dir = temp_dir("faults");
    let cfg = sharded_config(&base, 701, &dir);
    let sharded = render_study(&run_study(w, &mk_engine(), &cfg));
    assert_eq!(mono, sharded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reproduce quality` prints the fault plan's injected total. A warm
/// run admits every segment instead of re-scanning its chunk, so the
/// faults its scan injected come back from the segment summary: the
/// ledger, and the printed line, match the cold run's and the in-memory
/// run's exactly.
#[test]
fn warm_segment_reuse_keeps_the_injected_fault_ledger() {
    let w = world();
    let base = StudyConfig {
        snapshots: (18, 21),
        ..Default::default()
    };
    let run = |config: &StudyConfig| {
        let plan = Arc::new(FaultPlan::uniform_record_faults(23, 0.2));
        let engine = ScanEngine::rapid7().with_faults(plan.clone());
        let rendered = render_study(&run_study(w, &engine, config));
        let injected = plan.injected_total();
        let line = format!("injected faults: {}", injected.total());
        (rendered, injected, line)
    };
    let mono = run(&base);
    assert!(!mono.1.is_empty(), "the plan injected nothing");

    let dir = temp_dir("fault-ledger");
    let cold_cfg = sharded_config(&base, 97, &dir);
    let cold = run(&cold_cfg);
    let warm_cfg = sharded_config(&base, 97, &dir);
    let warm = run(&warm_cfg);
    let cold_ledger = cold_cfg.sharding.as_ref().unwrap().ledger.clone();
    let warm_ledger = warm_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert!(cold_ledger.segments_built() > 0);
    assert_eq!(warm_ledger.segments_built(), 0, "rebuilt despite cache");
    assert_eq!(cold, mono, "cold sharded run diverged from in-memory");
    assert_eq!(warm, cold, "warm run changed the render or fault ledger");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_driver_sharded_matches_sequential_in_memory() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (15, 21),
        ..Default::default()
    };
    let mono = render_study(&run_study(w, &engine, &base));
    let dir = temp_dir("par");
    let cfg = StudyConfig {
        mode: StudyMode::Parallel { workers: 4 },
        ..sharded_config(&base, 450, &dir)
    };
    let sharded = render_study(&run_study(w, &engine, &cfg));
    assert_eq!(mono, sharded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_driver_sharded_matches() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (16, 22),
        ..Default::default()
    };
    let mono = append_study(w, &engine, &base);
    let dir = temp_dir("inc");
    let sharded = append_study(w, &engine, &sharded_config(&base, 512, &dir));
    let reported = |driver: &DeltaStudyEngine| -> Vec<usize> {
        driver.reports().iter().map(|r| r.snapshot_idx).collect()
    };
    assert_eq!(reported(&mono), (16..=22).collect::<Vec<_>>());
    assert_eq!(reported(&mono), reported(&sharded));
    assert_eq!(
        render_study(&mono.finish()),
        render_study(&sharded.finish()),
        "sharded delta study diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn pooled_config(base: &StudyConfig, shard_size: usize, dir: &Path, workers: usize) -> StudyConfig {
    StudyConfig {
        sharding: Some(ShardingConfig::new(shard_size, dir.to_path_buf()).with_workers(workers)),
        ..base.clone()
    }
}

#[test]
fn worker_pool_renders_byte_identical_across_counts() {
    // The pipelined producer must be invisible in the output: one worker
    // (inline serial) and pools of two and four workers (each at its
    // derived depth) all render the same bytes as the monolithic path.
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (17, 21),
        ..Default::default()
    };
    let mono = render_study(&run_study(w, &engine, &base));

    let mut built = Vec::new();
    for (tag, workers) in [("w1", 1), ("w2", 2), ("w4", 4)] {
        let depth = pipeline_depth(workers);
        let dir = temp_dir(tag);
        let cfg = pooled_config(&base, 311, &dir, workers);
        let rendered = render_study(&run_study(w, &engine, &cfg));
        assert_eq!(
            mono, rendered,
            "diverged at workers={workers} depth={depth}"
        );
        built.push(cfg.sharding.as_ref().unwrap().ledger.segments_built());
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Same chunking, same work: every configuration built the same
    // number of segments.
    assert!(built.windows(2).all(|w| w[0] == w[1]), "{built:?}");
}

#[test]
fn faulted_worker_pool_matches_serial() {
    // Overlapped pipelining under a 10% record-fault plan: fault coins
    // are per-record, so the worker pool must reproduce the quarantine
    // accounting bit-for-bit at any worker count.
    let w = world();
    let base = StudyConfig {
        snapshots: (12, 18),
        ..Default::default()
    };
    let mk_engine = || {
        let plan = Arc::new(FaultPlan::uniform_record_faults(7, 0.10));
        ScanEngine::rapid7().with_faults(plan)
    };
    let mono = render_study(&run_study(w, &mk_engine(), &base));

    let dir_serial = temp_dir("fault-w1");
    let serial_cfg = pooled_config(&base, 409, &dir_serial, 1);
    let serial = render_study(&run_study(w, &mk_engine(), &serial_cfg));
    assert_eq!(mono, serial);

    let dir_pool = temp_dir("fault-w4");
    let pool_cfg = pooled_config(&base, 409, &dir_pool, 4);
    let pooled = render_study(&run_study(w, &mk_engine(), &pool_cfg));
    assert_eq!(mono, pooled, "faulted pool render diverged");
    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_pool);
}

#[test]
fn kill_resume_reuses_parallel_built_segments() {
    // Simulate a mid-snapshot kill after a pooled run: delete a suffix of
    // the segments a 4-worker producer persisted, then resume with the
    // pool. The surviving parallel-built prefix is admitted, only the
    // missing tail is rebuilt, and the render never wavers.
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (20, 20),
        ..Default::default()
    };
    let dir = temp_dir("kill");
    let first_cfg = pooled_config(&base, 400, &dir, 4);
    let clean = render_study(&run_study(w, &engine, &first_cfg));
    let n_segments = first_cfg.sharding.as_ref().unwrap().ledger.segments_built();
    assert!(n_segments >= 4, "want several segments, got {n_segments}");

    let seg_dir = dir.join("t0020");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    let keep = segs.len() / 2;
    for path in &segs[keep..] {
        std::fs::remove_file(path).unwrap();
    }

    let resume_cfg = pooled_config(&base, 400, &dir, 4);
    let resumed = render_study(&run_study(w, &engine, &resume_cfg));
    let ledger = resume_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(clean, resumed, "kill/resume render diverged");
    assert_eq!(ledger.segments_reused(), keep, "parallel-built prefix lost");
    assert_eq!(ledger.segments_built(), segs.len() - keep);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resident_memory_stays_within_depth_bound() {
    // The pipeline admits at most `depth` shards between feed and fold
    // and the consumer holds at most `workers` decoded shards: the
    // realized concurrent-residency high-water mark must stay within
    // max(depth, workers) × the largest single shard.
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig {
        snapshots: (21, 22),
        ..Default::default()
    };
    let dir = temp_dir("resident");
    let workers = 4;
    let depth = pipeline_depth(workers);
    let cfg = pooled_config(&base, 300, &dir, workers);
    let _ = run_study(w, &engine, &cfg);
    let ledger = cfg.sharding.as_ref().unwrap().ledger.clone();
    let largest = ledger.peak_shard_interned_bytes();
    let peak = ledger.peak_resident_interned_bytes();
    assert!(
        peak >= largest,
        "peak {peak} below a single shard {largest}"
    );
    let bound = depth.max(workers) * largest;
    assert!(
        peak <= bound,
        "resident peak {peak} exceeds {}x shard bound {bound}",
        depth.max(workers)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_memory_accounting_invariants() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let t = 22usize;
    let base = StudyConfig {
        snapshots: (t, t),
        ..Default::default()
    };

    // Monolithic reference corpus for the same snapshot.
    let obs = scanner::observe_snapshot(w, &engine, t).expect("snapshot in corpus");
    let mono = offnet_core::SnapshotCorpus::build(
        &obs,
        w.pki().root_store(),
        &offnet_core::standard_validate_options(),
        None,
    );

    let dir = temp_dir("mem");
    let cfg = sharded_config(&base, 300, &dir);
    let _ = run_study(w, &engine, &cfg);
    let rows = cfg.sharding.as_ref().unwrap().ledger.rows();
    assert!(rows.len() > 3, "want several shards, got {}", rows.len());

    // Bounded peak memory: every resident shard is strictly smaller than
    // the monolithic interned corpus, by a margin that scales with the
    // shard count.
    let peak = cfg
        .sharding
        .as_ref()
        .unwrap()
        .ledger
        .peak_shard_interned_bytes();
    assert!(peak > 0);
    assert!(
        peak * 2 < mono.memory.interned_bytes,
        "peak shard {peak} not bounded vs monolithic {}",
        mono.memory.interned_bytes
    );

    // Segment buffers are accounted: every shard spilled a non-empty
    // payload, and endpoint counts tile the snapshot exactly.
    assert!(rows.iter().all(|r| r.segment_bytes > 0));
    let mut expected_endpoints = 0usize;
    w.for_each_endpoint(t, |_| expected_endpoints += 1);
    let total: usize = rows.iter().map(|r| r.endpoints).sum();
    assert_eq!(total, expected_endpoints);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resident gauge charges one figure per shard, the built size its
/// segment summary stores, whether the shard is being frozen or consumed:
/// with one worker a shard is resident alone, so a cold run and a warm
/// run over its segments (which only consumes) peak at the largest
/// shard.
#[test]
fn warm_and_cold_runs_charge_the_same_resident_bytes() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let dir = temp_dir("gauge");
    let run = || {
        let cfg = StudyConfig {
            snapshots: (21, 22),
            sharding: Some(ShardingConfig::new(300, &dir).with_workers(1)),
            ..Default::default()
        };
        let _ = run_study(w, &engine, &cfg);
        cfg.sharding.unwrap().ledger
    };
    let cold = run();
    let warm = run();
    assert_eq!(cold.segments_reused(), 0);
    assert_eq!(warm.segments_built(), 0, "the warm run rebuilt segments");
    let peak = cold.peak_resident_interned_bytes();
    assert!(peak > 0);
    assert_eq!(warm.peak_resident_interned_bytes(), peak);
    assert_eq!(cold.peak_shard_interned_bytes(), peak);
    assert_eq!(warm.peak_shard_interned_bytes(), peak);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment I/O failure is one typed error in every mode and in the
/// append engine — never a panic in the sequential mode or a silently
/// degraded snapshot in the parallel one.
#[test]
fn segment_io_failure_is_a_typed_error_in_every_mode() {
    let w = world();
    let dir = temp_dir("io");
    // A regular file where the spill directory should be: creating the
    // per-snapshot segment directory under it fails.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"x").expect("write blocker");
    for mode in [
        StudyMode::Sequential,
        StudyMode::Parallel { workers: 2 },
        StudyMode::Parallel { workers: 1 },
    ] {
        let cfg = StudyConfig {
            snapshots: (28, 29),
            mode,
            ..sharded_config(&StudyConfig::default(), 400, &blocker)
        };
        let err = try_run_study(w, &ScanEngine::rapid7(), &cfg)
            .expect_err("segment directory under a file must fail");
        assert!(
            matches!(err, StudyError::Io { .. }),
            "{mode:?}: wrong error {err}"
        );
    }
    let cfg = sharded_config(&StudyConfig::default(), 400, &blocker);
    let err = DeltaStudyEngine::new(w, ScanEngine::rapid7(), &cfg)
        .try_append_snapshot(28)
        .expect_err("segment directory under a file must fail");
    assert!(
        matches!(err, StudyError::Io { .. }),
        "append engine: wrong error {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
