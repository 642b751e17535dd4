//! Crash-resumable studies: a run killed mid-study and relaunched over the
//! same checkpoint directory must render byte-identical output to an
//! uninterrupted run — in every study mode, clean and under injected
//! faults/transients alike — and checkpoint
//! corruption or configuration drift must surface as typed errors with
//! remediation, never as silent wrong answers. The sharded pipeline
//! composes with checkpoints: segments orphaned by a mid-snapshot crash
//! are reused on resume, and a shifted start adopts the §6.2 fold
//! history the artifacts carry (asserted here, not merely probed).
//!
//! `OFFNET_FAULT_RATE` (shared with `tests/incremental.rs` and the CI
//! kill/resume job) sets the corruption rate for the faulted comparison.

use hgsim::{HgWorld, ScenarioConfig};
use offnet_bench::render_study;
use offnet_core::{
    run_study, study_fingerprint, try_run_study, CheckpointError, CheckpointStore, ShardingConfig,
    StudyConfig, StudyError, StudyMode, StudyRun,
};
use scanner::{FaultPlan, ScanEngine, TransientPolicy};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

fn fault_rate() -> f64 {
    std::env::var("OFFNET_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

/// A process-unique checkpoint directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("offnet-ckpt-{tag}-{}", std::process::id()));
    // Stale artifacts from a previous crashed test run must not leak in.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(range: (usize, usize)) -> StudyConfig {
    StudyConfig {
        snapshots: range,
        ..Default::default()
    }
}

/// `config(range)` checkpointing into `dir` under `mode`.
fn checkpointed(range: (usize, usize), dir: &Path, mode: StudyMode) -> StudyConfig {
    StudyConfig {
        mode,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..config(range)
    }
}

fn run(engine: &ScanEngine, config: &StudyConfig) -> Result<StudyRun, StudyError> {
    try_run_study(world(), engine, config)
}

/// The batch modes.
const BATCH_MODES: [StudyMode; 2] = [StudyMode::Sequential, StudyMode::Parallel { workers: 3 }];

/// Sequential and parallel modes, killed after snapshot 25 and relaunched:
/// the resumed study renders byte-identical to an uninterrupted run, and
/// the directory ends up with one artifact per snapshot in the range.
#[test]
fn sequential_kill_resume_is_byte_identical() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let uninterrupted = run_study(w, &engine, &config((20, 30)));

    for mode in BATCH_MODES {
        let dir = temp_dir(&format!("seq-{mode:?}"));
        // "Kill" after snapshot 25: run the prefix range to completion.
        // The fingerprint excludes the snapshot range, so the resumed
        // (longer) run adopts these artifacts.
        run(&engine, &checkpointed((20, 25), &dir, mode)).expect("killed prefix run");

        let full_cfg = checkpointed((20, 30), &dir, mode);
        let resumed = run(&engine, &full_cfg).expect("resumed run").series;
        assert_eq!(
            render_study(&uninterrupted),
            render_study(&resumed),
            "resumed {mode:?} study diverged from the uninterrupted run"
        );
        let artifacts = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            .count();
        assert_eq!(artifacts, 11, "one artifact per snapshot in 20..=30");

        // Re-running over the complete directory adopts everything and
        // still renders identically — resume is idempotent.
        let again = run(&engine, &full_cfg).expect("idempotent run").series;
        assert_eq!(render_study(&uninterrupted), render_study(&again));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Incremental driver, killed and relaunched: byte-identical output, one
/// reuse report per snapshot, and the adopted prefix keeps the reports
/// its checkpoints recorded.
#[test]
fn incremental_kill_resume_stays_incremental() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let full_cfg = config((20, 30));
    let uninterrupted = run_study(w, &engine, &full_cfg);

    let dir = temp_dir("inc");
    let killed = run(
        &engine,
        &checkpointed((20, 25), &dir, StudyMode::Incremental),
    )
    .expect("killed prefix run");

    let resumed = run(
        &engine,
        &checkpointed((20, 30), &dir, StudyMode::Incremental),
    )
    .expect("resumed");
    assert_eq!(
        render_study(&uninterrupted),
        render_study(&resumed.series),
        "resumed incremental study diverged from the uninterrupted run"
    );
    assert_eq!(resumed.reports.len(), resumed.series.snapshots.len());
    for (report, snap) in resumed.reports.iter().zip(&resumed.series.snapshots) {
        assert_eq!(report.snapshot_idx, snap.snapshot_idx);
    }
    // Adopted snapshots keep their original reuse reports.
    assert_eq!(
        resumed.reports[..killed.reports.len()],
        killed.reports[..],
        "adopted prefix lost its reuse reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The robustness layers compose: with record faults and transient scan
/// failures both injected, a killed-and-resumed checkpointed run still
/// renders byte-identical to an uninterrupted faulted run.
#[test]
fn kill_resume_is_byte_identical_under_faults_and_transients() {
    let w = world();
    let rate = fault_rate();
    let engine = || {
        ScanEngine::rapid7()
            .with_faults(Arc::new(FaultPlan::uniform_record_faults(11, rate)))
            .with_transients(Arc::new(TransientPolicy::new(11, 0.2)))
    };
    let full_cfg = config((22, 30));
    let uninterrupted = run_study(w, &engine(), &full_cfg);

    for mode in BATCH_MODES {
        let dir = temp_dir(&format!("faulted-{mode:?}"));
        run(&engine(), &checkpointed((22, 26), &dir, mode)).expect("killed prefix run");

        let resumed = run(&engine(), &checkpointed((22, 30), &dir, mode))
            .expect("resumed run")
            .series;
        assert_eq!(
            render_study(&uninterrupted),
            render_study(&resumed),
            "faulted {mode:?} resume diverged (fault rate {rate}, transient rate 0.2)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoints written under another configuration or by another format
/// version are never adopted: a changed pipeline knob dies with a typed
/// `ConfigMismatch`, and a version-1 checkpoint with a typed
/// `VersionMismatch`, each carrying remediation. The study mode is not
/// part of the configuration — every mode writes the same checkpoints —
/// so the incremental mode adopts a sequential run's directory.
#[test]
fn mismatched_driver_checkpoints_are_rejected() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let dir = temp_dir("mismatch");
    let sequential = checkpointed((28, 30), &dir, StudyMode::Sequential);
    run(&engine, &sequential).expect("seed the dir");

    let incremental = run(
        &engine,
        &checkpointed((28, 30), &dir, StudyMode::Incremental),
    )
    .expect("incremental mode adopts sequential checkpoints");
    assert_eq!(
        render_study(&run_study(w, &engine, &config((28, 30)))),
        render_study(&incremental.series)
    );
    assert_eq!(
        incremental.reports.len(),
        incremental.series.snapshots.len()
    );

    let other_knob = StudyConfig {
        header_reference_snapshot: 27,
        ..sequential.clone()
    };
    let err = run(&engine, &other_knob).expect_err("adopted another config's checkpoints");
    assert!(
        matches!(
            err,
            StudyError::Checkpoint(CheckpointError::ConfigMismatch { .. })
        ),
        "wrong error: {err}"
    );
    assert!(
        err.to_string().contains("--no-resume"),
        "error lacks remediation: {err}"
    );

    // The version field follows the 8-byte magic.
    let victim = dir.join("snap_0028.ckpt");
    let mut bytes = std::fs::read(&victim).expect("checkpoint exists");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&victim, &bytes).unwrap();
    let err = run(&engine, &sequential).expect_err("adopted a version-1 checkpoint");
    assert!(
        matches!(
            err,
            StudyError::Checkpoint(CheckpointError::VersionMismatch {
                found: 1,
                expected: 2,
                ..
            })
        ),
        "wrong error: {err}"
    );
    assert!(
        err.to_string().contains("--no-resume"),
        "error lacks remediation: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted artifact is a typed, recoverable error: the resumed run
/// refuses with `Corrupt` (never a panic, never a silent wrong answer),
/// and after `wipe()` — the `--no-resume` path — the rerun succeeds and
/// still matches the uninterrupted output.
#[test]
fn corrupt_checkpoint_is_rejected_then_recoverable() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let cfg = config((27, 30));
    let uninterrupted = run_study(w, &engine, &cfg);

    let dir = temp_dir("corrupt");
    let ckpt_cfg = checkpointed((27, 30), &dir, StudyMode::Sequential);
    run(&engine, &ckpt_cfg).expect("seed the dir");

    // Flip a byte in the middle of the first artifact's payload.
    let victim = dir.join("snap_0027.ckpt");
    let mut bytes = std::fs::read(&victim).expect("artifact exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    let err = run(&engine, &ckpt_cfg).expect_err("resumed over a corrupt artifact");
    assert!(
        matches!(err, StudyError::Checkpoint(CheckpointError::Corrupt { .. })),
        "wrong error: {err}"
    );
    assert!(
        err.to_string()
            .ends_with("delete the checkpoint dir or pass --no-resume"),
        "error lacks remediation: {err}"
    );

    CheckpointStore::open(&dir, study_fingerprint(w, &engine, &ckpt_cfg))
        .expect("open store")
        .wipe()
        .expect("wipe");
    let rerun = run(&engine, &ckpt_cfg).expect("rerun after wipe").series;
    assert_eq!(render_study(&uninterrupted), render_study(&rerun));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded checkpointed run killed *mid-snapshot* — segments spilled but
/// the snapshot artifact never written: the resumed run renders
/// byte-identical to an uninterrupted in-memory study, reuses the
/// orphaned segments instead of rescanning, and a damaged segment is
/// rebuilt in isolation.
#[test]
fn sharded_kill_resume_reuses_spilled_segments() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let full_range = (20, 27);
    let uninterrupted = run_study(w, &engine, &config(full_range));

    let ckpt_dir = temp_dir("shard-seq");
    let spill_dir = temp_dir("shard-seq-spill");
    let sharded = |range: (usize, usize)| StudyConfig {
        sharding: Some(ShardingConfig::new(400, spill_dir.clone())),
        ..checkpointed(range, &ckpt_dir, StudyMode::Sequential)
    };

    // "Kill mid-snapshot 24": run the 20..=24 prefix to completion, then
    // delete the t=24 artifact. Its segments stay spilled on disk — the
    // state a crash leaves behind between the spill and the save.
    run(&engine, &sharded((20, 24))).expect("killed prefix run");
    std::fs::remove_file(ckpt_dir.join("snap_0024.ckpt")).expect("drop mid-snapshot artifact");

    let resume_cfg = sharded(full_range);
    let resumed = run(&engine, &resume_cfg).expect("resumed run").series;
    assert_eq!(
        render_study(&uninterrupted),
        render_study(&resumed),
        "sharded resume diverged from the uninterrupted in-memory run"
    );
    let ledger = resume_cfg.sharding.as_ref().unwrap().ledger.clone();
    let rows = ledger.rows();
    // t=20..=23 were adopted from artifacts (their segments untouched);
    // t=24 reused every orphaned segment; t=25..=27 built fresh.
    assert!(ledger.segments_reused() > 0, "orphaned segments rescanned");
    assert!(
        rows.iter()
            .all(|r| r.snapshot_idx != 24 || (r.reused && r.segment_bytes > 0)),
        "t=24 segments were rebuilt instead of reused: {rows:?}"
    );
    assert!(
        rows.iter().any(|r| r.snapshot_idx == 25 && !r.reused),
        "post-kill snapshots should build fresh segments"
    );

    // Crash again at t=24, this time with one segment also lost: exactly
    // that segment rebuilds, the rest are admitted from disk, and the
    // rendering still matches.
    std::fs::remove_file(ckpt_dir.join("snap_0024.ckpt")).expect("drop artifact again");
    let victim = spill_dir.join("t0024").join("shard_0001.seg");
    std::fs::remove_file(&victim).expect("lose one segment");
    let rerun_cfg = sharded(full_range);
    let rerun = run(&engine, &rerun_cfg).expect("second resume").series;
    assert_eq!(render_study(&uninterrupted), render_study(&rerun));
    let ledger = rerun_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(ledger.segments_built(), 1, "only the lost segment rebuilds");
    assert!(ledger.segments_reused() > 0);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// The study fingerprint deliberately excludes the snapshot range, so a
/// checkpoint directory written under `start=20` is adopted by a
/// `start=25` resume. That resume is **not** a fresh `(25,30)` study:
/// adopted artifacts carry the §6.2 fold's cumulative certificate-history
/// IP set from t=20..24, so the non-TLS restoration sees more history
/// than a cold start. The resumed tail equals the full study's tail —
/// the longitudinal semantics — while the history-free variants match
/// the fresh run exactly.
#[test]
fn start_shift_resume_adopts_fold_history() {
    let w = world();
    let engine = ScanEngine::rapid7();
    // The range straddles the Netflix expired-certificate window, so the
    // pre-shift snapshots contribute history the shifted tail consults.
    let dir = temp_dir("shift");
    let full_cfg = checkpointed((14, 22), &dir, StudyMode::Sequential);
    let full = run(&engine, &full_cfg).expect("seed the dir").series;

    let tail_cfg = checkpointed((18, 22), &dir, StudyMode::Sequential);
    // Same fingerprint despite the shifted range — documented behavior.
    assert_eq!(
        study_fingerprint(w, &engine, &full_cfg),
        study_fingerprint(w, &engine, &tail_cfg),
    );
    let resumed = run(&engine, &tail_cfg).expect("shifted resume").series;
    let fresh = run_study(w, &engine, &config((18, 22)));

    // Per-snapshot processing is position-independent: identical rows.
    assert_eq!(resumed.snapshots.len(), fresh.snapshots.len());
    for (r, f) in resumed.snapshots.iter().zip(&fresh.snapshots) {
        assert_eq!(r.snapshot_idx, f.snapshot_idx);
        assert_eq!(r.total_ips_with_certs, f.total_ips_with_certs);
        assert_eq!(r.http_only_ips, f.http_only_ips);
    }
    // History-free fold variants match the fresh run.
    assert_eq!(resumed.netflix.initial, fresh.netflix.initial);
    assert_eq!(resumed.netflix.with_expired, fresh.netflix.with_expired);
    // The history-dependent variant equals the full study's tail…
    assert_eq!(
        resumed.netflix.with_non_tls,
        full.netflix.with_non_tls[full.netflix.with_non_tls.len() - resumed.snapshots.len()..],
        "shifted resume diverged from the full study's tail"
    );
    // …and dominates the cold start pointwise: extra history can only
    // restore more non-TLS ASes, never fewer.
    for (t, (r, f)) in resumed
        .netflix
        .with_non_tls
        .iter()
        .zip(&fresh.netflix.with_non_tls)
        .enumerate()
    {
        assert!(r >= f, "snapshot {t}: resumed {r} < fresh {f}");
    }
    assert_ne!(
        resumed.netflix.with_non_tls, fresh.netflix.with_non_tls,
        "expected the adopted t=14..17 history to restore extra ASes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
