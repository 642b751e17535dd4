//! The study log: every study mode appends one record per snapshot to
//! the log at `artifact_out`, a relaunched study resumes from it, and
//! rendering and queries read it back.
//!
//! - **Kill/resume.** A run killed mid-study and relaunched over the same
//!   log renders byte-identical output to an uninterrupted run — in every
//!   study mode, sharded mid-snapshot, clean and under injected
//!   faults/transients alike, and with a shifted start that adopts the
//!   §6.2 fold history the earlier records carry.
//! - **Across modes.** A loaded log renders byte-identical to the live
//!   series, whichever mode wrote it, and the incremental engine extends
//!   an existing log in place.
//! - **Appends and damage.** An append writes only its own record; a
//!   torn tail recovers; corruption, a foreign configuration or format
//!   version surface as typed errors with a remedy, never as a panic or a
//!   silent wrong answer.
//!
//! `OFFNET_FAULT_RATE` (shared with `tests/incremental.rs` and the CI
//! study-log job) sets the corruption rate for the faulted comparisons
//! (default 0.1).

use hgsim::{HgWorld, ScenarioConfig, ALL_HGS};
use offnet_bench::render_study;
use offnet_core::{
    artifact_fingerprint, run_study, try_run_study, ArtifactError, DeltaStudyEngine,
    ShardingConfig, StudyArtifact, StudyConfig, StudyError, StudyMode, StudyRun,
};
use offnet_query::FrozenStudy;
use scanner::{FaultPlan, ScanEngine, TransientPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A fresh, process-unique scratch directory per call, so parallel tests
/// never share a log.
fn temp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "offnet-study-log-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Stale files from a previous crashed test run must not leak in.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn config(range: (usize, usize)) -> StudyConfig {
    StudyConfig {
        snapshots: range,
        ..Default::default()
    }
}

/// `config(range)` under `mode`, logging to `log`.
fn logged(range: (usize, usize), log: &Path, mode: StudyMode) -> StudyConfig {
    StudyConfig {
        mode,
        artifact_out: Some(log.to_path_buf()),
        ..config(range)
    }
}

fn run(engine: &ScanEngine, config: &StudyConfig) -> Result<StudyRun, StudyError> {
    try_run_study(world(), engine, config)
}

/// Render the log at `path` after a disk round trip.
fn render_loaded(path: &Path) -> String {
    render_study(&StudyArtifact::load(path).expect("load log").to_series())
}

fn file_len(path: &Path) -> usize {
    std::fs::metadata(path).expect("log exists").len() as usize
}

/// Cut the log to `len` bytes — the state a crash mid-append leaves.
fn tear(path: &Path, len: usize) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len as u64))
        .expect("tear the log");
}

/// The batch modes.
const BATCH_MODES: [StudyMode; 2] = [StudyMode::Sequential, StudyMode::Parallel { workers: 3 }];

// ---------------------------------------------------------------------------
// Kill/resume.
// ---------------------------------------------------------------------------

/// Sequential and parallel modes, killed after snapshot 25 and relaunched:
/// the resumed study renders byte-identical to an uninterrupted run, and
/// the log ends up with one record per snapshot in the range.
#[test]
fn sequential_kill_resume_is_byte_identical() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let uninterrupted = run_study(w, &engine, &config((20, 30)));

    for mode in BATCH_MODES {
        let log = temp_dir().join("study.offna");
        // "Kill" after snapshot 25: run the prefix range to completion.
        // The fingerprint excludes the snapshot range, so the resumed
        // (longer) run adopts these records.
        run(&engine, &logged((20, 25), &log, mode)).expect("killed prefix run");

        let full_cfg = logged((20, 30), &log, mode);
        let resumed = run(&engine, &full_cfg).expect("resumed run").series;
        assert_eq!(
            render_study(&uninterrupted),
            render_study(&resumed),
            "resumed {mode:?} study diverged from the uninterrupted run"
        );
        let records = StudyArtifact::load(&log).expect("log loads").snapshots;
        assert_eq!(records.len(), 11, "one record per snapshot in 20..=30");

        // Re-running over the complete log adopts everything and still
        // renders identically — resume is idempotent.
        let len = file_len(&log);
        let again = run(&engine, &full_cfg).expect("idempotent run").series;
        assert_eq!(render_study(&uninterrupted), render_study(&again));
        assert_eq!(file_len(&log), len, "a fully adopted run appended");
        let _ = std::fs::remove_dir_all(log.parent().unwrap());
    }
}

/// Incremental driver, killed and relaunched: byte-identical output, one
/// reuse report per snapshot, and the adopted prefix keeps the reports
/// its records carry.
#[test]
fn incremental_kill_resume_stays_incremental() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let uninterrupted = run_study(w, &engine, &config((20, 30)));

    let log = temp_dir().join("study.offna");
    let killed =
        run(&engine, &logged((20, 25), &log, StudyMode::Incremental)).expect("killed prefix run");

    let resumed = run(&engine, &logged((20, 30), &log, StudyMode::Incremental)).expect("resumed");
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
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

/// The robustness layers compose: with record faults and transient scan
/// failures both injected, a killed-and-resumed logged run still
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
    let uninterrupted = run_study(w, &engine(), &config((22, 30)));

    for mode in BATCH_MODES {
        let log = temp_dir().join("study.offna");
        run(&engine(), &logged((22, 26), &log, mode)).expect("killed prefix run");

        let resumed = run(&engine(), &logged((22, 30), &log, mode))
            .expect("resumed run")
            .series;
        assert_eq!(
            render_study(&uninterrupted),
            render_study(&resumed),
            "faulted {mode:?} resume diverged (fault rate {rate}, transient rate 0.2)"
        );
        let _ = std::fs::remove_dir_all(log.parent().unwrap());
    }
}

/// A log written under another configuration or by another format
/// version is never adopted: a changed pipeline knob dies with a typed
/// `ConfigMismatch`, and a version-1 log with a typed `VersionMismatch`,
/// each carrying the remedy. The study mode is not part of the
/// configuration — every mode writes the same records — so the
/// incremental mode adopts a sequential run's log.
#[test]
fn mismatched_driver_checkpoints_are_rejected() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let log = temp_dir().join("study.offna");
    let sequential = logged((28, 30), &log, StudyMode::Sequential);
    run(&engine, &sequential).expect("seed the log");

    let incremental = run(&engine, &logged((28, 30), &log, StudyMode::Incremental))
        .expect("incremental mode adopts a sequential log");
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
    let err = run(&engine, &other_knob).expect_err("adopted another config's log");
    assert!(
        matches!(err, ArtifactError::ConfigMismatch { .. }),
        "wrong error: {err}"
    );
    assert!(
        err.to_string().contains("--no-resume"),
        "error lacks remediation: {err}"
    );

    // The version field follows the 8-byte magic.
    let mut bytes = std::fs::read(&log).expect("log exists");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&log, &bytes).unwrap();
    let err = run(&engine, &sequential).expect_err("adopted a version-1 log");
    assert!(
        matches!(
            err,
            ArtifactError::VersionMismatch {
                found: 1,
                expected: 4,
                ..
            }
        ),
        "wrong error: {err}"
    );
    assert!(
        err.to_string().contains("--no-resume"),
        "error lacks remediation: {err}"
    );
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

/// A corrupted log is a typed, recoverable error: the resumed run refuses
/// with `Corrupt` (never a panic, never a silent wrong answer), and after
/// the `--no-resume` reset — the log starts again from a fresh header —
/// the rerun succeeds and still matches the uninterrupted output.
#[test]
fn corrupt_checkpoint_is_rejected_then_recoverable() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let uninterrupted = run_study(w, &engine, &config((27, 30)));

    let log = temp_dir().join("study.offna");
    let logged_cfg = logged((27, 30), &log, StudyMode::Sequential);
    run(&engine, &logged_cfg).expect("seed the log");

    // Flip a byte in the middle of the log: inside a complete record.
    let mut bytes = std::fs::read(&log).expect("log exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&log, &bytes).unwrap();

    let err = run(&engine, &logged_cfg).expect_err("resumed over a corrupt log");
    assert!(
        matches!(err, ArtifactError::Corrupt { .. }),
        "wrong error: {err}"
    );
    assert!(
        err.to_string()
            .ends_with("delete the log or pass --no-resume"),
        "error lacks remediation: {err}"
    );

    // `--no-resume`: the log is removed and the study writes a fresh one.
    std::fs::remove_file(&log).expect("reset the log");
    let rerun = run(&engine, &logged_cfg).expect("rerun after reset").series;
    assert_eq!(render_study(&uninterrupted), render_study(&rerun));
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

/// Sharded logged run killed *mid-snapshot* — segments spilled but the
/// snapshot's record torn: the resumed run renders byte-identical to an
/// uninterrupted in-memory study, reuses the orphaned segments instead of
/// rescanning, and a damaged segment is rebuilt in isolation.
#[test]
fn sharded_kill_resume_reuses_spilled_segments() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let full_range = (20, 27);
    let uninterrupted = run_study(w, &engine, &config(full_range));

    let log = temp_dir().join("study.offna");
    let spill_dir = temp_dir();
    let sharded = |range: (usize, usize)| StudyConfig {
        sharding: Some(ShardingConfig::new(400, spill_dir.clone())),
        ..logged(range, &log, StudyMode::Sequential)
    };

    // "Kill mid-snapshot 24": run the 20..=24 prefix to completion, then
    // tear t=24's record. Its segments stay spilled on disk — the state a
    // crash leaves behind between the spill and the append.
    run(&engine, &sharded((20, 24))).expect("killed prefix run");
    let through_24 = file_len(&log);
    tear(&log, through_24 - 1);

    let resume_cfg = sharded(full_range);
    let resumed = run(&engine, &resume_cfg).expect("resumed run").series;
    assert_eq!(
        render_study(&uninterrupted),
        render_study(&resumed),
        "sharded resume diverged from the uninterrupted in-memory run"
    );
    let ledger = resume_cfg.sharding.as_ref().unwrap().ledger.clone();
    let rows = ledger.rows();
    // t=20..=23 were adopted from the log (their segments untouched);
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

    // Crash again inside t=24's record (losing the records after it),
    // this time with one segment also lost: exactly that segment
    // rebuilds, the rest are admitted from disk, and the rendering still
    // matches.
    tear(&log, through_24 - 1);
    let victim = spill_dir.join("t0024").join("shard_0001.seg");
    std::fs::remove_file(&victim).expect("lose one segment");
    let rerun_cfg = sharded(full_range);
    let rerun = run(&engine, &rerun_cfg).expect("second resume").series;
    assert_eq!(render_study(&uninterrupted), render_study(&rerun));
    let ledger = rerun_cfg.sharding.as_ref().unwrap().ledger.clone();
    assert_eq!(ledger.segments_built(), 1, "only the lost segment rebuilds");
    assert!(ledger.segments_reused() > 0);
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// The log's fingerprint deliberately excludes the snapshot range, so a
/// log written under `start=14` is adopted by a `start=18` resume. That
/// resume is **not** a fresh `(18,22)` study: the records for t=14..17
/// feed the §6.2 fold's certificate-history IP set, so the non-TLS
/// restoration sees more history than a cold start. The resumed tail
/// equals the full study's tail — the longitudinal semantics — while the
/// history-free variants match the fresh run exactly.
#[test]
fn start_shift_resume_adopts_fold_history() {
    let w = world();
    let engine = ScanEngine::rapid7();
    // The range straddles the Netflix expired-certificate window, so the
    // pre-shift snapshots contribute history the shifted tail consults.
    let log = temp_dir().join("study.offna");
    let full_cfg = logged((14, 22), &log, StudyMode::Sequential);
    let full = run(&engine, &full_cfg).expect("seed the log").series;

    let tail_cfg = logged((18, 22), &log, StudyMode::Sequential);
    // Same fingerprint despite the shifted range — documented behavior.
    assert_eq!(
        artifact_fingerprint(w, &engine, &full_cfg),
        artifact_fingerprint(w, &engine, &tail_cfg),
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
    let _ = std::fs::remove_dir_all(log.parent().unwrap());
}

// ---------------------------------------------------------------------------
// Across modes.
// ---------------------------------------------------------------------------

#[test]
fn every_driver_freezes_a_render_identical_artifact() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let dir = temp_dir();
    let config = |name: &str| StudyConfig {
        artifact_out: Some(dir.join(format!("{name}.offna"))),
        ..Default::default()
    };

    let sequential = render_study(&run_study(w, &engine, &config("sequential")));
    let parallel = render_study(&run_study(
        w,
        &engine,
        &StudyConfig {
            mode: StudyMode::Parallel { workers: 4 },
            ..config("parallel")
        },
    ));
    let incremental = render_study(
        &try_run_study(
            w,
            &engine,
            &StudyConfig {
                mode: StudyMode::Incremental,
                ..config("incremental")
            },
        )
        .expect("incremental run")
        .series,
    );
    // A run that resumes a log another run left half written.
    let resumed_config = config("resumed");
    try_run_study(
        w,
        &engine,
        &StudyConfig {
            snapshots: (0, 15),
            ..resumed_config.clone()
        },
    )
    .expect("prefix run");
    let resumed = render_study(
        &try_run_study(w, &engine, &resumed_config)
            .expect("resumed run")
            .series,
    );

    for (name, direct) in [
        ("sequential", &sequential),
        ("parallel", &parallel),
        ("incremental", &incremental),
        ("resumed", &resumed),
    ] {
        assert_eq!(
            *direct,
            render_loaded(&dir.join(format!("{name}.offna"))),
            "{name}: loaded log renders differently from the live study"
        );
        assert_eq!(
            *direct, sequential,
            "{name}: drivers disagree before the log is even involved"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_artifacts_round_trip_across_drivers() {
    let w = world();
    let rate = fault_rate();
    let dir = temp_dir();
    // Same plan seed on both sides: fault injection is deterministic per
    // (seed, snapshot), so both drivers see identical corrupted scans.
    let engine =
        || ScanEngine::rapid7().with_faults(Arc::new(FaultPlan::uniform_record_faults(11, rate)));
    let config = |name: &str| StudyConfig {
        snapshots: (14, 24),
        artifact_out: Some(dir.join(format!("{name}.offna"))),
        ..Default::default()
    };

    let plan = Arc::new(FaultPlan::uniform_record_faults(11, rate));
    let full = run_study(
        w,
        &ScanEngine::rapid7().with_faults(plan.clone()),
        &config("full"),
    );
    assert!(
        !plan.injected_total().is_empty(),
        "plan injected nothing at rate {rate}; the faulted comparison is vacuous"
    );
    let inc = try_run_study(
        w,
        &engine(),
        &StudyConfig {
            mode: StudyMode::Incremental,
            ..config("incremental")
        },
    )
    .expect("incremental run");

    let full_render = render_study(&full);
    assert_eq!(full_render, render_study(&inc.series));
    assert_eq!(full_render, render_loaded(&dir.join("full.offna")));
    assert_eq!(full_render, render_loaded(&dir.join("incremental.offna")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The incremental engine adopts an on-disk log prefix and extends it in
/// place: a run killed after a few appends is continued by a fresh
/// engine on the same path, and both the finished series and the
/// re-loaded log land byte-identical to an uninterrupted run.
#[test]
fn incremental_append_to_existing_artifact_round_trips() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let config = config((14, 24));
    let dir = temp_dir();
    let path = dir.join("grown.offna");

    // First engine: append a prefix, then drop without finish() — the
    // log on disk holds every record appended so far.
    let mut first = DeltaStudyEngine::new(w, engine.clone(), &config)
        .with_artifact(&path)
        .expect("fresh log");
    for t in 14..=18 {
        first.append_snapshot(t);
    }
    let first_reports = first.reports().to_vec();
    drop(first);
    let prefix_rows = StudyArtifact::load(&path).expect("prefix").snapshots.len();
    assert!(prefix_rows > 0, "prefix persisted nothing");

    // Second engine: adopt the prefix and run the full range.
    let mut second = DeltaStudyEngine::new(w, engine.clone(), &config)
        .with_artifact(&path)
        .expect("adopt prefix");
    for t in 14..=24 {
        second.append_snapshot(t);
    }
    let grown = second.finish();

    let reference = run_study(w, &engine, &config);
    assert_eq!(
        render_study(&reference),
        render_study(&grown.series),
        "grown-from-log series diverged from an uninterrupted run"
    );
    assert_eq!(render_study(&reference), render_loaded(&path));
    // The prefix engine's reuse reports survive the disk round trip.
    assert_eq!(grown.reports.len(), grown.series.snapshots.len());
    assert_eq!(
        grown.reports[..prefix_rows],
        first_reports[..],
        "adopted prefix lost its reuse reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_artifacts_fail_typed_not_loud() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let dir = temp_dir();
    let path = dir.join("victim.offna");
    let config = StudyConfig {
        snapshots: (24, 26),
        artifact_out: Some(path.clone()),
        ..Default::default()
    };
    run_study(w, &engine, &config);

    let pristine = std::fs::read(&path).expect("log bytes");
    // Flip one byte: checksum mismatch, typed and remediated.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&path, &flipped).expect("write flipped");
    let err = StudyArtifact::load(&path).expect_err("corrupt log must not load");
    assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
    assert!(
        err.to_string().contains("delete the log"),
        "error must carry its remediation: {err}"
    );
    // Truncation is equally typed.
    std::fs::write(&path, &pristine[..pristine.len() / 3]).expect("write truncated");
    assert!(StudyArtifact::load(&path).is_err(), "truncated log loaded");
    // And the incremental engine surfaces the same typed error instead of
    // adopting garbage.
    std::fs::write(&path, &flipped).expect("write flipped again");
    let adopt = DeltaStudyEngine::try_new(w, engine.clone(), &config);
    assert!(adopt.is_err(), "engine adopted a corrupt log");
    // A version-1 log (the version field follows the 8-byte magic) is
    // refused by version before anything else is read.
    let mut v1 = pristine.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &v1).expect("write version 1");
    match DeltaStudyEngine::try_new(w, engine, &config) {
        Err(ArtifactError::VersionMismatch {
            found: 1,
            expected: 4,
            ..
        }) => {}
        Err(e) => panic!("wrong error for a version-1 log: {e}"),
        Ok(_) => panic!("engine adopted a version-1 log"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The query layer's frozen tables must agree with the series they were
/// frozen from: growth curves equal the per-snapshot confirmed counts,
/// and point lookups match set membership.
///
/// Log v4 stores a record's integer lists (AS sets, IP lists, certificate
/// groups, HTTP-only IPs) as delta-varint runs: every record body of the
/// log, fixed-width fields and all, takes at most 60% of the bytes its
/// runs alone took in v3 as an 8-byte count and 4-byte words.
#[test]
fn frozen_study_agrees_with_live_series() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let dir = temp_dir();
    let path = dir.join("query.offna");
    let config = StudyConfig {
        artifact_out: Some(path.clone()),
        ..Default::default()
    };
    let series = run_study(w, &engine, &config);
    let frozen = FrozenStudy::load(&path).expect("load frozen");

    assert_eq!(frozen.n_rows(), series.snapshots.len());
    for hg in ALL_HGS {
        assert_eq!(
            frozen.growth_curve(hg),
            series.confirmed_series(hg),
            "{hg}: frozen growth curve diverged"
        );
    }
    for (row, snap) in series.snapshots.iter().enumerate() {
        assert_eq!(frozen.snapshot_idx(row), snap.snapshot_idx);
        for hg in ALL_HGS {
            let live = &snap.per_hg[&hg].confirmed_ases;
            let frozen_ases = frozen.ases_hosting(hg, row);
            assert_eq!(frozen_ases.len(), live.len(), "{hg} row {row}");
            for asn in frozen_ases {
                assert!(frozen.hosts(hg, row, *asn), "{hg} row {row} as {asn}");
            }
        }
    }

    let bodies = frozen.record_body_lens();
    assert_eq!(
        bodies.len(),
        series.snapshots.len(),
        "one record per snapshot"
    );
    for (snap, &body) in series.snapshots.iter().zip(bodies) {
        let runs = snap.per_hg.values().flat_map(|h| {
            [
                h.candidate_ases.len(),
                h.confirmed_ases.len(),
                h.confirmed_and_ases.len(),
                h.with_expired_ases.len(),
                h.candidate_ips.len(),
                h.confirmed_ips.len(),
                h.cert_ip_groups.len(),
                h.with_expired_ips.len(),
            ]
        });
        let as_words: usize = runs
            .chain([snap.http_only_ips.len()])
            .map(|n| 8 + 4 * n)
            .sum();
        assert!(
            body * 10 <= as_words * 6,
            "t={}: a {body}-byte body for runs of {as_words} bytes as words",
            snap.snapshot_idx
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log must stay adoptable across modes, so its fingerprint may not
/// depend on how a study is scheduled, where its corpus lives, or where
/// its log is kept.
#[test]
fn fingerprints_ignore_mode_sharding_and_log_path() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let base = StudyConfig::default();
    let variants = [
        StudyConfig {
            mode: StudyMode::Parallel { workers: 1 },
            ..base.clone()
        },
        StudyConfig {
            mode: StudyMode::Parallel { workers: 4 },
            ..base.clone()
        },
        StudyConfig {
            mode: StudyMode::Incremental,
            ..base.clone()
        },
        StudyConfig {
            sharding: Some(ShardingConfig::new(400, "spill-a")),
            ..base.clone()
        },
        StudyConfig {
            sharding: Some(ShardingConfig::new(7, "spill-b").with_workers(3)),
            ..base.clone()
        },
        StudyConfig {
            artifact_out: Some(PathBuf::from("elsewhere.offna")),
            ..base.clone()
        },
    ];
    let fingerprint = artifact_fingerprint(w, &engine, &base);
    for config in &variants {
        assert_eq!(
            artifact_fingerprint(w, &engine, config),
            fingerprint,
            "{config:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Appends and damage.
// ---------------------------------------------------------------------------

/// An append writes only its own record: the bytes already in the log
/// never change, the log grows by exactly the record's framed size
/// (length, complement, body, checksum), and a snapshot's record costs
/// the same bytes wherever in the log it lands.
#[test]
fn an_append_writes_only_its_own_record() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let (first, last) = (27, 29);
    let dir = temp_dir();
    let log = dir.join("grown.offna");
    let mut grown = DeltaStudyEngine::new(w, engine.clone(), &config((first, last)))
        .with_artifact(&log)
        .expect("fresh log");
    for t in first..=last {
        let before = std::fs::read(&log).expect("log exists");
        assert!(grown.append_snapshot(t));
        let after = std::fs::read(&log).expect("log exists");
        assert!(after.starts_with(&before), "t={t} rewrote earlier bytes");
        let record = &after[before.len()..];
        let body_len = u64::from_le_bytes(record[..8].try_into().unwrap()) as usize;
        assert_eq!(
            record.len(),
            16 + body_len + 32,
            "t={t}: not one framed record"
        );

        // The same snapshot appended as the first record of a fresh log.
        let alone = dir.join(format!("alone-{t}.offna"));
        let mut engine_alone = DeltaStudyEngine::new(w, engine.clone(), &config((t, last)))
            .with_artifact(&alone)
            .expect("fresh log");
        let header = file_len(&alone);
        engine_alone.append_snapshot(t);
        assert_eq!(
            file_len(&alone) - header,
            record.len(),
            "t={t}: the append's size depends on its position"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 3-snapshot log cut inside its header, inside each record, and at
/// each record boundary: every resume either renders byte-identically to
/// an uninterrupted run (cutting the torn tail off and appending the
/// rest) or, inside the header, fails with a typed error. A checksum flip
/// in a complete record and a version-2 or version-3 log are typed on load
/// and on resume alike.
#[test]
fn torn_tails_recover_and_damage_is_typed() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let range = (28, 30);
    let uninterrupted = render_study(&run_study(w, &engine, &config(range)));
    let dir = temp_dir();
    let log = dir.join("whole.offna");

    let mut boundaries = Vec::new();
    let mut inc = DeltaStudyEngine::new(w, engine.clone(), &config(range))
        .with_artifact(&log)
        .expect("fresh log");
    boundaries.push(file_len(&log));
    for t in range.0..=range.1 {
        inc.append_snapshot(t);
        boundaries.push(file_len(&log));
    }
    drop(inc);
    let whole = std::fs::read(&log).expect("log bytes");
    let header = boundaries[0];

    let mut cuts = vec![header / 2];
    cuts.extend(boundaries.windows(2).map(|b| (b[0] + b[1]) / 2));
    cuts.extend(&boundaries);
    for cut in cuts {
        let victim = dir.join(format!("cut-{cut}.offna"));
        std::fs::write(&victim, &whole[..cut]).expect("write cut log");
        let resume = logged(range, &victim, StudyMode::Parallel { workers: 2 });
        match run(&engine, &resume) {
            Ok(resumed) => {
                assert!(
                    cut >= header,
                    "a log cut at {cut}, inside its header, resumed"
                );
                assert_eq!(uninterrupted, render_study(&resumed.series), "cut at {cut}");
                assert_eq!(uninterrupted, render_loaded(&victim), "cut at {cut}: log");
            }
            Err(e) => {
                assert!(cut < header, "cut at {cut} did not resume: {e}");
                assert!(
                    matches!(
                        e,
                        ArtifactError::Corrupt { .. } | ArtifactError::BadMagic { .. }
                    ),
                    "cut at {cut}: {e}"
                );
            }
        }
    }

    // A flipped byte inside the second (complete) record.
    let mut flipped = whole.clone();
    flipped[boundaries[1] + 40] ^= 0x01;
    std::fs::write(&log, &flipped).expect("write flipped");
    let corrupt = |e: &ArtifactError| matches!(e, ArtifactError::Corrupt { .. });
    assert!(corrupt(&StudyArtifact::load(&log).unwrap_err()));
    assert!(corrupt(&FrozenStudy::load(&log).unwrap_err()));
    let resume = logged(range, &log, StudyMode::Sequential);
    assert!(corrupt(&run(&engine, &resume).unwrap_err()));

    // Logs of older versions: v2, the whole-file columnar artifact this
    // log replaced, and v3, which wrote integer lists as 4-byte words.
    for version in [2, 3] {
        let mut old = whole.clone();
        old[8..12].copy_from_slice(&u32::to_le_bytes(version));
        std::fs::write(&log, &old).expect("write an older version");
        let refused = |e: ArtifactError| {
            matches!(
                e,
                ArtifactError::VersionMismatch {
                    found,
                    expected: 4,
                    ..
                } if found == version
            )
        };
        assert!(refused(StudyArtifact::load(&log).unwrap_err()));
        assert!(refused(FrozenStudy::load(&log).unwrap_err()));
        assert!(refused(run(&engine, &resume).unwrap_err()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
