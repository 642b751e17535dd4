//! Study-artifact equivalence: a study frozen to disk and loaded back
//! must render byte-identical output to the live series, whichever study
//! mode produced it — sequential, snapshot-parallel, checkpointed, or
//! incremental — clean and under injected faults alike. The incremental
//! engine must also append to an existing on-disk artifact and land
//! exactly where an uninterrupted run does.
//!
//! `OFFNET_FAULT_RATE` (used by the CI artifact-equivalence job) sets
//! the injected corruption rate for the faulted comparison (default 0.1).

use hgsim::{HgWorld, ScenarioConfig, ALL_HGS};
use offnet_bench::render_study;
use offnet_core::{
    artifact_fingerprint, run_study, study_fingerprint, try_run_study, ArtifactError,
    DeltaStudyEngine, ShardingConfig, StudyArtifact, StudyConfig, StudyMode,
};
use offnet_query::FrozenStudy;
use scanner::{FaultPlan, ScanEngine};
use std::path::PathBuf;
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

/// A unique scratch path per call, so parallel tests never collide.
fn temp_dir() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "offnet-artifact-test-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Render the artifact at `path` after a disk round trip.
fn render_loaded(path: &std::path::Path) -> String {
    render_study(
        &StudyArtifact::load(path)
            .expect("load artifact")
            .to_series(),
    )
}

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
    let ckpt_config = StudyConfig {
        checkpoint_dir: Some(dir.join("ckpts")),
        ..config("checkpointed")
    };
    let checkpointed = render_study(
        &try_run_study(w, &engine, &ckpt_config)
            .expect("ckpt run")
            .series,
    );

    for (name, direct) in [
        ("sequential", &sequential),
        ("parallel", &parallel),
        ("incremental", &incremental),
        ("checkpointed", &checkpointed),
    ] {
        assert_eq!(
            *direct,
            render_loaded(&dir.join(format!("{name}.offna"))),
            "{name}: loaded artifact renders differently from the live study"
        );
        assert_eq!(
            *direct, sequential,
            "{name}: drivers disagree before the artifact is even involved"
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

/// The incremental engine adopts an on-disk artifact prefix and extends
/// it in place: a run killed after a few appends is continued by a fresh
/// engine on the same path, and both the finished series and the
/// re-loaded artifact land byte-identical to an uninterrupted run.
#[test]
fn incremental_append_to_existing_artifact_round_trips() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let config = StudyConfig {
        snapshots: (14, 24),
        ..Default::default()
    };
    let dir = temp_dir();
    let path = dir.join("grown.offna");

    // First engine: append a prefix, then drop without finish() — the
    // artifact on disk holds whatever was persisted per-append.
    let mut first = DeltaStudyEngine::new(w, engine.clone(), &config)
        .with_artifact(&path)
        .expect("fresh artifact");
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
        "grown-from-artifact series diverged from an uninterrupted run"
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

    let pristine = std::fs::read(&path).expect("artifact bytes");
    // Flip one payload byte: checksum mismatch, typed and remediated.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&path, &flipped).expect("write flipped");
    let err = StudyArtifact::load(&path).expect_err("corrupt artifact must not load");
    assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
    assert!(
        err.to_string().contains("delete the artifact file"),
        "error must carry its remediation: {err}"
    );
    // Truncation is equally typed.
    std::fs::write(&path, &pristine[..pristine.len() / 3]).expect("write truncated");
    assert!(
        StudyArtifact::load(&path).is_err(),
        "truncated artifact loaded"
    );
    // And the incremental engine surfaces the same typed error instead of
    // adopting garbage.
    std::fs::write(&path, &flipped).expect("write flipped again");
    let adopt = DeltaStudyEngine::new(w, engine.clone(), &config).with_artifact(&path);
    assert!(adopt.is_err(), "engine adopted a corrupt artifact");
    // A version-1 artifact (the version field follows the 8-byte magic)
    // is refused by version before anything else is read.
    let mut v1 = pristine.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &v1).expect("write version 1");
    match DeltaStudyEngine::new(w, engine, &config).with_artifact(&path) {
        Err(ArtifactError::VersionMismatch {
            found: 1,
            expected: 2,
            ..
        }) => {}
        Err(e) => panic!("wrong error for a version-1 artifact: {e}"),
        Ok(_) => panic!("engine adopted a version-1 artifact"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The query layer's frozen tables must agree with the series they were
/// frozen from: growth curves equal the per-snapshot confirmed counts,
/// and point lookups match set membership.
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
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact must stay adoptable across modes, so neither fingerprint
/// may depend on how a study is scheduled, where its corpus lives, or
/// where it checkpoints.
#[test]
fn fingerprints_ignore_mode_sharding_and_checkpoint_dir() {
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
            sharding: Some(ShardingConfig::new(400, "spill-a")),
            ..base.clone()
        },
        StudyConfig {
            sharding: Some(ShardingConfig::new(7, "spill-b").with_workers(3)),
            ..base.clone()
        },
        StudyConfig {
            checkpoint_dir: Some(PathBuf::from("ckpt")),
            ..base.clone()
        },
    ];
    let artifact = artifact_fingerprint(w, &engine, &base);
    let checkpoint = study_fingerprint(w, &engine, &base);
    for config in &variants {
        assert_eq!(
            artifact_fingerprint(w, &engine, config),
            artifact,
            "{config:?}"
        );
        assert_eq!(
            study_fingerprint(w, &engine, config),
            checkpoint,
            "{config:?}"
        );
    }

    let incremental = StudyConfig {
        mode: StudyMode::Incremental,
        ..base.clone()
    };
    assert_eq!(artifact_fingerprint(w, &engine, &incremental), artifact);
    // Every mode writes the same checkpoints, so the incremental mode
    // shares the batch modes' checkpoint fingerprint.
    for config in variants.iter().chain([&base]) {
        let config = StudyConfig {
            mode: StudyMode::Incremental,
            ..config.clone()
        };
        assert_eq!(
            study_fingerprint(w, &engine, &config),
            checkpoint,
            "{config:?}"
        );
    }
}
