//! Incremental-study equivalence: the delta engine — which diffs each
//! snapshot's evidence against its predecessor and recomputes only dirty
//! HG×AS cells — must render byte-identical study output to the full
//! sequential driver, clean and under injected faults alike, and its
//! reuse counters must account for every cell and every chain exactly.
//!
//! `OFFNET_FAULT_RATE` (used by the CI incremental-equivalence job) sets
//! the injected corruption rate for the faulted comparison (default 0.1).

use hgsim::{HgWorld, ScenarioConfig, ALL_HGS};
use offnet_bench::render_study;
use offnet_core::{
    run_study, standard_validate_options, try_run_study, CorpusDelta, DeltaStudyEngine,
    SnapshotCorpus, SnapshotEvidence, StudyConfig, StudyMode, StudyRun,
};
use scanner::{observe_snapshot, FaultPlan, ScanEngine};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

/// `config` run in [`StudyMode::Incremental`].
fn run_incremental(w: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> StudyRun {
    let config = StudyConfig {
        mode: StudyMode::Incremental,
        ..config.clone()
    };
    try_run_study(w, engine, &config).expect("incremental study")
}

fn fault_rate() -> f64 {
    std::env::var("OFFNET_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

#[test]
fn incremental_matches_full_rendered_output() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let config = StudyConfig::default();
    let full = run_study(w, &engine, &config);
    let inc = run_incremental(w, &engine, &config);
    assert_eq!(
        render_study(&full),
        render_study(&inc.series),
        "incremental study diverged from the full recompute"
    );
    // The equivalence must come from genuine reuse, not from the delta
    // engine quietly recomputing everything (or replaying everything).
    assert!(inc.reports[0].full_compute, "first snapshot must be full");
    assert!(
        inc.reports[1..].iter().all(|r| !r.full_compute),
        "no later snapshot may fall back to a full compute on a clean run"
    );
    assert!(
        inc.reports.iter().any(|r| r.hgs_replayed > 0),
        "delta engine never replayed a clean HG"
    );
    assert!(
        inc.reports.iter().any(|r| r.hgs_recomputed > 0),
        "delta engine never recomputed a dirty HG"
    );
    assert!(
        inc.reports.iter().any(|r| r.chains_replayed > 0),
        "validation cache never replayed a chain"
    );
}

#[test]
fn incremental_matches_full_under_faults() {
    let w = world();
    let rate = fault_rate();
    let config = StudyConfig {
        snapshots: (14, 24),
        ..Default::default()
    };
    // Same plan seed on both sides: fault injection is deterministic per
    // (seed, snapshot), so both drivers see identical corrupted scans.
    let run_engine = || {
        let plan = Arc::new(FaultPlan::uniform_record_faults(11, rate));
        (ScanEngine::rapid7().with_faults(plan.clone()), plan)
    };
    let (engine_a, plan_a) = run_engine();
    let full = run_study(w, &engine_a, &config);
    let (engine_b, _) = run_engine();
    let inc = run_incremental(w, &engine_b, &config);
    assert!(
        !plan_a.injected_total().is_empty(),
        "plan injected nothing at rate {rate}; the faulted comparison is vacuous"
    );
    assert_eq!(
        render_study(&full),
        render_study(&inc.series),
        "faulted incremental study diverged from the full recompute (rate {rate})"
    );
}

/// Every cell and every chain must be accounted for, in the exact style of
/// `tests/faults.rs`: per-snapshot identities over the reuse counters, and
/// a study-wide reconciliation against the validation cache's own ledger.
#[test]
fn reuse_accounting_is_exact() {
    let w = world();
    let config = StudyConfig::default();
    let mut driver = DeltaStudyEngine::new(w, ScanEngine::rapid7(), &config);
    for t in config.snapshots.0..=config.snapshots.1.min(w.n_snapshots() - 1) {
        driver.append_snapshot(t);
    }
    let (hits, misses) = driver.cache().hit_stats();
    let study = driver.finish();
    assert_eq!(study.reports.len(), study.series.snapshots.len());
    for (i, (report, snap)) in study
        .reports
        .iter()
        .zip(&study.series.snapshots)
        .enumerate()
    {
        let t = snap.snapshot_idx;
        assert_eq!(report.snapshot_idx, t, "report/series misalignment");
        assert_eq!(report.full_compute, i == 0, "clean run: only t0 is full");
        assert_eq!(
            report.hgs_replayed + report.hgs_recomputed,
            report.hgs_total,
            "HG split does not cover all HGs t={t}"
        );
        assert_eq!(report.hgs_total, ALL_HGS.len(), "t={t}");
        assert_eq!(
            report.chains_new + report.chains_rotated + report.chains_persisted(),
            report.chains_total,
            "chain churn split does not cover the snapshot t={t}"
        );
        if i > 0 {
            // Every chain of the previous snapshot must be classified:
            // vanished, rotated in place, or persisted unchanged.
            let prev = &study.reports[i - 1];
            assert_eq!(
                report.chains_vanished + report.chains_rotated + report.chains_persisted(),
                prev.chains_total,
                "previous snapshot's chains not fully classified t={t}"
            );
        }
    }
    // §4.1 ledger: per-snapshot replay/reverify splits must sum to the
    // cache's lifetime totals — no validation happened off the books.
    let replayed: u64 = study.reports.iter().map(|r| r.chains_replayed).sum();
    let revalidated: u64 = study.reports.iter().map(|r| r.chains_revalidated).sum();
    assert_eq!(replayed, hits, "replay ledger mismatch");
    assert_eq!(revalidated, misses, "reverification ledger mismatch");
    assert!(hits > 0, "cache never replayed; accounting is vacuous");
}

/// Diffing a snapshot against an independently rebuilt copy of itself is
/// clean: no dirty HGs, no touched rows, and applying the delta is the
/// identity.
#[test]
fn self_delta_of_rebuilt_corpus_is_all_clean() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let obs = observe_snapshot(w, &engine, 30).expect("snapshot in corpus");
    let roots = w.pki().root_store().clone();
    let build = || {
        let corpus = SnapshotCorpus::build(&obs, &roots, &standard_validate_options(), None);
        SnapshotEvidence::build(&corpus, obs.cert.chain_digests())
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "evidence is not a pure function of the observation");
    let delta = CorpusDelta::diff(&a, &b);
    assert!(delta.is_clean(), "self-delta marked rows dirty");
    assert!(delta.dirty_hgs().is_empty(), "self-delta marked HGs dirty");
    assert_eq!(
        delta.apply(&a),
        b,
        "applying a clean delta must be identity"
    );
}
