//! Incremental-study equivalence: the incremental mode — one snapshot at
//! a time through one shared validation cache — must render
//! byte-identical study output to the full sequential driver, clean and
//! under injected faults alike, and its per-snapshot reuse counters must
//! account for every chain the cache saw.
//!
//! `OFFNET_FAULT_RATE` (used by the CI incremental-equivalence job) sets
//! the injected corruption rate for the faulted comparison (default 0.1).

use hgsim::{HgWorld, ScenarioConfig};
use offnet_bench::render_study;
use offnet_core::{run_study, try_run_study, DeltaStudyEngine, StudyConfig, StudyMode, StudyRun};
use scanner::{FaultPlan, ScanEngine};
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

/// Every chain must be accounted for, in the exact style of
/// `tests/faults.rs`: one report per snapshot, and a study-wide
/// reconciliation against the validation cache's own ledger.
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
    for (report, snap) in study.reports.iter().zip(&study.series.snapshots) {
        assert_eq!(
            report.snapshot_idx, snap.snapshot_idx,
            "report/series misalignment"
        );
    }
    // §4.1 ledger: per-snapshot replay/reverify splits must sum to the
    // cache's lifetime totals — no validation happened off the books.
    let replayed: u64 = study.reports.iter().map(|r| r.chains_replayed).sum();
    let revalidated: u64 = study.reports.iter().map(|r| r.chains_revalidated).sum();
    assert_eq!(replayed, hits, "replay ledger mismatch");
    assert_eq!(revalidated, misses, "reverification ledger mismatch");
    assert!(hits > 0, "cache never replayed; accounting is vacuous");
}
