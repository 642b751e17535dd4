//! Incremental-study equivalence: `DeltaStudyEngine` — one snapshot
//! appended at a time through one shared validation cache — must render
//! byte-identical study output to the full sequential driver, clean and
//! under injected faults alike, and its per-snapshot reuse counters must
//! account for every chain the cache saw.
//!
//! `OFFNET_FAULT_RATE` (used by the CI incremental-equivalence job) sets
//! the injected corruption rate for the faulted comparison (default 0.1).

use hgsim::{HgWorld, ScenarioConfig};
use offnet_bench::{append_study, render_study};
use offnet_core::{run_study, StudyConfig};
use scanner::{FaultPlan, ScanEngine};
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

#[test]
fn incremental_matches_full_rendered_output() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let config = StudyConfig::default();
    let full = run_study(w, &engine, &config);
    let inc = append_study(w, &engine, &config);
    assert!(
        inc.reports().iter().any(|r| r.chains_replayed > 0),
        "validation cache never replayed a chain"
    );
    assert_eq!(
        render_study(&full),
        render_study(&inc.finish()),
        "incremental study diverged from the full recompute"
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
    let inc = append_study(w, &engine_b, &config);
    assert!(
        !plan_a.injected_total().is_empty(),
        "plan injected nothing at rate {rate}; the faulted comparison is vacuous"
    );
    assert_eq!(
        render_study(&full),
        render_study(&inc.finish()),
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
    let driver = append_study(w, &ScanEngine::rapid7(), &config);
    let (hits, misses) = driver.cache().hit_stats();
    let reports = driver.reports().to_vec();
    let series = driver.finish();
    assert_eq!(reports.len(), series.snapshots.len());
    for (report, snap) in reports.iter().zip(&series.snapshots) {
        assert_eq!(
            report.snapshot_idx, snap.snapshot_idx,
            "report/series misalignment"
        );
    }
    // §4.1 ledger: per-snapshot replay/reverify splits must sum to the
    // cache's lifetime totals — no validation happened off the books.
    let replayed: u64 = reports.iter().map(|r| r.chains_replayed).sum();
    let revalidated: u64 = reports.iter().map(|r| r.chains_revalidated).sum();
    assert_eq!(replayed, hits, "replay ledger mismatch");
    assert_eq!(revalidated, misses, "reverification ledger mismatch");
    assert!(hits > 0, "cache never replayed; accounting is vacuous");
}
