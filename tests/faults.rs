//! Fault injection end to end: a zero-rate plan is a byte-identical no-op,
//! bounded corruption is quarantined with exact accounting (pipeline counts
//! equal the injector's ledger) while the §5 series stays within tolerance,
//! and snapshot-level faults (empty scans, dropped archives, panicking
//! per-HG stages) degrade the affected scope instead of aborting the study.
//!
//! `OFFNET_FAULT_RATE` (used by the CI robustness job) runs the uniform
//! corruption sweep at an elevated rate on top of the fixed 5% run.

use hgsim::{Hg, HgWorld, ScenarioConfig, ALL_HGS, TOP4};
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{
    process_snapshot, process_snapshot_sharded, run_study, PipelineContext, RecordError,
    ShardingConfig, StudyConfig,
};
use scanner::{observe_snapshot, FaultClass, FaultPlan, ScanEngine};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

/// A late-study window (Rapid7 and the reference snapshot both cover it)
/// kept short so every fault scenario can afford its own study run.
fn config() -> StudyConfig {
    StudyConfig {
        snapshots: (24, 30),
        ..Default::default()
    }
}

fn clean() -> &'static offnet_core::StudySeries {
    static S: OnceLock<offnet_core::StudySeries> = OnceLock::new();
    S.get_or_init(|| run_study(world(), &ScanEngine::rapid7(), &config()))
}

/// Run the study with every record-level fault class injected at `rate`,
/// returning the series together with the plan (for its injected ledger).
fn uniform_run(seed: u64, rate: f64) -> (offnet_core::StudySeries, Arc<FaultPlan>) {
    let plan = Arc::new(FaultPlan::uniform_record_faults(seed, rate));
    let engine = ScanEngine::rapid7().with_faults(plan.clone());
    (run_study(world(), &engine, &config()), plan)
}

#[test]
fn zero_rate_plan_is_byte_identical() {
    let plan = Arc::new(FaultPlan::new(99));
    let engine = ScanEngine::rapid7().with_faults(plan.clone());
    let faulted = run_study(world(), &engine, &config());
    let clean = clean();
    assert!(
        plan.injected_total().is_empty(),
        "no-op plan injected faults"
    );
    assert_eq!(clean.snapshots.len(), faulted.snapshots.len());
    for (c, f) in clean.snapshots.iter().zip(&faulted.snapshots) {
        assert_eq!(c.snapshot_idx, f.snapshot_idx);
        assert_eq!(c.validation, f.validation, "t={}", c.snapshot_idx);
        assert_eq!(c.quality, f.quality, "t={}", c.snapshot_idx);
        assert_eq!(c.http_only_ips, f.http_only_ips, "t={}", c.snapshot_idx);
        for hg in ALL_HGS {
            let (a, b) = (&c.per_hg[&hg], &f.per_hg[&hg]);
            assert_eq!(a.candidate_ases, b.candidate_ases, "{hg}");
            assert_eq!(a.confirmed_ases, b.confirmed_ases, "{hg}");
            assert_eq!(a.confirmed_ips, b.confirmed_ips, "{hg}");
        }
    }
    assert_eq!(clean.netflix.initial, faulted.netflix.initial);
    assert_eq!(clean.netflix.with_expired, faulted.netflix.with_expired);
    assert_eq!(clean.netflix.with_non_tls, faulted.netflix.with_non_tls);
}

/// Every quarantined record must be accounted for: the pipeline's
/// per-snapshot quality counts for the injected classes equal the plan's
/// ledger exactly (the clean corpus contributes none of these defects).
fn assert_exact_accounting(series: &offnet_core::StudySeries, plan: &FaultPlan) {
    for snap in &series.snapshots {
        let t = snap.snapshot_idx;
        let inj = plan.injected_for(t);
        let q = &snap.quality;
        let der_injected = inj.count(FaultClass::TruncatedDer)
            + inj.count(FaultClass::GarbageDer)
            + inj.count(FaultClass::BitFlippedDer);
        assert_eq!(
            q.quarantined_count(RecordError::MalformedDer),
            der_injected,
            "malformed-der t={t}"
        );
        assert_eq!(
            q.quarantined_count(RecordError::DuplicateIp),
            inj.count(FaultClass::DuplicateIp),
            "duplicate-ip t={t}"
        );
        assert_eq!(
            q.quarantined_count(RecordError::HeaderMojibake),
            inj.count(FaultClass::MojibakeHeader),
            "header-mojibake t={t}"
        );
        assert_eq!(
            q.quarantined_count(RecordError::HeaderOversized),
            inj.count(FaultClass::OversizedHeader),
            "header-oversized t={t}"
        );
        assert!(!q.is_degraded(), "record faults must not degrade stages");
    }
}

#[test]
fn five_percent_faults_quarantined_exactly_and_series_within_tolerance() {
    let (series, plan) = uniform_run(3, 0.05);
    assert_eq!(series.snapshots.len(), clean().snapshots.len());
    assert!(
        !plan.injected_total().is_empty(),
        "plan injected nothing; the accounting checks are vacuous"
    );
    assert_exact_accounting(&series, &plan);
    // The headline §5 confirmed-AS series for the top-4 HGs must stay
    // within 10% of the clean run (absolute slack 2 for near-zero values).
    for hg in TOP4 {
        let clean_series = clean().confirmed_series(hg);
        let faulted_series = series.confirmed_series(hg);
        for (i, (&c, &f)) in clean_series.iter().zip(&faulted_series).enumerate() {
            let slack = ((0.1 * c as f64).ceil() as usize).max(2);
            let diff = c.abs_diff(f);
            assert!(
                diff <= slack,
                "{hg} snapshot #{i}: clean={c} faulted={f} (slack {slack})"
            );
        }
    }
}

/// The CI robustness job re-runs the uniform sweep at an elevated rate via
/// `OFFNET_FAULT_RATE`. At high rates the series drifts beyond the 10%
/// bound (that bound is claimed for <=5%), but completion and exact
/// quarantine accounting must still hold.
#[test]
fn env_configured_rate_still_accounts_exactly() {
    let Ok(raw) = std::env::var("OFFNET_FAULT_RATE") else {
        return; // fixed-rate coverage above is enough outside CI
    };
    let rate: f64 = raw.parse().expect("OFFNET_FAULT_RATE must be a float");
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
    let (series, plan) = uniform_run(17, rate);
    assert_eq!(series.snapshots.len(), clean().snapshots.len());
    assert_exact_accounting(&series, &plan);
}

#[test]
fn empty_cert_snapshots_degrade_to_zero_without_panicking() {
    let plan = Arc::new(FaultPlan::single(5, FaultClass::EmptySnapshot, 1.0));
    let engine = ScanEngine::rapid7().with_faults(plan);
    let series = run_study(world(), &engine, &config());
    assert_eq!(series.snapshots.len(), clean().snapshots.len());
    for snap in &series.snapshots {
        assert!(snap.quality.empty_cert_snapshot, "t={}", snap.snapshot_idx);
        assert_eq!(snap.quality.cert_records_seen, 0);
        for hg in ALL_HGS {
            assert!(
                snap.per_hg[&hg].confirmed_ases.is_empty(),
                "{hg} confirmed off-nets without any certificates"
            );
        }
    }
}

#[test]
fn dropped_snapshots_shrink_the_series_but_not_the_study() {
    let seed = 11;
    let rate = 0.4;
    // The drop coin depends only on (seed, snapshot), so a probe plan
    // predicts exactly which snapshots the study plan will lose.
    let probe = FaultPlan::single(seed, FaultClass::DroppedSnapshot, rate);
    let kept: Vec<usize> = (24..=30).filter(|&t| !probe.drops_snapshot(t)).collect();
    assert!(
        !kept.is_empty() && kept.len() < 7,
        "seed must drop some snapshots and keep some; kept {kept:?}"
    );
    let plan = Arc::new(FaultPlan::single(seed, FaultClass::DroppedSnapshot, rate));
    let engine = ScanEngine::rapid7().with_faults(plan);
    let series = run_study(world(), &engine, &config());
    let got: Vec<usize> = series.snapshots.iter().map(|s| s.snapshot_idx).collect();
    assert_eq!(
        got, kept,
        "study must process exactly the surviving snapshots"
    );
    // Netflix series stay aligned with the surviving snapshots.
    assert_eq!(series.netflix.initial.len(), kept.len());
}

#[test]
fn panicking_hg_stage_degrades_that_hg_and_spares_the_rest() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let obs = observe_snapshot(w, &engine, 30).expect("snapshot in corpus");
    let fps = learn_reference_fingerprints(w, &engine, 28);
    let ctx = PipelineContext::new(w.pki().root_store().clone(), w.org_db(), fps);
    let spill = std::env::temp_dir().join(format!("offnet-faults-hg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    // Both snapshot paths: the in-memory corpus and 400-endpoint shards.
    let run = |ctx: &PipelineContext, sharded: bool| {
        if sharded {
            let sharding = ShardingConfig::new(400, &spill);
            process_snapshot_sharded(w, &engine, 30, ctx, &sharding)
                .expect("segment I/O")
                .expect("snapshot in corpus")
        } else {
            process_snapshot(&obs, ctx)
        }
    };
    let baseline = run(&ctx, false);
    assert!(baseline.quality.degraded_hgs.is_empty());

    let hooked = ctx.with_hg_panic_hook(|hg| hg == Hg::Google);
    let in_memory = run(&hooked, false);
    for sharded in [false, true] {
        let result = run(&hooked, sharded);
        assert!(
            result
                .quality
                .degraded_hgs
                .contains_key(&Hg::Google.to_string()),
            "sharded={sharded} degraded HGs: {:?}",
            result.quality.degraded_hgs
        );
        assert_eq!(result.quality.degraded_hgs.len(), 1);
        assert_eq!(
            result.quality.degraded_hgs, in_memory.quality.degraded_hgs,
            "sharded={sharded}: degradation entry differs between paths"
        );
        assert!(result.per_hg[&Hg::Google].confirmed_ases.is_empty());
        assert!(result.per_hg[&Hg::Google].candidate_ases.is_empty());
        for hg in ALL_HGS {
            if hg == Hg::Google {
                continue;
            }
            assert_eq!(
                result.per_hg[&hg].confirmed_ases, baseline.per_hg[&hg].confirmed_ases,
                "{hg} must be untouched by Google's panic (sharded={sharded})"
            );
        }
        // The snapshot itself completed: validation ran, quality was built.
        assert_eq!(result.validation, baseline.validation);
    }
    let _ = std::fs::remove_dir_all(&spill);
}

mod parser_hardening {
    use super::*;
    use proptest::prelude::*;

    /// One real leaf certificate from the corpus, for mutation testing.
    fn valid_leaf_der() -> &'static Vec<u8> {
        static DER: OnceLock<Vec<u8>> = OnceLock::new();
        DER.get_or_init(|| {
            let obs =
                observe_snapshot(world(), &ScanEngine::rapid7(), 24).expect("snapshot in corpus");
            obs.cert.records[0].chain_der[0].to_vec()
        })
    }

    proptest! {
        #[test]
        fn random_bytes_never_parse_and_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..256)
        ) {
            prop_assert!(x509::Certificate::parse(&bytes).is_err());
        }

        #[test]
        fn mutated_valid_der_never_panics(idx in 0usize..4096, byte in any::<u8>()) {
            let der = valid_leaf_der();
            let mut mutated = der.clone();
            let i = idx % mutated.len();
            mutated[i] = byte;
            let _ = x509::Certificate::parse(&mutated);
            // Truncation at an arbitrary point must also fail cleanly.
            let cut = idx % (der.len() + 1);
            let _ = x509::Certificate::parse(&der[..cut]);
        }
    }

    #[test]
    fn valid_leaf_actually_parses() {
        // Guard for the mutation test: if the baseline leaf stopped
        // parsing, the proptest above would be exercising nothing.
        assert!(x509::Certificate::parse(valid_leaf_der()).is_ok());
    }
}
