//! Parallel-pipeline equivalence: the scoped-thread fan-out and the
//! cross-snapshot validation cache must reproduce the sequential results
//! exactly — same per-HG sets, same ValidationStats (including the §6.2
//! Netflix expiry-exemption path), same Netflix restoration series.

use hgsim::{HgWorld, ScenarioConfig, ALL_HGS};
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{
    process_snapshot, run_study, PipelineContext, StudyConfig, StudyMode, ValidationCache,
};
use scanner::{observe_snapshot, ScanEngine};
use std::sync::{Arc, OnceLock};

fn world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

fn base_ctx() -> PipelineContext {
    let w = world();
    let fps = learn_reference_fingerprints(w, &ScanEngine::rapid7(), 28);
    PipelineContext::new(w.pki().root_store().clone(), w.org_db(), fps)
}

/// `config` run in [`StudyMode::Parallel`].
fn parallel(config: &StudyConfig, workers: usize) -> StudyConfig {
    StudyConfig {
        mode: StudyMode::Parallel { workers },
        ..config.clone()
    }
}

#[test]
fn parallel_snapshots_match_sequential() {
    let w = world();
    let engine = ScanEngine::rapid7();
    // Snapshot 18 sits inside the Netflix expired-certificate window, so
    // the expiry-exempted restoration path is exercised too.
    let obs: Vec<_> = [10usize, 18, 30]
        .iter()
        .map(|&t| observe_snapshot(w, &engine, t).expect("snapshot in corpus"))
        .collect();

    let seq_ctx = base_ctx();
    let par_ctx = seq_ctx
        .clone()
        .with_validation_cache(Arc::new(ValidationCache::new()));

    let seq: Vec<_> = obs.iter().map(|o| process_snapshot(o, &seq_ctx)).collect();
    let par: Vec<_> = obs.iter().map(|o| process_snapshot(o, &par_ctx)).collect();

    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.snapshot_idx, p.snapshot_idx, "results out of order");
        assert_eq!(s.validation, p.validation, "t={}", s.snapshot_idx);
        assert_eq!(s.http_only_ips, p.http_only_ips, "t={}", s.snapshot_idx);
        assert_eq!(s.total_ips_with_certs, p.total_ips_with_certs);
        assert_eq!(s.n_ases_with_certs, p.n_ases_with_certs);
        for hg in ALL_HGS {
            let (a, b) = (&s.per_hg[&hg], &p.per_hg[&hg]);
            let t = s.snapshot_idx;
            assert_eq!(a.candidate_ases, b.candidate_ases, "{hg} t={t}");
            assert_eq!(a.confirmed_ases, b.confirmed_ases, "{hg} t={t}");
            assert_eq!(a.confirmed_and_ases, b.confirmed_and_ases, "{hg} t={t}");
            assert_eq!(a.candidate_ips, b.candidate_ips, "{hg} t={t}");
            assert_eq!(a.confirmed_ips, b.confirmed_ips, "{hg} t={t}");
            assert_eq!(a.cert_ip_groups, b.cert_ip_groups, "{hg} t={t}");
            assert_eq!(a.onnet_ip_count, b.onnet_ip_count, "{hg} t={t}");
            assert_eq!(a.with_expired_ases, b.with_expired_ases, "{hg} t={t}");
            assert_eq!(a.with_expired_ips, b.with_expired_ips, "{hg} t={t}");
            assert_eq!(
                a.median_cert_lifetime_days, b.median_cert_lifetime_days,
                "{hg} t={t}"
            );
        }
    }
}

#[test]
fn cached_study_matches_sequential_study() {
    let w = world();
    let engine = ScanEngine::rapid7();
    // A window straddling the Netflix expired-certificate episode, so the
    // cumulative non-TLS restoration fold carries real state.
    let config = StudyConfig {
        snapshots: (14, 20),
        ..Default::default()
    };
    let seq = run_study(w, &engine, &config);
    let par = run_study(w, &engine, &parallel(&config, 4));

    assert_eq!(seq.snapshots.len(), par.snapshots.len());
    for (s, p) in seq.snapshots.iter().zip(&par.snapshots) {
        assert_eq!(s.snapshot_idx, p.snapshot_idx);
        assert_eq!(s.validation, p.validation, "t={}", s.snapshot_idx);
        for hg in ALL_HGS {
            assert_eq!(
                s.per_hg[&hg].confirmed_ases, p.per_hg[&hg].confirmed_ases,
                "{hg} t={}",
                s.snapshot_idx
            );
        }
    }
    assert_eq!(seq.netflix.initial, par.netflix.initial);
    assert_eq!(seq.netflix.with_expired, par.netflix.with_expired);
    assert_eq!(seq.netflix.with_non_tls, par.netflix.with_non_tls);
    // The expired window must actually have fired, or this test proves
    // nothing about the exemption path.
    let widened = seq
        .netflix
        .with_expired
        .iter()
        .zip(&seq.netflix.initial)
        .any(|(e, i)| e > i);
    assert!(widened, "expired-restoration path never exercised");
}

#[test]
fn faulted_study_parallel_matches_sequential() {
    // Under injected corruption the parallel driver must still reproduce
    // the sequential results exactly — including the quarantine accounting.
    let w = world();
    let config = StudyConfig {
        snapshots: (26, 30),
        ..Default::default()
    };
    let mk_engine = || {
        let plan = Arc::new(scanner::FaultPlan::uniform_record_faults(13, 0.08));
        ScanEngine::rapid7().with_faults(plan)
    };
    let seq = run_study(w, &mk_engine(), &config);
    let par = run_study(w, &mk_engine(), &parallel(&config, 4));
    assert_eq!(seq.snapshots.len(), par.snapshots.len());
    for (s, p) in seq.snapshots.iter().zip(&par.snapshots) {
        assert_eq!(s.snapshot_idx, p.snapshot_idx);
        assert_eq!(s.validation, p.validation, "t={}", s.snapshot_idx);
        assert_eq!(s.quality, p.quality, "t={}", s.snapshot_idx);
        for hg in ALL_HGS {
            assert_eq!(
                s.per_hg[&hg].confirmed_ases, p.per_hg[&hg].confirmed_ases,
                "{hg} t={}",
                s.snapshot_idx
            );
        }
    }
    assert_eq!(
        seq.aggregate_quality(),
        par.aggregate_quality(),
        "study-level quality reports diverged"
    );
}

#[test]
fn shared_cache_is_hit_across_snapshots() {
    let w = world();
    let engine = ScanEngine::rapid7();
    let cache = Arc::new(ValidationCache::new());
    let ctx = base_ctx().with_validation_cache(cache.clone());
    // Deferred skeleton capture: a chain's first sighting verifies
    // directly, its second promotes to a replayable skeleton, and only the
    // third onwards replays. Feed three adjacent months through one cache
    // sequentially so each stage of that ladder is visible.
    for t in [28usize, 29, 30] {
        let obs = observe_snapshot(w, &engine, t).expect("snapshot in corpus");
        let _ = process_snapshot(&obs, &ctx);
        let stats = cache.stats();
        match t {
            28 => {
                assert!(stats.first_sightings > 0, "cache never populated");
                assert_eq!(stats.promotions, 0, "nothing recurs within a month");
                assert_eq!(stats.hits, 0, "no skeleton exists to replay yet");
            }
            29 => assert!(
                stats.promotions > 0,
                "second sighting never promoted: {stats:?}"
            ),
            _ => {
                // Certificates rotate, so adjacent monthly snapshots only
                // partially overlap — but a meaningful fraction of chains
                // must persist long enough to replay on month three.
                let (hits, misses) = cache.hit_stats();
                assert!(
                    hits * 10 > misses,
                    "cross-snapshot reuse missing: {hits} hits vs {misses} misses"
                );
            }
        }
    }
}
