//! Shared fixtures for the benchmark targets and the `reproduce` binary:
//! one lazily-built world and study per scale, so Criterion setup cost is
//! paid once per process.

use hgsim::{HgWorld, ScenarioConfig};
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{run_study, DeltaStudyEngine, PipelineContext, StudyConfig, StudySeries};
use scanner::ScanEngine;
use std::sync::OnceLock;

/// The small-scale world (used by benches; `reproduce --scale small`).
pub fn small_world() -> &'static HgWorld {
    static W: OnceLock<HgWorld> = OnceLock::new();
    W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
}

/// A Rapid7 study over the small world.
pub fn small_study() -> &'static StudySeries {
    static S: OnceLock<StudySeries> = OnceLock::new();
    S.get_or_init(|| {
        run_study(
            small_world(),
            &ScanEngine::rapid7(),
            &StudyConfig::default(),
        )
    })
}

/// A [`DeltaStudyEngine`] over `config` that appended every snapshot of
/// its range, in order: the snapshot-at-a-time form of [`run_study`].
pub fn append_study<'w>(
    world: &'w HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
) -> DeltaStudyEngine<'w> {
    let mut driver = DeltaStudyEngine::new(world, engine.clone(), config);
    for t in config.snapshots.0..=config.snapshots.1.min(world.n_snapshots() - 1) {
        driver.append_snapshot(t);
    }
    driver
}

/// Render everything a study produces into one deterministic string:
/// per-snapshot scalars, sorted validation stats, every per-HG result in
/// `ALL_HGS` order, the Netflix restoration series, the learned header
/// fingerprints, and the study-wide quality table. The equivalence tests
/// (`tests/incremental.rs`, `tests/transient.rs`, `tests/study_log.rs`)
/// all pin byte-identity through this one renderer, so any divergence
/// between study modes — full vs appended, clean vs zero-rate transients,
/// uninterrupted vs killed-and-resumed — must surface here.
pub fn render_study(series: &StudySeries) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "engine: {:?}", series.engine).unwrap();
    for snap in &series.snapshots {
        writeln!(
            out,
            "== t={} ips={} ases={} http_only={:?}",
            snap.snapshot_idx,
            snap.total_ips_with_certs,
            snap.n_ases_with_certs,
            snap.http_only_ips
        )
        .unwrap();
        // ValidationStats.invalid is a HashMap; sort for determinism.
        let mut invalid: Vec<String> = snap
            .validation
            .invalid
            .iter()
            .map(|(r, n)| format!("{r:?}={n}"))
            .collect();
        invalid.sort();
        writeln!(
            out,
            "validation: total={} valid={} invalid=[{}]",
            snap.validation.total_records,
            snap.validation.valid,
            invalid.join(" ")
        )
        .unwrap();
        writeln!(out, "quality: {:?}", snap.quality).unwrap();
        for hg in hgsim::ALL_HGS {
            writeln!(out, "{hg}: {:?}", snap.per_hg[&hg]).unwrap();
        }
    }
    writeln!(out, "netflix.initial: {:?}", series.netflix.initial).unwrap();
    writeln!(
        out,
        "netflix.with_expired: {:?}",
        series.netflix.with_expired
    )
    .unwrap();
    writeln!(
        out,
        "netflix.with_non_tls: {:?}",
        series.netflix.with_non_tls
    )
    .unwrap();
    // HeaderFingerprints iterates a HashMap; sort by keyword so the
    // rendering is a function of content, not of hash-seed luck.
    let mut fps: Vec<_> = series.header_fps.iter().collect();
    fps.sort_by(|a, b| a.keyword.cmp(&b.keyword));
    for fp in fps {
        writeln!(out, "header_fp: {fp:?}").unwrap();
    }
    out.push_str(&analysis::render::quality_table(series));
    out.push_str(&analysis::render::scan_health_table(series));
    out
}

/// A pipeline context for the small world.
pub fn small_ctx() -> &'static PipelineContext {
    static C: OnceLock<PipelineContext> = OnceLock::new();
    C.get_or_init(|| {
        let w = small_world();
        let fps = learn_reference_fingerprints(w, &ScanEngine::rapid7(), 28);
        PipelineContext::new(w.pki().root_store().clone(), w.org_db(), fps)
    })
}
