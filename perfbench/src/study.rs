//! `study`: the §4 methodology batch on pre-generated inputs.
//!
//! Set-up simulates and scans all 31 Rapid7 snapshots once and keeps the
//! observation bundles in memory, so the op — one snapshot through
//! `process_snapshot`, then `ArtifactBuilder::push_snapshot` — spends its
//! time in §4.1 validation, corpus interning and the §4.2–§4.5 stages,
//! with no simulation and no disk I/O. Each 31-op pass starts a fresh
//! `ValidationCache`, so every pass sees the same cold-to-warm cache curve.

use crate::trace::Tracer;
use crate::{LayerMetrics, TraceSummary, Workload};
use hgsim::HgWorld;
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{
    artifact_fingerprint, process_corpus, process_snapshot, run_study, standard_validate_options,
    validate_records_cached, ArtifactBuilder, PipelineContext, SnapshotCorpus, StudyConfig,
    ValidationCache,
};
use scanner::{
    covers_snapshot, observe_snapshot, scan_certificates, scan_http_headers, ScanEngine,
    SnapshotObservations,
};
use std::sync::Arc;

pub struct Study<'w> {
    world: &'w HgWorld,
    engine: ScanEngine,
    ctx: PipelineContext,
    fingerprint: u64,
    bundles: Vec<SnapshotObservations>,
    expected: String,
    builder: Option<ArtifactBuilder>,
    cache: Arc<ValidationCache>,
    hits: u64,
    lookups: u64,
    interned_bytes: u64,
}

/// `observe_snapshot`, split into its simulation and scan calls so the
/// traced run can time each (spans `hgsim.endpoints`, `scanner.scan`); the
/// bundle is the one `observe_snapshot` returns.
pub fn observe_traced(
    world: &HgWorld,
    engine: &ScanEngine,
    t: usize,
    tr: &mut Tracer,
) -> Option<SnapshotObservations> {
    if !tr.is_on() {
        return observe_snapshot(world, engine, t);
    }
    if !covers_snapshot(engine, t) {
        return None;
    }
    let n = world.n_snapshots();
    let eps = tr.span("hgsim.endpoints", |_| world.endpoints(t));
    let (cert, interner, http80, https443) = tr.span("scanner.scan", |_| {
        let cert = scan_certificates(&eps, engine, world.snapshot_date(t), n);
        let mut interner = intern::Interner::default();
        let http80 = scan_http_headers(&eps, engine, 80, n, &mut interner);
        let https443 = scan_http_headers(&eps, engine, 443, n, &mut interner);
        (cert, interner, http80, https443)
    });
    Some(SnapshotObservations {
        cert,
        http80,
        https443,
        interner,
        ip_to_as: world.ip_to_as(t),
        snapshot_idx: t,
    })
}

pub fn setup<'w>(world: &'w HgWorld, tr: &mut Tracer) -> Box<dyn Workload + 'w> {
    let engine = ScanEngine::rapid7();
    let config = StudyConfig::default();
    let fps = learn_reference_fingerprints(world, &engine, config.header_reference_snapshot);
    let ctx =
        PipelineContext::new(world.pki().root_store().clone(), world.org_db(), fps).with_threads(1);
    let bundles: Vec<SnapshotObservations> = (config.snapshots.0..=config.snapshots.1)
        .filter_map(|t| observe_traced(world, &engine, t, tr))
        .collect();
    Box::new(Study {
        world,
        fingerprint: artifact_fingerprint(world, &engine, &config),
        engine,
        ctx,
        bundles,
        expected: String::new(),
        builder: None,
        cache: Arc::new(ValidationCache::new()),
        hits: 0,
        lookups: 0,
        interned_bytes: 0,
    })
}

impl Workload for Study<'_> {
    fn pass_len(&self) -> usize {
        self.bundles.len()
    }

    fn threads(&self) -> usize {
        1
    }

    fn reference(&mut self) {
        let series = run_study(self.world, &self.engine, &StudyConfig::default());
        self.expected = offnet_bench::render_study(&series);
    }

    fn begin_pass(&mut self) {
        self.cache = Arc::new(ValidationCache::new());
        self.ctx.validation_cache = Some(self.cache.clone());
        self.builder = Some(ArtifactBuilder::new(
            self.engine.id,
            self.ctx.header_fps.clone(),
            self.fingerprint,
        ));
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) {
        let obs = &self.bundles[i];
        let ctx = &self.ctx;
        let result = if tr.is_on() {
            let corpus = tr.span("corpus.build", |_| {
                SnapshotCorpus::build(
                    obs,
                    &ctx.roots,
                    &standard_validate_options(),
                    ctx.validation_cache.as_deref(),
                )
            });
            self.interned_bytes += corpus.memory.interned_bytes as u64;
            tr.span("pipeline.stages", |_| process_corpus(&corpus, ctx))
        } else {
            process_snapshot(obs, ctx)
        };
        let builder = self.builder.as_mut().expect("pass begun");
        tr.span("artifact.fold", |_| {
            builder.push_snapshot(result, |ip| obs.ip_to_as.lookup(ip).to_vec())
        });
    }

    fn check(&mut self, _i: usize) -> bool {
        true
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> bool {
        if tr.is_on() {
            let stats = self.cache.stats();
            self.hits += stats.hits;
            self.lookups += stats.hits + stats.misses();
            // The §4.1 call `SnapshotCorpus::build` makes, on the same
            // records in the same order, against a fresh shadow cache: it
            // sees the hits the pass's ops saw.
            let shadow = ValidationCache::new();
            for obs in &self.bundles {
                let at = obs.cert.date.midnight().plus_seconds(12 * 3600);
                let roots = &self.ctx.roots;
                tr.span("validate", |_| {
                    std::hint::black_box(validate_records_cached(
                        &obs.cert.records,
                        roots,
                        at,
                        &standard_validate_options(),
                        &shadow,
                    ))
                });
            }
        }
        let (series, _) = self.builder.take().expect("pass begun").finish();
        offnet_bench::render_study(&series) == self.expected
    }

    fn layers(&self, t: &TraceSummary, m: &mut LayerMetrics) {
        let validate = t.ms_per_op("validate");
        let build = t.ms_per_op("corpus.build");
        m.set("validate.ms", validate);
        m.set(
            "validate.cache_hit_ratio",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
        m.set("corpus.build_ms", build);
        m.set("corpus.intern_ms", build - validate);
        m.set(
            "corpus.interned_kib",
            self.interned_bytes as f64 / 1024.0 / t.ops as f64,
        );
        m.set("pipeline.stages_ms", t.ms_per_op("pipeline.stages"));
        m.set("artifact.fold_ms", t.ms_per_op("artifact.fold"));
        m.set("hgsim.endpoints_ms", t.ms_per_span("hgsim.endpoints"));
        m.set("scanner.scan_ms", t.ms_per_span("scanner.scan"));
    }
}
