//! `append`: the monthly incremental cycle against an on-disk artifact.
//!
//! Each pass deletes the artifact, builds a fresh one-thread
//! `DeltaStudyEngine` attached to that path, and appends t = 0..30; every
//! op is one `append_snapshot` call, artifact re-persist included. The
//! engine observes each snapshot itself, so simulation is inside the op;
//! the traced run times the same simulation and scan calls separately and
//! reports the methodology remainder.
//!
//! A pass never reuses an engine: a clone shares its `Arc`'d
//! `ValidationCache`, so a repeated append would read warm; and a path
//! left over from an earlier pass would be adopted, turning appends into
//! no-ops.

use crate::study::observe_traced;
use crate::trace::Tracer;
use crate::{LayerMetrics, TraceSummary, Workload};
use hgsim::HgWorld;
use offnet_core::{run_study, DeltaStudyEngine, StudyArtifact, StudyConfig};
use scanner::ScanEngine;
use std::path::{Path, PathBuf};

pub struct Append<'w> {
    world: &'w HgWorld,
    config: StudyConfig,
    path: PathBuf,
    engine: Option<DeltaStudyEngine<'w>>,
    expected: String,
    appended: bool,
    /// Traced-run totals.
    hgs: (u64, u64),
    cells: (u64, u64),
    chains: (u64, u64),
    size_bytes: u64,
}

fn fresh_engine<'w>(world: &'w HgWorld, config: &StudyConfig, path: &Path) -> DeltaStudyEngine<'w> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot delete {}: {e}", path.display()),
    }
    DeltaStudyEngine::new(world, ScanEngine::rapid7(), config)
        .with_artifact(path)
        .expect("a missing artifact path starts a fresh artifact")
}

/// Set-up is everything before the first append: the world (timed by the
/// caller) and the first pass's engine.
pub fn setup<'w>(world: &'w HgWorld, work: &Path) -> Box<dyn Workload + 'w> {
    let config = StudyConfig::default();
    let path = work.join("append.offna");
    let engine = fresh_engine(world, &config, &path);
    Box::new(Append {
        world,
        config,
        path,
        engine: Some(engine),
        expected: String::new(),
        appended: false,
        hgs: (0, 0),
        cells: (0, 0),
        chains: (0, 0),
        size_bytes: 0,
    })
}

impl Workload for Append<'_> {
    fn pass_len(&self) -> usize {
        self.config.snapshots.1 - self.config.snapshots.0 + 1
    }

    fn threads(&self) -> usize {
        1
    }

    fn reference(&mut self) {
        let series = run_study(self.world, &ScanEngine::rapid7(), &self.config);
        self.expected = offnet_bench::render_study(&series);
    }

    fn begin_pass(&mut self) {
        // Drop the previous pass's engine before deleting its artifact.
        self.engine = None;
        self.engine = Some(fresh_engine(self.world, &self.config, &self.path));
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) {
        let engine = self.engine.as_mut().expect("pass begun");
        let t = self.config.snapshots.0 + i;
        self.appended = tr.span("delta.append", |_| engine.append_snapshot(t));
    }

    fn check(&mut self, _i: usize) -> bool {
        self.appended
    }

    fn end_pass(&mut self, tr: &mut Tracer) -> bool {
        if tr.is_on() {
            let engine = self.engine.as_ref().expect("pass begun");
            for report in engine.reports() {
                self.hgs.0 += report.hgs_replayed as u64;
                self.hgs.1 += report.hgs_total as u64;
                self.cells.0 += report.cells_replayed as u64;
                self.cells.1 += report.cells_total() as u64;
                self.chains.0 += report.chains_replayed;
                self.chains.1 += report.chains_replayed + report.chains_revalidated;
            }
            // The simulation and scan each append ran internally, repeated
            // on their own so the methodology share can be separated.
            let scan_engine = ScanEngine::rapid7();
            for t in self.config.snapshots.0..=self.config.snapshots.1 {
                std::hint::black_box(observe_traced(self.world, &scan_engine, t, tr));
            }
        }
        self.size_bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        match StudyArtifact::load(&self.path) {
            Ok(artifact) => offnet_bench::render_study(&artifact.to_series()) == self.expected,
            Err(e) => {
                eprintln!("append: artifact does not load: {e}");
                false
            }
        }
    }

    fn layers(&self, t: &TraceSummary, m: &mut LayerMetrics) {
        let ratio = |(a, b): (u64, u64)| a as f64 / b.max(1) as f64;
        let append = t.ms_per_op("delta.append");
        let endpoints = t.ms_per_op("hgsim.endpoints");
        let scan = t.ms_per_op("scanner.scan");
        m.set("delta.append_ms", append);
        m.set("delta.methodology_ms", append - endpoints - scan);
        m.set("delta.hgs_replayed_ratio", ratio(self.hgs));
        m.set("delta.cells_replayed_ratio", ratio(self.cells));
        m.set("validate.chains_replayed_ratio", ratio(self.chains));
        m.set("hgsim.endpoints_ms", endpoints);
        m.set("scanner.scan_ms", scan);
        m.set("artifact.write_kib", t.write_kib_per_op);
        m.set("artifact.size_kib", self.size_bytes as f64 / 1024.0);
    }
}
