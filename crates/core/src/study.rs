//! Longitudinal study driver: the full 2013-10 … 2021-04 analysis over one
//! scan engine, including the §6.2 Netflix restorations.
//!
//! One driver runs every study: [`StudyMode`] schedules the snapshots,
//! `sharding` keeps each corpus in memory or spills it, and
//! `artifact_out` appends each snapshot to a study log
//! ([`crate::artifact`]) that a relaunched study resumes from. Every
//! snapshot goes through one per-snapshot step and one record path, so
//! rendered output is byte-identical across all of these options.

use crate::artifact::{artifact_fingerprint, ArtifactBuilder};
use crate::codec::ArtifactError;
use crate::confirm::ConfirmMode;
use crate::errors::DataQualityReport;
use crate::headers::{
    learn_header_fingerprints_from_tallies, GlobalHeaderStats, HeaderFingerprints,
};
use crate::parallel::{bounded_pipeline, isolate};
use crate::pipeline::{process_snapshot, PipelineContext, SnapshotResult};
use crate::shard::{process_snapshot_sharded, ShardingConfig};
use crate::validation_cache::ValidationCache;
use hgsim::{Hg, HgWorld, ALL_HGS};
use intern::Interner;
use netsim::AsId;
use scanner::{covers_snapshot, for_each_chunk, observe_snapshot, HttpScanStream, ScanEngine};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// How a study schedules its snapshots. Both modes render
/// byte-identically and write the same study log bytes; they trade
/// memory for time. In either mode a snapshot whose computation panics
/// twice degrades to an empty placeholder instead of aborting the study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StudyMode {
    /// One snapshot at a time with no cross-snapshot state: the smallest
    /// memory footprint.
    #[default]
    Sequential,
    /// Snapshots fan out across `workers` threads sharing one
    /// [`ValidationCache`], whose skeleton replay is the cross-snapshot
    /// reuse. With one worker the snapshots run in order and the shard
    /// pool keeps its own width.
    Parallel { workers: usize },
}

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Snapshot at which header fingerprints are learned (the paper uses
    /// September 2020 on-net scans; index 28 = 2020-10).
    pub header_reference_snapshot: usize,
    pub confirm_mode: ConfirmMode,
    pub candidate_options: crate::candidates::CandidateOptions,
    /// Inclusive snapshot range to process.
    pub snapshots: (usize, usize),
    /// How snapshots are scheduled.
    pub mode: StudyMode,
    /// When set, snapshots are processed through the streaming sharded
    /// pipeline ([`crate::shard`]): bounded peak memory, spilled segments,
    /// byte-identical rendered output. Shard freezing fans out over the
    /// config's `workers` (default: the context's thread count) with at
    /// most `depth` =
    /// [`pipeline_depth`](crate::parallel::pipeline_depth)`(workers)`
    /// shards in flight, so peak memory stays at `depth × shard` and the
    /// output is byte-identical at any worker count.
    pub sharding: Option<ShardingConfig>,
    /// When set, the study log at this path ([`crate::artifact`]): every
    /// mode appends one record per snapshot as it completes, and a
    /// relaunched study adopts the records already there.
    pub artifact_out: Option<PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            header_reference_snapshot: 28,
            confirm_mode: ConfirmMode::HttpOrHttps,
            candidate_options: Default::default(),
            snapshots: (0, 30),
            mode: StudyMode::Sequential,
            sharding: None,
            artifact_out: None,
        }
    }
}

/// What stops a study: a study log or corpus segment that could not be
/// read or written. Each message carries its own remedy.
pub type StudyError = ArtifactError;

/// The §6.2 Netflix footprint variants, per snapshot.
#[derive(Debug, Clone, Default)]
pub struct NetflixVariants {
    /// Standard pipeline output.
    pub initial: Vec<usize>,
    /// Expired default certificates restored.
    pub with_expired: Vec<usize>,
    /// Additionally restoring IPs that previously served Netflix
    /// certificates and now answer only on HTTP.
    pub with_non_tls: Vec<usize>,
}

/// The full longitudinal result for one engine.
#[derive(Debug)]
pub struct StudySeries {
    pub engine: scanner::EngineId,
    /// One entry per processed snapshot, in order.
    pub snapshots: Vec<SnapshotResult>,
    pub netflix: NetflixVariants,
    /// The header fingerprints the study ran with.
    pub header_fps: HeaderFingerprints,
}

impl StudySeries {
    /// Confirmed AS counts per snapshot for one HG, without allocating.
    pub fn confirmed_counts(&self, hg: Hg) -> impl Iterator<Item = usize> + '_ {
        self.snapshots
            .iter()
            .map(move |s| s.per_hg[&hg].confirmed_ases.len())
    }

    /// Certificate-only (candidate) AS counts per snapshot for one HG,
    /// without allocating.
    pub fn candidate_counts(&self, hg: Hg) -> impl Iterator<Item = usize> + '_ {
        self.snapshots
            .iter()
            .map(move |s| s.per_hg[&hg].candidate_ases.len())
    }

    /// [`Self::confirmed_counts`] collected into a `Vec`.
    pub fn confirmed_series(&self, hg: Hg) -> Vec<usize> {
        self.confirmed_counts(hg).collect()
    }

    /// [`Self::candidate_counts`] collected into a `Vec`.
    pub fn candidate_series(&self, hg: Hg) -> Vec<usize> {
        self.candidate_counts(hg).collect()
    }

    /// Confirmed AS set at a snapshot offset.
    pub fn confirmed_at(&self, hg: Hg, idx: usize) -> &BTreeSet<AsId> {
        &self.snapshots[idx].per_hg[&hg].confirmed_ases
    }

    /// The study-wide data-quality report: every snapshot's report merged
    /// (counts summed, degradation notes collected).
    pub fn aggregate_quality(&self) -> DataQualityReport {
        let mut merged = DataQualityReport::default();
        for snap in &self.snapshots {
            merged.merge(&snap.quality);
        }
        merged
    }
}

/// One [`DeltaStudyEngine`] append's reuse accounting: its §4.1 work
/// split from the shared [`ValidationCache`]. Every snapshot runs every
/// HG's §4.2–§4.5 stages, so the cache's skeleton replay is the only
/// cross-snapshot reuse. Reports live *beside* the series, never inside
/// it or the study log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    pub snapshot_idx: usize,
    /// Chains whose verdict replayed a cached skeleton.
    pub chains_replayed: u64,
    /// Chains verified in full (first sightings and promotions).
    pub chains_revalidated: u64,
    /// HGs per snapshot, all of them computed. Only the benchmark reads
    /// it.
    pub hgs_total: usize,
    /// Always 0: no HG result is replayed. Only the benchmark reads it.
    pub hgs_replayed: usize,
    /// Always 0: no (HG, AS) cell is replayed. Only the benchmark reads
    /// it.
    pub cells_replayed: usize,
}

impl DeltaReport {
    /// Snapshot `snapshot_idx`'s report from its cache counters.
    pub fn new(snapshot_idx: usize, chains_replayed: u64, chains_revalidated: u64) -> Self {
        Self {
            snapshot_idx,
            chains_replayed,
            chains_revalidated,
            hgs_total: ALL_HGS.len(),
            hgs_replayed: 0,
            cells_replayed: 0,
        }
    }

    /// Always 0: (HG, AS) cells are not counted. Only the benchmark
    /// reads it.
    pub fn cells_total(&self) -> usize {
        0
    }
}

/// Endpoints the reference learner scans per chunk.
const REFERENCE_CHUNK: usize = 400;

/// Learn the per-HG header fingerprints from a reference snapshot's on-net
/// banners (§4.4), using HTTPS banners where available and HTTP otherwise.
///
/// When the requested snapshot is missing from the corpus (engine coverage
/// window, or a dropped-snapshot fault), the nearest available snapshot is
/// used instead; with no observable snapshot at all, the fingerprints come
/// back empty and §4.5 simply confirms nothing.
///
/// The reference snapshot's banners are scanned in fixed-size chunks and
/// folded into per-HG and global tallies, never held as one record slice,
/// so learning streams at any world scale.
pub fn learn_reference_fingerprints(
    world: &HgWorld,
    engine: &ScanEngine,
    reference_snapshot: usize,
) -> HeaderFingerprints {
    learn_reference_fingerprints_chunked(world, engine, reference_snapshot, REFERENCE_CHUNK)
}

/// [`learn_reference_fingerprints`] at an explicit chunk size. The learned
/// fingerprints are string-typed and selection is independent of
/// interning order (pinned by the permutation property test), so the
/// result does not depend on `chunk`.
fn learn_reference_fingerprints_chunked(
    world: &HgWorld,
    engine: &ScanEngine,
    reference_snapshot: usize,
    chunk: usize,
) -> HeaderFingerprints {
    let n = world.n_snapshots();
    let t0 = reference_snapshot.min(n - 1);
    // Spiral outward from the requested index: t0, t0-1, t0+1, t0-2, …
    // (earlier-first keeps the learned set closest to the paper's
    // September-2020 reference when the exact month is missing).
    let mut spiral = std::iter::once(t0).chain(
        (1..n)
            .flat_map(|d| [t0.checked_sub(d), Some(t0 + d).filter(|&t| t < n)])
            .flatten(),
    );
    let Some(t) = spiral.find(|&t| covers_snapshot(engine, t)) else {
        return HeaderFingerprints::default();
    };
    let mut fps = HeaderFingerprints::default();
    let Some(mut stream) =
        HttpScanStream::new(engine, t, 443, n).or_else(|| HttpScanStream::new(engine, t, 80, n))
    else {
        return fps;
    };

    let ip_to_as = world.ip_to_as(t);
    let hg_ases: Vec<(Hg, HashSet<AsId>)> = ALL_HGS
        .iter()
        .map(|&hg| {
            (
                hg,
                world
                    .org_db()
                    .ases_matching(hg.spec().keyword)
                    .into_iter()
                    .collect(),
            )
        })
        .collect();

    // One persistent interner across chunks keeps symbols consistent for
    // the cross-chunk tallies.
    let mut interner = Interner::default();
    let mut global = GlobalHeaderStats::default();
    let mut onnet: Vec<GlobalHeaderStats> = vec![GlobalHeaderStats::default(); hg_ases.len()];
    for_each_chunk(world, t, chunk, |eps| {
        for r in stream.scan_chunk(eps, &mut interner).0 {
            global.absorb(&r);
            let origins = ip_to_as.lookup(r.ip);
            for ((_, ases), tally) in hg_ases.iter().zip(onnet.iter_mut()) {
                if origins.iter().any(|a| ases.contains(a)) {
                    tally.absorb(&r);
                }
            }
        }
        true
    });
    stream.finish();

    for ((hg, _), tally) in hg_ases.iter().zip(&onnet) {
        fps.insert(learn_header_fingerprints_from_tallies(
            hg.spec().keyword,
            tally,
            &global,
            &interner,
        ));
    }
    fps
}

/// Run the longitudinal study for `engine` over `world`.
///
/// Infallible form of [`try_run_study`], for configurations that touch no
/// disk; panics on a study log or segment failure.
pub fn run_study(world: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> StudySeries {
    try_run_study(world, engine, config).expect("study failed")
}

/// Run the longitudinal study for `engine` over `world` in the config's
/// [`StudyMode`]. With `artifact_out` set, the records already in the
/// study log there are adopted and only the rest is computed and
/// appended; the series is byte-identical to an uninterrupted run. Study
/// log and segment failures come back as a typed [`StudyError`].
///
/// Both modes run one loop: the pending snapshots go through one
/// [`bounded_pipeline`] (one worker, its inline case, unless the mode is
/// [`StudyMode::Parallel`] with more), each one computed by the
/// panic-isolated per-snapshot step, and the record path takes each in
/// snapshot order as soon as its predecessors are recorded. A killed run
/// keeps every record made so far, and a failure is raised in snapshot
/// order after every earlier snapshot was recorded.
pub fn try_run_study(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
) -> Result<StudySeries, StudyError> {
    let mut driver = Driver::new(world, engine.clone(), config)?;
    let workers = match config.mode {
        StudyMode::Parallel { workers } => workers,
        StudyMode::Sequential => 1,
    };
    let Driver {
        step,
        builder,
        adopted,
        range,
    } = &mut driver;
    bounded_pipeline(
        workers,
        |push| {
            for t in range.clone().filter(|t| !adopted.contains_key(t)) {
                if !push(t) {
                    break;
                }
            }
            Ok(())
        },
        // The step's error waits for the fold, so that it is raised in
        // snapshot order.
        |_, t| Ok((t, step.run(t))),
        |_, (t, result)| step.record(builder, t, result?, None).map(drop),
    )?;
    Ok(driver.finish())
}

/// The one study driver behind [`try_run_study`] and
/// [`DeltaStudyEngine`]: per-snapshot computation ([`Step::run`]) and
/// the record path ([`Step::record`]) both modes share.
#[derive(Clone)]
struct Driver<'w> {
    step: Step<'w>,
    /// Results, fold state, reuse reports, and the open study log.
    builder: ArtifactBuilder,
    /// Snapshots adopted from the study log, with whether each was
    /// processed; never recomputed.
    adopted: BTreeMap<usize, bool>,
    range: std::ops::RangeInclusive<usize>,
}

/// What the per-snapshot step reads, shared by every worker.
#[derive(Clone)]
struct Step<'w> {
    world: &'w HgWorld,
    engine: ScanEngine,
    /// The per-snapshot context (a one-worker shard pool under a
    /// several-worker `Parallel`, whose workers are the snapshots).
    ctx: PipelineContext,
    sharding: Option<ShardingConfig>,
}

impl<'w> Driver<'w> {
    fn new(
        world: &'w HgWorld,
        engine: ScanEngine,
        config: &StudyConfig,
    ) -> Result<Self, StudyError> {
        let header_fps =
            learn_reference_fingerprints(world, &engine, config.header_reference_snapshot);
        let mut ctx = PipelineContext::new(
            world.pki().root_store().clone(),
            world.org_db(),
            header_fps.clone(),
        );
        ctx.candidate_options = config.candidate_options.clone();
        ctx.confirm_mode = config.confirm_mode;
        if let StudyMode::Parallel { workers } = config.mode {
            if workers > 1 {
                ctx = ctx.with_threads(1);
            }
            ctx = ctx.with_validation_cache(Arc::new(ValidationCache::new()));
        }

        let mut driver = Self {
            builder: ArtifactBuilder::new(
                engine.id,
                header_fps,
                artifact_fingerprint(world, &engine, config),
            ),
            step: Step {
                world,
                engine,
                ctx,
                sharding: config.sharding.clone(),
            },
            adopted: BTreeMap::new(),
            range: config.snapshots.0..=config.snapshots.1.min(world.n_snapshots() - 1),
        };
        if let Some(path) = &config.artifact_out {
            driver.open_log(path.clone())?;
        }
        Ok(driver)
    }

    /// Open the study log at `path` and adopt its records for this run's
    /// range: results and fold state.
    fn open_log(&mut self, path: PathBuf) -> Result<(), StudyError> {
        let adopted = self.builder.open_log(path, self.range.clone())?;
        self.adopted = adopted
            .into_iter()
            .map(|a| (a.snapshot_idx, a.processed))
            .collect();
        Ok(())
    }

    fn finish(self) -> StudySeries {
        self.builder.finish().0
    }
}

impl Step<'_> {
    /// The per-snapshot step every mode runs: the §4 pipeline over
    /// snapshot `t`, in memory or sharded, with panic isolation (see
    /// [`isolated`]). `None` when the corpus misses `t`.
    fn run(&self, t: usize) -> Result<Option<SnapshotResult>, StudyError> {
        isolated(t, || {
            if let Some(sharding) = &self.sharding {
                return process_snapshot_sharded(self.world, &self.engine, t, &self.ctx, sharding);
            }
            Ok(observe_snapshot(self.world, &self.engine, t)
                .map(|obs| process_snapshot(&obs, &self.ctx)))
        })
    }

    /// The record path both modes share: the §6.2 fold, the reuse
    /// report (kept beside the series, never in the log), and one
    /// appended log record — a skip marker for an uncovered snapshot,
    /// keeping the log's snapshots consecutive. Returns whether the
    /// corpus covered `t`.
    fn record(
        &self,
        builder: &mut ArtifactBuilder,
        t: usize,
        result: Option<SnapshotResult>,
        report: Option<DeltaReport>,
    ) -> Result<bool, StudyError> {
        let Some(result) = result else {
            builder.record_skip(t)?;
            return Ok(false);
        };
        let ip_to_as = self.world.ip_to_as(t);
        builder.record(t, result, report, |ip| ip_to_as.lookup(ip).to_vec())?;
        Ok(true)
    }
}

/// Run snapshot `t`'s `compute` with panic isolation: a panic is retried
/// once, and a second one degrades the snapshot to an empty placeholder
/// carrying the panic message instead of ending the study.
fn isolated(
    t: usize,
    compute: impl Fn() -> Result<Option<SnapshotResult>, StudyError>,
) -> Result<Option<SnapshotResult>, StudyError> {
    isolate(1, compute).unwrap_or_else(|message| Ok(Some(SnapshotResult::degraded(t, message))))
}

/// The snapshot-at-a-time form of `StudyMode::Parallel { workers: 1 }`:
/// each append observes one snapshot, runs the per-snapshot step both
/// modes run, folds the result in, and appends its record to the study
/// log when one is open. The shared [`ValidationCache`] carries verdicts
/// from one append to the next, and each computed covered snapshot
/// leaves a [`DeltaReport`]. The config's `mode` is ignored; everything
/// else applies as in [`try_run_study`].
#[derive(Clone)]
pub struct DeltaStudyEngine<'w>(Driver<'w>);

impl<'w> DeltaStudyEngine<'w> {
    /// Infallible form of [`Self::try_new`]; panics when the config's
    /// study log is unusable.
    pub fn new(world: &'w HgWorld, engine: ScanEngine, config: &StudyConfig) -> Self {
        Self::try_new(world, engine, config).expect("study log unusable")
    }

    /// Build the engine, adopting the records of the config's study log
    /// (when `artifact_out` is set).
    pub fn try_new(
        world: &'w HgWorld,
        engine: ScanEngine,
        config: &StudyConfig,
    ) -> Result<Self, StudyError> {
        let config = StudyConfig {
            mode: StudyMode::Parallel { workers: 1 },
            ..config.clone()
        };
        Driver::new(world, engine, &config).map(Self)
    }

    /// Open the study log at `path` for this engine to append to, in
    /// place of any log the config named; call it before the first
    /// append. A missing file starts a log with just its header. The
    /// records of an existing log (written under the same config
    /// fingerprint) are adopted: appends for those snapshots return the
    /// recorded outcome without recomputing, and later appends extend the
    /// log. A mismatched or damaged log is a typed [`ArtifactError`]. The
    /// validation cache starts empty, so the first live append after
    /// adoption verifies its chains in full.
    pub fn with_artifact(mut self, path: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        self.0.open_log(path.into())?;
        Ok(self)
    }

    /// Observe and process snapshot `t`. Returns `false` (recording only
    /// a skip marker) when the engine's corpus does not cover `t` — the
    /// same snapshots `run_study` skips.
    ///
    /// Infallible form of [`Self::try_append_snapshot`], for engines that
    /// touch no disk; panics on a study log or segment failure.
    pub fn append_snapshot(&mut self, t: usize) -> bool {
        self.try_append_snapshot(t).expect("study snapshot failed")
    }

    /// [`Self::append_snapshot`] with persistence failures surfaced. The
    /// snapshot's record is appended to the open study log, if any;
    /// appends for snapshots adopted from the log return their recorded
    /// outcome without recomputing. A computed covered snapshot's reuse
    /// report, the cache counters' change across its step, joins
    /// [`Self::reports`].
    pub fn try_append_snapshot(&mut self, t: usize) -> Result<bool, StudyError> {
        if let Some(&processed) = self.0.adopted.get(&t) {
            return Ok(processed);
        }
        let (hits, misses) = self.cache().hit_stats();
        let result = self.0.step.run(t)?;
        let (hits_after, misses_after) = self.cache().hit_stats();
        let report = DeltaReport::new(t, hits_after - hits, misses_after - misses);
        let Driver { step, builder, .. } = &mut self.0;
        step.record(builder, t, result, Some(report))
    }

    /// Reuse reports so far: one per covered snapshot this engine
    /// computed, none for the snapshots it adopted.
    pub fn reports(&self) -> &[DeltaReport] {
        self.0.builder.reports()
    }

    /// The shared §4.1 validation cache (for its lifetime counters).
    pub fn cache(&self) -> &ValidationCache {
        self.0
            .step
            .ctx
            .validation_cache
            .as_deref()
            .expect("the engine's `Parallel` driver always validates through a cache")
    }

    /// The study so far. Every append already reached the log, so nothing
    /// is written here.
    pub fn finish(self) -> StudySeries {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::pipeline_depth;
    use hgsim::ScenarioConfig;
    use std::sync::OnceLock;

    fn study() -> &'static StudySeries {
        static S: OnceLock<StudySeries> = OnceLock::new();
        S.get_or_init(|| {
            let world = HgWorld::generate(ScenarioConfig::small());
            run_study(&world, &ScanEngine::rapid7(), &StudyConfig::default())
        })
    }

    /// The streaming learner's output must not depend on its chunk size:
    /// one endpoint per chunk, the default, and one whole snapshot.
    #[test]
    fn reference_learner_is_chunk_invariant() {
        let world = HgWorld::generate(ScenarioConfig::small());
        let engine = ScanEngine::rapid7();
        let sorted = |chunk: usize| {
            let fps = learn_reference_fingerprints_chunked(&world, &engine, 28, chunk);
            let mut v: Vec<_> = fps.iter().cloned().collect();
            v.sort_by(|a, b| a.keyword.cmp(&b.keyword));
            v
        };
        let reference = sorted(REFERENCE_CHUNK);
        assert!(reference.iter().any(|fp| !fp.is_empty()), "learned nothing");
        assert_eq!(sorted(1), reference, "chunk size 1");
        assert_eq!(sorted(usize::MAX), reference, "one whole snapshot");
    }

    /// Every schedule records as the parallel one always did: when
    /// snapshot 5's segment directory cannot be made, the run fails typed,
    /// the log holds exactly the records of snapshots 0..=4, and no worker
    /// ran further ahead of the record path than the pipeline depth (one
    /// worker, not at all).
    #[test]
    fn parallel_mode_records_until_the_first_failure() {
        let world = HgWorld::generate(ScenarioConfig::small());
        for (mode, ahead) in [
            (StudyMode::Parallel { workers: 2 }, pipeline_depth(2)),
            (StudyMode::Sequential, 0),
            (StudyMode::Parallel { workers: 1 }, 0),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("offnet-study-fail-{}-{mode:?}", std::process::id()));
            let spill = dir.join("spill");
            std::fs::create_dir_all(&spill).unwrap();
            std::fs::write(spill.join("t0005"), b"a file where a segment dir goes").unwrap();
            let log = dir.join("study.offna");
            let config = StudyConfig {
                mode,
                snapshots: (0, 12),
                sharding: Some(ShardingConfig::new(400, &spill)),
                artifact_out: Some(log.clone()),
                ..Default::default()
            };
            let err = match try_run_study(&world, &ScanEngine::rapid7(), &config) {
                Ok(_) => panic!("a study whose segment dir is a file succeeded"),
                Err(e) => e,
            };
            assert!(matches!(err, ArtifactError::Io { .. }), "{mode:?}: {err}");
            let recorded: Vec<usize> = crate::artifact::StudyArtifact::load(&log)
                .unwrap()
                .snapshots
                .iter()
                .map(|s| s.snapshot_idx)
                .collect();
            assert_eq!(recorded, (0..5).collect::<Vec<_>>(), "{mode:?}");
            for entry in std::fs::read_dir(&spill).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                let t: usize = name.trim_start_matches('t').parse().unwrap();
                assert!(t <= 5 + ahead, "{mode:?}: {name} computed");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A snapshot whose step panics on both attempts degrades to a
    /// placeholder that carries the message, whichever mode runs it.
    #[test]
    fn a_panicking_snapshot_degrades_instead_of_ending_the_study() {
        let degraded = isolated(7, || panic!("shard worker panicked"))
            .unwrap()
            .unwrap();
        assert_eq!(degraded.snapshot_idx, 7);
        assert_eq!(
            degraded.quality.degraded_snapshot.as_deref(),
            Some("shard worker panicked")
        );
    }

    #[test]
    fn series_covers_all_snapshots() {
        let s = study();
        assert_eq!(s.snapshots.len(), 31);
        assert_eq!(s.netflix.initial.len(), 31);
    }

    #[test]
    fn google_grows_roughly_3x() {
        let s = study();
        let series = s.confirmed_series(Hg::Google);
        let (start, end) = (series[0] as f64, series[30] as f64);
        assert!(start > 0.0);
        let growth = end / start;
        assert!((2.5..5.0).contains(&growth), "growth {growth}");
    }

    #[test]
    fn akamai_peaks_then_declines() {
        let s = study();
        let series = s.confirmed_series(Hg::Akamai);
        let peak = *series.iter().max().unwrap();
        let peak_idx = series.iter().position(|v| *v == peak).unwrap();
        assert!((12..26).contains(&peak_idx), "peak at {peak_idx}");
        assert!(series[30] < peak, "no decline: {} vs {peak}", series[30]);
    }

    #[test]
    fn facebook_zero_before_launch() {
        let s = study();
        let series = s.confirmed_series(Hg::Facebook);
        assert!(series[..10].iter().all(|v| *v <= 1), "{series:?}");
        assert!(series[30] > series[15]);
    }

    #[test]
    fn netflix_envelope_ordering() {
        let s = study();
        for t in 0..31 {
            assert!(
                s.netflix.initial[t] <= s.netflix.with_expired[t],
                "t={t}: initial {} > with_expired {}",
                s.netflix.initial[t],
                s.netflix.with_expired[t]
            );
            assert!(
                s.netflix.with_expired[t] <= s.netflix.with_non_tls[t],
                "t={t}"
            );
        }
        // Inside the expired window the envelope gap must be substantial.
        let t = 18;
        assert!(
            s.netflix.with_expired[t] > s.netflix.initial[t] * 2,
            "no expired-restoration effect at t={t}: {} vs {}",
            s.netflix.with_expired[t],
            s.netflix.initial[t]
        );
        // The non-TLS restoration must add ASes during the HTTP window.
        assert!(
            s.netflix.with_non_tls[t] > s.netflix.with_expired[t],
            "non-TLS restoration added nothing at t={t}"
        );
    }

    #[test]
    fn candidates_superset_of_confirmed() {
        let s = study();
        for snap in &s.snapshots {
            for hg in hgsim::TOP4 {
                let r = &snap.per_hg[&hg];
                assert!(
                    r.confirmed_ases.is_subset(&r.candidate_ases),
                    "{hg} at {}",
                    snap.snapshot_idx
                );
            }
        }
    }
}
