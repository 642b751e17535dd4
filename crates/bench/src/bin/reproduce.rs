//! Reproduce every table and figure of "Seven Years in the Life of
//! Hypergiants' Off-Nets" (SIGCOMM 2021) against the simulated Internet.
//!
//! Usage:
//!   reproduce [--scale small|paper|large] [--seed N] [--csv DIR]
//!             [--threads N] [--sequential] [--incremental]
//!             [--fault-rate R] [--fault-seed N] [--transient-rate R]
//!             [--shard-size N] [--spill-dir DIR] [--artifact-out DIR]
//!             [--no-resume] <experiment|all>
//!
//! With `--csv DIR`, figure series are additionally written as CSV files
//! for external plotting. `--sequential`, `--threads N` and
//! `--incremental` choose the study mode (the last one given wins).
//! Studies run in the snapshot-parallel mode with a shared
//! certificate-validation cache by default; `--threads N` pins its worker
//! count (default: available parallelism, or `OFFNET_THREADS`) and
//! `--sequential` selects the one-snapshot-at-a-time uncached mode.
//!
//! `--incremental` selects the incremental mode instead: snapshots are
//! appended one at a time, each through the same per-snapshot step, with
//! one validation cache shared across them. The rendered artifacts are
//! byte-identical in every mode (pinned by `tests/incremental.rs` and
//! `tests/parallel.rs`); the `quality` experiment additionally prints the
//! per-snapshot chain-reuse accounting.
//!
//! `--fault-rate R` corrupts the study scans with every record-level fault
//! class at rate R (seeded by `--fault-seed`, default 1); the `quality`
//! experiment then reports what the pipeline quarantined.
//!
//! `--transient-rate R` makes scan connections fail transiently at rate R
//! (timeouts, connection resets, rate limiting — seeded by `--fault-seed`),
//! exercising the deterministic retry/backoff layer and the per-AS circuit
//! breakers; the `quality` experiment prints the scan-health accounting.
//! At rate 0 the rendered output is byte-identical to a run without the
//! flag.
//!
//! Experiments: table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//! fig9 fig10 fig11 fig12 fig13 fig14 certlifetimes validate ablation
//! baselines quality
//! hideandseek
//!
//! `--shard-size N` routes every study through the streaming sharded
//! pipeline: snapshots are scanned in N-endpoint chunks, each chunk's
//! corpus is frozen into a checksummed segment under `--spill-dir`
//! (default: a per-user temp directory) and dropped, so peak memory is
//! bounded by the shard — the requirement for `--scale large`, whose
//! snapshots do not fit in memory at once. Rendered output is
//! byte-identical to the in-memory path (pinned by `tests/sharded.rs`),
//! and a rerun over the same spill directory reuses valid segments
//! instead of rescanning.
//!
//! `--artifact-out DIR` keeps each study in a study log at
//! `DIR/<engine>.offna`: one checksummed record is appended per snapshot
//! as it completes, in every study mode, and a rerun over the same `DIR`
//! adopts the records already there — so a killed run continues where it
//! stopped, byte-identical to an uninterrupted one. `--no-resume` resets
//! each log to a fresh header first. Rendering a loaded log is
//! byte-identical to rendering the live study (pinned by
//! `tests/study_log.rs`), and `offnet-query` serves footprint queries
//! straight from the file. A study log or segment failure ends the run
//! with the typed error's message and exit status 2.
//!
//! `corpus-stats` prints the interned-corpus memory accounting,
//! `cache-stats` the validation-cache reuse counters,
//! and `shard-stats` the sharded pipeline's per-segment spill ledger;
//! all three are pipeline diagnostics, deliberately not included in
//! `all`.

use analysis::render::{pct, snapshot_label, table};
use analysis::{coverage, demographics, overlap, regions as regions_mod, series as series_mod};
use hgsim::{Hg, HgWorld, ScenarioConfig, TOP4};
use offnet_core::candidates::CandidateOptions;
use offnet_core::study::learn_reference_fingerprints;
use offnet_core::{
    default_thread_count, run_study, try_run_study, DeltaStudyEngine, PipelineContext, StudyConfig,
    StudyMode, StudySeries,
};
use scanner::ScanEngine;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Instant;

struct Cli {
    scale: String,
    seed: u64,
    csv_dir: Option<std::path::PathBuf>,
    mode: StudyMode,
    fault_rate: f64,
    fault_seed: u64,
    transient_rate: f64,
    resume: bool,
    shard_size: Option<usize>,
    spill_dir: Option<std::path::PathBuf>,
    artifact_out: Option<std::path::PathBuf>,
    experiments: Vec<String>,
}

/// The single source of truth for `--scale`, used by every world
/// construction site.
fn parse_scale(scale: &str, seed: u64) -> ScenarioConfig {
    match scale {
        "small" => ScenarioConfig::small().with_seed(seed),
        "paper" => ScenarioConfig::paper().with_seed(seed),
        "large" => ScenarioConfig::large().with_seed(seed),
        other => panic!("unknown scale {other:?} (use small|paper|large)"),
    }
}

fn parse_args() -> Cli {
    let mut scale = "paper".to_owned();
    let mut seed = 7u64;
    let mut csv_dir = None;
    let mut mode = StudyMode::Parallel {
        workers: default_thread_count(),
    };
    let mut fault_rate = 0.0f64;
    let mut fault_seed = 1u64;
    let mut transient_rate = 0.0f64;
    let mut resume = true;
    let mut shard_size = None;
    let mut spill_dir = None;
    let mut artifact_out = None;
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.next().expect("--scale needs a value"),
            "--csv" => {
                csv_dir = Some(std::path::PathBuf::from(
                    args.next().expect("--csv needs a directory"),
                ))
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer")
            }
            "--threads" => {
                let workers: usize = args
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("threads must be an integer");
                mode = StudyMode::Parallel {
                    workers: workers.max(1),
                };
            }
            "--sequential" => mode = StudyMode::Sequential,
            "--incremental" => mode = StudyMode::Incremental,
            "--fault-rate" => {
                fault_rate = args
                    .next()
                    .expect("--fault-rate needs a value")
                    .parse()
                    .expect("fault rate must be a float");
                assert!(
                    (0.0..=1.0).contains(&fault_rate),
                    "fault rate must be in [0, 1]"
                );
            }
            "--fault-seed" => {
                fault_seed = args
                    .next()
                    .expect("--fault-seed needs a value")
                    .parse()
                    .expect("fault seed must be an integer")
            }
            "--transient-rate" => {
                transient_rate = args
                    .next()
                    .expect("--transient-rate needs a value")
                    .parse()
                    .expect("transient rate must be a float");
                assert!(
                    (0.0..=1.0).contains(&transient_rate),
                    "transient rate must be in [0, 1]"
                );
            }
            "--no-resume" => resume = false,
            "--shard-size" => {
                let n: usize = args
                    .next()
                    .expect("--shard-size needs a value")
                    .parse()
                    .expect("shard size must be an integer");
                assert!(n > 0, "shard size must be positive");
                shard_size = Some(n);
            }
            "--spill-dir" => {
                spill_dir = Some(std::path::PathBuf::from(
                    args.next().expect("--spill-dir needs a directory"),
                ))
            }
            "--artifact-out" => {
                artifact_out = Some(std::path::PathBuf::from(
                    args.next().expect("--artifact-out needs a directory"),
                ))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--scale small|paper|large] [--seed N] [--threads N] [--sequential] [--incremental] [--fault-rate R] [--fault-seed N] [--transient-rate R] [--shard-size N] [--spill-dir DIR] [--artifact-out DIR] [--no-resume] <experiment...|all>"
                );
                std::process::exit(0);
            }
            other => experiments.push(other.to_owned()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_owned());
    }
    Cli {
        scale,
        seed,
        csv_dir,
        mode,
        fault_rate,
        fault_seed,
        transient_rate,
        resume,
        shard_size,
        spill_dir,
        artifact_out,
        experiments,
    }
}

/// Write a CSV artifact when `--csv` was given.
fn emit_csv(cli: &Cli, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let Some(dir) = &cli.csv_dir else { return };
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, analysis::render::csv(headers, rows)).expect("write csv");
    eprintln!("[reproduce] wrote {}", path.display());
}

struct Fixtures {
    world: HgWorld,
    mode: StudyMode,
    faults: Option<std::sync::Arc<scanner::FaultPlan>>,
    transients: Option<std::sync::Arc<scanner::TransientPolicy>>,
    /// False under `--no-resume`: each study log starts afresh.
    resume: bool,
    /// Streaming sharded processing for every study, when `--shard-size`
    /// was given.
    sharding: Option<offnet_core::ShardingConfig>,
    /// Keep each study's log at `DIR/<engine>.offna` when `--artifact-out`
    /// was given.
    artifact_dir: Option<std::path::PathBuf>,
    r7: OnceLock<StudySeries>,
    /// Reuse accounting for the Rapid7 study; populated only
    /// under `--incremental` (kept beside the series so rendered study
    /// artifacts stay identical across modes).
    r7_reports: OnceLock<Vec<offnet_core::DeltaReport>>,
    cs: OnceLock<StudySeries>,
    ctx: OnceLock<PipelineContext>,
}

impl Fixtures {
    fn new(cli: &Cli) -> Self {
        let config = parse_scale(&cli.scale, cli.seed);
        eprintln!(
            "[reproduce] generating world (scale={}, seed={})...",
            cli.scale, cli.seed
        );
        if cli.scale == "large" && cli.shard_size.is_none() {
            eprintln!(
                "[reproduce] note: --scale large without --shard-size holds whole snapshots in memory; consider --shard-size 100000"
            );
        }
        let faults = (cli.fault_rate > 0.0).then(|| {
            eprintln!(
                "[reproduce] injecting record faults (rate={}, seed={})",
                cli.fault_rate, cli.fault_seed
            );
            std::sync::Arc::new(scanner::FaultPlan::uniform_record_faults(
                cli.fault_seed,
                cli.fault_rate,
            ))
        });
        let transients = (cli.transient_rate > 0.0).then(|| {
            eprintln!(
                "[reproduce] injecting transient scan failures (rate={}, seed={})",
                cli.transient_rate, cli.fault_seed
            );
            std::sync::Arc::new(scanner::TransientPolicy::new(
                cli.fault_seed,
                cli.transient_rate,
            ))
        });
        let sharding = cli.shard_size.map(|size| {
            let dir = cli
                .spill_dir
                .clone()
                .unwrap_or_else(|| std::env::temp_dir().join("offnet-segments"));
            eprintln!(
                "[reproduce] streaming sharded pipeline: {size} endpoints/shard, segments under {}",
                dir.display()
            );
            offnet_core::ShardingConfig::new(size, dir)
        });
        Fixtures {
            world: HgWorld::generate(config),
            mode: cli.mode,
            faults,
            transients,
            resume: cli.resume,
            sharding,
            artifact_dir: cli.artifact_out.clone(),
            r7: OnceLock::new(),
            r7_reports: OnceLock::new(),
            cs: OnceLock::new(),
            ctx: OnceLock::new(),
        }
    }

    /// Attach the CLI-configured fault plan and transient-failure policy
    /// (if any) to a scan engine.
    fn engine(&self, base: ScanEngine) -> ScanEngine {
        let base = match &self.faults {
            Some(plan) => base.with_faults(plan.clone()),
            None => base,
        };
        match &self.transients {
            Some(policy) => base.with_transients(policy.clone()),
            None => base,
        }
    }

    fn study(
        &self,
        engine: ScanEngine,
        config: &StudyConfig,
        label: &str,
    ) -> (StudySeries, Vec<offnet_core::DeltaReport>) {
        let engine_name = engine.id.name().to_lowercase();
        let artifact_out = self
            .artifact_dir
            .as_ref()
            .map(|dir| dir.join(format!("{engine_name}.offna")));
        let config = &StudyConfig {
            mode: self.mode,
            sharding: self.sharding.clone(),
            artifact_out: artifact_out.clone(),
            ..config.clone()
        };
        if let (Some(path), false) = (&artifact_out, self.resume) {
            // The study writes a fresh header where no log exists.
            if let Err(e) = std::fs::remove_file(path) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    or_die::<(), _>(Err(format!("cannot reset {}: {e}", path.display())));
                }
            }
        }
        let start = Instant::now();
        let run = or_die(try_run_study(&self.world, &engine, config));
        let mut mode = match self.mode {
            StudyMode::Sequential => "sequential".to_owned(),
            StudyMode::Parallel { workers } => format!("{workers} threads + validation cache"),
            StudyMode::Incremental => "incremental + validation cache".to_owned(),
        };
        if let Some(s) = &self.sharding {
            mode.push_str(&format!(", sharded ({} endpoints/shard)", s.shard_size));
        }
        eprintln!(
            "[reproduce] {label} study: {:.2}s ({mode})",
            start.elapsed().as_secs_f64()
        );
        if let Some(path) = &artifact_out {
            eprintln!("[reproduce] study log {}", path.display());
        }
        (run.series, run.reports)
    }

    fn r7(&self) -> &StudySeries {
        self.r7.get_or_init(|| {
            eprintln!("[reproduce] running Rapid7 longitudinal study (31 snapshots)...");
            let (series, reports) = self.study(
                self.engine(ScanEngine::rapid7()),
                &StudyConfig::default(),
                "rapid7",
            );
            if self.mode == StudyMode::Incremental {
                let _ = self.r7_reports.set(reports);
            }
            series
        })
    }

    /// Rapid7 reuse reports (only under `--incremental`).
    fn r7_reports(&self) -> Option<&[offnet_core::DeltaReport]> {
        self.r7();
        self.r7_reports.get().map(Vec::as_slice)
    }

    fn cs(&self) -> &StudySeries {
        self.cs.get_or_init(|| {
            eprintln!("[reproduce] running Censys study (2019-10..2021-04)...");
            self.study(
                self.engine(ScanEngine::censys()),
                &StudyConfig {
                    snapshots: (24, 30),
                    ..Default::default()
                },
                "censys",
            )
            .0
        })
    }

    fn ctx(&self) -> &PipelineContext {
        self.ctx.get_or_init(|| {
            let fps = learn_reference_fingerprints(&self.world, &ScanEngine::rapid7(), 28);
            PipelineContext::new(
                self.world.pki().root_store().clone(),
                self.world.org_db(),
                fps,
            )
        })
    }
}

/// Unwrap a study result, or print the typed error (which carries its own
/// remedy: delete the log or pass `--no-resume`) and exit with a distinct
/// status.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[reproduce] study error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let cli = parse_args();
    // The kernel sets how fast §4.1 validation runs; the rendered output
    // is the same with either.
    let kernel = if sha2sim::accelerated() {
        "sha-ni"
    } else {
        "portable"
    };
    eprintln!("[reproduce] sha256 kernel: {kernel}");
    let fx = Fixtures::new(&cli);
    let all = cli.experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || cli.experiments.iter().any(|e| e == name);

    if want("table2") {
        table2(&fx);
    }
    if want("table3") {
        table3(&fx);
    }
    if want("table4") {
        table4(&fx);
    }
    if want("fig2") {
        fig2(&fx, &cli);
    }
    if want("fig3") {
        fig3(&fx, &cli);
    }
    if want("fig4") {
        fig4(&fx);
    }
    if want("fig5") {
        fig5(&fx);
    }
    if want("fig6") {
        fig6(&fx);
    }
    if want("fig7") {
        fig7(&fx);
    }
    if want("fig8") {
        fig8(&fx);
    }
    if want("fig9") {
        fig9(&fx);
    }
    if want("fig10") {
        fig10(&fx, &cli);
    }
    if want("fig11") {
        fig11(&fx);
    }
    if want("fig12") {
        fig12(&fx);
    }
    if want("fig13") {
        fig13(&fx);
    }
    if want("fig14") {
        fig14(&fx);
    }
    if want("certlifetimes") {
        certlifetimes(&fx);
    }
    if want("validate") {
        validate(&fx);
    }
    if want("ablation") {
        ablation(&fx);
    }
    if want("baselines") {
        baselines(&fx);
    }
    if want("quality") {
        quality(&fx);
    }
    if want("hideandseek") {
        hide_and_seek(&cli);
    }
    // Deliberately outside `all`: diagnostics of the pipeline itself,
    // not paper artifacts, so the canonical `all` report stays stable.
    if cli.experiments.iter().any(|e| e == "corpus-stats") {
        corpus_stats(&fx);
    }
    if cli.experiments.iter().any(|e| e == "cache-stats") {
        cache_stats(&fx);
    }
    if cli.experiments.iter().any(|e| e == "shard-stats") {
        shard_stats(&fx);
    }
}

/// Spill accounting for the streaming sharded pipeline: runs a short
/// Rapid7 study through bounded-memory segments regardless of
/// `--shard-size` (which, when given, supplies the shard size and spill
/// directory), then prints the per-segment ledger. Run explicitly with
/// `reproduce shard-stats`.
fn shard_stats(fx: &Fixtures) {
    heading("Streaming sharded pipeline: segment spill accounting (Rapid7)");
    let sharding = fx.sharding.clone().unwrap_or_else(|| {
        offnet_core::ShardingConfig::new(50_000, std::env::temp_dir().join("offnet-segments"))
    });
    let config = StudyConfig {
        snapshots: (24, 30),
        sharding: Some(sharding.clone()),
        ..Default::default()
    };
    let workers = sharding.workers.unwrap_or_else(default_thread_count).max(1);
    let depth = sharding.depth.unwrap_or(workers + 2);
    let start = Instant::now();
    let series = run_study(&fx.world, &fx.engine(ScanEngine::rapid7()), &config);
    eprintln!(
        "[reproduce] shard-stats study: {:.2}s ({} endpoints/shard, {workers} workers, depth {depth})",
        start.elapsed().as_secs_f64(),
        sharding.shard_size
    );
    print!("{}", analysis::shard_stats_table(&sharding.ledger.rows()));
    println!(
        "segments: {} built, {} reused; largest shard {}, peak resident {} \
         (bound: depth {depth} x shard; snapshots processed: {})",
        sharding.ledger.segments_built(),
        sharding.ledger.segments_reused(),
        analysis::humanize_bytes(sharding.ledger.peak_shard_interned_bytes()),
        analysis::humanize_bytes(sharding.ledger.peak_resident_interned_bytes()),
        series.snapshots.len(),
    );
}

/// Validation-cache reuse accounting: runs the Rapid7 study through
/// [`DeltaStudyEngine`] regardless of `--incremental`, then prints the
/// per-snapshot quality + reuse tables and the cache's lifetime
/// counters. Run explicitly with `reproduce cache-stats`.
fn cache_stats(fx: &Fixtures) {
    heading("Validation cache reuse (Rapid7 incremental study)");
    let config = StudyConfig::default();
    let mut driver = DeltaStudyEngine::new(&fx.world, fx.engine(ScanEngine::rapid7()), &config);
    let start = Instant::now();
    for t in config.snapshots.0..=config.snapshots.1.min(fx.world.n_snapshots() - 1) {
        driver.append_snapshot(t);
    }
    eprintln!(
        "[reproduce] cache-stats study: {:.2}s (incremental + validation cache)",
        start.elapsed().as_secs_f64()
    );
    let stats = driver.cache().stats();
    let (hits, misses) = driver.cache().hit_stats();
    let tracked = driver.cache().len();
    let skeletons = driver.cache().skeleton_count();
    let study = driver.finish();
    print!(
        "{}",
        analysis::render::quality_table_with_reuse(&study.series, &study.reports)
    );
    println!(
        "validation cache: {hits} hits / {misses} misses ({} first sightings, {} promotions); {tracked} chains tracked, {skeletons} skeletons",
        stats.first_sightings, stats.promotions
    );
}

/// Memory accounting for the interned columnar corpus model against the
/// per-record string model it replaced. Run explicitly with
/// `reproduce corpus-stats`; `cargo bench --bench intern` times the two.
fn corpus_stats(fx: &Fixtures) {
    heading("Corpus data model: interned vs string-model memory");
    let engine = fx.engine(ScanEngine::rapid7());
    let mut rows = Vec::new();
    for t in [0usize, 10, 20, 30] {
        let obs = scanner::observe_snapshot(&fx.world, &engine, t).expect("corpus covers t");
        let corpus = offnet_core::SnapshotCorpus::build(
            &obs,
            &fx.ctx().roots,
            &offnet_core::standard_validate_options(),
            None,
        );
        rows.push(analysis::MemoryRow {
            snapshot_idx: t,
            stats: corpus.memory,
        });
    }
    print!("{}", analysis::memory_table(&rows));
}

/// Per-snapshot data-quality accounting for the Rapid7 study: records seen,
/// quarantined counts by reason, and any degraded stages. With
/// `--fault-rate` this shows what the pipeline absorbed; on a clean run
/// every row is all-zeros, which is itself the robustness claim.
fn quality(fx: &Fixtures) {
    heading("Data quality: quarantine and degradation accounting (Rapid7)");
    match fx.r7_reports() {
        Some(reports) => print!(
            "{}",
            analysis::render::quality_table_with_reuse(fx.r7(), reports)
        ),
        None => print!("{}", analysis::render::quality_table(fx.r7())),
    }
    println!();
    print!("{}", analysis::render::scan_health_table(fx.r7()));
    if let Some(plan) = &fx.faults {
        let injected = plan.injected_total();
        let quarantined = fx.r7().aggregate_quality().quarantined_total();
        println!(
            "injected faults: {}, quarantined records: {quarantined}",
            injected.total()
        );
    }
}

fn heading(title: &str) {
    println!("\n==== {title} ====");
}

fn table2(fx: &Fixtures) {
    heading("Table 2: scan corpus comparison (Nov 2019)");
    let rows = analysis::table2(&fx.world, fx.ctx(), 24);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.abbreviation().to_owned(),
                r.ips_with_certs.to_string(),
                r.ases_with_certs.to_string(),
                r.unique_ases.to_string(),
                r.hg_any.to_string(),
                r.google.to_string(),
                r.netflix.to_string(),
                r.facebook.to_string(),
                r.akamai.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Scan",
                "#IPs w/certs",
                "#ASes",
                "unique",
                "any HG",
                "Google",
                "Netflix",
                "Facebook",
                "Akamai"
            ],
            &body
        )
    );
}

fn table3(fx: &Fixtures) {
    heading("Table 3: per-HG off-net AS footprints (Rapid7, 2013-10 .. 2021-04)");
    let rows = series_mod::table3(fx.r7());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.hg.to_string(),
                format!("{} ({})", r.start_confirmed, r.start_certs_only),
                format!("{} [{}]", r.max_confirmed, r.max_snapshot),
                format!("{} ({})", r.end_confirmed, r.end_certs_only),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Hypergiant",
                "2013-10 (certs)",
                "max [snap]",
                "2021-04 (certs)"
            ],
            &body
        )
    );
    println!(
        "total ASes hosting a top-4 HG at 2021-04: {}",
        series_mod::total_hosting_ases_at_end(fx.r7())
    );
}

fn table4(fx: &Fixtures) {
    heading("Tables 1 & 4: learned HTTP(S) header fingerprints");
    let mut body = Vec::new();
    let mut fps: Vec<_> = fx.r7().header_fps.iter().collect();
    fps.sort_by(|a, b| a.keyword.cmp(&b.keyword));
    for fp in fps {
        if fp.is_empty() {
            continue;
        }
        let pairs: Vec<String> = fp
            .pairs
            .iter()
            .map(|(n, v)| format!("{n}:{v}"))
            .chain(fp.names.iter().map(|n| format!("{n}:*")))
            .collect();
        body.push(vec![
            fp.keyword.clone(),
            pairs.join(", "),
            fp.support.to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["Hypergiant", "fingerprints", "on-net support"], &body)
    );
}

fn fig2(fx: &Fixtures, cli: &Cli) {
    heading("Figure 2: raw corpus size and HG IP shares");
    let points = analysis::fig2(fx.r7());
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                snapshot_label(p.snapshot_idx),
                p.raw_ips.to_string(),
                format!("{:.2}%", p.pct_in_hg_ases),
                format!("{:.2}%", p.pct_outside_hg_ases),
            ]
        })
        .collect();
    let headers = ["snapshot", "#IPs w/certs", "% in HG ASes", "% outside"];
    println!("{}", table(&headers, &body));
    emit_csv(cli, "fig2", &headers, &body);
}

fn fig3(fx: &Fixtures, cli: &Cli) {
    heading("Figure 3: top-4 off-net growth (validated), with Netflix variants");
    let f = series_mod::fig3(fx.r7());
    let mut body = Vec::new();
    for i in 0..f.google.len() {
        body.push(vec![
            snapshot_label(fx.r7().snapshots[i].snapshot_idx),
            f.google[i].to_string(),
            f.facebook[i].to_string(),
            f.akamai[i].to_string(),
            f.netflix_initial[i].to_string(),
            f.netflix_with_expired[i].to_string(),
            f.netflix_with_non_tls[i].to_string(),
        ]);
    }
    let headers = [
        "snapshot",
        "Google",
        "Facebook",
        "Akamai",
        "NF(init)",
        "NF(+exp)",
        "NF(+nonTLS)",
    ];
    println!("{}", table(&headers, &body));
    emit_csv(cli, "fig3", &headers, &body);
}

fn fig4(fx: &Fixtures) {
    heading("Figure 4: Rapid7 vs Censys; certs-only vs header-validated");
    for hg in [Hg::Google, Hg::Facebook, Hg::Akamai] {
        println!("--- {hg} ---");
        for series in [series_mod::fig4(fx.r7(), hg), series_mod::fig4(fx.cs(), hg)] {
            let mut body = Vec::new();
            for (i, idx) in series.snapshot_idxs.iter().enumerate() {
                body.push(vec![
                    snapshot_label(*idx),
                    series.certs_only[i].to_string(),
                    series.certs_http_or_https[i].to_string(),
                    series.certs_http_and_https[i].to_string(),
                ]);
            }
            println!("[{}]", series.engine);
            println!(
                "{}",
                table(
                    &["snapshot", "certs only", "certs&(H||S)", "certs&(H&&S)"],
                    &body
                )
            );
        }
    }
}

fn fig5(fx: &Fixtures) {
    heading("Figure 5: growth by AS customer-cone size category");
    for hg in TOP4 {
        println!("--- {hg} ---");
        let f = demographics::fig5(fx.r7(), &fx.world, hg);
        let mut body = Vec::new();
        for (i, counts) in f.iter().enumerate() {
            body.push(vec![
                snapshot_label(fx.r7().snapshots[i].snapshot_idx),
                counts[0].to_string(),
                counts[1].to_string(),
                counts[2].to_string(),
                counts[3].to_string(),
                counts[4].to_string(),
            ]);
        }
        println!(
            "{}",
            table(
                &["snapshot", "Stub", "Small", "Medium", "Large", "XLarge"],
                &body
            )
        );
    }
    let internet = demographics::internet_category_shares(&fx.world, 30);
    println!(
        "Internet-wide shares 2021-04: Stub {} Small {} Medium {} Large {} XLarge {}",
        pct(internet[0]),
        pct(internet[1]),
        pct(internet[2]),
        pct(internet[3]),
        pct(internet[4])
    );
}

fn fig6(fx: &Fixtures) {
    heading("Figure 6: growth per continent");
    for region in regions_mod::panel_regions() {
        println!("--- {region} ---");
        let per_hg = regions_mod::fig6(fx.r7(), &fx.world, region);
        let mut body = Vec::new();
        for i in 0..fx.r7().snapshots.len() {
            let mut row = vec![snapshot_label(fx.r7().snapshots[i].snapshot_idx)];
            for (_, series) in &per_hg {
                row.push(series[i].to_string());
            }
            body.push(row);
        }
        println!(
            "{}",
            table(
                &["snapshot", "Google", "Akamai", "Netflix", "Facebook", "Alibaba"],
                &body
            )
        );
    }
}

fn coverage_table(fx: &Fixtures, hosting: &BTreeSet<netsim::AsId>, t: usize, label: &str) {
    let cov = coverage::coverage_by_country(&fx.world, hosting, t);
    print_coverage(&cov, label);
}

fn print_coverage(cov: &[analysis::CountryCoverage], label: &str) {
    let ww = coverage::worldwide_coverage(cov);
    let over50 = coverage::countries_above(cov, 0.5);
    let over80 = coverage::countries_above(cov, 0.8);
    println!(
        "{label}: worldwide {} | countries >50%: {over50} | >80%: {over80}",
        pct(ww)
    );
    // Top-10 covered countries.
    let mut sorted: Vec<&analysis::CountryCoverage> = cov.iter().collect();
    sorted.sort_by(|a, b| b.fraction.partial_cmp(&a.fraction).unwrap());
    let head: Vec<String> = sorted
        .iter()
        .take(10)
        .map(|c| format!("{}={}", c.code, pct(c.fraction)))
        .collect();
    println!("  top countries: {}", head.join(" "));
}

fn fig7(fx: &Fixtures) {
    heading("Figure 7: user population coverage per country (2021-04)");
    for hg in [Hg::Google, Hg::Netflix, Hg::Akamai] {
        coverage_table(fx, fx.r7().confirmed_at(hg, 30), 30, &format!("{hg}"));
    }
}

fn fig8(fx: &Fixtures) {
    heading("Figure 8: Google coverage including customer cones (2021-04)");
    let hosting = fx.r7().confirmed_at(Hg::Google, 30);
    let direct = coverage::coverage_by_country(&fx.world, hosting, 30);
    let cone = coverage::coverage_with_cone(&fx.world, hosting, 30);
    print_coverage(&direct, "google direct");
    print_coverage(&cone, "google + customer cones");
}

fn fig9(fx: &Fixtures) {
    heading("Figure 9: Facebook coverage, 2017-10 vs 2021-04");
    coverage_table(
        fx,
        fx.r7().confirmed_at(Hg::Facebook, 16),
        16,
        "facebook 2017-10",
    );
    coverage_table(
        fx,
        fx.r7().confirmed_at(Hg::Facebook, 30),
        30,
        "facebook 2021-04",
    );
}

fn fig10(fx: &Fixtures, cli: &Cli) {
    heading("Figure 10: top-4 co-hosting");
    let dist = overlap::fig10b(fx.r7());
    let mut body = Vec::new();
    for d in &dist {
        body.push(vec![
            snapshot_label(d.snapshot_idx),
            d.counts[0].to_string(),
            d.counts[1].to_string(),
            d.counts[2].to_string(),
            d.counts[3].to_string(),
            format!("{:.1}%", d.pct_top4),
        ]);
    }
    println!("(b) all HG-hosting ASes");
    let headers = ["snapshot", "1 HG", "2 HGs", "3 HGs", "4 HGs", "%top-4"];
    println!("{}", table(&headers, &body));
    emit_csv(cli, "fig10b", &headers, &body);
    let (cohort, dist_a) = overlap::fig10a(fx.r7());
    println!("(a) persistent cohort: {cohort} ASes host a top-4 HG in every snapshot");
    let first = &dist_a[0];
    let last = dist_a.last().unwrap();
    println!(
        "  2013-10: 1/2/3/4 = {:?}   2021-04: 1/2/3/4 = {:?}",
        first.counts, last.counts
    );
}

fn fig11(fx: &Fixtures) {
    heading("Figure 11: certificate IP-group concentration (top 10 groups)");
    for hg in [Hg::Google, Hg::Facebook] {
        println!("--- {hg} ---");
        let shares = analysis::certgroups::fig11(fx.r7(), hg, 10);
        let mut body = Vec::new();
        for (i, row) in shares.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|s| format!("{s:.1}")).collect();
            body.push(vec![
                snapshot_label(fx.r7().snapshots[i].snapshot_idx),
                cells.join(" "),
            ]);
        }
        println!("{}", table(&["snapshot", "% per top group"], &body));
    }
}

fn fig12(fx: &Fixtures) {
    heading("Figure 12: customer-cone coverage for Facebook/Netflix/Akamai (2021-04)");
    for hg in [Hg::Facebook, Hg::Netflix, Hg::Akamai] {
        let hosting = fx.r7().confirmed_at(hg, 30);
        let direct = coverage::coverage_by_country(&fx.world, hosting, 30);
        let cone = coverage::coverage_with_cone(&fx.world, hosting, 30);
        print_coverage(&direct, &format!("{hg} direct"));
        print_coverage(&cone, &format!("{hg} + cones"));
    }
}

fn fig13(fx: &Fixtures) {
    heading("Figure 13: growth per continent and network type (2021-04 snapshot)");
    for hg in TOP4 {
        for cat in demographics::categories() {
            let series = demographics::fig13(fx.r7(), &fx.world, hg, cat);
            let last = series.last().unwrap();
            let total: usize = last.iter().sum();
            if total == 0 {
                continue;
            }
            let cells: Vec<String> = regions_mod::panel_regions()
                .iter()
                .zip(last.iter())
                .map(|(r, c)| format!("{}={}", r.code(), c))
                .collect();
            println!("{hg:>10} {:>7}: {}", cat.to_string(), cells.join(" "));
        }
    }
}

fn fig14(fx: &Fixtures) {
    heading("Figure 14: willingness to host (>=25% / >=50% of snapshots)");
    for (frac, label) in [(0.25, "25%"), (0.5, "50%")] {
        let (cohort, dist) = overlap::fig14(fx.r7(), frac);
        let last = dist.last().unwrap();
        let first = &dist[0];
        println!(
            ">= {label}: cohort {cohort} ASes | 2013-10 1/2/3/4={:?} | 2021-04 1/2/3/4={:?} ({:.1}% of ever-hosting)",
            first.counts, last.counts, last.pct_top4
        );
    }
}

fn certlifetimes(fx: &Fixtures) {
    heading("Appendix A.3: median certificate lifetimes (days)");
    let hgs = [
        Hg::Google,
        Hg::Netflix,
        Hg::Microsoft,
        Hg::Facebook,
        Hg::Akamai,
    ];
    let mut body = Vec::new();
    for i in 0..fx.r7().snapshots.len() {
        let mut row = vec![snapshot_label(fx.r7().snapshots[i].snapshot_idx)];
        for hg in hgs {
            let v = analysis::certlifetimes::lifetime_series(fx.r7(), hg)[i];
            row.push(v.map(|d| format!("{d:.0}")).unwrap_or_else(|| "-".into()));
        }
        body.push(row);
    }
    println!(
        "{}",
        table(
            &[
                "snapshot",
                "Google",
                "Netflix",
                "Microsoft",
                "Facebook",
                "Akamai"
            ],
            &body
        )
    );
}

fn validate(fx: &Fixtures) {
    heading("Section 5 validations");
    let t = 30;
    let result = fx.r7().snapshots.last().unwrap();
    let metrics = analysis::survey_metrics(&fx.world, result, t);
    let body: Vec<Vec<String>> = metrics
        .iter()
        .map(|m| {
            vec![
                m.hg.to_string(),
                m.truth.to_string(),
                m.inferred.to_string(),
                pct(m.recall),
                pct(m.precision),
            ]
        })
        .collect();
    println!("Operator-survey stand-in (oracle comparison, 2021-04):");
    println!(
        "{}",
        table(
            &[
                "Hypergiant",
                "truth ASes",
                "inferred",
                "recall",
                "precision"
            ],
            &body
        )
    );

    eprintln!("[reproduce] generating endpoints for active probes...");
    let eps = fx.world.endpoints(t);
    let cross = analysis::zgrab_cross_hg(&fx.world, &eps, result, t, 1000, 7);
    println!(
        "Cross-HG probe: {} off-net IPs probed; {} rejected all foreign domains; Akamai share of validating: {}",
        cross.probed_ips,
        pct(cross.rejecting_fraction),
        pct(cross.akamai_share)
    );
    let non = analysis::zgrab_non_inferred(&fx.world, &eps, result, t, 0.25, 7);
    println!(
        "Non-inferred sample: {} sampled, {} validated ({}); {} of validating already inferred",
        non.sampled,
        non.validating,
        pct(non.validating_fraction),
        pct(non.inferred_share)
    );
}

fn baselines(fx: &Fixtures) {
    heading("Prior-work baseline: DNS vantage-point mapping vs certificates");
    let t = 30;
    let cert_inferred = fx.r7().confirmed_at(Hg::Google, t).clone();
    let cert_recall =
        offnet_core::baselines::recall_against_truth(&fx.world, Hg::Google, t, &cert_inferred);
    let mut body = Vec::new();
    body.push(vec![
        "certificates (this paper)".to_owned(),
        cert_inferred.len().to_string(),
        pct(cert_recall),
    ]);
    for n in [25usize, 100, 400] {
        let found = offnet_core::baselines::vantage_point_baseline(&fx.world, Hg::Google, t, n);
        let recall = offnet_core::baselines::recall_against_truth(&fx.world, Hg::Google, t, &found);
        body.push(vec![
            format!("DNS mapping, {n} vantage points"),
            found.len().to_string(),
            pct(recall),
        ]);
    }
    println!(
        "{}",
        table(&["technique", "google ASes found", "recall"], &body)
    );
}

fn hide_and_seek(cli: &Cli) {
    heading("Section 8 hide-and-seek: countermeasures vs the methodology");
    use hgsim::Countermeasure::*;
    let variants: [(&str, Option<hgsim::Countermeasure>); 5] = [
        ("none (baseline)", None),
        ("null default certificate (SNI-only)", Some(NullDefaultCert)),
        ("strip Organization from certs", Some(StripOrganization)),
        ("unique per-deployment domains", Some(UniqueDomains)),
        ("anonymize debug headers", Some(AnonymizeHeaders)),
    ];
    let mut body = Vec::new();
    for (label, cm) in variants {
        let mut config = parse_scale(&cli.scale, cli.seed);
        if let Some(cm) = cm {
            config = config.with_countermeasure(Hg::Google, cm);
        }
        eprintln!("[reproduce] hide-and-seek: {label}...");
        let world = HgWorld::generate(config);
        let engine = ScanEngine::rapid7();
        let fps = learn_reference_fingerprints(&world, &engine, 28);
        let ctx = PipelineContext::new(world.pki().root_store().clone(), world.org_db(), fps);
        let obs = scanner::observe_snapshot(&world, &engine, 30).expect("corpus");
        let result = offnet_core::process_snapshot(&obs, &ctx);
        let google = &result.per_hg[&Hg::Google];
        body.push(vec![
            label.to_owned(),
            google.candidate_ases.len().to_string(),
            google.confirmed_ases.len().to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["Google countermeasure", "candidates", "confirmed"], &body)
    );
}

fn ablation(fx: &Fixtures) {
    heading("Ablations: methodology filters");
    let world = &fx.world;
    let engine = ScanEngine::rapid7();
    let t = 30;
    let obs = scanner::observe_snapshot(world, &engine, t).expect("corpus covers 2021-04");

    let variants: [(&str, CandidateOptions); 3] = [
        ("full (SAN subset + CF filter)", CandidateOptions::default()),
        (
            "no SAN-subset rule",
            CandidateOptions {
                require_san_subset: false,
                cloudflare_filter: true,
            },
        ),
        (
            "no Cloudflare filter",
            CandidateOptions {
                require_san_subset: true,
                cloudflare_filter: false,
            },
        ),
    ];
    let mut body = Vec::new();
    for (label, options) in variants {
        let mut ctx = fx.ctx().clone();
        ctx.candidate_options = options;
        let result = offnet_core::process_snapshot(&obs, &ctx);
        body.push(vec![
            label.to_owned(),
            result.per_hg[&Hg::Google].candidate_ases.len().to_string(),
            result.per_hg[&Hg::Cloudflare]
                .candidate_ases
                .len()
                .to_string(),
            result.per_hg[&Hg::Amazon].candidate_ases.len().to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "variant",
                "google cands",
                "cloudflare cands",
                "amazon cands"
            ],
            &body
        )
    );

    // IP-to-AS stability-filter ablation.
    let rib = netsim::MonthlyRib::build(
        world.topology(),
        t,
        &world.config().bgp_noise,
        world.config().seed,
    );
    let filtered = netsim::IpToAsMap::build(&rib);
    let unfiltered = netsim::IpToAsMap::build_with_threshold(&rib, 0.0);
    println!(
        "IP-to-AS stability filter: {} prefixes with >=25% presence vs {} without the filter",
        filtered.prefix_count(),
        unfiltered.prefix_count()
    );
}
