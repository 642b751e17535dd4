//! Query-layer load generator: log a small-world Rapid7 study to disk,
//! load it into [`FrozenStudy`] tables, then hammer the point-query path
//! ("does AS Z host HG X in month Y?") the way a serving deployment
//! would. Reports log load time, per-query p50/p99 latency over
//! individually-timed queries, and sustained queries/sec over an untimed
//! tight loop; run `cargo bench --bench query` for the figures, or
//! perfbench's `--workload query` for load plus one query end to end.
//! The acceptance bar, asserted here, is >= 100k queries/sec with
//! p99 <= 1 ms.
//!
//! Not a Criterion harness: per-query latency percentiles need the raw
//! sample distribution, and the tight loop needs to run without
//! per-iteration bookkeeping.

use hgsim::ALL_HGS;
use offnet_bench::small_world;
use offnet_core::{run_study, StudyConfig};
use offnet_query::FrozenStudy;
use scanner::ScanEngine;
use std::time::Instant;

const TIMED_QUERIES: usize = 200_000;
const SUSTAINED_QUERIES: usize = 2_000_000;
const LOAD_ITERS: usize = 20;

/// splitmix64: a deterministic query stream, independent of std RNG.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("offnet-query-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("study.offna");

    eprintln!(
        "[query-bench] freezing small-world Rapid7 study to {}",
        path.display()
    );
    let config = StudyConfig {
        artifact_out: Some(path.clone()),
        ..Default::default()
    };
    run_study(small_world(), &ScanEngine::rapid7(), &config);
    let artifact_bytes = std::fs::metadata(&path).expect("artifact on disk").len();

    // Load time: full disk round trip (read + checksum + decode + freeze).
    let mut load_us = Vec::with_capacity(LOAD_ITERS);
    for _ in 0..LOAD_ITERS {
        let start = Instant::now();
        let frozen = FrozenStudy::load(&path).expect("load artifact");
        load_us.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&frozen);
    }
    load_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let frozen = FrozenStudy::load(&path).expect("load artifact");

    // Query stream: random (hg, row, asn) triples. Half the AS numbers are
    // drawn from the study's own cells (hits), half are misses.
    let mut asns: Vec<u32> = Vec::new();
    for row in 0..frozen.n_rows() {
        for hg in ALL_HGS {
            asns.extend_from_slice(frozen.ases_hosting(hg, row));
        }
    }
    asns.sort_unstable();
    asns.dedup();
    assert!(!asns.is_empty(), "study has no confirmed ASes to query");
    let max_asn = *asns.last().unwrap();
    let query = |i: u64| {
        let r = mix(i);
        let hg = ALL_HGS[(r % ALL_HGS.len() as u64) as usize];
        let row = ((r >> 8) % frozen.n_rows() as u64) as usize;
        let asn = if r & 1 == 0 {
            asns[((r >> 16) % asns.len() as u64) as usize]
        } else {
            max_asn + 1 + ((r >> 16) % 1000) as u32
        };
        (hg, row, asn)
    };

    // Individually-timed queries for the latency distribution.
    let mut sample_ns = Vec::with_capacity(TIMED_QUERIES);
    let mut hits = 0u64;
    for i in 0..TIMED_QUERIES as u64 {
        let (hg, row, asn) = query(i);
        let start = Instant::now();
        let hosted = frozen.hosts(hg, row, asn);
        sample_ns.push(start.elapsed().as_nanos() as u64);
        hits += u64::from(hosted);
    }
    sample_ns.sort_unstable();
    let pctl = |p: f64| sample_ns[((sample_ns.len() - 1) as f64 * p) as usize];

    // Untimed tight loop for sustained throughput.
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..SUSTAINED_QUERIES as u64 {
        let (hg, row, asn) = query(i);
        acc += u64::from(std::hint::black_box(frozen.hosts(hg, row, asn)));
    }
    let sustained_s = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);

    println!("artifact_bytes: {artifact_bytes}");
    println!(
        "rows: {} (hit fraction {:.3})",
        frozen.n_rows(),
        hits as f64 / TIMED_QUERIES as f64
    );
    println!("load_median_us: {:.1}", load_us[load_us.len() / 2]);
    println!(
        "load_p99_us: {:.1}",
        load_us[((load_us.len() - 1) as f64 * 0.99) as usize]
    );
    println!("point_query_p50_ns: {}", pctl(0.5));
    println!("point_query_p99_ns: {}", pctl(0.99));
    println!(
        "sustained_qps: {:.0} ({} queries in {:.3}s)",
        SUSTAINED_QUERIES as f64 / sustained_s,
        SUSTAINED_QUERIES,
        sustained_s
    );

    let p99_ns = pctl(0.99);
    let qps = SUSTAINED_QUERIES as f64 / sustained_s;
    assert!(p99_ns <= 1_000_000, "p99 {p99_ns}ns exceeds the 1 ms bar");
    assert!(
        qps >= 100_000.0,
        "sustained {qps:.0} qps below the 100k bar"
    );
    println!("acceptance: PASS (p99 <= 1 ms, sustained >= 100k qps)");

    let _ = std::fs::remove_dir_all(&dir);
}
