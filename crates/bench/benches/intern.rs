//! Interned columnar corpus vs the per-record string model it replaced:
//! §4.5 confirm-stage wall-clock and corpus build (`cargo bench --bench
//! intern`; the corpus memory of both models goes to stderr).
//!
//! The "string model" side reproduces the pre-interning implementation
//! verbatim — per-IP `Vec<(String, String)>` banner maps, per-call name
//! lowercasing, and the `matching_keywords`-based edge-priority check —
//! fed from the same snapshot, so both sides answer the same question on
//! the same data. The interned side includes the once-per-snapshot
//! fingerprint compilation inside the measured region, so the comparison
//! does not hide the compile cost the new model introduces.

use criterion::{criterion_group, criterion_main, Criterion};
use hgsim::ALL_HGS;
use netsim::{AsId, IpToAsMap};
use offnet_bench::{small_ctx, small_world};
use offnet_core::candidates::CandidateSet;
use offnet_core::{
    confirm_candidates, find_candidates, learn_tls_fingerprints, standard_validate_options,
    CompiledFingerprints, ConfirmMode, HeaderFingerprints, SnapshotCorpus,
};
use scanner::{observe_snapshot, HttpScanSnapshot, Interner, ScanEngine};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The pre-refactor banner index: first record per IP, owned strings.
fn string_banners(
    snap: Option<&HttpScanSnapshot>,
    interner: &Interner,
) -> HashMap<u32, Vec<(String, String)>> {
    let mut map = HashMap::new();
    let mut seen: HashSet<u32> = HashSet::new();
    if let Some(s) = snap {
        for r in &s.records {
            if !seen.insert(r.ip) {
                continue;
            }
            let headers: Vec<(String, String)> = r
                .headers
                .iter()
                .map(|&(n, v)| {
                    (
                        interner.header_names.resolve(n).to_owned(),
                        interner.header_values.resolve(v).to_owned(),
                    )
                })
                .collect();
            map.insert(r.ip, headers);
        }
    }
    map
}

const EDGE_PRIORITY: &[&str] = &["akamai", "cloudflare"];

/// The pre-refactor §4.5 stage, verbatim (HttpOrHttps mode).
fn confirm_string_model(
    keyword: &str,
    candidates: &CandidateSet,
    fps: &HeaderFingerprints,
    http80: &HashMap<u32, Vec<(String, String)>>,
    https443: &HashMap<u32, Vec<(String, String)>>,
    ip_to_as: &IpToAsMap,
) -> (BTreeSet<AsId>, Vec<u32>) {
    let keyword = keyword.to_ascii_lowercase();
    let mut ases = BTreeSet::new();
    let mut ips = Vec::new();
    let Some(fp) = fps.get(&keyword) else {
        return (ases, ips);
    };
    if fp.is_empty() {
        return (ases, ips);
    }
    for (ip, _cert) in &candidates.ips {
        let match_one = |h: Option<&Vec<(String, String)>>| -> Option<bool> {
            h.map(|headers| {
                if !fp.matches(headers) {
                    return false;
                }
                if !EDGE_PRIORITY.contains(&keyword.as_str()) {
                    let others = fps.matching_keywords(headers);
                    if others.iter().any(|k| EDGE_PRIORITY.contains(k)) {
                        return false;
                    }
                }
                true
            })
        };
        let m_http = match_one(http80.get(ip));
        let m_https = match_one(https443.get(ip));
        if m_http == Some(true) || m_https == Some(true) {
            ips.push(*ip);
            for a in ip_to_as.lookup(*ip) {
                ases.insert(*a);
            }
        }
    }
    (ases, ips)
}

fn bench_intern(c: &mut Criterion) {
    let world = small_world();
    let ctx = small_ctx();
    let engine = ScanEngine::rapid7();
    let obs = observe_snapshot(world, &engine, 30).expect("snapshot in corpus");
    let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);

    // One candidate set per HG, exactly what process_corpus hands §4.5.
    let cands: Vec<(&str, CandidateSet)> = ALL_HGS
        .iter()
        .map(|hg| {
            let keyword = hg.spec().keyword;
            let hg_ases = &ctx.hg_ases[hg];
            let idx = corpus.hg_std_indices(*hg);
            let fp = learn_tls_fingerprints(keyword, hg_ases, &corpus, idx);
            let set = find_candidates(&fp, hg_ases, &corpus, idx, &ctx.candidate_options);
            (keyword, set)
        })
        .collect();

    let http80 = string_banners(obs.http80.as_ref(), &obs.interner);
    let https443 = string_banners(obs.https443.as_ref(), &obs.interner);

    // Both sides must agree before timing means anything.
    let compiled = CompiledFingerprints::compile(&ctx.header_fps, &corpus.interner);
    for (keyword, set) in &cands {
        let new = confirm_candidates(
            keyword,
            set,
            &compiled,
            &corpus.banners,
            &corpus.ip_to_as,
            ConfirmMode::HttpOrHttps,
        );
        let (old_ases, old_ips) = confirm_string_model(
            keyword,
            set,
            &ctx.header_fps,
            &http80,
            &https443,
            &corpus.ip_to_as,
        );
        assert_eq!(new.ases, old_ases, "{keyword}: model divergence");
        assert_eq!(new.ips, old_ips, "{keyword}: model divergence");
    }

    let mut group = c.benchmark_group("intern");
    group.sample_size(20);
    group.bench_function("confirm_stage/interned", |b| {
        b.iter(|| {
            // Compile once per snapshot (as process_corpus does), then
            // confirm every HG against the columnar tables.
            let compiled = CompiledFingerprints::compile(
                std::hint::black_box(&ctx.header_fps),
                &corpus.interner,
            );
            let mut n = 0usize;
            for (keyword, set) in &cands {
                n += confirm_candidates(
                    keyword,
                    set,
                    &compiled,
                    &corpus.banners,
                    &corpus.ip_to_as,
                    ConfirmMode::HttpOrHttps,
                )
                .ips
                .len();
            }
            n
        })
    });
    group.bench_function("confirm_stage/string_model", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (keyword, set) in &cands {
                n += confirm_string_model(
                    keyword,
                    set,
                    std::hint::black_box(&ctx.header_fps),
                    &http80,
                    &https443,
                    &corpus.ip_to_as,
                )
                .1
                .len();
            }
            n
        })
    });
    group.bench_function("corpus_build", |b| {
        b.iter(|| {
            SnapshotCorpus::build(
                std::hint::black_box(&obs),
                &ctx.roots,
                &standard_validate_options(),
                None,
            )
        })
    });
    group.finish();

    // Not a timing: the memory half of the comparison.
    eprintln!(
        "corpus memory @ snapshot 30: interned {} B vs string model {} B ({} hosts, {} header names, {} header values)",
        corpus.memory.interned_bytes,
        offnet_core::corpus::string_model_bytes(
            obs.banner_records(),
            &corpus.valids,
            &corpus.interner,
        ),
        corpus.memory.hosts,
        corpus.memory.header_names,
        corpus.memory.header_values,
    );
}

criterion_group!(benches, bench_intern);
criterion_main!(benches);
