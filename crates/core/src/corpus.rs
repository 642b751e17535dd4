//! The interned, columnar per-snapshot corpus: everything the §4.2–§4.5
//! stages read, built once per snapshot and shared read-only across the
//! parallel per-HG fan-out.
//!
//! [`SnapshotCorpus::build`] runs §4.1 validation, interns every
//! validated certificate's SANs into the snapshot's host pool, lays the
//! SAN sets out as sorted per-certificate spans (so the §4.3
//! all-SANs-on-net rule is a sorted-merge over integers), indexes the
//! banner streams columnarly, and pre-computes the per-HG certificate
//! index lists. Work that depends only on the leaf runs once per distinct
//! leaf (or organization string) and is copied to every record serving
//! it. The interner is *frozen* at the end of `build` — the
//! append-only observation phase is over, and a [`FrozenInterner`] has no
//! `&mut` API, so `parallel_map` workers share the whole corpus by
//! reference without locks.
//!
//! Quarantined records never reach the corpus tables: malformed DER is
//! rejected by validation before SAN interning, and corrupt banner rows
//! are dropped (and counted) by the banner indexer. Their *strings* may
//! still sit in the interner — the scanner interns at observation time,
//! before quarantine runs — which costs pool bytes but can never
//! resurface in matching, because no surviving row references them.

use crate::candidates::is_cloudflare_free_san;
use crate::confirm::BannerIndex;
use crate::validate::{validate_snapshot, ValidateOptions, ValidatedCert, ValidationStats};
use crate::validation_cache::ValidationCache;
use crate::wordhash::{WordMap, WordSet};
use hgsim::{Hg, ALL_HGS};
use intern::{FrozenInterner, HostSym, Hosts, SymTable};
use netsim::{AsId, IpToAsMap};
use scanner::{HttpScanSnapshot, SnapshotObservations};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use timebase::Timestamp;
use x509::{Certificate, RootStore};

/// Memory accounting for one snapshot's corpus, interned model vs the
/// string model it replaced (`cargo bench --bench intern` compares them).
#[derive(Debug, Clone, Copy, Default)]
pub struct CorpusMemoryStats {
    /// Bytes held by the interned model: the three symbol pools, the
    /// symbolized banner records, the columnar banner tables, and the
    /// per-certificate SAN spans.
    pub interned_bytes: usize,
    /// Estimated bytes of the replaced string model: per-record owned
    /// `Vec<(String, String)>` headers plus per-certificate
    /// `Vec<String>` SANs (24 bytes per `String`/`Vec` header plus
    /// contents; map overheads excluded, which favors the string model).
    pub string_model_bytes: usize,
    /// Distinct strings per pool.
    pub hosts: usize,
    pub header_names: usize,
    pub header_values: usize,
    /// Bytes of the serialized segment this corpus was frozen into (zero
    /// for the in-memory path — only the streaming sharded pipeline spills
    /// corpus shards to disk).
    pub segment_bytes: usize,
}

/// One snapshot's validated, interned, columnar corpus.
#[derive(Debug)]
pub struct SnapshotCorpus {
    pub snapshot_idx: usize,
    /// The frozen symbol tables every span/row below resolves through.
    pub interner: FrozenInterner,
    /// §4.1 output, in scan-record order (dedup: first record per IP).
    pub valids: Vec<ValidatedCert>,
    pub validation: ValidationStats,
    /// Columnar banner tables plus their quarantine counters.
    pub banners: BannerIndex,
    /// Per-HG indices into `valids` whose Subject Organization contains
    /// the HG keyword, excluding expiry-exempted certificates (§4.1).
    pub by_hg_std: HashMap<Hg, Vec<u32>>,
    /// As `by_hg_std` but *including* expiry-exempted certificates — the
    /// §6.2 Netflix restoration pool.
    pub by_hg_all: HashMap<Hg, Vec<u32>>,
    pub ip_to_as: Arc<IpToAsMap>,
    /// Raw corpus size: IPs with any certificate (before validation).
    pub total_ips_with_certs: usize,
    /// ASes hosting at least one certificate-bearing IP, sorted.
    pub ases_with_certs: Vec<AsId>,
    /// IPs answering on port 80 but absent from the certificate corpus
    /// (drives the §6.2 Netflix non-TLS restoration).
    pub http_only_ips: Vec<u32>,
    /// Scan-layer health merged over the observation's scan passes.
    pub scan_health: scanner::ScanHealth,
    pub memory: CorpusMemoryStats,
    /// `san_syms[san_offsets[i]..san_offsets[i+1]]` is certificate `i`'s
    /// SAN set: sorted, deduplicated host symbols.
    pub(crate) san_offsets: Vec<u32>,
    pub(crate) san_syms: Vec<HostSym>,
    /// Per-host-symbol flag: is this name a Cloudflare universal-SSL
    /// marker (§7)? Computed once over the pool, not per certificate.
    pub(crate) cf_free_host: Vec<bool>,
}

impl SnapshotCorpus {
    /// Build the corpus for one observation bundle: validate (§4.1,
    /// optionally through the cross-snapshot `cache`), intern and sort
    /// SAN spans, index banners, and freeze the interner.
    pub fn build(
        obs: &SnapshotObservations,
        roots: &RootStore,
        opts: &ValidateOptions,
        cache: Option<&ValidationCache>,
    ) -> Self {
        // Validation instant: noon of the snapshot date (§4.1 runs on the
        // scan day; noon sidesteps midnight expiry boundary artifacts).
        let at: Timestamp = obs.cert.date.midnight().plus_seconds(12 * 3600);
        let (valids, validation, cert_ips) =
            validate_snapshot(&obs.cert.records, roots, at, opts, cache);

        let mut interner = obs.interner.clone();
        let (san_offsets, san_syms) = san_spans(&valids, &mut interner.hosts);

        let cf_free_host = cloudflare_flags(&interner);
        let (by_hg_std, by_hg_all) = hg_org_indices(&valids);
        let banners = BannerIndex::build(obs.http80.as_ref(), obs.https443.as_ref(), &interner);

        // Corpus-level statistics (previously recomputed by the pipeline).
        let mut ases: WordSet<AsId> = WordSet::default();
        for r in &obs.cert.records {
            ases.extend(obs.ip_to_as.lookup(r.ip));
        }
        let mut ases_with_certs: Vec<AsId> = ases.into_iter().collect();
        ases_with_certs.sort_unstable();
        let http_only_ips: Vec<u32> = obs
            .http80
            .as_ref()
            .map(|s| {
                s.records
                    .iter()
                    .map(|r| r.ip)
                    .filter(|ip| !cert_ips.contains(ip))
                    .collect()
            })
            .unwrap_or_default();

        let memory = measure_memory(
            [obs.http80.as_ref(), obs.https443.as_ref()],
            &valids,
            &interner,
            &banners,
            &san_syms,
            &san_offsets,
        );

        Self {
            snapshot_idx: obs.snapshot_idx,
            interner: interner.freeze(),
            validation,
            banners,
            by_hg_std,
            by_hg_all,
            ip_to_as: obs.ip_to_as.clone(),
            total_ips_with_certs: obs.cert.records.len(),
            ases_with_certs,
            http_only_ips,
            scan_health: obs.scan_health(),
            memory,
            san_offsets,
            san_syms,
            cf_free_host,
            valids,
        }
    }

    /// How many ASes host a certificate-bearing IP.
    pub fn n_ases_with_certs(&self) -> usize {
        self.ases_with_certs.len()
    }

    /// Certificate `i`'s SAN set: sorted, deduplicated host symbols.
    pub fn sans(&self, cert_idx: u32) -> &[HostSym] {
        let i = cert_idx as usize;
        &self.san_syms[self.san_offsets[i] as usize..self.san_offsets[i + 1] as usize]
    }

    /// Whether certificate `i` carries a Cloudflare universal-SSL SAN
    /// marker (§7's customer-certificate filter).
    pub fn cert_has_cloudflare_free_san(&self, cert_idx: u32) -> bool {
        self.sans(cert_idx)
            .iter()
            .any(|s| self.cf_free_host[s.index() as usize])
    }

    /// Every validated certificate's index, in corpus order.
    pub fn all_cert_indices(&self) -> Vec<u32> {
        (0..self.valids.len() as u32).collect()
    }

    /// The `by_hg_std` index list for one HG (empty slice if none).
    pub fn hg_std_indices(&self, hg: Hg) -> &[u32] {
        self.by_hg_std.get(&hg).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The `by_hg_all` index list for one HG (empty slice if none).
    pub fn hg_all_indices(&self, hg: Hg) -> &[u32] {
        self.by_hg_all.get(&hg).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Per-host-symbol Cloudflare universal-SSL marker flags. The marker is a
/// property of the *name*, so each distinct host is classified once
/// instead of per certificate.
pub(crate) fn cloudflare_flags(interner: &intern::Interner) -> Vec<bool> {
    interner
        .hosts
        .iter()
        .map(|(_, name)| is_cloudflare_free_san(name))
        .collect()
}

/// Columnar SAN spans over `valids` (`san_offsets`, `san_syms`): each
/// certificate's SANs as host symbols, sorted and deduplicated so the §4.3
/// subset test is a sorted merge. Validation hands every valid serving the
/// same leaf DER one shared `Arc`, so each distinct leaf is interned once
/// and later valids copy its span; interning order, and so every symbol,
/// is the same as interning per certificate.
pub(crate) fn san_spans(
    valids: &[ValidatedCert],
    hosts: &mut SymTable<Hosts>,
) -> (Vec<u32>, Vec<HostSym>) {
    let mut san_offsets: Vec<u32> = Vec::with_capacity(valids.len() + 1);
    let mut san_syms: Vec<HostSym> = Vec::new();
    san_offsets.push(0);
    let mut spans: WordMap<*const Certificate, (usize, usize)> = WordMap::default();
    let mut scratch: Vec<HostSym> = Vec::new();
    for vc in valids {
        match spans.entry(Arc::as_ptr(&vc.leaf)) {
            Entry::Occupied(e) => {
                let (start, end) = *e.get();
                san_syms.extend_from_within(start..end);
            }
            Entry::Vacant(e) => {
                scratch.clear();
                scratch.extend(vc.leaf.dns_names().iter().map(|n| hosts.intern(n)));
                scratch.sort_unstable();
                scratch.dedup();
                let start = san_syms.len();
                san_syms.extend_from_slice(&scratch);
                e.insert((start, san_syms.len()));
            }
        }
        san_offsets.push(san_syms.len() as u32);
    }
    (san_offsets, san_syms)
}

/// Per-HG certificate index lists into a corpus's `valids`.
pub(crate) type HgIndex = HashMap<Hg, Vec<u32>>;

// `hg_org_indices` keeps one bit per HG in a `u32`.
const _: () = assert!(ALL_HGS.len() <= u32::BITS as usize);

/// The per-HG organization pre-index over `valids`: (`by_hg_std`,
/// `by_hg_all`). Each distinct organization string is matched against the
/// 23 HG keywords once; every certificate then reads its organization's
/// match bits.
pub(crate) fn hg_org_indices(valids: &[ValidatedCert]) -> (HgIndex, HgIndex) {
    let mut by_hg_std = HgIndex::new();
    let mut by_hg_all = HgIndex::new();
    let keywords = KeywordMatcher::new();
    let mut hg_bits: WordMap<&str, u32> = WordMap::default();
    for (i, vc) in valids.iter().enumerate() {
        let Some(org) = vc.leaf.subject().organization() else {
            continue;
        };
        let mut bits = *hg_bits.entry(org).or_insert_with(|| keywords.hg_bits(org));
        while bits != 0 {
            let hg = ALL_HGS[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            by_hg_all.entry(hg).or_default().push(i as u32);
            if !vc.expiry_exempted {
                by_hg_std.entry(hg).or_default().push(i as u32);
            }
        }
    }
    (by_hg_std, by_hg_all)
}

/// The §4.2 organization test for all HGs at once.
struct KeywordMatcher {
    /// Bit `k` set in entry `b`: `ALL_HGS[k]`'s keyword starts with byte `b`.
    by_first_byte: [u32; 256],
    /// HGs whose keyword is empty, which every organization contains.
    always: u32,
}

impl KeywordMatcher {
    fn new() -> Self {
        let mut by_first_byte = [0u32; 256];
        let mut always = 0;
        for (k, hg) in ALL_HGS.iter().enumerate() {
            match hg.spec().keyword.as_bytes().first() {
                Some(&b) => by_first_byte[usize::from(b)] |= 1 << k,
                None => always |= 1 << k,
            }
        }
        Self {
            by_first_byte,
            always,
        }
    }

    /// Bit `k` set: `ALL_HGS[k]`'s keyword occurs in `org` lowercased
    /// (ASCII) — `org.to_ascii_lowercase().contains(keyword)` for every HG,
    /// in one pass over `org` that tries at each position only the keywords
    /// starting with that position's lowercased byte.
    fn hg_bits(&self, org: &str) -> u32 {
        let org = org.as_bytes();
        let mut bits = self.always;
        for start in 0..org.len() {
            let mut candidates =
                self.by_first_byte[usize::from(org[start].to_ascii_lowercase())] & !bits;
            while candidates != 0 {
                let k = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let keyword = ALL_HGS[k].spec().keyword.as_bytes();
                let found = org[start..].get(..keyword.len()).is_some_and(|window| {
                    window
                        .iter()
                        .zip(keyword)
                        .all(|(o, kw)| o.to_ascii_lowercase() == *kw)
                });
                if found {
                    bits |= 1 << k;
                }
            }
        }
        bits
    }
}

/// Account the interned corpus model against the string model it
/// replaced. String-model sizes are reconstructed by resolving every
/// symbol back to its string, counting each occurrence as an owned
/// `String` (24-byte header + contents) the old record model would have
/// held.
pub(crate) fn measure_memory(
    banner_scans: [Option<&HttpScanSnapshot>; 2],
    valids: &[ValidatedCert],
    interner: &intern::Interner,
    banners: &BannerIndex,
    san_syms: &[HostSym],
    san_offsets: &[u32],
) -> CorpusMemoryStats {
    const STRING_HEADER: usize = std::mem::size_of::<String>(); // 24
    const PAIR_SYMS: usize = 8; // (u32, u32)

    let mut string_model = 0usize;
    let mut interned_records = 0usize;
    for scan in banner_scans.into_iter().flatten() {
        for r in &scan.records {
            string_model += STRING_HEADER; // the Vec header
            interned_records += STRING_HEADER + r.headers.len() * PAIR_SYMS;
            for (n, v) in &r.headers {
                string_model += 2 * STRING_HEADER
                    + interner.header_names.resolve(*n).len()
                    + interner.header_values.resolve(*v).len();
            }
        }
    }
    // A leaf's `Vec<String>` SANs cost the same for every valid serving
    // it; account each distinct leaf once.
    let mut san_bytes: WordMap<*const Certificate, usize> = WordMap::default();
    for vc in valids {
        string_model += *san_bytes.entry(Arc::as_ptr(&vc.leaf)).or_insert_with(|| {
            let names = vc.leaf.dns_names();
            STRING_HEADER * (1 + names.len()) + names.iter().map(str::len).sum::<usize>()
        });
    }

    let interned = interner.heap_bytes()
        + interned_records
        + banners.heap_bytes()
        + std::mem::size_of_val(san_syms)
        + std::mem::size_of_val(san_offsets);

    CorpusMemoryStats {
        interned_bytes: interned,
        string_model_bytes: string_model,
        hosts: interner.hosts.len(),
        header_names: interner.header_names.len(),
        header_values: interner.header_values.len(),
        segment_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgsim::{HgWorld, ScenarioConfig};
    use scanner::{observe_snapshot, ScanEngine};
    use std::collections::HashSet;
    use std::sync::OnceLock;

    fn world() -> &'static HgWorld {
        static W: OnceLock<HgWorld> = OnceLock::new();
        W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
    }

    fn corpus(t: usize) -> SnapshotCorpus {
        let w = world();
        let obs = observe_snapshot(w, &ScanEngine::rapid7(), t).unwrap();
        SnapshotCorpus::build(&obs, w.pki().root_store(), &Default::default(), None)
    }

    #[test]
    fn san_spans_sorted_deduped_and_resolvable() {
        let c = corpus(30);
        assert!(!c.valids.is_empty());
        let mut nonempty = 0;
        for i in 0..c.valids.len() as u32 {
            let span = c.sans(i);
            assert!(
                span.windows(2).all(|w| w[0] < w[1]),
                "span not strictly sorted"
            );
            let names: HashSet<&str> = c.valids[i as usize].leaf.dns_names().iter().collect();
            assert_eq!(span.len(), names.len());
            for s in span {
                assert!(names.contains(c.interner.hosts().resolve(*s)));
            }
            nonempty += usize::from(!span.is_empty());
        }
        assert!(nonempty > 100, "{nonempty} certs with SANs");
    }

    #[test]
    fn cloudflare_flags_match_string_classifier() {
        let c = corpus(30);
        for i in 0..c.valids.len() as u32 {
            let by_string = c.valids[i as usize]
                .leaf
                .dns_names()
                .iter()
                .any(is_cloudflare_free_san);
            assert_eq!(c.cert_has_cloudflare_free_san(i), by_string, "cert {i}");
        }
        assert!(
            (0..c.valids.len() as u32).any(|i| c.cert_has_cloudflare_free_san(i)),
            "no universal-SSL certs in corpus; the flag test is vacuous"
        );
    }

    #[test]
    fn hg_indices_partition_consistently() {
        let c = corpus(30);
        for hg in ALL_HGS {
            let std_set = c.hg_std_indices(hg);
            let all_set = c.hg_all_indices(hg);
            assert!(std_set.len() <= all_set.len(), "{hg}");
            // std is a subsequence of all.
            let all: HashSet<u32> = all_set.iter().copied().collect();
            assert!(std_set.iter().all(|i| all.contains(i)), "{hg}");
        }
    }

    /// A snapshot observed through uniform record faults at rate 0.1
    /// (what `OFFNET_FAULT_RATE=0.1` selects in the study suites) and its
    /// corpus under the standard options, so malformed, duplicate and
    /// expiry-exempted records all occur.
    fn faulted(t: usize) -> (SnapshotObservations, SnapshotCorpus) {
        let w = world();
        let plan = Arc::new(scanner::FaultPlan::uniform_record_faults(11, 0.1));
        let engine = ScanEngine::rapid7().with_faults(plan);
        let obs = observe_snapshot(w, &engine, t).unwrap();
        let corpus = SnapshotCorpus::build(
            &obs,
            w.pki().root_store(),
            &crate::standard_validate_options(),
            None,
        );
        (obs, corpus)
    }

    /// The per-certificate scan `hg_org_indices` replaced: lowercase every
    /// organization, probe all 23 keywords.
    fn naive_hg_org_indices(valids: &[ValidatedCert]) -> (HgIndex, HgIndex) {
        let mut by_hg_std = HgIndex::new();
        let mut by_hg_all = HgIndex::new();
        for (i, vc) in valids.iter().enumerate() {
            let Some(org) = vc.leaf.subject().organization() else {
                continue;
            };
            let org_lc = org.to_ascii_lowercase();
            for hg in ALL_HGS {
                if org_lc.contains(hg.spec().keyword) {
                    by_hg_all.entry(hg).or_default().push(i as u32);
                    if !vc.expiry_exempted {
                        by_hg_std.entry(hg).or_default().push(i as u32);
                    }
                }
            }
        }
        (by_hg_std, by_hg_all)
    }

    #[test]
    fn hg_org_indices_match_the_per_cert_scan_under_faults() {
        let mut exempted = 0;
        for t in [0, 15, 30] {
            let (_, c) = faulted(t);
            let (std_naive, all_naive) = naive_hg_org_indices(&c.valids);
            assert_eq!(c.by_hg_all, all_naive, "snapshot {t}");
            assert_eq!(c.by_hg_std, std_naive, "snapshot {t}");
            assert!(c.validation.invalid_total() > 0, "snapshot {t}: no faults");
            assert!(c.by_hg_all.len() > 5, "snapshot {t}");
            exempted += c.valids.iter().filter(|v| v.expiry_exempted).count();
        }
        assert!(exempted > 0, "no expiry-exempted certificate");
    }

    #[test]
    fn an_organization_naming_two_hgs_indexes_under_both() {
        let key = x509::KeyPair::from_seed("two-hg");
        let leaf = |org: &str| {
            Arc::new(
                x509::CertificateBuilder::new()
                    .subject(x509::NameBuilder::new().organization(org).build())
                    .end_entity()
                    .subject_key(&key)
                    .self_signed(&key),
            )
        };
        let shared = leaf("Akamai edge for GOOGLE Fiber");
        let valids = [
            (shared.clone(), false),
            (leaf("Unrelated Hosting"), false),
            (shared, true),
            (leaf("akamai"), false),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (leaf, expiry_exempted))| ValidatedCert {
            ip: i as u32,
            leaf,
            expiry_exempted,
        })
        .collect::<Vec<_>>();
        let (by_hg_std, by_hg_all) = hg_org_indices(&valids);
        assert_eq!(by_hg_all[&Hg::Google], [0, 2]);
        assert_eq!(by_hg_all[&Hg::Akamai], [0, 2, 3]);
        assert_eq!(by_hg_std[&Hg::Google], [0]);
        assert_eq!(by_hg_std[&Hg::Akamai], [0, 3]);
        assert_eq!(by_hg_all.len(), 2);
        assert_eq!((by_hg_std, by_hg_all), naive_hg_org_indices(&valids));
    }

    #[test]
    fn keyword_matcher_agrees_with_lowercase_contains() {
        let matcher = KeywordMatcher::new();
        let pieces = [
            "Google",
            "AKAMAI",
            "net",
            "flix",
            "Netflix",
            "cdn7",
            "cdn77",
            "Apple",
            "hul",
            "u",
            " ",
            ", Inc.",
            "é",
            "Ü",
            "cloudflare",
            "CachEFly",
            "",
        ];
        // Every string of up to three pieces: keywords split across
        // pieces, repeated, adjacent, cased, next to multi-byte UTF-8.
        for a in pieces {
            for b in pieces {
                for c in pieces {
                    let org = format!("{a}{b}{c}");
                    let org_lc = org.to_ascii_lowercase();
                    let naive = ALL_HGS
                        .iter()
                        .enumerate()
                        .filter(|(_, hg)| org_lc.contains(hg.spec().keyword))
                        .fold(0, |bits, (k, _)| bits | 1 << k);
                    assert_eq!(matcher.hg_bits(&org), naive, "{org:?}");
                }
            }
        }
    }

    #[test]
    fn san_spans_per_leaf_equal_per_cert_interning() {
        for t in [15, 30] {
            let (obs, c) = faulted(t);
            let mut interner = obs.interner.clone();
            let mut offsets = vec![0u32];
            let mut syms: Vec<HostSym> = Vec::new();
            for vc in &c.valids {
                let mut span: Vec<HostSym> = vc
                    .leaf
                    .dns_names()
                    .iter()
                    .map(|n| interner.hosts.intern(n))
                    .collect();
                span.sort_unstable();
                span.dedup();
                syms.extend(span);
                offsets.push(syms.len() as u32);
            }
            assert_eq!(c.san_offsets, offsets, "snapshot {t}");
            assert_eq!(c.san_syms, syms, "snapshot {t}");
            assert!(c.interner.hosts().iter().eq(interner.hosts.iter()));
            let leaves: HashSet<*const Certificate> =
                c.valids.iter().map(|v| Arc::as_ptr(&v.leaf)).collect();
            assert!(leaves.len() < c.valids.len(), "no leaf is shared");
        }
    }

    #[test]
    fn interned_model_beats_string_model() {
        let m = corpus(30).memory;
        assert!(m.hosts > 0 && m.header_names > 0 && m.header_values > 0);
        assert!(
            (m.interned_bytes as f64) < 0.7 * m.string_model_bytes as f64,
            "interned {} vs string {}",
            m.interned_bytes,
            m.string_model_bytes
        );
    }
}
