//! §4.5 — confirming candidates with HTTP(S) header fingerprints.
//!
//! This stage runs entirely on interned symbols: banners are indexed
//! into columnar per-port tables of `(HeaderNameSym, HeaderValueSym)`
//! pairs, and the learned string fingerprints are compiled once per
//! snapshot (against the frozen interner, before the per-HG stages)
//! into symbol sets so matching is integer comparisons.

use crate::candidates::CandidateSet;
use crate::headers::HeaderFingerprints;
use crate::wordhash::WordMap;
use intern::{FrozenInterner, HeaderNameSym, HeaderValueSym, Interner};
use netsim::{AsId, IpToAsMap};
use scanner::HttpRecord;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// Which banner corpuses must match for confirmation (Figure 4's series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmMode {
    /// Certificates and (HTTP or HTTPS) headers — the paper's default.
    HttpOrHttps,
    /// Certificates and (HTTP and HTTPS) headers.
    HttpAndHttps,
}

/// A banner port: the scan streams §4.5 confirms against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    Http80,
    Https443,
}

impl Port {
    pub const ALL: [Port; 2] = [Port::Http80, Port::Https443];

    fn idx(self) -> usize {
        match self {
            Port::Http80 => 0,
            Port::Https443 => 1,
        }
    }
}

/// Banner-stream quality counters: how many records the indexer saw and
/// how many it quarantined, by defect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BannerQuality {
    /// Banner records across both ports before indexing.
    pub records_seen: usize,
    /// Records dropped for a header value past the size cap.
    pub oversized: usize,
    /// Records dropped for control bytes / U+FFFD in a header value.
    pub mojibake: usize,
    /// Repeat records for an IP already indexed on the same port.
    pub duplicate_ip: usize,
}

impl BannerQuality {
    pub fn quarantined_total(&self) -> usize {
        self.oversized + self.mojibake + self.duplicate_ip
    }

    /// Sum another quality block into this one (per-shard banner indexes
    /// partition the record stream, so their counters add exactly).
    pub fn merge(&mut self, other: &BannerQuality) {
        self.records_seen += other.records_seen;
        self.oversized += other.oversized;
        self.mojibake += other.mojibake;
        self.duplicate_ip += other.duplicate_ip;
    }
}

/// A header value is corrupt when it carries a control byte (other than
/// horizontal tab) or the U+FFFD replacement character — no simulated or
/// real banner legitimately does.
fn value_is_mojibake(v: &str) -> bool {
    v.chars()
        .any(|c| c == '\u{fffd}' || (c.is_control() && c != '\t'))
}

/// The `ip_to_row` entry of an IP whose first record was quarantined:
/// its later rows are still duplicates, but it has no row.
const QUARANTINED: u32 = u32::MAX;

/// One port's banners, laid out columnarly: a flat pair column plus a
/// row-offset column, with an IP→row map on top. Rows are immutable once
/// built, so the whole table is shared read-only across workers.
#[derive(Debug)]
struct PortTable {
    /// Every IP the stream carried: its row, or [`QUARANTINED`].
    ip_to_row: WordMap<u32, u32>,
    /// `pairs[offsets[row] .. offsets[row + 1]]` is row `row`'s headers.
    offsets: Vec<u32>,
    pairs: Vec<(HeaderNameSym, HeaderValueSym)>,
}

impl Default for PortTable {
    fn default() -> Self {
        Self {
            ip_to_row: WordMap::default(),
            offsets: vec![0],
            pairs: Vec::new(),
        }
    }
}

impl PortTable {
    fn get(&self, ip: u32) -> Option<&[(HeaderNameSym, HeaderValueSym)]> {
        let row = *self.ip_to_row.get(&ip).filter(|&&r| r != QUARANTINED)? as usize;
        Some(&self.pairs[self.offsets[row] as usize..self.offsets[row + 1] as usize])
    }

    fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    fn heap_bytes(&self) -> usize {
        self.ip_to_row.len() * (std::mem::size_of::<u32>() * 2 + 4)
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.pairs.len() * std::mem::size_of::<(HeaderNameSym, HeaderValueSym)>()
    }
}

/// Indexed banners of one snapshot.
///
/// Corrupt records (oversized or mojibake header values) and duplicate
/// rows are quarantined at build time — counted in [`BannerQuality`] and
/// kept out of the index — so §4.5 only ever matches against well-formed
/// banners. For duplicates the first record wins, mirroring §4.1's
/// first-record-wins IP dedup. Because values are interned, corruption
/// is classified once per *distinct* value over the pool, then looked up
/// per record.
#[derive(Debug, Default)]
pub struct BannerIndex {
    tables: [PortTable; 2],
    pub quality: BannerQuality,
}

impl BannerIndex {
    /// Index a snapshot's (or shard's) banner streams. The corpus
    /// assembly is its one caller outside this module's tests.
    pub(crate) fn build(banners: [&[HttpRecord]; 2], interner: &Interner) -> Self {
        // Classify each distinct header value once; records then check a
        // flag per symbol instead of re-scanning the bytes.
        let n_vals = interner.header_values.len();
        let mut oversized = vec![false; n_vals];
        let mut mojibake = vec![false; n_vals];
        for (sym, s) in interner.header_values.iter() {
            let i = sym.index() as usize;
            oversized[i] = s.len() > scanner::MAX_HEADER_VALUE_LEN;
            mojibake[i] = value_is_mojibake(s);
        }

        let mut idx = Self::default();
        for (table, records) in idx.tables.iter_mut().zip(banners) {
            Self::index_stream(table, records, &mut idx.quality, &oversized, &mojibake);
        }
        idx
    }

    fn index_stream(
        table: &mut PortTable,
        records: &[HttpRecord],
        quality: &mut BannerQuality,
        oversized: &[bool],
        mojibake: &[bool],
    ) {
        // One hash operation per record: the IP's entry tells a duplicate
        // and, when vacant, takes the new row or the quarantine mark.
        table.ip_to_row.reserve(records.len());
        for r in records {
            quality.records_seen += 1;
            let Entry::Vacant(entry) = table.ip_to_row.entry(r.ip) else {
                quality.duplicate_ip += 1;
                continue;
            };
            // Per record, the first defect found decides the quarantine
            // reason (matching the injector's per-record exclusivity).
            if r.headers.iter().any(|(_, v)| oversized[v.index() as usize]) {
                quality.oversized += 1;
                entry.insert(QUARANTINED);
            } else if r.headers.iter().any(|(_, v)| mojibake[v.index() as usize]) {
                quality.mojibake += 1;
                entry.insert(QUARANTINED);
            } else {
                entry.insert((table.offsets.len() - 1) as u32);
                table.pairs.extend_from_slice(&r.headers);
                table.offsets.push(table.pairs.len() as u32);
            }
        }
    }

    /// The indexed banner row for `ip` on `port`, if one survived
    /// quarantine.
    pub fn get(&self, port: Port, ip: u32) -> Option<&[(HeaderNameSym, HeaderValueSym)]> {
        self.tables[port.idx()].get(ip)
    }

    /// Whether any HTTPS banners exist at all (they don't before the
    /// corpuses added HTTPS data).
    pub fn has_https(&self) -> bool {
        !self.tables[Port::Https443.idx()].is_empty()
    }

    /// Bytes held by the columnar tables (excluding the interner pools,
    /// which are accounted separately).
    pub fn heap_bytes(&self) -> usize {
        self.tables.iter().map(PortTable::heap_bytes).sum()
    }
}

/// Confirmed off-nets for one HG in one snapshot.
#[derive(Debug, Clone, Default)]
pub struct ConfirmedSet {
    pub ases: BTreeSet<AsId>,
    pub ips: Vec<u32>,
}

/// Edge CDNs whose headers take priority in multi-HG conflicts (§7
/// "Reverse Proxies and Cache Misses": Akamai and Cloudflare edges in
/// front of other origins).
const EDGE_PRIORITY: &[&str] = &["akamai", "cloudflare"];

/// One HG's header fingerprint compiled against a snapshot's frozen
/// interner: names as a sorted symbol set, and each `(name, prefix)`
/// pair expanded to the sorted set of value symbols the prefix matches.
#[derive(Debug, Clone)]
pub struct CompiledFingerprint {
    pub keyword: String,
    /// Sorted name symbols from the source fingerprint's name-only list.
    names: Vec<HeaderNameSym>,
    /// Per source pair: the name symbol plus every value symbol in the
    /// pool whose string starts with the source prefix (sorted).
    pairs: Vec<(HeaderNameSym, Vec<HeaderValueSym>)>,
    /// Whether the *source* fingerprint was empty (§7 "Missing
    /// Headers") — distinct from compiling to no resolvable symbols.
    empty: bool,
}

impl CompiledFingerprint {
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Does this banner row match? Equivalent to the string model's
    /// "name in names, or pair name equal and value has prefix".
    pub fn matches(&self, row: &[(HeaderNameSym, HeaderValueSym)]) -> bool {
        row.iter().any(|(n, v)| {
            self.names.binary_search(n).is_ok()
                || self
                    .pairs
                    .iter()
                    .any(|(pn, vals)| pn == n && vals.binary_search(v).is_ok())
        })
    }
}

/// All HGs' fingerprints compiled for one corpus. Built once before the
/// per-HG loop, which reads it for every HG.
#[derive(Debug, Default)]
pub struct CompiledFingerprints {
    fps: Vec<CompiledFingerprint>,
    by_keyword: HashMap<String, u32>,
    /// Indices of the [`EDGE_PRIORITY`] fingerprints.
    edge: Vec<u32>,
}

impl CompiledFingerprints {
    /// Compile every learned fingerprint against `interner`. Names (and
    /// pair names) absent from the snapshot's pool can never match a
    /// banner and are dropped; prefix pairs are expanded by a single
    /// pass over the value pool.
    pub fn compile(src: &HeaderFingerprints, interner: &FrozenInterner) -> Self {
        let mut keywords: Vec<&str> = src.iter().map(|fp| fp.keyword.as_str()).collect();
        keywords.sort_unstable();

        let mut out = Self::default();
        // (fp index, pair index, prefix) for the pool expansion pass.
        let mut pending: Vec<(usize, usize, String)> = Vec::new();
        for kw in keywords {
            let fp = src.get(kw).expect("keyword from iterator");
            let mut compiled = CompiledFingerprint {
                keyword: fp.keyword.clone(),
                names: Vec::new(),
                pairs: Vec::new(),
                empty: fp.names.is_empty() && fp.pairs.is_empty(),
            };
            for name in &fp.names {
                if let Some(sym) = interner.header_names().get(name) {
                    compiled.names.push(sym);
                }
            }
            compiled.names.sort_unstable();
            let fp_idx = out.fps.len();
            for (name, prefix) in &fp.pairs {
                if let Some(sym) = interner.header_names().get(name) {
                    pending.push((fp_idx, compiled.pairs.len(), prefix.clone()));
                    compiled.pairs.push((sym, Vec::new()));
                }
            }
            if EDGE_PRIORITY.contains(&fp.keyword.as_str()) {
                out.edge.push(fp_idx as u32);
            }
            out.by_keyword.insert(fp.keyword.clone(), fp_idx as u32);
            out.fps.push(compiled);
        }

        // One pass over the value pool expands every prefix at once.
        // Pool iteration is in symbol order, so the sets come out sorted.
        for (sym, s) in interner.header_values().iter() {
            for (fp_idx, pair_idx, prefix) in &pending {
                if s.starts_with(prefix.as_str()) {
                    out.fps[*fp_idx].pairs[*pair_idx].1.push(sym);
                }
            }
        }
        out
    }

    pub fn get(&self, keyword: &str) -> Option<&CompiledFingerprint> {
        self.by_keyword.get(keyword).map(|&i| &self.fps[i as usize])
    }

    /// Does any edge CDN's fingerprint match this banner row?
    pub fn edge_matches(&self, row: &[(HeaderNameSym, HeaderValueSym)]) -> bool {
        self.edge.iter().any(|&i| self.fps[i as usize].matches(row))
    }
}

/// Confirm a candidate set using compiled header fingerprints.
///
/// A candidate IP is confirmed when its banner(s) match the HG's header
/// fingerprint under `mode`. When the banner *also* matches an edge CDN's
/// fingerprint (and the HG itself is not that CDN), the edge wins and the
/// candidate is rejected — the response came through a reverse proxy.
pub fn confirm_candidates(
    keyword: &str,
    candidates: &CandidateSet,
    fps: &CompiledFingerprints,
    banners: &BannerIndex,
    ip_to_as: &IpToAsMap,
    mode: ConfirmMode,
) -> ConfirmedSet {
    let keyword = keyword.to_ascii_lowercase();
    let mut out = ConfirmedSet::default();
    let Some(fp) = fps.get(&keyword) else {
        return out;
    };
    if fp.is_empty() {
        // No usable header fingerprint (§7 "Missing Headers") — nothing
        // can be confirmed for this HG.
        return out;
    }
    let hg_is_edge = EDGE_PRIORITY.contains(&keyword.as_str());
    for (ip, _cert) in &candidates.ips {
        // One matcher over both ports: Some(matched) if a banner exists.
        // Reverse-proxy conflict: edge headers win over origin headers.
        let m = Port::ALL.map(|port| {
            banners
                .get(port, *ip)
                .map(|row| fp.matches(row) && (hg_is_edge || !fps.edge_matches(row)))
        });
        let confirmed = match mode {
            ConfirmMode::HttpOrHttps => m.contains(&Some(true)),
            ConfirmMode::HttpAndHttps => {
                // Require agreement on every banner that exists; HTTPS-only
                // epochs degrade to HTTP-only data.
                match (m[0], m[1]) {
                    (Some(a), Some(b)) => a && b,
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => false,
                }
            }
        };
        if confirmed {
            out.ips.push(*ip);
            for a in ip_to_as.lookup(*ip) {
                out.ases.insert(*a);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::HeaderFingerprint;
    use netsim::{BgpNoiseConfig, MonthlyRib, Topology, TopologyConfig};
    use x509::Fingerprint;

    fn tiny_map() -> (Topology, IpToAsMap) {
        let t = Topology::generate(&TopologyConfig::small(7));
        let rib = MonthlyRib::build(
            &t,
            30,
            &BgpNoiseConfig {
                hijack_rate: 0.0,
                moas_rate: 0.0,
                flap_rate: 0.0,
            },
            7,
        );
        let m = IpToAsMap::build(&rib);
        (t, m)
    }

    fn fps() -> HeaderFingerprints {
        let mut fps = HeaderFingerprints::default();
        fps.insert(HeaderFingerprint {
            keyword: "google".into(),
            pairs: vec![("server".into(), "gvs".into())],
            names: vec![],
            support: 10,
        });
        fps.insert(HeaderFingerprint {
            keyword: "akamai".into(),
            pairs: vec![("server".into(), "AkamaiGHost".into())],
            names: vec![],
            support: 10,
        });
        fps.insert(HeaderFingerprint {
            keyword: "apple".into(),
            pairs: vec![],
            names: vec!["cdnuuid".into()],
            support: 10,
        });
        fps
    }

    /// Intern a test banner, lowercasing names as the scanner does.
    fn rec(interner: &mut Interner, ip: u32, hs: &[(&str, &str)]) -> HttpRecord {
        HttpRecord {
            ip,
            headers: hs
                .iter()
                .map(|(n, v)| {
                    (
                        interner.header_names.intern(&n.to_ascii_lowercase()),
                        interner.header_values.intern(v),
                    )
                })
                .collect(),
        }
    }

    fn banner_index(interner: &mut Interner, entries: &[(u32, &[(&str, &str)])]) -> BannerIndex {
        let records: Vec<_> = entries
            .iter()
            .map(|(ip, hs)| rec(interner, *ip, hs))
            .collect();
        BannerIndex::build([&records, &[]], interner)
    }

    fn candidate(ips: &[u32]) -> CandidateSet {
        CandidateSet {
            ips: ips.iter().map(|&ip| (ip, Fingerprint([0u8; 32]))).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn matching_banner_confirms() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        let mut interner = Interner::default();
        let banners = banner_index(&mut interner, &[(ip, &[("Server", "gvs 1.0")])]);
        let compiled = CompiledFingerprints::compile(&fps(), &interner.freeze());
        let set = confirm_candidates(
            "google",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert_eq!(set.ips, vec![ip]);
        assert!(set.ases.contains(&topo.ases()[100].id));
    }

    #[test]
    fn non_matching_banner_rejected() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        let mut interner = Interner::default();
        let banners = banner_index(&mut interner, &[(ip, &[("Server", "nginx")])]);
        let compiled = CompiledFingerprints::compile(&fps(), &interner.freeze());
        let set = confirm_candidates(
            "google",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert!(set.ips.is_empty());
    }

    #[test]
    fn edge_priority_rejects_origin_attribution() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        // Banner carries BOTH apple-ish and akamai headers (cache miss
        // through an Akamai edge) — apple must not be confirmed, akamai is.
        let mut interner = Interner::default();
        let banners = banner_index(
            &mut interner,
            &[(ip, &[("Server", "AkamaiGHost"), ("CDNUUID", "abc-123")])],
        );
        let compiled = CompiledFingerprints::compile(&fps(), &interner.freeze());
        let apple = confirm_candidates(
            "apple",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert!(apple.ips.is_empty(), "apple must lose to the akamai edge");
        let akamai = confirm_candidates(
            "akamai",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert_eq!(akamai.ips, vec![ip]);
    }

    #[test]
    fn missing_banner_means_unconfirmed() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        let mut interner = Interner::default();
        let banners = banner_index(&mut interner, &[]);
        let compiled = CompiledFingerprints::compile(&fps(), &interner.freeze());
        let set = confirm_candidates(
            "google",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert!(set.ips.is_empty());
    }

    #[test]
    fn and_mode_requires_agreement() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        let mut interner = Interner::default();
        let http = [rec(&mut interner, ip, &[("Server", "gvs 1.0")])];
        let https = [rec(&mut interner, ip, &[("Server", "nginx")])];
        let banners = BannerIndex::build([&http, &https], &interner);
        let compiled = CompiledFingerprints::compile(&fps(), &interner.freeze());
        let or_mode = confirm_candidates(
            "google",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert_eq!(or_mode.ips.len(), 1);
        let and_mode = confirm_candidates(
            "google",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpAndHttps,
        );
        assert!(and_mode.ips.is_empty());
    }

    #[test]
    fn corrupt_and_duplicate_banners_are_quarantined() {
        let mut interner = Interner::default();
        let records = vec![
            rec(&mut interner, 1, &[("Server", "gvs 1.0")]),
            // Duplicate row for IP 1: first record wins.
            rec(&mut interner, 1, &[("Server", "nginx")]),
            // Mojibake value.
            rec(&mut interner, 2, &[("Server", "gvs\u{fffd}\u{0007}")]),
            // Oversized value.
            rec(
                &mut interner,
                3,
                &[("Server", &"A".repeat(scanner::MAX_HEADER_VALUE_LEN + 1))],
            ),
            rec(&mut interner, 4, &[("Server", "clean\tvalue")]),
        ];
        let idx = BannerIndex::build([&records, &[]], &interner);
        assert_eq!(idx.quality.records_seen, 5);
        assert_eq!(idx.quality.duplicate_ip, 1);
        assert_eq!(idx.quality.mojibake, 1);
        assert_eq!(idx.quality.oversized, 1);
        assert_eq!(idx.quality.quarantined_total(), 3);
        let row = idx.get(Port::Http80, 1).unwrap();
        assert_eq!(
            interner.header_values.resolve(row[0].1),
            "gvs 1.0",
            "first record wins"
        );
        assert!(
            idx.get(Port::Http80, 2).is_none(),
            "mojibake banner must not index"
        );
        assert!(
            idx.get(Port::Http80, 3).is_none(),
            "oversized banner must not index"
        );
        assert!(
            idx.get(Port::Http80, 4).is_some(),
            "tab is a legal header byte"
        );
    }

    /// An indexed banner row: the IP and its header pairs.
    type Row = (u32, Vec<(HeaderNameSym, HeaderValueSym)>);

    /// The indexer as it was with two hash structures: a per-port `seen`
    /// set for duplicates, then an IP→row map for the surviving rows.
    /// Returns the quality counters and the surviving rows.
    fn two_structure_reference(
        records: &[HttpRecord],
        interner: &Interner,
    ) -> (BannerQuality, Vec<Row>) {
        let mut quality = BannerQuality::default();
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::new();
        for r in records {
            quality.records_seen += 1;
            if !seen.insert(r.ip) {
                quality.duplicate_ip += 1;
                continue;
            }
            let value = |v: &HeaderValueSym| interner.header_values.resolve(*v);
            if r.headers
                .iter()
                .any(|(_, v)| value(v).len() > scanner::MAX_HEADER_VALUE_LEN)
            {
                quality.oversized += 1;
                continue;
            }
            if r.headers.iter().any(|(_, v)| value_is_mojibake(value(v))) {
                quality.mojibake += 1;
                continue;
            }
            rows.push((r.ip, r.headers.clone()));
        }
        (quality, rows)
    }

    #[test]
    fn one_map_indexing_matches_the_two_structure_reference() {
        let mut interner = Interner::default();
        let long = "A".repeat(scanner::MAX_HEADER_VALUE_LEN + 1);
        let records = vec![
            rec(&mut interner, 7, &[("Server", "gvs 1.0")]),
            // Quarantined first rows, then clean duplicates of them: the
            // duplicates stay quarantined as duplicates and never index.
            rec(&mut interner, 2, &[("Server", "gvs\u{fffd}")]),
            rec(&mut interner, 2, &[("Server", "clean")]),
            rec(&mut interner, 3, &[("Server", &long)]),
            rec(&mut interner, 3, &[("Server", "clean")]),
            rec(&mut interner, 3, &[("Server", "gvs\u{0007}")]),
            // A duplicate of a clean row, and a row with no headers.
            rec(&mut interner, 7, &[("Server", "nginx")]),
            rec(&mut interner, 9, &[]),
            rec(&mut interner, 4, &[("Via", "a"), ("Server", "b")]),
        ];
        let idx = BannerIndex::build([&records, &[]], &interner);
        let (quality, rows) = two_structure_reference(&records, &interner);
        assert_eq!(idx.quality, quality);
        assert_eq!(
            (quality.duplicate_ip, quality.oversized, quality.mojibake),
            (4, 1, 1)
        );
        for (ip, headers) in &rows {
            assert_eq!(idx.get(Port::Http80, *ip), Some(&headers[..]), "ip {ip}");
        }
        for ip in [2, 3, 5] {
            assert!(idx.get(Port::Http80, ip).is_none(), "ip {ip} indexed");
        }
        assert!(idx.get(Port::Https443, 7).is_none());
        assert!(!idx.has_https());

        // A port whose every row is quarantined holds no banners.
        let quarantined = vec![rec(&mut interner, 5, &[("Server", &long)])];
        let idx = BannerIndex::build([&[], &quarantined], &interner);
        assert!(!idx.has_https());
        assert_eq!(idx.quality.oversized, 1);
    }

    #[test]
    fn empty_fingerprint_confirms_nothing() {
        let (topo, map) = tiny_map();
        let ip = topo.ases()[100].prefixes[0].addr(1);
        let mut interner = Interner::default();
        let banners = banner_index(&mut interner, &[(ip, &[("X-Hulu-Request-Id", "1")])]);
        let mut fps = HeaderFingerprints::default();
        fps.insert(HeaderFingerprint {
            keyword: "hulu".into(),
            pairs: vec![],
            names: vec![],
            support: 0,
        });
        let compiled = CompiledFingerprints::compile(&fps, &interner.freeze());
        let set = confirm_candidates(
            "hulu",
            &candidate(&[ip]),
            &compiled,
            &banners,
            &map,
            ConfirmMode::HttpOrHttps,
        );
        assert!(set.ips.is_empty());
    }
}
