//! §4.4 — learning Hypergiant HTTP(S) header fingerprints.
//!
//! Large providers leave debug headers on responses. From on-net banners
//! we take the most frequent header name/value pairs, filter standard
//! headers, and keep the ones that are *distinctive* — rare on the
//! Internet at large. Names whose values are per-request identifiers
//! (X-FB-Debug, CF-RAY, ...) become name-only fingerprints; stable values
//! (Server: AkamaiGHost) become name+value-prefix fingerprints. This
//! automates the paper's manual classification step; the one documented
//! manual override retained is Netflix's default-nginx rule (§4.4).
//!
//! Counting runs on interned symbols (banner records carry
//! `(HeaderNameSym, HeaderValueSym)` pairs); the learned
//! [`HeaderFingerprint`] stays string-typed because it crosses snapshots
//! — it is learned once at the reference snapshot and re-compiled
//! against every other snapshot's interner (see
//! [`crate::confirm::CompiledFingerprints`]). Selection ties are broken
//! on the *resolved strings*, never on symbol ids, so the learned
//! fingerprint is independent of interning order.

use intern::{HeaderNameSym, HeaderValueSym, Interner};
use scanner::HttpRecord;
use std::collections::{HashMap, HashSet};

/// Headers too generic to identify anyone (§4.4 "filtered out common
/// standard headers").
const STANDARD_HEADERS: &[&str] = &[
    "content-type",
    "content-length",
    "cache-control",
    "date",
    "expires",
    "etag",
    "last-modified",
    "connection",
    "vary",
    "pragma",
    "accept-ranges",
    "transfer-encoding",
    "set-cookie",
    "location",
    "age",
    "keep-alive",
    "strict-transport-security",
    "x-powered-by",
];

/// How many top pairs to consider per HG (the paper uses 50).
const TOP_PAIRS: usize = 50;
/// A pair/name is "distinctive" when it is at least this much more
/// frequent on the HG's on-net servers than on the Internet at large
/// (lift = on-net frequency / global frequency). Generic software banners
/// like `Server: nginx` have lift close to 1; provider debug headers have
/// lift in the tens to thousands.
const DISTINCTIVE_MIN_LIFT: f64 = 8.0;
/// Headers on more than this fraction of all banners are never
/// fingerprints regardless of lift.
const MAX_GLOBAL_FREQ: f64 = 0.2;
/// Minimum on-net support for a pair/name to be considered.
const MIN_SUPPORT_FRACTION: f64 = 0.05;

/// One HG's learned header fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderFingerprint {
    pub keyword: String,
    /// `(lowercased name, value prefix)` — observed value must start with
    /// the prefix (Table 4's `*` entries).
    pub pairs: Vec<(String, String)>,
    /// Name-only fingerprints (dynamic values).
    pub names: Vec<String>,
    /// Number of on-net banners the fingerprint was learned from.
    pub support: usize,
}

impl HeaderFingerprint {
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty() && self.names.is_empty()
    }
}

/// Learned fingerprints for all HGs, keyed by lowercased keyword.
#[derive(Debug, Clone, Default)]
pub struct HeaderFingerprints {
    by_keyword: HashMap<String, HeaderFingerprint>,
}

impl HeaderFingerprints {
    pub fn get(&self, keyword: &str) -> Option<&HeaderFingerprint> {
        self.by_keyword.get(&keyword.to_ascii_lowercase())
    }

    pub fn insert(&mut self, fp: HeaderFingerprint) {
        self.by_keyword.insert(fp.keyword.clone(), fp);
    }

    pub fn iter(&self) -> impl Iterator<Item = &HeaderFingerprint> {
        self.by_keyword.values()
    }
}

/// Global header-frequency baseline over a banner corpus, keyed by the
/// snapshot's symbols (banner names are interned lowercased at scan
/// time, so no per-record normalization happens here).
#[derive(Debug, Clone, Default)]
pub struct GlobalHeaderStats {
    total_banners: usize,
    name_counts: HashMap<HeaderNameSym, usize>,
    pair_counts: HashMap<(HeaderNameSym, HeaderValueSym), usize>,
}

impl GlobalHeaderStats {
    /// Fold one banner into the tally. Counts *everything*, standard
    /// headers included; the standard filter happens at selection time
    /// ([`learn_header_fingerprints_from_tallies`]), which is equivalent
    /// because standard entries are excluded before the top-pairs cutoff
    /// and can never be selected.
    pub fn absorb(&mut self, r: &HttpRecord) {
        self.total_banners += 1;
        let mut seen_names = HashSet::new();
        for &(name, value) in &r.headers {
            if seen_names.insert(name) {
                *self.name_counts.entry(name).or_insert(0) += 1;
            }
            *self.pair_counts.entry((name, value)).or_insert(0) += 1;
        }
    }

    fn name_freq(&self, name: HeaderNameSym) -> f64 {
        if self.total_banners == 0 {
            return 0.0;
        }
        *self.name_counts.get(&name).unwrap_or(&0) as f64 / self.total_banners as f64
    }

    /// The smallest resolvable frequency (one banner).
    fn floor(&self) -> f64 {
        if self.total_banners == 0 {
            1.0
        } else {
            1.0 / self.total_banners as f64
        }
    }

    fn pair_freq(&self, pair: (HeaderNameSym, HeaderValueSym)) -> f64 {
        if self.total_banners == 0 {
            return 0.0;
        }
        *self.pair_counts.get(&pair).unwrap_or(&0) as f64 / self.total_banners as f64
    }
}

/// Learn one HG's header fingerprint from the tally of its on-net
/// banners, judged against the global baseline. Both sides arrive as
/// [`GlobalHeaderStats`] tallies, so the reference-learning pass streams
/// banners chunk by chunk and never holds them. `interner` resolves
/// symbols for the standard-header filter, the string tie-break, and the
/// (string-typed) output fingerprint.
pub fn learn_header_fingerprints_from_tallies(
    keyword: &str,
    onnet: &GlobalHeaderStats,
    global: &GlobalHeaderStats,
    interner: &Interner,
) -> HeaderFingerprint {
    let keyword = keyword.to_ascii_lowercase();
    let mut fp = HeaderFingerprint {
        keyword: keyword.clone(),
        support: onnet.total_banners,
        ..Default::default()
    };
    if onnet.total_banners == 0 {
        apply_manual_overrides(&mut fp);
        return fp;
    }

    // Standard headers as symbols: one pool probe per list entry instead
    // of a string comparison per tally entry.
    let standard: HashSet<HeaderNameSym> = STANDARD_HEADERS
        .iter()
        .filter_map(|h| interner.header_names.get(h))
        .collect();

    let min_support = ((onnet.total_banners as f64 * MIN_SUPPORT_FRACTION).ceil() as usize).max(2);

    // Top pairs by on-net frequency (the paper's "50 most frequent header
    // name-value pairs"). Ties break on the resolved strings so the
    // take(50) cutoff is independent of symbol-id assignment order.
    // (resolved strings, symbol pair, on-net count) per distinct pair.
    type RankedPair<'a> = ((&'a str, &'a str), (HeaderNameSym, HeaderValueSym), usize);
    let mut top_pairs: Vec<RankedPair> = onnet
        .pair_counts
        .iter()
        .filter(|((n, _), _)| !standard.contains(n))
        .map(|(&(n, v), &c)| {
            (
                (
                    interner.header_names.resolve(n),
                    interner.header_values.resolve(v),
                ),
                (n, v),
                c,
            )
        })
        .collect();
    top_pairs.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let n_onnet = onnet.total_banners as f64;
    for ((name, value), pair, count) in top_pairs.into_iter().take(TOP_PAIRS) {
        if count < min_support {
            continue;
        }
        let onnet_freq = count as f64 / n_onnet;
        let gf = global.pair_freq(pair).max(global.floor());
        if gf <= MAX_GLOBAL_FREQ && onnet_freq / gf >= DISTINCTIVE_MIN_LIFT {
            fp.pairs.push((name.to_owned(), value.to_owned()));
        }
    }

    // Names with dynamic values: frequent on-net, rare globally, and not
    // already captured via a stable pair.
    for (&name, &count) in &onnet.name_counts {
        if standard.contains(&name) || count < min_support {
            continue;
        }
        let name_str = interner.header_names.resolve(name);
        if fp.pairs.iter().any(|(n, _)| n == name_str) {
            // If the name also has many distinct values, keep it name-only
            // instead of enumerating per-request values.
            let distinct_values = onnet.pair_counts.keys().filter(|(n, _)| *n == name).count();
            if distinct_values > onnet.total_banners / 2 && distinct_values > 4 {
                fp.pairs.retain(|(n, _)| n != name_str);
            } else {
                continue;
            }
        }
        let onnet_freq = count as f64 / n_onnet;
        let gf = global.name_freq(name).max(global.floor());
        if gf <= MAX_GLOBAL_FREQ && onnet_freq / gf >= DISTINCTIVE_MIN_LIFT {
            fp.names.push(name_str.to_owned());
        }
    }
    fp.names.sort_unstable();
    fp.pairs.sort_unstable();
    apply_manual_overrides(&mut fp);
    fp
}

/// The one manual classification the paper documents (§4.4): a Netflix
/// certificate plus the bare default nginx header identifies a Netflix
/// OCA. (Safe only because confirmation is scoped to certificate
/// candidates.)
fn apply_manual_overrides(fp: &mut HeaderFingerprint) {
    if fp.keyword == "netflix" {
        fp.pairs.push(("server".to_owned(), "nginx".to_owned()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confirm::CompiledFingerprints;

    /// Intern a test banner, lowercasing names as the scanner does.
    pub(super) fn rec(interner: &mut Interner, headers: &[(&str, &str)]) -> HttpRecord {
        HttpRecord {
            ip: 0,
            headers: headers
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

    /// Fold banners into one tally, in order.
    pub(super) fn tally(records: &[HttpRecord]) -> GlobalHeaderStats {
        let mut s = GlobalHeaderStats::default();
        for r in records {
            s.absorb(r);
        }
        s
    }

    fn global(interner: &mut Interner) -> GlobalHeaderStats {
        // 1000 generic banners: nginx/apache everywhere.
        let mut records = Vec::new();
        for i in 0..1000u32 {
            let server = if i % 2 == 0 { "nginx" } else { "Apache" };
            records.push(rec(
                interner,
                &[
                    ("Server", server),
                    ("Content-Type", "text/html"),
                    ("Cache-Control", "max-age=600"),
                ],
            ));
        }
        tally(&records)
    }

    /// Learn `keyword`'s fingerprint from the tally of its on-net banners.
    fn learn(
        keyword: &str,
        onnet: &[HttpRecord],
        global: &GlobalHeaderStats,
        interner: &Interner,
    ) -> HeaderFingerprint {
        learn_header_fingerprints_from_tallies(keyword, &tally(onnet), global, interner)
    }

    /// Which of `banners` match `fp`, through the production matcher: the
    /// banners are interned, the interner frozen, and `fp` compiled
    /// against it.
    fn matches(
        fp: &HeaderFingerprint,
        mut interner: Interner,
        banners: &[&[(&str, &str)]],
    ) -> Vec<bool> {
        let rows: Vec<HttpRecord> = banners.iter().map(|b| rec(&mut interner, b)).collect();
        let mut fps = HeaderFingerprints::default();
        fps.insert(fp.clone());
        let compiled = CompiledFingerprints::compile(&fps, &interner.freeze());
        let fp = compiled.get(&fp.keyword).expect("compiled keyword");
        rows.iter().map(|r| fp.matches(&r.headers)).collect()
    }

    #[test]
    fn stable_distinctive_value_becomes_pair() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        let banners: Vec<HttpRecord> = (0..100)
            .map(|_| {
                rec(
                    &mut interner,
                    &[("Server", "AkamaiGHost"), ("Content-Type", "text/html")],
                )
            })
            .collect();
        let fp = learn("akamai", &banners, &g, &interner);
        assert!(fp
            .pairs
            .contains(&("server".to_owned(), "AkamaiGHost".to_owned())));
        assert_eq!(
            matches(
                &fp,
                interner,
                &[&[("Server", "AkamaiGHost")], &[("Server", "nginx")]]
            ),
            [true, false]
        );
    }

    #[test]
    fn dynamic_values_become_name_only() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        let banners: Vec<HttpRecord> = (0..100)
            .map(|i| {
                rec(
                    &mut interner,
                    &[
                        ("X-FB-Debug", &format!("h{i}")[..]),
                        ("Server", "proxygen-bolt"),
                    ],
                )
            })
            .collect();
        let fp = learn("facebook", &banners, &g, &interner);
        assert!(fp.names.contains(&"x-fb-debug".to_owned()), "{fp:?}");
        assert!(fp
            .pairs
            .contains(&("server".to_owned(), "proxygen-bolt".to_owned())));
        assert_eq!(
            matches(&fp, interner, &[&[("X-FB-DEBUG", "whatever")]]),
            [true]
        );
    }

    #[test]
    fn generic_values_rejected() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        // On-nets that answer with plain nginx: nothing distinctive.
        let banners: Vec<HttpRecord> = (0..100)
            .map(|_| rec(&mut interner, &[("Server", "nginx")]))
            .collect();
        let fp = learn("hulu", &banners, &g, &interner);
        assert!(fp.is_empty(), "{fp:?}");
    }

    #[test]
    fn standard_headers_never_fingerprints() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        let banners: Vec<HttpRecord> = (0..100)
            .map(|_| {
                rec(
                    &mut interner,
                    &[("Content-Type", "application/x-hg-special")],
                )
            })
            .collect();
        let fp = learn("disney", &banners, &g, &interner);
        assert!(fp.is_empty());
    }

    #[test]
    fn netflix_manual_nginx_rule() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        let fp = learn("netflix", &[], &g, &interner);
        assert_eq!(matches(&fp, interner, &[&[("Server", "nginx")]]), [true]);
    }

    #[test]
    fn prefix_matching() {
        let fp = HeaderFingerprint {
            keyword: "google".into(),
            pairs: vec![("server".into(), "gvs".into())],
            names: vec![],
            support: 10,
        };
        assert_eq!(
            matches(
                &fp,
                Interner::default(),
                &[&[("Server", "gvs 1.0")], &[("Server", "g")]]
            ),
            [true, false]
        );
    }

    #[test]
    fn min_support_enforced() {
        let mut interner = Interner::default();
        let g = global(&mut interner);
        // A header seen on a single on-net banner is noise, not a
        // fingerprint.
        let mut banners: Vec<HttpRecord> = (0..99)
            .map(|_| rec(&mut interner, &[("Server", "nginx")]))
            .collect();
        banners.push(rec(&mut interner, &[("X-Oddball", "1")]));
        let fp = learn("yahoo", &banners, &g, &interner);
        assert!(fp.is_empty(), "{fp:?}");
    }
}

#[cfg(test)]
mod permutation_props {
    use super::tests::{rec, tally};
    use super::*;
    use proptest::prelude::*;

    /// Deterministic Fisher–Yates driven by an LCG, so shuffles are a
    /// pure function of the proptest-supplied seed.
    fn shuffle<T>(v: &mut [T], mut s: u64) {
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            v.swap(i, j);
        }
    }

    /// An on-net corpus dense enough to exercise the top-50 cutoff: 60
    /// distinctive pair types with overlapping, tie-heavy counts, plus a
    /// dynamic-value header that must demote to name-only.
    fn onnet_corpus(interner: &mut Interner) -> Vec<HttpRecord> {
        let n = 100u64;
        (0..n)
            .map(|b| {
                let mut headers: Vec<(String, String)> = (0..60u64)
                    .filter(|k| b % (2 + k % 7) == k % 3)
                    .map(|k| (format!("x-hg-{k}"), format!("val-{k}")))
                    .collect();
                headers.push(("x-req-id".to_owned(), format!("req-{b}")));
                headers.push(("Server".to_owned(), "hg-edge".to_owned()));
                let pairs: Vec<(&str, &str)> = headers
                    .iter()
                    .map(|(a, c)| (a.as_str(), c.as_str()))
                    .collect();
                rec(interner, &pairs)
            })
            .collect()
    }

    proptest! {
        /// Learning (including top-50 selection and the name-only
        /// demotion) must be invariant under permuting both the order in
        /// which banners are folded into the tallies and each banner's
        /// header-pair order.
        #[test]
        fn learning_invariant_under_permutation(seed in any::<u64>()) {
            let mut interner = Interner::default();
            let global_records = {
                let mut v = Vec::new();
                for i in 0..1000u32 {
                    let server = if i % 2 == 0 { "nginx" } else { "Apache" };
                    v.push(rec(&mut interner, &[("Server", server)]));
                }
                v
            };
            let onnet = onnet_corpus(&mut interner);

            let baseline = learn_header_fingerprints_from_tallies(
                "permhg",
                &tally(&onnet),
                &tally(&global_records),
                &interner,
            );
            // The corpus must actually exercise both selection paths.
            prop_assert!(!baseline.pairs.is_empty());
            prop_assert!(baseline.names.contains(&"x-req-id".to_owned()));

            let mut onnet_p = onnet.clone();
            shuffle(&mut onnet_p, seed);
            for (i, r) in onnet_p.iter_mut().enumerate() {
                shuffle(&mut r.headers, seed ^ (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
            }
            let mut global_p = global_records.clone();
            shuffle(&mut global_p, seed ^ 0x5eed);

            let permuted = learn_header_fingerprints_from_tallies(
                "permhg",
                &tally(&onnet_p),
                &tally(&global_p),
                &interner,
            );
            prop_assert_eq!(baseline, permuted);
        }
    }
}
