//! §4.2 — learning Hypergiant TLS fingerprints.
//!
//! Input: the HG's name and the validated certificates found inside the
//! HG's own address space. On-net end-entity certificates whose Subject
//! Organization contains the HG name (case-insensitively) yield the
//! authoritative set of dNSNames the HG serves.
//!
//! The on-net name set is a sorted `Vec<HostSym>` over the snapshot
//! corpus's host pool, so §4.3's all-SANs-on-net rule
//! ([`TlsFingerprint::covers_all`]) is a sorted-merge subset test over
//! integers — no per-candidate string hashing.

use crate::corpus::SnapshotCorpus;
use intern::{sorted_subset, FrozenInterner, HostSym};
use netsim::AsId;
use std::collections::{BTreeSet, HashSet};

/// A Hypergiant's learned TLS fingerprint. Symbols are relative to the
/// corpus the fingerprint was learned from — it must not be matched
/// against another snapshot's corpus.
#[derive(Debug, Clone, Default)]
pub struct TlsFingerprint {
    /// The HG name searched in the Organization field (lowercase).
    pub keyword: String,
    /// dNSNames observed in on-net, organization-matching EE
    /// certificates: sorted, deduplicated host symbols.
    dns_syms: Vec<HostSym>,
    /// Number of on-net certificates contributing to the fingerprint.
    pub onnet_certs: usize,
}

impl TlsFingerprint {
    /// Rebuild a fingerprint from raw parts. The sharded consumer maps a
    /// study-wide on-net name set (kept as strings across shards) into one
    /// shard's host pool; `dns_syms` must arrive sorted and deduplicated,
    /// exactly as [`learn_tls_fingerprints`] would have produced it.
    pub(crate) fn from_parts(keyword: String, dns_syms: Vec<HostSym>, onnet_certs: usize) -> Self {
        debug_assert!(dns_syms.windows(2).all(|w| w[0] < w[1]));
        Self {
            keyword,
            dns_syms,
            onnet_certs,
        }
    }

    /// Whether a certificate's Organization matches this HG (§4.2's
    /// case-insensitive substring search).
    pub fn org_matches(&self, org: Option<&str>) -> bool {
        org.map(|o| o.to_ascii_lowercase().contains(&self.keyword))
            .unwrap_or(false)
    }

    /// Whether *all* of a certificate's dNSNames are covered by the
    /// on-net set (§4.3's filter). `sans` must be a sorted, deduplicated
    /// span, as produced by [`SnapshotCorpus::sans`].
    pub fn covers_all(&self, sans: &[HostSym]) -> bool {
        !sans.is_empty() && sorted_subset(sans, &self.dns_syms)
    }

    /// The on-net name set (sorted, deduplicated).
    pub fn dns_syms(&self) -> &[HostSym] {
        &self.dns_syms
    }

    /// String-side probe: is `name` in the on-net set? (Test/report
    /// convenience — the hot path never resolves.)
    pub fn contains_name(&self, interner: &FrozenInterner, name: &str) -> bool {
        interner
            .hosts()
            .get(name)
            .is_some_and(|sym| self.dns_syms.binary_search(&sym).is_ok())
    }

    /// String-side coverage probe: are all `names` in the on-net set?
    pub fn covers_all_names(&self, interner: &FrozenInterner, names: &[&str]) -> bool {
        !names.is_empty() && names.iter().all(|n| self.contains_name(interner, n))
    }

    /// Every on-net name, resolved (sorted by symbol, i.e. first-seen
    /// interning order — callers needing lexicographic order must sort).
    pub fn resolved_names<'a>(
        &'a self,
        interner: &'a FrozenInterner,
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.dns_syms.iter().map(|&s| interner.hosts().resolve(s))
    }
}

/// Learn a TLS fingerprint for the HG named `keyword`, whose own ASes are
/// `hg_ases`, from the corpus certificates listed in `cert_idx` (indices
/// into `corpus.valids` — pass a per-HG pre-index or
/// [`SnapshotCorpus::all_cert_indices`]).
pub fn learn_tls_fingerprints(
    keyword: &str,
    hg_ases: &HashSet<AsId>,
    corpus: &SnapshotCorpus,
    cert_idx: &[u32],
) -> TlsFingerprint {
    let keyword_lc = keyword.to_ascii_lowercase();
    let mut fp = TlsFingerprint {
        keyword: keyword_lc.clone(),
        dns_syms: Vec::new(),
        onnet_certs: 0,
    };
    let mut names: BTreeSet<HostSym> = BTreeSet::new();
    for &i in cert_idx {
        let vc = &corpus.valids[i as usize];
        // On-net: the serving IP maps into the HG's own address space.
        if !corpus
            .ip_to_as
            .lookup(vc.ip)
            .iter()
            .any(|a| hg_ases.contains(a))
        {
            continue;
        }
        let org_ok = vc
            .leaf
            .subject()
            .organization()
            .map(|o| o.to_ascii_lowercase().contains(&keyword_lc))
            .unwrap_or(false);
        if !org_ok {
            continue;
        }
        fp.onnet_certs += 1;
        names.extend(corpus.sans(i).iter().copied());
    }
    fp.dns_syms = names.into_iter().collect();
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgsim::{Hg, HgWorld, ScenarioConfig};
    use scanner::{observe_snapshot, ScanEngine};
    use std::sync::OnceLock;

    fn world() -> &'static HgWorld {
        static W: OnceLock<HgWorld> = OnceLock::new();
        W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
    }

    fn corpus(t: usize) -> SnapshotCorpus {
        let w = world();
        let obs = observe_snapshot(w, &ScanEngine::certigo(), t).unwrap();
        SnapshotCorpus::build(&obs, w.pki().root_store(), &Default::default(), None)
    }

    fn learn(hg: Hg, corpus: &SnapshotCorpus) -> TlsFingerprint {
        let hg_ases: HashSet<AsId> = world()
            .org_db()
            .ases_matching(hg.spec().keyword)
            .into_iter()
            .collect();
        learn_tls_fingerprints(
            hg.spec().keyword,
            &hg_ases,
            corpus,
            &corpus.all_cert_indices(),
        )
    }

    #[test]
    fn google_fingerprint_covers_offnet_profile() {
        let c = corpus(30);
        let fp = learn(Hg::Google, &c);
        assert!(fp.onnet_certs > 10, "{} on-net certs", fp.onnet_certs);
        // The off-net default certificate's SANs are all on-net.
        assert!(fp.contains_name(&c.interner, "*.googlevideo.com"));
        assert!(fp.contains_name(&c.interner, "google.com"));
        assert!(fp.covers_all_names(
            &c.interner,
            &["google.com", "*.google.com", "*.googlevideo.com"]
        ));
    }

    #[test]
    fn foreign_names_not_covered() {
        let c = corpus(30);
        let fp = learn(Hg::Google, &c);
        assert!(!fp.covers_all_names(&c.interner, &["google.com", "jointventure-google.example"]));
        assert!(!fp.covers_all_names(&c.interner, &[]));
        assert!(!fp.covers_all(&[]));
    }

    #[test]
    fn org_match_is_case_insensitive_substring() {
        let c = corpus(30);
        let fp = learn(Hg::Google, &c);
        assert!(fp.org_matches(Some("Google LLC")));
        assert!(fp.org_matches(Some("GOOGLE TRUST SERVICES")));
        assert!(!fp.org_matches(Some("Alphabet Inc")));
        assert!(!fp.org_matches(None));
    }

    #[test]
    fn cloudflare_fingerprint_includes_customer_domains() {
        let c = corpus(30);
        let fp = learn(Hg::Cloudflare, &c);
        // Customer certificates are served from Cloudflare's own AS, so
        // their SANs enter the on-net set — the precise failure mode that
        // §7 calls out.
        assert!(
            fp.resolved_names(&c.interner)
                .any(|d| d.contains("cloudflaressl.com")),
            "customer SANs missing from on-net set"
        );
    }

    #[test]
    fn hg_without_matching_certs_learns_nothing() {
        let c = corpus(10);
        let empty_ases: HashSet<AsId> = HashSet::new();
        let fp = learn_tls_fingerprints("google", &empty_ases, &c, &c.all_cert_indices());
        assert_eq!(fp.onnet_certs, 0);
        assert!(fp.dns_syms().is_empty());
    }
}
