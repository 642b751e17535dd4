//! Cross-snapshot certificate-validation cache.
//!
//! §4.1 re-verifies every chain at each snapshot's scan time, yet most
//! chains recur across all 31 snapshots and everything about a chain
//! except the clock comparison is time-invariant. This module caches, per
//! distinct chain, the parsed end-entity certificate plus a *verdict
//! skeleton*: the validity windows, CA bits, and signature/anchoring
//! results that [`x509::verify_chain`] would consult, recorded in its
//! exact evaluation order. Replaying the skeleton at a snapshot's `at`
//! reproduces `verify_chain`'s result — same `Ok`/`ChainError`, same
//! precedence — without touching the DER again; only the time-dependent
//! window comparisons run per snapshot.
//!
//! The cache is keyed by a cheap 128-bit chain hash (`chain_key`): two
//! independently keyed lanes folded over the chain DER a `u64` word at a
//! time, length-framed per certificate. The key lives only in memory, so
//! it need not be stable across builds or platforms. SHA-256 here would
//! be self-defeating: the simulated PKI's signature checks are themselves
//! SHA-256 over the certificate bytes, so a cryptographic cache key costs
//! a large fraction of the verification it is trying to avoid.
//!
//! **Issuer memo.** Scanned chains share very few distinct issuer suffixes
//! `chain[1..]` (the 21,478 distinct chains of a seed-7 small-world study
//! present 6), so the cache also memoizes, per suffix, the issuer's public
//! key and the time-invariant facts of links `1..` — or that a suffix
//! certificate is malformed. Building any chain's skeleton then costs one
//! leaf parse, one leaf signature check and one memo lookup; every
//! intermediate is parsed and verified once per cache, not once per
//! chain. The memo lives and dies with its cache and holds one entry per
//! distinct suffix.
//!
//! **Deferred capture.** Storing a skeleton for every chain would keep a
//! parsed leaf resident for chains seen exactly once, and ~71% of distinct
//! chains never recur between adjacent snapshots (certificates rotate),
//! so a long-lived cache (a study's 31 snapshots) would grow with
//! every rotation. A chain's first sighting therefore builds a skeleton,
//! replays it once and drops it, remembering only that the chain was
//! seen; its second sighting — proof it recurs — builds and stores the
//! skeleton; every later sighting replays it. Both sightings take the one
//! verification path above; [`crate::validate::validate_records`] stays
//! the uncached reference.

use crate::validate::{
    validate_snapshot, InvalidReason, ValidateOptions, ValidatedCert, ValidationStats, Verdict,
};
use crate::wordhash::{fold, for_each_word};
use bytes::Bytes;
use parking_lot::RwLock;
use scanner::CertScanRecord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use timebase::Timestamp;
use x509::{Certificate, ChainError, PublicKey, RootStore, MAX_CHAIN};

/// 128-bit identity of a chain (or of an issuer suffix): see `chain_key`.
type ChainKey = (u64, u64);

/// Per-lane start values and odd multipliers (digits of π and the
/// golden-ratio / splitmix64 constants).
const LANE_SEEDS: [u64; 2] = [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344];
const LANE_MULS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9];

/// Hash a sequence of DER certificates a `u64` word at a time into two
/// independently keyed 64-bit lanes. Each certificate is framed by its
/// length and its last partial word is zero-padded, so the word stream
/// decodes to exactly one certificate sequence: `[A‖B]` and `[A, B]`, or
/// `"ab"` and `"ab\0"`, get different streams. Each lane folds a word in
/// with a 64×64→128-bit multiply whose halves are XORed. Not
/// cryptographic — the corpus is simulated scan data, not an adversary —
/// but wide enough that accidental collisions are out of reach.
fn chain_key<D: AsRef<[u8]>>(certs: &[D]) -> ChainKey {
    let mut lanes = LANE_SEEDS;
    let mut absorb = |word: u64| {
        for (lane, mul) in lanes.iter_mut().zip(LANE_MULS) {
            *lane = fold(*lane, word, mul);
        }
    };
    for der in certs {
        let der = der.as_ref();
        absorb(der.len() as u64);
        for_each_word(der, &mut absorb);
    }
    (lanes[0], lanes[1])
}

/// Time-invariant facts about one link of a chain, in the order
/// `verify_chain` consults them at that index.
#[derive(Debug)]
struct LinkFacts {
    is_ca: bool,
    not_before: Timestamp,
    not_after: Timestamp,
    /// Outcome of this index's signature (or, for the last link,
    /// anchoring) check; `None` means it passed.
    sig_err: Option<ChainError>,
}

/// The check `verify_chain` runs on the last presented certificate: it is
/// a trusted root itself, or its issuer is. `None` means it passed.
fn anchor_err(cert: &Certificate, roots: &RootStore) -> Option<ChainError> {
    if cert.is_self_issued() {
        if !roots.contains(cert) {
            Some(ChainError::UntrustedRoot)
        } else {
            (!cert.verify_signature(&cert.public_key())).then_some(ChainError::BadSignature)
        }
    } else {
        match roots.trusted_key_for(cert.issuer()) {
            None => Some(ChainError::UntrustedRoot),
            Some(anchor) => (!cert.verify_signature(anchor)).then_some(ChainError::BadSignature),
        }
    }
}

/// Time-invariant facts of an issuer suffix `chain[1..]`, shared by every
/// chain that presents it.
#[derive(Debug)]
struct IssuerFacts {
    /// `chain[1]`'s public key, which the leaf's signature must verify
    /// under; `None` for a single-certificate chain, whose leaf anchors
    /// itself.
    key: Option<PublicKey>,
    /// Facts for links `1..`, truncated after the first link whose
    /// time-independent checks fail — `verify_chain` can never walk past
    /// that link at any `at`.
    links: Vec<LinkFacts>,
}

impl IssuerFacts {
    /// `None` when a suffix certificate does not parse.
    fn build(suffix: &[Bytes], roots: &RootStore) -> Option<Self> {
        let certs = suffix
            .iter()
            .map(|der| Certificate::parse(der).ok())
            .collect::<Option<Vec<_>>>()?;
        let mut links = Vec::with_capacity(certs.len());
        for (i, cert) in certs.iter().enumerate() {
            let sig_err = match certs.get(i + 1) {
                Some(issuer) => (!cert.verify_signature(&issuer.public_key()))
                    .then_some(ChainError::BadSignature),
                None => anchor_err(cert, roots),
            };
            let link = LinkFacts {
                is_ca: cert.is_ca(),
                not_before: cert.validity().not_before,
                not_after: cert.validity().not_after,
                sig_err,
            };
            let terminal = !link.is_ca || link.sig_err.is_some();
            links.push(link);
            if terminal {
                break;
            }
        }
        Some(Self {
            key: certs.first().map(Certificate::public_key),
            links,
        })
    }
}

/// Everything `verify_chain` would compute for one chain except the
/// clock comparisons.
#[derive(Debug)]
pub struct ChainSkeleton {
    leaf: Arc<Certificate>,
    /// Lowercased leaf Subject Organization (for the §6.2 exemption).
    org_lc: Option<String>,
    too_long: bool,
    ee_not_before: Timestamp,
    ee_not_after: Timestamp,
    self_signed_ee: bool,
    /// The leaf's signature check under `chain[1]`'s key or, for a
    /// single-certificate chain, its anchoring; `None` means it passed.
    leaf_sig_err: Option<ChainError>,
    /// Links `1..`, consulted only when the leaf's check passed (a failed
    /// leaf check is terminal, as in `verify_chain`).
    issuers: Arc<IssuerFacts>,
}

impl ChainSkeleton {
    fn build(
        leaf: Certificate,
        issuers: Arc<IssuerFacts>,
        chain_len: usize,
        roots: &RootStore,
    ) -> Self {
        let leaf_sig_err = match &issuers.key {
            Some(key) => (!leaf.verify_signature(key)).then_some(ChainError::BadSignature),
            None => anchor_err(&leaf, roots),
        };
        ChainSkeleton {
            org_lc: leaf
                .subject()
                .organization()
                .map(|o| o.to_ascii_lowercase()),
            too_long: chain_len > MAX_CHAIN,
            ee_not_before: leaf.validity().not_before,
            ee_not_after: leaf.validity().not_after,
            self_signed_ee: leaf.is_self_issued() && leaf.verify_signature(&leaf.public_key()),
            leaf_sig_err,
            issuers,
            leaf: Arc::new(leaf),
        }
    }

    /// Replay `verify_chain(chain, roots, at)` from the recorded facts.
    pub fn replay(&self, at: Timestamp) -> Result<(), ChainError> {
        if self.too_long {
            return Err(ChainError::TooLong);
        }
        if at < self.ee_not_before {
            return Err(ChainError::NotYetValid);
        }
        if at > self.ee_not_after {
            return Err(ChainError::Expired);
        }
        if self.self_signed_ee {
            return Err(ChainError::SelfSignedEndEntity);
        }
        if let Some(e) = self.leaf_sig_err {
            return Err(e);
        }
        for link in &self.issuers.links {
            if !link.is_ca {
                return Err(ChainError::IntermediateNotCa);
            }
            if at < link.not_before || at > link.not_after {
                return Err(ChainError::IntermediateExpired);
            }
            if let Some(e) = link.sig_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// The §4.1/§6.2 verdict at `at`: parsed leaf plus whether the expiry
    /// exemption fired, or the rejection reason. `needle` is the
    /// lowercased §6.2 organization needle. Mirrors `validate::verify_one`
    /// exactly.
    fn verdict_at(&self, at: Timestamp, needle: Option<&str>) -> Verdict {
        match self.replay(at) {
            Ok(()) => Ok((self.leaf.clone(), false)),
            Err(ChainError::Expired) => {
                if let Some(needle) = needle {
                    let org_matches = self.org_lc.as_deref().is_some_and(|o| o.contains(needle));
                    if org_matches && self.replay(self.ee_not_after).is_ok() {
                        return Ok((self.leaf.clone(), true));
                    }
                }
                Err(InvalidReason::Chain(ChainError::Expired))
            }
            Err(e) => Err(InvalidReason::Chain(e)),
        }
    }
}

/// A cached per-chain outcome: either the DER never parsed, or a replayable
/// skeleton.
#[derive(Debug)]
enum CachedChain {
    Malformed,
    Parsed(ChainSkeleton),
}

/// Per-chain cache state: sighted once (no skeleton yet — see the module
/// docs on deferred capture), or promoted to a replayable skeleton. The
/// promotion is claimed under the map's write lock and the skeleton built
/// outside it, once: a lookup that reaches the cell first builds it, any
/// other waits for it.
#[derive(Debug)]
enum Entry {
    SeenOnce,
    Cached(Arc<OnceLock<CachedChain>>),
}

/// Lifetime reuse counters. `first_sightings + promotions` is the number
/// of full (non-replay) verifications the cache performed — the `misses`
/// half of [`ValidationCache::hit_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Skeleton replays: no parse, no signature checks.
    pub hits: u64,
    /// Chains verified on their first sighting (skeleton built, replayed
    /// once and dropped — most never recur).
    pub first_sightings: u64,
    /// Second sightings: the chain recurred, so a skeleton was built and
    /// stored (one more full verification, amortized by later replays).
    pub promotions: u64,
}

impl CacheStats {
    /// Full verifications (everything that wasn't a skeleton replay).
    pub fn misses(&self) -> u64 {
        self.first_sightings + self.promotions
    }
}

/// Concurrent, fingerprint-keyed chain-verdict cache shared across
/// snapshots (and across the snapshot worker pool).
#[derive(Default)]
pub struct ValidationCache {
    map: RwLock<HashMap<ChainKey, Entry>>,
    /// The issuer memo, keyed by the `chain_key` of `chain[1..]`; `None`
    /// records that a suffix certificate is malformed.
    issuers: RwLock<HashMap<ChainKey, Option<Arc<IssuerFacts>>>>,
    hits: AtomicU64,
    first_sightings: AtomicU64,
    promotions: AtomicU64,
}

impl std::fmt::Debug for ValidationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ValidationCache")
            .field("chains", &self.len())
            .field("skeletons", &self.skeleton_count())
            .field("issuer_suffixes", &self.issuers.read().len())
            .field("hits", &s.hits)
            .field("first_sightings", &s.first_sightings)
            .field("promotions", &s.promotions)
            .finish()
    }
}

impl ValidationCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct chains tracked so far (sighted or cached).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Number of chains that recurred and hold a replayable skeleton.
    pub fn skeleton_count(&self) -> usize {
        self.map
            .read()
            .values()
            .filter(|e| matches!(e, Entry::Cached(_)))
            .count()
    }

    /// Lifetime `(hits, misses)` counters: skeleton replays vs full
    /// verifications (first sightings plus promotions).
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.stats();
        (s.hits, s.misses())
    }

    /// The full counter breakdown.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            first_sightings: self.first_sightings.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
        }
    }

    /// The §4.1/§6.2 verdict for one record at `at` (`needle`: the
    /// lowercased §6.2 organization needle): a skeleton replay when this
    /// chain already recurred, a fresh skeleton otherwise (stored on the
    /// second sighting).
    ///
    /// Counters are exact under concurrent lookups too: one lookup claims
    /// a chain's promotion, and every other lookup of the chain counts as
    /// a hit, as it would have run after the promotion serially.
    pub(crate) fn verdict_cached(
        &self,
        rec: &CertScanRecord,
        roots: &RootStore,
        at: Timestamp,
        needle: Option<&str>,
    ) -> Verdict {
        let key = chain_key(&rec.chain_der);
        let cached = self.map.read().get(&key).and_then(|e| match e {
            Entry::Cached(c) => Some(Arc::clone(c)),
            Entry::SeenOnce => None,
        });
        let (cell, counter) = match cached {
            Some(c) => (c, &self.hits),
            None => {
                use std::collections::hash_map::Entry as MapEntry;
                let mut map = self.map.write();
                match map.entry(key) {
                    MapEntry::Occupied(mut e) => match e.get() {
                        Entry::Cached(c) => (Arc::clone(c), &self.hits),
                        Entry::SeenOnce => {
                            // Claim the promotion; the skeleton is built
                            // outside the lock.
                            let cell = Arc::new(OnceLock::new());
                            e.insert(Entry::Cached(Arc::clone(&cell)));
                            (cell, &self.promotions)
                        }
                    },
                    MapEntry::Vacant(v) => {
                        v.insert(Entry::SeenOnce);
                        drop(map);
                        self.first_sightings.fetch_add(1, Ordering::Relaxed);
                        let skeleton = self.skeleton(&rec.chain_der, roots);
                        return cached_verdict(&skeleton, at, needle);
                    }
                }
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let skeleton = cell.get_or_init(|| self.skeleton(&rec.chain_der, roots));
        cached_verdict(skeleton, at, needle)
    }

    /// Build a chain's skeleton from one leaf parse, one leaf signature
    /// check and the memoized facts of its issuer suffix. A parsed leaf
    /// holds its names and SANs in exact-size buffers, so a skeleton the
    /// cache keeps for its lifetime stores the leaf as parsed.
    fn skeleton(&self, chain: &[Bytes], roots: &RootStore) -> CachedChain {
        // An empty chain has no leaf; `validate_records_cached` screens
        // those out as malformed before they reach the cache.
        let Some((leaf_der, suffix)) = chain.split_first() else {
            return CachedChain::Malformed;
        };
        let Ok(leaf) = Certificate::parse(leaf_der) else {
            return CachedChain::Malformed;
        };
        let Some(issuers) = self.issuer_facts(suffix, roots) else {
            return CachedChain::Malformed;
        };
        CachedChain::Parsed(ChainSkeleton::build(leaf, issuers, chain.len(), roots))
    }

    /// The memoized facts of one issuer suffix, built on first use; `None`
    /// when a suffix certificate does not parse.
    fn issuer_facts(&self, suffix: &[Bytes], roots: &RootStore) -> Option<Arc<IssuerFacts>> {
        let key = chain_key(suffix);
        if let Some(facts) = self.issuers.read().get(&key) {
            return facts.clone();
        }
        // Build outside the lock; a racing builder of the same suffix
        // computes identical facts, and the first insert wins.
        let built = IssuerFacts::build(suffix, roots).map(Arc::new);
        self.issuers.write().entry(key).or_insert(built).clone()
    }
}

fn cached_verdict(c: &CachedChain, at: Timestamp, needle: Option<&str>) -> Verdict {
    match c {
        CachedChain::Malformed => Err(InvalidReason::Malformed),
        CachedChain::Parsed(skeleton) => skeleton.verdict_at(at, needle),
    }
}

/// Drop-in replacement for [`crate::validate::validate_records`] backed by
/// a shared [`ValidationCache`]: same verdicts, same `ValidationStats`,
/// same per-snapshot first-record-wins dedup by leaf DER.
pub fn validate_records_cached(
    records: &[CertScanRecord],
    roots: &RootStore,
    at: Timestamp,
    options: &ValidateOptions,
    cache: &ValidationCache,
) -> (Vec<ValidatedCert>, ValidationStats) {
    let (valids, stats, _) = validate_snapshot(records, roots, at, options, Some(cache));
    (valids, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_records;
    use hgsim::HgPki;
    use x509::{verify_chain, CertificateBuilder, DistinguishedName, KeyPair, NameBuilder};

    fn t(y: i32, m: u8) -> Timestamp {
        Timestamp::from_civil(y, m, 1, 0, 0, 0)
    }

    fn record(chain: Vec<Bytes>, ip: u32) -> CertScanRecord {
        CertScanRecord {
            ip,
            chain_der: chain,
        }
    }

    /// The four times every chain is judged at: before, during and after
    /// the usual validity windows.
    fn four_ats() -> [Timestamp; 4] {
        [t(2015, 6), t(2017, 6), t(2019, 6), t(2023, 6)]
    }

    /// The chain shapes `HgPki` does not issue, under a root store of
    /// their own: leaves sharing one intermediate, a leaf whose signature
    /// fails under a good intermediate, a non-CA intermediate, an expired
    /// intermediate, a parseable leaf over a garbage intermediate,
    /// single-certificate chains (one anchored by the root, one not), a
    /// chain one certificate longer than `MAX_CHAIN`, and a chain that
    /// presents its root. Every chain has
    /// its own leaf, so per-snapshot leaf dedup cannot hide a verdict.
    fn edge_chains() -> (RootStore, Vec<Vec<Bytes>>) {
        let der = |c: &Certificate| Bytes::copy_from_slice(c.der());
        let name = |cn: &str| NameBuilder::new().common_name(cn).build();
        let root_name = name("Edge Root");
        let root_key = KeyPair::from_seed("edge:root");
        let root = CertificateBuilder::new()
            .subject(root_name.clone())
            .validity(t(2005, 1), t(2045, 1))
            .ca(None)
            .subject_key(&root_key)
            .self_signed(&root_key);
        let mut roots = RootStore::new();
        assert!(roots.add_root(&root));
        let issuer = |cn: &str, from, to, is_ca: bool| {
            let key = KeyPair::from_seed(cn);
            let b = CertificateBuilder::new()
                .subject(name(cn))
                .validity(from, to)
                .subject_key(&key);
            let b = if is_ca { b.ca(None) } else { b.end_entity() };
            (name(cn), key, der(&b.issued_by(&root_name, &root_key)))
        };
        let leaf = |cn: &str, by: &DistinguishedName, key: &KeyPair| {
            der(&CertificateBuilder::new()
                .subject(name(cn))
                .validity(t(2014, 1), t(2024, 12))
                .end_entity()
                .subject_key(&KeyPair::from_seed(cn))
                .issued_by(by, key))
        };
        let (ca_name, ca_key, ca) = issuer("Edge CA", t(2005, 1), t(2045, 1), true);
        let (ee_name, ee_key, not_ca) = issuer("Edge EE", t(2005, 1), t(2045, 1), false);
        let (old_name, old_key, old_ca) = issuer("Edge Old CA", t(2016, 1), t(2018, 1), true);
        let short_leaf = der(&CertificateBuilder::new()
            .subject(name("edge-short"))
            .validity(t(2016, 1), t(2020, 1))
            .end_entity()
            .subject_key(&KeyPair::from_seed("edge-short"))
            .issued_by(&ca_name, &ca_key));
        let wrong_key = KeyPair::from_seed("not the CA's key");
        let too_long = std::iter::once(leaf("edge-too-long", &ca_name, &ca_key))
            .chain(std::iter::repeat_n(ca.clone(), MAX_CHAIN))
            .collect();
        let chains = vec![
            vec![short_leaf, ca.clone()],
            vec![leaf("edge-shared", &ca_name, &ca_key), ca.clone()],
            vec![leaf("edge-bad-sig", &ca_name, &wrong_key), ca.clone()],
            vec![leaf("edge-under-ee", &ee_name, &ee_key), not_ca],
            vec![leaf("edge-under-old", &old_name, &old_key), old_ca],
            vec![
                leaf("edge-garbage-ca", &ca_name, &ca_key),
                Bytes::from_static(b"garbage"),
            ],
            vec![leaf("edge-root-issued", &root_name, &root_key)],
            vec![leaf("edge-alone", &ca_name, &ca_key)],
            too_long,
            vec![leaf("edge-full", &ca_name, &ca_key), ca, der(&root)],
        ];
        (roots, chains)
    }

    /// `HgPki`'s four chain kinds: valid, expired, self-signed, untrusted.
    fn pki_chains(pki: &HgPki) -> Vec<Vec<Bytes>> {
        let sans = vec!["a.example".to_owned()];
        vec![
            pki.issue_chain("v", Some("Org A"), "a", &sans, t(2019, 1), t(2019, 12), 0),
            pki.issue_chain("e", None, "a", &sans, t(2017, 1), t(2017, 12), 0),
            pki.issue_self_signed("s", None, "a", &sans, t(2019, 1), t(2019, 12)),
            pki.issue_untrusted_chain("u", None, "a", &sans, t(2019, 1), t(2019, 12)),
        ]
    }

    /// The cached path must give `validate_records`' verdicts and stats.
    fn assert_matches_reference(
        records: &[CertScanRecord],
        roots: &RootStore,
        at: Timestamp,
        cache: &ValidationCache,
    ) {
        let opts = ValidateOptions::default();
        let (seq, seq_stats) = validate_records(records, roots, at, &opts);
        let (hot, hot_stats) = validate_records_cached(records, roots, at, &opts, cache);
        assert_eq!(seq.len(), hot.len(), "at {at:?}");
        for (a, b) in seq.iter().zip(&hot) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.leaf.fingerprint(), b.leaf.fingerprint());
            assert_eq!(a.expiry_exempted, b.expiry_exempted);
        }
        assert_eq!(seq_stats.total_records, hot_stats.total_records);
        assert_eq!(seq_stats.valid, hot_stats.valid);
        assert_eq!(seq_stats.invalid, hot_stats.invalid, "at {at:?}");
    }

    /// Every chain variety, replayed at several times, must agree with a
    /// fresh verify_chain run; a chain with an unparseable certificate
    /// must come out malformed.
    #[test]
    fn replay_matches_verify_chain() {
        let pki = HgPki::new(7);
        let (edge_roots, edge) = edge_chains();
        for (roots, chains) in [(pki.root_store(), pki_chains(&pki)), (&edge_roots, edge)] {
            let cache = ValidationCache::new();
            for ders in &chains {
                let parsed: Option<Vec<Certificate>> =
                    ders.iter().map(|d| Certificate::parse(d).ok()).collect();
                match (cache.skeleton(ders, roots), parsed) {
                    (CachedChain::Parsed(skeleton), Some(parsed)) => {
                        for at in four_ats() {
                            let expect = verify_chain(&parsed, roots, at).map(|_| ());
                            assert_eq!(skeleton.replay(at), expect, "at {at:?}");
                        }
                    }
                    (CachedChain::Malformed, None) => {}
                    (got, parsed) => panic!(
                        "skeleton {got:?} for a chain that parsed: {}",
                        parsed.is_some()
                    ),
                }
            }
            // The same chains as records, through sight, promote and
            // replay at each time.
            let records: Vec<CertScanRecord> = chains
                .iter()
                .enumerate()
                .map(|(ip, c)| record(c.clone(), ip as u32))
                .collect();
            for at in four_ats() {
                let cache = ValidationCache::new();
                for _ in 0..3 {
                    assert_matches_reference(&records, roots, at, &cache);
                }
                assert_eq!(cache.stats().hits, chains.len() as u64);
            }
        }
    }

    #[test]
    fn cached_path_identical_to_sequential() {
        let pki = HgPki::new(7);
        let sans = vec!["a.example".to_owned()];
        let valid = pki.issue_chain("v", None, "a", &sans, t(2019, 1), t(2019, 12), 0);
        let expired = pki.issue_chain("e", None, "a", &sans, t(2017, 1), t(2017, 12), 0);
        let selfsigned = pki.issue_self_signed("s", None, "a", &sans, t(2019, 1), t(2019, 12));
        let untrusted = pki.issue_untrusted_chain("u", None, "a", &sans, t(2019, 1), t(2019, 12));
        let records = vec![
            record(valid.clone(), 1),
            record(valid, 2),
            record(expired, 3),
            record(selfsigned, 4),
            record(untrusted, 5),
            record(vec![Bytes::from_static(b"garbage")], 6),
            record(vec![], 7),
            // Duplicate IP: quarantined identically by both paths.
            record(vec![Bytes::from_static(b"garbage")], 6),
        ];
        let cache = ValidationCache::new();
        let opts = ValidateOptions::default();
        // Three snapshots at different times: the first sights every
        // chain, the second promotes (capture is deferred), the third
        // replays skeletons.
        for at in [t(2019, 6), t(2020, 6), t(2021, 6)] {
            let (seq, seq_stats) = validate_records(&records, pki.root_store(), at, &opts);
            let (hot, hot_stats) =
                validate_records_cached(&records, pki.root_store(), at, &opts, &cache);
            assert_eq!(seq.len(), hot.len());
            for (a, b) in seq.iter().zip(&hot) {
                assert_eq!(a.ip, b.ip);
                assert_eq!(a.leaf.fingerprint(), b.leaf.fingerprint());
                assert_eq!(a.expiry_exempted, b.expiry_exempted);
            }
            assert_eq!(seq_stats.total_records, hot_stats.total_records);
            assert_eq!(seq_stats.valid, hot_stats.valid);
            assert_eq!(seq_stats.invalid, hot_stats.invalid);
        }
        assert_eq!(cache.len(), 5, "distinct parseable+garbage chains seen");
        assert_eq!(cache.skeleton_count(), 5, "all recurred, all promoted");
        let stats = cache.stats();
        assert_eq!(stats.first_sightings, 5);
        assert_eq!(stats.promotions, 5);
        assert_eq!(stats.hits, 5);
        assert_eq!(cache.hit_stats(), (5, 10));

        // The edge chains, alongside HgPki's, at four times: each time
        // sights, promotes and replays in a fresh cache, while one shared
        // cache replays skeletons built at one time at the others.
        let (edge_roots, edge) = edge_chains();
        let groups = [(pki.root_store(), pki_chains(&pki)), (&edge_roots, edge)];
        for (roots, chains) in groups {
            let records: Vec<CertScanRecord> = chains
                .into_iter()
                .enumerate()
                .map(|(ip, c)| record(c, ip as u32))
                .collect();
            let shared = ValidationCache::new();
            for at in four_ats() {
                let fresh = ValidationCache::new();
                for cache in [&fresh, &fresh, &fresh, &shared] {
                    assert_matches_reference(&records, roots, at, cache);
                }
            }
            assert_eq!(shared.skeleton_count(), records.len());
        }
    }

    /// Pins what the edge fixture exercises, so the equivalence tests
    /// above cannot pass vacuously.
    #[test]
    fn edge_chains_cover_every_link_failure() {
        let (roots, edge) = edge_chains();
        let records: Vec<CertScanRecord> = edge
            .into_iter()
            .enumerate()
            .map(|(ip, c)| record(c, ip as u32))
            .collect();
        let (_, stats) = validate_records(&records, &roots, t(2019, 6), &Default::default());
        assert_eq!(stats.valid, 4, "short, shared, root-issued and full");
        let one = |r| (r, 1);
        let expect: HashMap<InvalidReason, usize> = [
            one(InvalidReason::Malformed),
            one(InvalidReason::Chain(ChainError::BadSignature)),
            one(InvalidReason::Chain(ChainError::IntermediateNotCa)),
            one(InvalidReason::Chain(ChainError::IntermediateExpired)),
            one(InvalidReason::Chain(ChainError::UntrustedRoot)),
            one(InvalidReason::Chain(ChainError::TooLong)),
        ]
        .into_iter()
        .collect();
        assert_eq!(stats.invalid, expect);
    }

    #[test]
    fn shared_issuer_suffix_is_verified_once() {
        let (roots, edge) = edge_chains();
        let cache = ValidationCache::new();
        let records: Vec<CertScanRecord> = edge[..3]
            .iter()
            .enumerate()
            .map(|(ip, c)| record(c.clone(), ip as u32))
            .collect();
        // Sight, then promote: three leaves, one intermediate.
        for _ in 0..2 {
            validate_records_cached(&records, &roots, t(2017, 6), &Default::default(), &cache);
        }
        assert_eq!(cache.issuers.read().len(), 1, "one suffix memo entry");
        let map = cache.map.read();
        let issuers: Vec<&Arc<IssuerFacts>> = map
            .values()
            .map(|e| match e {
                Entry::Cached(c) => match c.get().expect("promoted skeleton built") {
                    CachedChain::Parsed(s) => &s.issuers,
                    CachedChain::Malformed => panic!("edge chain 0..3 parse"),
                },
                Entry::SeenOnce => panic!("every chain recurred"),
            })
            .collect();
        assert_eq!(issuers.len(), 3);
        assert!(issuers.iter().all(|i| Arc::ptr_eq(i, issuers[0])));
    }

    #[test]
    fn chain_key_frames_lengths_and_pads_tails() {
        let (a, b): (&[u8], &[u8]) = (b"certificate A", b"B");
        let joined = [a, b].concat();
        assert_ne!(chain_key(&[joined.as_slice()]), chain_key(&[a, b]));
        assert_ne!(
            chain_key(&[b"ab".as_slice()]),
            chain_key(&[b"ab\0".as_slice()])
        );
        assert_ne!(chain_key(&[[0u8; 8]]), chain_key(&[[0u8; 16]]));
        assert_ne!(chain_key::<&[u8]>(&[]), chain_key(&[b"".as_slice()]));
        assert_ne!(chain_key(&[a, b]), chain_key(&[b, a]));
        assert_eq!(
            chain_key(&[a, b]),
            chain_key(&[Bytes::from_static(a), Bytes::from_static(b)]),
            "the key depends on the bytes, not the container"
        );
    }

    #[test]
    fn netflix_exemption_replays_from_cache() {
        let pki = HgPki::new(7);
        let nf = pki.issue_chain(
            "nf",
            Some("Netflix, Inc."),
            "v",
            &["v.netflix.com".to_owned()],
            t(2016, 6),
            t(2017, 4),
            0,
        );
        let other = pki.issue_chain(
            "ot",
            Some("Other Org"),
            "v",
            &["x.example".to_owned()],
            t(2016, 6),
            t(2017, 4),
            0,
        );
        let records = vec![record(nf, 1), record(other, 2)];
        let opts = ValidateOptions {
            ignore_expiry_for_org_containing: Some("netflix".to_owned()),
        };
        let cache = ValidationCache::new();
        // Run three times: sight, promote, replay — the third pass
        // exercises the §6.2 exemption through the stored skeleton.
        for _ in 0..3 {
            let (valids, stats) =
                validate_records_cached(&records, pki.root_store(), t(2018, 6), &opts, &cache);
            assert_eq!(valids.len(), 1);
            assert_eq!(valids[0].ip, 1);
            assert!(valids[0].expiry_exempted);
            assert_eq!(stats.invalid_total(), 1);
        }
        assert!(cache.stats().hits > 0, "exemption never replayed");
    }

    #[test]
    fn leaf_arcs_shared_within_and_across_snapshots() {
        let pki = HgPki::new(7);
        let valid = pki.issue_chain(
            "v",
            None,
            "a",
            &["a.example".to_owned()],
            t(2019, 1),
            t(2019, 12),
            0,
        );
        let records: Vec<CertScanRecord> = (0..50).map(|i| record(valid.clone(), i)).collect();
        let cache = ValidationCache::new();
        let run = |at| {
            validate_records_cached(&records, pki.root_store(), at, &Default::default(), &cache).0
        };
        let a = run(t(2019, 6)); // first sighting: direct verification
        let b = run(t(2019, 7)); // second: skeleton built and stored
        let c = run(t(2019, 8)); // third: replayed from the skeleton
        assert!(
            Arc::ptr_eq(&a[0].leaf, &a[49].leaf),
            "shared within snapshot"
        );
        assert!(
            Arc::ptr_eq(&b[0].leaf, &c[0].leaf),
            "skeleton must share one parse across snapshots"
        );
    }

    #[test]
    fn concurrent_lookups_converge() {
        let pki = HgPki::new(7);
        let chains: Vec<Vec<Bytes>> = (0..16)
            .map(|i| {
                pki.issue_chain(
                    &format!("c{i}"),
                    None,
                    "a",
                    &[format!("h{i}.example")],
                    t(2019, 1),
                    t(2019, 12),
                    0,
                )
            })
            .collect();
        let cache = ValidationCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Three rounds per thread: whatever the interleaving,
                    // each chain is sighted, promoted, then replayed, and
                    // every verdict must be Ok.
                    for _ in 0..3 {
                        for (ip, chain) in chains.iter().enumerate() {
                            let rec = record(chain.clone(), ip as u32);
                            let v = cache.verdict_cached(&rec, pki.root_store(), t(2019, 6), None);
                            assert!(v.is_ok());
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.skeleton_count(), 16, "every chain recurred");
        assert!(cache.stats().hits > 0);
    }

    /// Threads that look up one already-sighted chain at once promote it
    /// exactly once: the others count as hits, as they would serially.
    #[test]
    fn racing_lookups_promote_a_chain_once() {
        const THREADS: u64 = 4;
        let pki = HgPki::new(7);
        let sans = ["r.example".to_owned()];
        let chain = pki.issue_chain("r", None, "a", &sans, t(2019, 1), t(2019, 12), 0);
        let rec = record(chain, 1);
        let roots = pki.root_store();
        for round in 0..64 {
            let cache = ValidationCache::new();
            assert!(cache.verdict_cached(&rec, roots, t(2019, 6), None).is_ok());
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        assert!(cache.verdict_cached(&rec, roots, t(2019, 6), None).is_ok());
                    });
                }
            });
            let stats = cache.stats();
            assert_eq!(stats.first_sightings, 1, "round {round}");
            assert_eq!(stats.promotions, 1, "round {round}: {stats:?}");
            assert_eq!(stats.hits, THREADS - 1, "round {round}: {stats:?}");
            assert_eq!(cache.skeleton_count(), 1);
        }
    }
}
