//! §4.1 — certificate validation.
//!
//! Every scanned chain is verified against the trusted root store at scan
//! time. Expired, not-yet-valid, self-signed-end-entity, and
//! untrusted-chain certificates are discarded; the paper reports that more
//! than a third of hosts returned invalid certificates.

use crate::validation_cache::ValidationCache;
use crate::wordhash::{WordMap, WordSet};
use scanner::CertScanRecord;
use std::collections::HashMap;
use std::sync::Arc;
use timebase::Timestamp;
use x509::{verify_chain, Certificate, ChainError, RootStore};

/// A scanned IP with its parsed-and-verified end-entity certificate.
#[derive(Debug, Clone)]
pub struct ValidatedCert {
    pub ip: u32,
    pub leaf: Arc<Certificate>,
    /// True when the certificate was expired at scan time but restored by
    /// [`ValidateOptions::ignore_expiry_for_org_containing`] (§6.2's
    /// Netflix analysis). Standard §4.1 consumers must skip these.
    pub expiry_exempted: bool,
}

/// Why a record was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidReason {
    /// The DER did not parse as X.509.
    Malformed,
    /// A second record for an IP already present in the snapshot. A clean
    /// scan lists each IP once; duplicates are corpus corruption, and only
    /// the first record is kept.
    DuplicateIp,
    /// Chain verification failed.
    Chain(ChainError),
}

/// Aggregate §4.1 statistics for one snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationStats {
    pub total_records: usize,
    pub valid: usize,
    pub invalid: HashMap<InvalidReason, usize>,
}

impl ValidationStats {
    pub fn invalid_total(&self) -> usize {
        self.invalid.values().sum()
    }

    /// Fraction of hosts returning invalid certificates.
    pub fn invalid_fraction(&self) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.invalid_total() as f64 / self.total_records as f64
    }

    /// Fold another stats block into this one. Validation is a per-record
    /// decision, so stats over disjoint record partitions (the streaming
    /// corpus shards) sum exactly to the stats of the whole stream.
    pub fn merge(&mut self, other: &ValidationStats) {
        self.total_records += other.total_records;
        self.valid += other.valid;
        for (&reason, &n) in &other.invalid {
            *self.invalid.entry(reason).or_insert(0) += n;
        }
    }
}

/// Options for validation. `ignore_expiry_for_org` supports the §6.2
/// Netflix analysis, where expired default certificates are deliberately
/// restored ("when we ignore the expiration date of this certificate").
#[derive(Debug, Clone, Default)]
pub struct ValidateOptions {
    pub ignore_expiry_for_org_containing: Option<String>,
}

/// Validate a snapshot's certificate records at scan time `at`.
///
/// Chains are deduplicated by their end-entity DER: each distinct chain is
/// parsed and verified once, and the verdict reused for every IP serving
/// it — scan corpuses contain far fewer unique certificates than IPs.
pub fn validate_records(
    records: &[CertScanRecord],
    roots: &RootStore,
    at: Timestamp,
    options: &ValidateOptions,
) -> (Vec<ValidatedCert>, ValidationStats) {
    let (valids, stats, _) = validate_snapshot(records, roots, at, options, None);
    (valids, stats)
}

/// §4.1 over one snapshot's records, through `cache` when given (see
/// [`crate::validation_cache`]) or by full verification. The first record
/// per IP wins, and the first record with a given leaf DER decides the
/// verdict for every record serving that leaf. Also returns the set of IPs
/// with any record, which the corpus reuses as its certificate-IP set.
pub(crate) fn validate_snapshot(
    records: &[CertScanRecord],
    roots: &RootStore,
    at: Timestamp,
    options: &ValidateOptions,
    cache: Option<&ValidationCache>,
) -> (Vec<ValidatedCert>, ValidationStats, WordSet<u32>) {
    // The §6.2 needle, lowercased once per call.
    let needle = options
        .ignore_expiry_for_org_containing
        .as_deref()
        .map(str::to_ascii_lowercase);
    let needle = needle.as_deref();
    let mut stats = ValidationStats {
        total_records: records.len(),
        ..Default::default()
    };
    let mut out = Vec::with_capacity(records.len());
    let mut verdicts: WordMap<&[u8], Verdict> = WordMap::default();
    let mut seen_ips: WordSet<u32> =
        WordSet::with_capacity_and_hasher(records.len(), Default::default());
    for rec in records {
        if !seen_ips.insert(rec.ip) {
            *stats.invalid.entry(InvalidReason::DuplicateIp).or_insert(0) += 1;
            continue;
        }
        let Some(leaf_der) = rec.chain_der.first() else {
            *stats.invalid.entry(InvalidReason::Malformed).or_insert(0) += 1;
            continue;
        };
        let verdict = verdicts
            .entry(leaf_der.as_ref())
            .or_insert_with(|| match cache {
                Some(cache) => cache.verdict_cached(rec, roots, at, needle),
                None => verify_one(rec, roots, at, needle),
            });
        match verdict {
            Ok((leaf, exempted)) => {
                stats.valid += 1;
                out.push(ValidatedCert {
                    ip: rec.ip,
                    leaf: leaf.clone(),
                    expiry_exempted: *exempted,
                });
            }
            Err(reason) => {
                *stats.invalid.entry(*reason).or_insert(0) += 1;
            }
        }
    }
    (out, stats, seen_ips)
}

/// A validation verdict for one distinct leaf: the parsed leaf plus
/// whether the §6.2 expiry exemption fired, or the rejection reason.
pub(crate) type Verdict = Result<(Arc<Certificate>, bool), InvalidReason>;

/// `needle` is the lowercased §6.2 organization needle.
fn verify_one(
    rec: &CertScanRecord,
    roots: &RootStore,
    at: Timestamp,
    needle: Option<&str>,
) -> Verdict {
    let chain: Vec<Certificate> = rec
        .chain_der
        .iter()
        .map(|d| Certificate::parse(d))
        .collect::<Result<_, _>>()
        .map_err(|_| InvalidReason::Malformed)?;
    match verify_chain(&chain, roots, at) {
        Ok(v) => Ok((Arc::new(v.end_entity.clone()), false)),
        Err(ChainError::Expired) => {
            // The Netflix §6.2 restoration: accept expired certificates for
            // the designated organization if the chain is otherwise sound.
            if let Some(needle) = needle {
                let leaf = &chain[0];
                let org_matches = leaf
                    .subject()
                    .organization()
                    .is_some_and(|o| o.to_ascii_lowercase().contains(needle));
                if org_matches && verify_chain(&chain, roots, leaf.validity().not_after).is_ok() {
                    return Ok((Arc::new(chain[0].clone()), true));
                }
            }
            Err(InvalidReason::Chain(ChainError::Expired))
        }
        Err(e) => Err(InvalidReason::Chain(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hgsim::HgPki;

    fn t(y: i32, m: u8) -> Timestamp {
        Timestamp::from_civil(y, m, 1, 0, 0, 0)
    }

    fn record(chain: Vec<Bytes>, ip: u32) -> CertScanRecord {
        CertScanRecord {
            ip,
            chain_der: chain,
        }
    }

    #[test]
    fn mixed_corpus_statistics() {
        let pki = HgPki::new(7);
        let sans = vec!["a.example".to_owned()];
        let valid = pki.issue_chain("v", None, "a", &sans, t(2019, 1), t(2019, 12), 0);
        let expired = pki.issue_chain("e", None, "a", &sans, t(2017, 1), t(2017, 12), 0);
        let selfsigned = pki.issue_self_signed("s", None, "a", &sans, t(2019, 1), t(2019, 12));
        let untrusted = pki.issue_untrusted_chain("u", None, "a", &sans, t(2019, 1), t(2019, 12));
        let records = vec![
            record(valid.clone(), 1),
            record(valid.clone(), 2),
            record(expired, 3),
            record(selfsigned, 4),
            record(untrusted, 5),
            record(vec![Bytes::from_static(b"garbage")], 6),
        ];
        let (valids, stats) =
            validate_records(&records, pki.root_store(), t(2019, 6), &Default::default());
        assert_eq!(valids.len(), 2);
        assert_eq!(stats.total_records, 6);
        assert_eq!(stats.valid, 2);
        assert_eq!(stats.invalid_total(), 4);
        assert_eq!(stats.invalid[&InvalidReason::Chain(ChainError::Expired)], 1);
        assert_eq!(
            stats.invalid[&InvalidReason::Chain(ChainError::SelfSignedEndEntity)],
            1
        );
        assert_eq!(
            stats.invalid[&InvalidReason::Chain(ChainError::UntrustedRoot)],
            1
        );
        assert_eq!(stats.invalid[&InvalidReason::Malformed], 1);
        assert!((stats.invalid_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn expiry_exemption_restores_matching_org_only() {
        let pki = HgPki::new(7);
        let sans = vec!["v.netflix.com".to_owned()];
        let nf_expired = pki.issue_chain(
            "nf",
            Some("Netflix, Inc."),
            "v",
            &sans,
            t(2016, 6),
            t(2017, 4),
            0,
        );
        let other_expired = pki.issue_chain(
            "ot",
            Some("Other Org"),
            "v",
            &["x.example".to_owned()],
            t(2016, 6),
            t(2017, 4),
            0,
        );
        let records = vec![record(nf_expired, 1), record(other_expired, 2)];
        let opts = ValidateOptions {
            ignore_expiry_for_org_containing: Some("netflix".to_owned()),
        };
        let (valids, stats) = validate_records(&records, pki.root_store(), t(2018, 6), &opts);
        assert_eq!(valids.len(), 1);
        assert_eq!(valids[0].ip, 1);
        assert!(valids[0].expiry_exempted);
        assert_eq!(stats.invalid_total(), 1);
    }

    #[test]
    fn dedup_shares_verdicts() {
        let pki = HgPki::new(7);
        let sans = vec!["a.example".to_owned()];
        let valid = pki.issue_chain("v", None, "a", &sans, t(2019, 1), t(2019, 12), 0);
        let records: Vec<CertScanRecord> = (0..100).map(|i| record(valid.clone(), i)).collect();
        let (valids, stats) =
            validate_records(&records, pki.root_store(), t(2019, 6), &Default::default());
        assert_eq!(valids.len(), 100);
        assert_eq!(stats.valid, 100);
        // All share one parsed Arc.
        assert!(Arc::ptr_eq(&valids[0].leaf, &valids[99].leaf));
    }

    #[test]
    fn duplicate_ips_are_quarantined_first_record_wins() {
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
        let records = vec![
            record(valid.clone(), 1),
            record(valid.clone(), 1),
            record(valid.clone(), 2),
            record(valid, 1),
        ];
        let (valids, stats) =
            validate_records(&records, pki.root_store(), t(2019, 6), &Default::default());
        assert_eq!(valids.len(), 2);
        assert_eq!(valids[0].ip, 1);
        assert_eq!(valids[1].ip, 2);
        assert_eq!(stats.invalid[&InvalidReason::DuplicateIp], 2);
        assert_eq!(stats.total_records, 4);
    }

    #[test]
    fn empty_chain_is_malformed() {
        let pki = HgPki::new(7);
        let records = vec![record(vec![], 9)];
        let (valids, stats) =
            validate_records(&records, pki.root_store(), t(2019, 6), &Default::default());
        assert!(valids.is_empty());
        assert_eq!(stats.invalid[&InvalidReason::Malformed], 1);
    }
}
