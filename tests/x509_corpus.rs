//! The X.509 parser over a whole study's certificates: every distinct
//! certificate of a fixed-seed small-world 31-snapshot study — the leaves
//! and intermediates its scans return, and the roots they chain to —
//! re-assembles to its exact DER with a fingerprint equal to SHA-256 of
//! that DER, and no proper prefix of a scanned leaf or intermediate
//! parses.

use bytes::Bytes;
use hgsim::{HgWorld, ScenarioConfig};
use scanner::{observe_snapshot, ScanEngine};
use sha2sim::Sha256;
use std::collections::HashSet;
use std::sync::OnceLock;
use x509::Certificate;

/// Every distinct scanned chain in first-seen order, then each trusted
/// root as a chain of its own.
fn study_chains() -> &'static [Vec<Bytes>] {
    static CHAINS: OnceLock<Vec<Vec<Bytes>>> = OnceLock::new();
    CHAINS.get_or_init(|| {
        let world = HgWorld::generate(ScenarioConfig::small().with_seed(17));
        let engine = ScanEngine::rapid7();
        let mut seen = HashSet::new();
        let mut chains = Vec::new();
        for t in 0..world.n_snapshots() {
            let obs = observe_snapshot(&world, &engine, t).expect("rapid7 covers the study");
            for rec in obs.cert.records {
                if seen.insert(rec.chain_der.clone()) {
                    chains.push(rec.chain_der);
                }
            }
        }
        chains.extend(world.pki().root_ders().iter().map(|r| vec![r.clone()]));
        chains
    })
}

#[test]
fn every_study_certificate_reassembles_to_its_der() {
    let mut seen: HashSet<&Bytes> = HashSet::new();
    let (mut leaves, mut intermediates, mut roots) = (0, 0, 0);
    for chain in study_chains() {
        for der in chain {
            if !seen.insert(der) {
                continue;
            }
            let cert = Certificate::parse(der).expect("scanned certificate parses");
            let rebuilt = Certificate::assemble(cert.tbs().clone(), *cert.signature());
            assert_eq!(rebuilt.der(), der.as_ref(), "re-assembly changed the DER");
            assert_eq!(cert.fingerprint().0, Sha256::digest(der));
            assert_eq!(rebuilt.fingerprint(), cert.fingerprint());
            match (cert.is_ca(), cert.is_self_issued()) {
                (true, true) => roots += 1,
                (true, false) => intermediates += 1,
                (false, _) => leaves += 1,
            }
        }
    }
    assert!(leaves > 10_000, "{leaves} distinct leaves");
    assert!(intermediates >= 4, "{intermediates} distinct intermediates");
    assert!(roots >= 4, "{roots} distinct roots");
}

#[test]
fn no_proper_prefix_of_a_leaf_or_intermediate_parses() {
    let chain = study_chains()
        .iter()
        .find(|c| c.len() >= 2)
        .expect("a chain with an intermediate");
    for der in &chain[..2] {
        assert!(Certificate::parse(der).is_ok());
        for cut in 0..der.len() {
            assert!(
                Certificate::parse(&der[..cut]).is_err(),
                "{cut}-byte prefix of a {}-byte certificate parsed",
                der.len()
            );
        }
    }
}
