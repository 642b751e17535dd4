//! The simulated WebPKI: trusted roots and intermediates, plus helpers for
//! issuing the certificate chains Hypergiants (and everyone else) serve.

use bytes::Bytes;
use sha2sim::Sha256;
use timebase::Timestamp;
use x509::{CertificateBuilder, DistinguishedName, KeyPair, NameBuilder, RootStore};

/// The SAN marker Cloudflare adds to free universal-SSL customer
/// certificates, which the pipeline filters on (§7):
/// `(ssl|sni)[0-9]*.cloudflaressl.com`.
pub const CLOUDFLARE_FREE_SAN_MARKER: &str = ".cloudflaressl.com";

/// A trusted intermediate CA ready to issue end-entity certificates.
#[derive(Debug, Clone)]
struct IssuingCa {
    name: DistinguishedName,
    key: KeyPair,
    cert_der: Bytes,
}

/// The simulation's certificate authority hierarchy: a handful of root CAs
/// (the "Common CA Database") each with one issuing intermediate, plus one
/// *untrusted* CA whose chains fail verification (§4.1's filter).
#[derive(Debug, Clone)]
pub struct HgPki {
    roots: RootStore,
    /// The trusted roots' DER: servers omit roots from the chains they
    /// present, so scans never return these.
    root_ders: Vec<Bytes>,
    issuers: Vec<IssuingCa>,
    untrusted: IssuingCa,
}

/// Deterministic 64-bit serial from a label.
fn serial_from(label: &str) -> u64 {
    let d = Sha256::digest(label.as_bytes());
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes")) >> 1
}

impl HgPki {
    /// Build the CA hierarchy. Deterministic per seed label.
    pub fn new(seed: u64) -> Self {
        let nb = Timestamp::from_civil(2005, 1, 1, 0, 0, 0);
        let na = Timestamp::from_civil(2045, 1, 1, 0, 0, 0);
        let mut roots = RootStore::new();
        let mut issuers = Vec::new();
        let mut root_ders = Vec::new();
        for i in 0..4 {
            let root_key = KeyPair::from_seed(&format!("pki:{seed}:root:{i}"));
            let root_name = NameBuilder::new()
                .country("US")
                .organization(format!("SimTrust {i}").as_str())
                .common_name(format!("SimTrust Root CA {i}").as_str())
                .build();
            let root = CertificateBuilder::new()
                .serial(serial_from(&format!("root:{seed}:{i}")))
                .subject(root_name.clone())
                .validity(nb, na)
                .ca(Some(2))
                .subject_key(&root_key)
                .self_signed(&root_key);
            assert!(roots.add_root(&root), "root must be addable");
            root_ders.push(Bytes::copy_from_slice(root.der()));

            let inter_key = KeyPair::from_seed(&format!("pki:{seed}:inter:{i}"));
            let inter_name = NameBuilder::new()
                .country("US")
                .organization(format!("SimTrust {i}").as_str())
                .common_name(format!("SimTrust Issuing CA {i}").as_str())
                .build();
            let inter = CertificateBuilder::new()
                .serial(serial_from(&format!("inter:{seed}:{i}")))
                .subject(inter_name.clone())
                .validity(nb, na)
                .ca(Some(0))
                .subject_key(&inter_key)
                .issued_by(&root_name, &root_key);
            issuers.push(IssuingCa {
                name: inter_name,
                key: inter_key,
                cert_der: Bytes::copy_from_slice(inter.der()),
            });
        }
        // The untrusted CA: structurally fine, absent from the root store.
        let rogue_key = KeyPair::from_seed(&format!("pki:{seed}:rogue"));
        let rogue_name = NameBuilder::new()
            .organization("Shady Certs Ltd")
            .common_name("Shady Issuing CA")
            .build();
        let rogue_root_key = KeyPair::from_seed(&format!("pki:{seed}:rogue-root"));
        let rogue_root_name = NameBuilder::new()
            .organization("Shady Certs Ltd")
            .common_name("Shady Root")
            .build();
        let rogue = CertificateBuilder::new()
            .serial(serial_from(&format!("rogue:{seed}")))
            .subject(rogue_name.clone())
            .validity(nb, na)
            .ca(Some(0))
            .subject_key(&rogue_key)
            .issued_by(&rogue_root_name, &rogue_root_key);
        let untrusted = IssuingCa {
            name: rogue_name,
            key: rogue_key,
            cert_der: Bytes::copy_from_slice(rogue.der()),
        };
        Self {
            roots,
            root_ders,
            issuers,
            untrusted,
        }
    }

    /// The trusted root store ("Common CA Database", §4.1).
    pub fn root_store(&self) -> &RootStore {
        &self.roots
    }

    /// The DER of every trusted root.
    pub fn root_ders(&self) -> &[Bytes] {
        &self.root_ders
    }

    /// Issue a trusted end-entity chain `(leaf, intermediate)`.
    ///
    /// `label` seeds the key and serial, making reissue deterministic;
    /// `issuer_hint` spreads certificates over the intermediates.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_chain(
        &self,
        label: &str,
        org: Option<&str>,
        common_name: &str,
        sans: &[String],
        not_before: Timestamp,
        not_after: Timestamp,
        issuer_hint: usize,
    ) -> Vec<Bytes> {
        let issuer = &self.issuers[issuer_hint % self.issuers.len()];
        let leaf = self
            .build_leaf(label, org, common_name, sans, not_before, not_after)
            .issued_by(&issuer.name, &issuer.key);
        vec![Bytes::copy_from_slice(leaf.der()), issuer.cert_der.clone()]
    }

    /// Issue a chain signed by the untrusted CA — fails §4.1 verification.
    pub fn issue_untrusted_chain(
        &self,
        label: &str,
        org: Option<&str>,
        common_name: &str,
        sans: &[String],
        not_before: Timestamp,
        not_after: Timestamp,
    ) -> Vec<Bytes> {
        let leaf = self
            .build_leaf(label, org, common_name, sans, not_before, not_after)
            .issued_by(&self.untrusted.name, &self.untrusted.key);
        vec![
            Bytes::copy_from_slice(leaf.der()),
            self.untrusted.cert_der.clone(),
        ]
    }

    /// Issue a self-signed end-entity certificate — also discarded by §4.1.
    pub fn issue_self_signed(
        &self,
        label: &str,
        org: Option<&str>,
        common_name: &str,
        sans: &[String],
        not_before: Timestamp,
        not_after: Timestamp,
    ) -> Vec<Bytes> {
        let key = KeyPair::from_seed(&format!("ss:{label}"));
        let leaf = self
            .build_leaf(label, org, common_name, sans, not_before, not_after)
            .self_signed(&key);
        vec![Bytes::copy_from_slice(leaf.der())]
    }

    fn build_leaf(
        &self,
        label: &str,
        org: Option<&str>,
        common_name: &str,
        sans: &[String],
        not_before: Timestamp,
        not_after: Timestamp,
    ) -> CertificateBuilder {
        let mut name = NameBuilder::new();
        if let Some(org) = org {
            name = name.organization(org);
        }
        let subject = name.common_name(common_name).build();
        CertificateBuilder::new()
            .serial(serial_from(label))
            .subject(subject)
            .validity(not_before, not_after)
            .dns_names(sans.iter().cloned())
            .end_entity()
            .subject_key(&KeyPair::from_seed(&format!("ee:{label}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x509::{verify_chain, Certificate, ChainError};

    fn t(y: i32, m: u8) -> Timestamp {
        Timestamp::from_civil(y, m, 1, 0, 0, 0)
    }

    fn parse_chain(der: &[Bytes]) -> Vec<Certificate> {
        der.iter().map(|b| Certificate::parse(b).unwrap()).collect()
    }

    #[test]
    fn trusted_chain_verifies() {
        let pki = HgPki::new(7);
        let sans = vec!["*.google.com".to_owned()];
        let chain = pki.issue_chain(
            "g1",
            Some("Google LLC"),
            "*.google.com",
            &sans,
            t(2019, 1),
            t(2019, 6),
            0,
        );
        let certs = parse_chain(&chain);
        let v = verify_chain(&certs, pki.root_store(), t(2019, 3)).unwrap();
        assert_eq!(v.end_entity.subject().organization(), Some("Google LLC"));
        assert_eq!(
            v.end_entity.dns_names().iter().collect::<Vec<_>>(),
            ["*.google.com"]
        );
    }

    #[test]
    fn untrusted_chain_fails() {
        let pki = HgPki::new(7);
        let sans = vec!["x.example".to_owned()];
        let chain =
            pki.issue_untrusted_chain("u1", None, "x.example", &sans, t(2019, 1), t(2019, 6));
        let certs = parse_chain(&chain);
        assert_eq!(
            verify_chain(&certs, pki.root_store(), t(2019, 3)).unwrap_err(),
            ChainError::UntrustedRoot
        );
    }

    #[test]
    fn self_signed_fails() {
        let pki = HgPki::new(7);
        let sans = vec!["*.google.com".to_owned()];
        let chain = pki.issue_self_signed(
            "s1",
            Some("Google LLC"),
            "*.google.com",
            &sans,
            t(2019, 1),
            t(2019, 6),
        );
        let certs = parse_chain(&chain);
        assert_eq!(
            verify_chain(&certs, pki.root_store(), t(2019, 3)).unwrap_err(),
            ChainError::SelfSignedEndEntity
        );
    }

    #[test]
    fn expired_chain_fails_at_scan_time() {
        let pki = HgPki::new(7);
        let sans = vec!["v.netflix.com".to_owned()];
        let chain = pki.issue_chain(
            "n1",
            Some("Netflix, Inc."),
            "v",
            &sans,
            t(2016, 1),
            t(2017, 4),
            1,
        );
        let certs = parse_chain(&chain);
        assert_eq!(
            verify_chain(&certs, pki.root_store(), t(2018, 1)).unwrap_err(),
            ChainError::Expired
        );
        assert!(verify_chain(&certs, pki.root_store(), t(2017, 1)).is_ok());
    }

    #[test]
    fn reissue_is_deterministic() {
        let pki = HgPki::new(7);
        let sans = vec!["a.example".to_owned()];
        let c1 = pki.issue_chain("same", None, "a", &sans, t(2019, 1), t(2019, 6), 2);
        let c2 = pki.issue_chain("same", None, "a", &sans, t(2019, 1), t(2019, 6), 2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn issuer_hint_spreads_intermediates() {
        let pki = HgPki::new(7);
        let sans = vec!["a.example".to_owned()];
        let c0 = pki.issue_chain("x", None, "a", &sans, t(2019, 1), t(2019, 6), 0);
        let c1 = pki.issue_chain("x", None, "a", &sans, t(2019, 1), t(2019, 6), 1);
        assert_ne!(c0[1], c1[1]);
    }
}
