use crate::{DistinguishedName, DnsNames, Extensions, PublicKey, Signature};
use asn1::{oids, Error, Reader, Result, Tag, Writer};
use sha2sim::Sha256;
use std::fmt;
use std::sync::{Arc, OnceLock};
use timebase::Timestamp;

/// A certificate's validity window (`notBefore`/`notAfter`, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    pub not_before: Timestamp,
    pub not_after: Timestamp,
}

impl Validity {
    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Timestamp) -> bool {
        at >= self.not_before && at <= self.not_after
    }
}

/// SHA-256 over the certificate's full DER encoding — the identity used to
/// deduplicate certificates across scans.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 32]);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", &sha2sim::hex(&self.0)[..16])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&sha2sim::hex(&self.0))
    }
}

/// The to-be-signed portion of a certificate (RFC 5280 §4.1.1.1 subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    pub serial: u64,
    pub issuer: DistinguishedName,
    pub validity: Validity,
    pub subject: DistinguishedName,
    pub public_key: PublicKey,
    pub extensions: Extensions,
}

impl TbsCertificate {
    /// DER-encode the TBSCertificate.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(512);
        w.write_constructed(Tag::SEQUENCE, |w| {
            // [0] EXPLICIT version v3(2)
            w.write_constructed(Tag::context_constructed(0), |w| {
                w.write_integer(2);
            });
            w.write_integer(self.serial);
            // signature AlgorithmIdentifier
            encode_algorithm(w, oids::SIMSIG_HMAC_SHA256);
            self.issuer.encode(w);
            // validity
            w.write_constructed(Tag::SEQUENCE, |w| {
                write_time(w, self.validity.not_before);
                write_time(w, self.validity.not_after);
            });
            self.subject.encode(w);
            // subjectPublicKeyInfo
            w.write_constructed(Tag::SEQUENCE, |w| {
                encode_algorithm(w, oids::SIMSIG_KEY);
                w.write_bit_string(&self.public_key.0);
            });
            self.extensions.encode(w);
        });
        w.finish()
    }
}

/// A parsed (or freshly built) X.509 certificate together with its exact DER
/// encoding. Parsing retains the raw bytes so fingerprints and signature
/// checks operate on what was actually on the wire.
///
/// Every field is a function of the DER, so two certificates are equal
/// exactly when their DER is.
#[derive(Debug, Clone)]
pub struct Certificate {
    tbs: TbsCertificate,
    signature: Signature,
    der: Arc<[u8]>,
    tbs_der_range: (usize, usize),
    /// SHA-256 of `der`, hashed on first use: most parsed leaves are
    /// validated and indexed without ever being fingerprinted.
    fingerprint: OnceLock<Fingerprint>,
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.der == other.der
    }
}

impl Eq for Certificate {}

impl Certificate {
    /// Assemble a certificate from a TBS and its signature, producing DER.
    pub fn assemble(tbs: TbsCertificate, signature: Signature) -> Self {
        let tbs_der = tbs.encode();
        let mut w = Writer::with_capacity(tbs_der.len() + 80);
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_raw(&tbs_der);
            encode_algorithm(w, oids::SIMSIG_HMAC_SHA256);
            w.write_bit_string(&signature.0);
        });
        let der: Arc<[u8]> = w.finish().into();
        Self::parse(&der).expect("assembled certificate must re-parse")
    }

    /// Strictly parse a DER certificate.
    pub fn parse(der: &[u8]) -> Result<Self> {
        let mut top = Reader::new(der);
        let mut cert = top.read_sequence()?;
        top.expect_end()?;

        // Record the TBS byte range for signature verification.
        let before_tbs = der.len() - cert_remaining(&cert);
        let mut tbs_reader = cert.clone();
        let tbs_raw = tbs_reader.read_raw_tlv()?;
        let tbs_der_range = (before_tbs, before_tbs + tbs_raw.len());

        let mut tbs = cert.read_sequence()?;
        // [0] version — require v3.
        let version_content = tbs.read_expected(Tag::context_constructed(0))?;
        let mut vr = Reader::new(version_content);
        if vr.read_integer_u64()? != 2 {
            return Err(Error::InvalidContent("unsupported X.509 version"));
        }
        vr.expect_end()?;
        let serial = tbs.read_integer_u64()?;
        expect_algorithm(&mut tbs, oids::SIMSIG_HMAC_SHA256)?;
        let issuer = DistinguishedName::decode(&mut tbs)?;
        let mut validity = tbs.read_sequence()?;
        let not_before = validity.read_time()?;
        let not_after = validity.read_time()?;
        validity.expect_end()?;
        let subject = DistinguishedName::decode(&mut tbs)?;
        let mut spki = tbs.read_sequence()?;
        expect_algorithm(&mut spki, oids::SIMSIG_KEY)?;
        let key_bits = spki.read_bit_string()?;
        spki.expect_end()?;
        let public_key =
            PublicKey::from_bytes(key_bits).ok_or(Error::InvalidContent("bad key length"))?;
        let extensions = match tbs.read_optional(Tag::context_constructed(3))? {
            Some(content) => Extensions::decode(content)?,
            None => Extensions::default(),
        };
        tbs.expect_end()?;

        expect_algorithm(&mut cert, oids::SIMSIG_HMAC_SHA256)?;
        let sig_bits = cert.read_bit_string()?;
        cert.expect_end()?;
        let sig_arr: [u8; 32] = sig_bits
            .try_into()
            .map_err(|_| Error::InvalidContent("bad signature length"))?;

        Ok(Self {
            tbs: TbsCertificate {
                serial,
                issuer,
                validity: Validity {
                    not_before,
                    not_after,
                },
                subject,
                public_key,
                extensions,
            },
            signature: Signature(sig_arr),
            der: der.into(),
            tbs_der_range,
            fingerprint: OnceLock::new(),
        })
    }

    pub fn tbs(&self) -> &TbsCertificate {
        &self.tbs
    }

    pub fn serial(&self) -> u64 {
        self.tbs.serial
    }

    pub fn subject(&self) -> &DistinguishedName {
        &self.tbs.subject
    }

    pub fn issuer(&self) -> &DistinguishedName {
        &self.tbs.issuer
    }

    pub fn validity(&self) -> Validity {
        self.tbs.validity
    }

    pub fn public_key(&self) -> PublicKey {
        self.tbs.public_key
    }

    pub fn extensions(&self) -> &Extensions {
        &self.tbs.extensions
    }

    /// The subjectAltName dNSNames (§2 "dNSName"), in certificate order.
    pub fn dns_names(&self) -> &DnsNames {
        &self.tbs.extensions.subject_alt_names
    }

    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The exact DER encoding.
    pub fn der(&self) -> &[u8] {
        &self.der
    }

    /// The DER bytes covered by the signature.
    pub fn tbs_der(&self) -> &[u8] {
        &self.der[self.tbs_der_range.0..self.tbs_der_range.1]
    }

    /// SHA-256 fingerprint of the full DER.
    pub fn fingerprint(&self) -> Fingerprint {
        *self
            .fingerprint
            .get_or_init(|| Fingerprint(Sha256::digest(&self.der)))
    }

    /// Whether issuer and subject names are identical (the §4.1 self-signed
    /// end-entity filter keys off this plus a self-verifying signature).
    pub fn is_self_issued(&self) -> bool {
        self.tbs.issuer == self.tbs.subject
    }

    /// Whether this certificate is marked as a CA via basicConstraints.
    pub fn is_ca(&self) -> bool {
        self.tbs
            .extensions
            .basic_constraints
            .map(|bc| bc.is_ca)
            .unwrap_or(false)
    }

    /// Verify that `issuer_key` produced this certificate's signature.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        issuer_key.verify(self.tbs_der(), &self.signature)
    }
}

fn cert_remaining(r: &Reader<'_>) -> usize {
    r.remaining()
}

fn encode_algorithm(w: &mut Writer, oid: &[u8]) {
    w.write_constructed(Tag::SEQUENCE, |w| {
        w.write_primitive(Tag::OID, oid);
        w.write_null();
    });
}

fn expect_algorithm(r: &mut Reader<'_>, oid: &[u8]) -> Result<()> {
    let mut alg = r.read_sequence()?;
    if alg.read_oid_content()? != oid {
        return Err(Error::InvalidContent("unexpected algorithm identifier"));
    }
    alg.read_null()?;
    alg.expect_end()?;
    Ok(())
}

fn write_time(w: &mut Writer, t: Timestamp) {
    let year = t.civil().0;
    if (1950..=2049).contains(&year) {
        w.write_utc_time(t);
    } else {
        w.write_generalized_time(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeyPair, NameBuilder};

    fn sample_tbs() -> TbsCertificate {
        TbsCertificate {
            serial: 123456,
            issuer: NameBuilder::new()
                .organization("SimTrust CA")
                .common_name("SimTrust Issuing CA 1")
                .build(),
            validity: Validity {
                not_before: Timestamp::from_civil(2019, 1, 1, 0, 0, 0),
                not_after: Timestamp::from_civil(2020, 1, 1, 0, 0, 0),
            },
            subject: NameBuilder::new()
                .organization("Google LLC")
                .common_name("*.google.com")
                .build(),
            public_key: KeyPair::from_seed("ee:google").public_key(),
            extensions: Extensions {
                subject_alt_names: ["*.google.com", "google.com"].into_iter().collect(),
                basic_constraints: Some(Default::default()),
                key_usage: Some(crate::KeyUsage {
                    digital_signature: true,
                    key_cert_sign: false,
                }),
            },
        }
    }

    #[test]
    fn assemble_parse_roundtrip() {
        let tbs = sample_tbs();
        let ca = KeyPair::from_seed("ca");
        let sig = ca.sign(&tbs.encode());
        let cert = Certificate::assemble(tbs.clone(), sig);
        assert_eq!(cert.tbs(), &tbs);
        assert_eq!(cert.subject().organization(), Some("Google LLC"));
        assert_eq!(
            cert.dns_names().iter().collect::<Vec<_>>(),
            ["*.google.com", "google.com"]
        );
        assert!(!cert.is_ca());
        assert!(!cert.is_self_issued());
    }

    #[test]
    fn signature_verifies_against_issuer_key() {
        let tbs = sample_tbs();
        let ca = KeyPair::from_seed("ca");
        let cert = Certificate::assemble(tbs.clone(), ca.sign(&tbs.encode()));
        assert!(cert.verify_signature(&ca.public_key()));
        assert!(!cert.verify_signature(&KeyPair::from_seed("other").public_key()));
    }

    #[test]
    fn tbs_der_matches_signed_bytes() {
        let tbs = sample_tbs();
        let ca = KeyPair::from_seed("ca");
        let cert = Certificate::assemble(tbs.clone(), ca.sign(&tbs.encode()));
        assert_eq!(cert.tbs_der(), tbs.encode().as_slice());
    }

    #[test]
    fn tampered_der_changes_fingerprint_and_breaks_signature() {
        let tbs = sample_tbs();
        let ca = KeyPair::from_seed("ca");
        let cert = Certificate::assemble(tbs, ca.sign(&sample_tbs().encode()));
        let mut der = cert.der().to_vec();
        // Flip a byte inside the subject name.
        let pos = der.len() / 2;
        der[pos] ^= 0x01;
        // Structural damage (parse failure) is also an acceptable outcome.
        if let Ok(tampered) = Certificate::parse(&der) {
            assert_ne!(tampered.fingerprint(), cert.fingerprint());
            assert!(!tampered.verify_signature(&ca.public_key()));
        }
    }

    #[test]
    fn validity_window() {
        let v = Validity {
            not_before: Timestamp::from_civil(2019, 1, 1, 0, 0, 0),
            not_after: Timestamp::from_civil(2020, 1, 1, 0, 0, 0),
        };
        assert!(v.contains(Timestamp::from_civil(2019, 6, 1, 0, 0, 0)));
        assert!(v.contains(v.not_before));
        assert!(v.contains(v.not_after));
        assert!(!v.contains(Timestamp::from_civil(2020, 1, 1, 0, 0, 1)));
        assert!(!v.contains(Timestamp::from_civil(2018, 12, 31, 23, 59, 59)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Certificate::parse(&[]).is_err());
        assert!(Certificate::parse(&[0x30, 0x02, 0x05, 0x00]).is_err());
        assert!(Certificate::parse(b"not der at all").is_err());
    }

    #[test]
    fn post_2049_dates_use_generalized_time() {
        let mut tbs = sample_tbs();
        tbs.validity.not_after = Timestamp::from_civil(2055, 1, 1, 0, 0, 0);
        let ca = KeyPair::from_seed("ca");
        let cert = Certificate::assemble(tbs.clone(), ca.sign(&tbs.encode()));
        assert_eq!(cert.validity().not_after, tbs.validity.not_after);
    }

    #[test]
    fn fingerprint_is_stable_and_unique() {
        let tbs = sample_tbs();
        let ca = KeyPair::from_seed("ca");
        let c1 = Certificate::assemble(tbs.clone(), ca.sign(&tbs.encode()));
        let c2 = Certificate::parse(c1.der()).unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        let mut tbs2 = tbs;
        tbs2.serial += 1;
        let c3 = Certificate::assemble(tbs2.clone(), ca.sign(&tbs2.encode()));
        assert_ne!(c1.fingerprint(), c3.fingerprint());
    }
}
