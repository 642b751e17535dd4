use crate::{
    BasicConstraints, Certificate, DistinguishedName, Extensions, KeyPair, KeyUsage,
    TbsCertificate, Validity,
};
use timebase::Timestamp;

/// Builder for issuing certificates in the simulated PKI.
///
/// ```
/// use offnet_x509::{CertificateBuilder, KeyPair, NameBuilder};
/// use timebase::Timestamp;
///
/// let root_key = KeyPair::from_seed("root");
/// let root = CertificateBuilder::new()
///     .subject(NameBuilder::new().organization("SimTrust").common_name("SimTrust Root").build())
///     .validity(Timestamp::from_civil(2010, 1, 1, 0, 0, 0), Timestamp::from_civil(2035, 1, 1, 0, 0, 0))
///     .ca(None)
///     .subject_key(&root_key)
///     .self_signed(&root_key);
/// assert!(root.is_ca());
/// assert!(root.is_self_issued());
/// ```
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial: u64,
    subject: DistinguishedName,
    validity: Validity,
    extensions: Extensions,
    subject_key: Option<KeyPair>,
}

impl Default for CertificateBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CertificateBuilder {
    pub fn new() -> Self {
        Self {
            serial: 1,
            subject: DistinguishedName::default(),
            validity: Validity {
                not_before: Timestamp::from_civil(2000, 1, 1, 0, 0, 0),
                not_after: Timestamp::from_civil(2049, 12, 31, 23, 59, 59),
            },
            extensions: Extensions::default(),
            subject_key: None,
        }
    }

    pub fn serial(mut self, serial: u64) -> Self {
        self.serial = serial;
        self
    }

    pub fn subject(mut self, subject: DistinguishedName) -> Self {
        self.subject = subject;
        self
    }

    pub fn validity(mut self, not_before: Timestamp, not_after: Timestamp) -> Self {
        self.validity = Validity {
            not_before,
            not_after,
        };
        self
    }

    /// Add subjectAltName dNSName entries.
    pub fn dns_names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.extensions.subject_alt_names.extend(names);
        self
    }

    /// Mark this certificate as a CA with an optional path length.
    pub fn ca(mut self, path_len: Option<u8>) -> Self {
        self.extensions.basic_constraints = Some(BasicConstraints {
            is_ca: true,
            path_len,
        });
        self.extensions.key_usage = Some(KeyUsage {
            digital_signature: false,
            key_cert_sign: true,
        });
        self
    }

    /// Mark as an end-entity server certificate.
    pub fn end_entity(mut self) -> Self {
        self.extensions.basic_constraints = Some(BasicConstraints {
            is_ca: false,
            path_len: None,
        });
        self.extensions.key_usage = Some(KeyUsage {
            digital_signature: true,
            key_cert_sign: false,
        });
        self
    }

    /// Set the certified key.
    pub fn subject_key(mut self, key: &KeyPair) -> Self {
        self.subject_key = Some(*key);
        self
    }

    fn tbs(self, issuer: DistinguishedName) -> TbsCertificate {
        TbsCertificate {
            serial: self.serial,
            issuer,
            validity: self.validity,
            subject: self.subject,
            public_key: self
                .subject_key
                .expect("subject_key must be set before issuing")
                .public_key(),
            extensions: self.extensions,
        }
    }

    /// Issue this certificate, signed by `issuer_key` under `issuer_name`.
    pub fn issued_by(self, issuer_name: &DistinguishedName, issuer_key: &KeyPair) -> Certificate {
        let tbs = self.tbs(issuer_name.clone());
        let sig = issuer_key.sign(&tbs.encode());
        Certificate::assemble(tbs, sig)
    }

    /// Issue as a self-signed certificate (issuer == subject, signed by the
    /// subject's own key). Used for roots and for the invalid self-signed EE
    /// certificates §4.1 discards.
    pub fn self_signed(self, key: &KeyPair) -> Certificate {
        let subject = self.subject.clone();
        let mut builder = self;
        builder.subject_key = Some(*key);
        let tbs = builder.tbs(subject);
        let sig = key.sign(&tbs.encode());
        Certificate::assemble(tbs, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NameBuilder;

    #[test]
    fn issue_chain() {
        let root_key = KeyPair::from_seed("root");
        let root_name = NameBuilder::new()
            .organization("SimTrust")
            .common_name("SimTrust Root CA")
            .build();
        let root = CertificateBuilder::new()
            .subject(root_name.clone())
            .ca(Some(2))
            .subject_key(&root_key)
            .self_signed(&root_key);
        assert!(root.is_ca());
        assert!(root.verify_signature(&root.public_key()));

        let inter_key = KeyPair::from_seed("inter");
        let inter_name = NameBuilder::new()
            .organization("SimTrust")
            .common_name("SimTrust Issuing CA")
            .build();
        let inter = CertificateBuilder::new()
            .serial(2)
            .subject(inter_name.clone())
            .ca(Some(0))
            .subject_key(&inter_key)
            .issued_by(&root_name, &root_key);
        assert!(inter.verify_signature(&root.public_key()));
        assert_eq!(inter.issuer(), &root_name);

        let ee_key = KeyPair::from_seed("ee");
        let ee = CertificateBuilder::new()
            .serial(3)
            .subject(NameBuilder::new().organization("Netflix, Inc.").build())
            .dns_names(["*.nflxvideo.net"])
            .end_entity()
            .subject_key(&ee_key)
            .issued_by(&inter_name, &inter_key);
        assert!(!ee.is_ca());
        assert!(ee.verify_signature(&inter.public_key()));
        assert!(!ee.verify_signature(&root.public_key()));
    }

    #[test]
    #[should_panic(expected = "subject_key")]
    fn missing_subject_key_panics() {
        let key = KeyPair::from_seed("k");
        let name = NameBuilder::new().common_name("x").build();
        let _ = CertificateBuilder::new().issued_by(&name, &key);
    }
}
