use asn1::{oids, Error, Reader, Result, Tag, Writer};
use std::fmt;

/// The basicConstraints extension (RFC 5280 §4.2.1.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BasicConstraints {
    /// Whether the certified key may sign other certificates.
    pub is_ca: bool,
    /// Maximum number of intermediate certificates below this one.
    pub path_len: Option<u8>,
}

/// A minimal keyUsage model: we only need to distinguish certificate-signing
/// CAs from end-entity server certs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyUsage {
    pub digital_signature: bool,
    pub key_cert_sign: bool,
}

/// Most dNSNames a decoded subjectAltName may carry.
const MAX_DNS_NAMES: usize = 10_000;

/// GeneralName dNSName: `[2] IMPLICIT IA5String`.
const DNS_NAME: Tag = Tag::context_primitive(2);

/// subjectAltName dNSNames in certificate order, held as one buffer: the
/// content octets of a GeneralNames SEQUENCE holding only `[2]` dNSName
/// entries — exactly what [`Extensions::encode`] writes. Other
/// GeneralName choices are dropped on decode, so equal name lists hold
/// equal bytes.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct DnsNames {
    der: Vec<u8>,
    len: usize,
}

impl DnsNames {
    /// Append one name.
    pub fn push(&mut self, name: &str) {
        let mut w = Writer::new();
        w.write_primitive(DNS_NAME, name.as_bytes());
        self.der.extend_from_slice(&w.finish());
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The names in certificate order, borrowed from the buffer.
    pub fn iter(&self) -> DnsNameIter<'_> {
        DnsNameIter {
            entries: Reader::new(&self.der),
            left: self.len,
        }
    }
}

impl fmt::Debug for DnsNames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> Extend<S> for DnsNames {
    fn extend<I: IntoIterator<Item = S>>(&mut self, names: I) {
        for name in names {
            self.push(name.as_ref());
        }
    }
}

impl<S: AsRef<str>> FromIterator<S> for DnsNames {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Self {
        let mut out = Self::default();
        out.extend(names);
        out
    }
}

/// Iterator over [`DnsNames`].
#[derive(Debug, Clone)]
pub struct DnsNameIter<'a> {
    entries: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for DnsNameIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.left = self.left.checked_sub(1)?;
        let (_, name) = self
            .entries
            .read_any()
            .expect("DnsNames holds the dNSName TLVs it was built from");
        Some(std::str::from_utf8(name).expect("dNSNames are built from strings"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DnsNameIter<'_> {}

/// The X.509 v3 extensions the methodology consumes.
///
/// `subject_alt_names` holds the subjectAltName dNSName entries — the
/// authenticated list of domains the certificate certifies (§2, §4.2-4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Extensions {
    pub subject_alt_names: DnsNames,
    pub basic_constraints: Option<BasicConstraints>,
    pub key_usage: Option<KeyUsage>,
}

impl Extensions {
    /// Encode as the `[3] EXPLICIT Extensions` element of a TBSCertificate.
    /// Emits nothing when every extension is absent/empty.
    pub fn encode(&self, w: &mut Writer) {
        if self.subject_alt_names.is_empty()
            && self.basic_constraints.is_none()
            && self.key_usage.is_none()
        {
            return;
        }
        w.write_constructed(Tag::context_constructed(3), |w| {
            w.write_constructed(Tag::SEQUENCE, |w| {
                if let Some(bc) = &self.basic_constraints {
                    encode_extension(w, oids::BASIC_CONSTRAINTS, bc.is_ca, |w| {
                        w.write_constructed(Tag::SEQUENCE, |w| {
                            if bc.is_ca {
                                w.write_boolean(true);
                            }
                            if let Some(n) = bc.path_len {
                                w.write_integer(u64::from(n));
                            }
                        });
                    });
                }
                if let Some(ku) = &self.key_usage {
                    encode_extension(w, oids::KEY_USAGE, true, |w| {
                        // KeyUsage BIT STRING: bit 0 digitalSignature,
                        // bit 5 keyCertSign. One content byte suffices.
                        let mut bits: u8 = 0;
                        if ku.digital_signature {
                            bits |= 0x80;
                        }
                        if ku.key_cert_sign {
                            bits |= 0x04;
                        }
                        w.write_bit_string(&[bits]);
                    });
                }
                if !self.subject_alt_names.is_empty() {
                    encode_extension(w, oids::SUBJECT_ALT_NAME, false, |w| {
                        w.write_primitive(Tag::SEQUENCE, &self.subject_alt_names.der);
                    });
                }
            });
        });
    }

    /// Decode from the `[3]` element, which the caller must already have
    /// detected. Unknown non-critical extensions are skipped; unknown
    /// critical extensions are an error, per RFC 5280.
    pub fn decode(explicit_content: &[u8]) -> Result<Self> {
        let mut outer = Reader::new(explicit_content);
        let mut list = outer.read_sequence()?;
        outer.expect_end()?;
        let mut out = Extensions::default();
        while !list.is_empty() {
            let mut ext = list.read_sequence()?;
            let oid = ext.read_oid_content()?;
            let critical = if ext.peek_tag() == Ok(Tag::BOOLEAN) {
                ext.read_boolean()?
            } else {
                false
            };
            let value = ext.read_octet_string()?;
            ext.expect_end()?;
            match oid {
                oids::BASIC_CONSTRAINTS => {
                    out.basic_constraints = Some(decode_basic_constraints(value)?);
                }
                oids::KEY_USAGE => out.key_usage = Some(decode_key_usage(value)?),
                oids::SUBJECT_ALT_NAME => out.subject_alt_names = decode_san(value)?,
                _ if critical => {
                    return Err(Error::InvalidContent("unknown critical extension"));
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

fn encode_extension(w: &mut Writer, oid: &[u8], critical: bool, value: impl FnOnce(&mut Writer)) {
    w.write_constructed(Tag::SEQUENCE, |w| {
        w.write_primitive(Tag::OID, oid);
        if critical {
            w.write_boolean(true);
        }
        let mut inner = Writer::new();
        value(&mut inner);
        w.write_octet_string(&inner.finish());
    });
}

fn decode_basic_constraints(value: &[u8]) -> Result<BasicConstraints> {
    let mut r = Reader::new(value);
    let mut seq = r.read_sequence()?;
    r.expect_end()?;
    let is_ca = if seq.peek_tag() == Ok(Tag::BOOLEAN) {
        seq.read_boolean()?
    } else {
        false
    };
    let path_len = if seq.peek_tag() == Ok(Tag::INTEGER) {
        let n = seq.read_integer_u64()?;
        if n > 255 {
            return Err(Error::Oversized);
        }
        Some(n as u8)
    } else {
        None
    };
    seq.expect_end()?;
    Ok(BasicConstraints { is_ca, path_len })
}

fn decode_key_usage(value: &[u8]) -> Result<KeyUsage> {
    let mut r = Reader::new(value);
    let bits = r.read_bit_string()?;
    r.expect_end()?;
    let b0 = bits.first().copied().unwrap_or(0);
    Ok(KeyUsage {
        digital_signature: b0 & 0x80 != 0,
        key_cert_sign: b0 & 0x04 != 0,
    })
}

/// Decode a GeneralNames SEQUENCE, keeping its dNSName entries in one
/// buffer. Fails as soon as the 10,001st dNSName is reached.
fn decode_san(value: &[u8]) -> Result<DnsNames> {
    let mut r = Reader::new(value);
    let mut seq = r.read_sequence()?;
    r.expect_end()?;
    // Only dNSName entries matter to the methodology; other GeneralName
    // choices (IP, URI, ...) are skipped. With no others present the
    // buffer is an exact copy of the content.
    let mut names = DnsNames {
        der: Vec::with_capacity(seq.remaining()),
        len: 0,
    };
    while !seq.is_empty() {
        let entry = seq.read_raw_tlv()?;
        let (tag, content) = Reader::new(entry).read_any()?;
        if tag != DNS_NAME {
            continue;
        }
        if !content.is_ascii() {
            return Err(Error::InvalidContent("non-ASCII dNSName"));
        }
        if names.len == MAX_DNS_NAMES {
            return Err(Error::Oversized);
        }
        names.der.extend_from_slice(entry);
        names.len += 1;
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ext: &Extensions) -> Extensions {
        let mut w = Writer::new();
        ext.encode(&mut w);
        let der = w.finish();
        let mut r = Reader::new(&der);
        let content = r.read_expected(Tag::context_constructed(3)).unwrap();
        Extensions::decode(content).unwrap()
    }

    #[test]
    fn san_roundtrip() {
        let ext = Extensions {
            subject_alt_names: ["*.google.com", "*.googlevideo.com", "google.com"]
                .into_iter()
                .collect(),
            ..Default::default()
        };
        assert_eq!(roundtrip(&ext), ext);
    }

    #[test]
    fn ca_constraints_roundtrip() {
        let ext = Extensions {
            basic_constraints: Some(BasicConstraints {
                is_ca: true,
                path_len: Some(1),
            }),
            key_usage: Some(KeyUsage {
                digital_signature: false,
                key_cert_sign: true,
            }),
            ..Default::default()
        };
        assert_eq!(roundtrip(&ext), ext);
    }

    #[test]
    fn empty_extensions_encode_nothing() {
        let mut w = Writer::new();
        Extensions::default().encode(&mut w);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn unknown_critical_extension_rejected() {
        // Hand-build an extension list with an unknown critical OID.
        let mut w = Writer::new();
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_constructed(Tag::SEQUENCE, |w| {
                w.write_oid(&asn1::Oid::from_arcs(&[1, 2, 3, 4]).unwrap());
                w.write_boolean(true);
                w.write_octet_string(&[0x05, 0x00]);
            });
        });
        let der = w.finish();
        assert!(Extensions::decode(&der).is_err());
    }

    #[test]
    fn unknown_noncritical_extension_skipped() {
        let mut w = Writer::new();
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_constructed(Tag::SEQUENCE, |w| {
                w.write_oid(&asn1::Oid::from_arcs(&[1, 2, 3, 4]).unwrap());
                w.write_octet_string(&[0x05, 0x00]);
            });
        });
        let der = w.finish();
        let ext = Extensions::decode(&der).unwrap();
        assert_eq!(ext, Extensions::default());
    }

    /// A subjectAltName extension value holding `entries` as raw
    /// GeneralName TLVs.
    fn san_value(entries: &[(Tag, &[u8])]) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_constructed(Tag::SEQUENCE, |w| {
            for (tag, content) in entries {
                w.write_primitive(*tag, content);
            }
        });
        w.finish()
    }

    #[test]
    fn san_keeps_only_dns_names_in_order() {
        let ip = Tag::context_primitive(7);
        let value = san_value(&[
            (DNS_NAME, b"a.example"),
            (ip, &[192, 0, 2, 1]),
            (DNS_NAME, b"b.example"),
        ]);
        let names = decode_san(&value).unwrap();
        assert_eq!(names.iter().collect::<Vec<_>>(), ["a.example", "b.example"]);
        assert_eq!(names.len(), 2);
        assert_eq!(names, ["a.example", "b.example"].into_iter().collect());
        assert_eq!(format!("{names:?}"), r#"["a.example", "b.example"]"#);
        assert!(decode_san(&san_value(&[(ip, &[1, 2, 3, 4])]))
            .unwrap()
            .is_empty());
        assert!(decode_san(&san_value(&[(DNS_NAME, "é.example".as_bytes())])).is_err());
    }

    #[test]
    fn san_bound_fails_at_the_10001st_name() {
        let entry: (Tag, &[u8]) = (DNS_NAME, b"x");
        let at_bound = vec![entry; MAX_DNS_NAMES];
        assert_eq!(
            decode_san(&san_value(&at_bound)).unwrap().len(),
            MAX_DNS_NAMES
        );
        let over = vec![entry; MAX_DNS_NAMES + 1];
        assert_eq!(decode_san(&san_value(&over)).unwrap_err(), Error::Oversized);
        // Entries past the bound are never looked at.
        let mut past = over.clone();
        past.push((DNS_NAME, "é".as_bytes()));
        assert_eq!(decode_san(&san_value(&past)).unwrap_err(), Error::Oversized);
    }

    #[test]
    fn default_basic_constraints_is_end_entity() {
        let bc = BasicConstraints::default();
        assert!(!bc.is_ca);
        assert_eq!(bc.path_len, None);
    }
}
