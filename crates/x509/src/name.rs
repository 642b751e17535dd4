use asn1::{oids, Error, Oid, Reader, Result, Tag, Writer};
use std::fmt;

/// Most attributes a decoded name may carry.
const MAX_ATTRIBUTES: usize = 32;

/// An X.501 distinguished name: an ordered list of single-attribute RDNs.
///
/// Only the attributes the paper's methodology touches are modelled:
/// commonName, organizationName, and countryName. Unknown attribute types
/// are preserved opaquely so round-trips are lossless for them too.
///
/// The name is held as one buffer: the content octets of its canonical
/// DER encoding, one `SET { SEQUENCE { OID, UTF8String } }` per attribute
/// — exactly what [`encode`](Self::encode) writes. A decoded
/// PrintableString value is stored as a UTF8String, so two names with
/// equal attribute lists hold equal bytes and `Eq`/`Hash` compare those.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    content: Box<[u8]>,
}

impl DistinguishedName {
    /// The attributes in order: OID content octets (compare them against
    /// the [`asn1::oids`] constants) and value.
    pub fn attributes(&self) -> impl Iterator<Item = (&[u8], &str)> {
        let mut rdns = Reader::new(&self.content);
        std::iter::from_fn(move || {
            (!rdns.is_empty()).then(|| {
                let (oid, value, _) = read_attribute(&mut rdns)
                    .expect("a DistinguishedName holds the canonical DER it was built from");
                (oid, value)
            })
        })
    }

    fn first(&self, oid: &[u8]) -> Option<&str> {
        self.attributes().find(|(o, _)| *o == oid).map(|(_, v)| v)
    }

    /// The commonName attribute, if present.
    pub fn common_name(&self) -> Option<&str> {
        self.first(oids::COMMON_NAME)
    }

    /// The organizationName attribute, if present. This is the field §4.2
    /// searches (case-insensitively) for Hypergiant names.
    pub fn organization(&self) -> Option<&str> {
        self.first(oids::ORGANIZATION)
    }

    /// The countryName attribute, if present.
    pub fn country(&self) -> Option<&str> {
        self.first(oids::COUNTRY)
    }

    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// Encode as a DER `Name` (SEQUENCE OF SET OF AttributeTypeAndValue).
    pub fn encode(&self, w: &mut Writer) {
        w.write_primitive(Tag::SEQUENCE, &self.content);
    }

    /// Decode from a DER `Name`. Fails as soon as a name reaches its
    /// 33rd attribute.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let content = r.read_expected(Tag::SEQUENCE)?;
        let mut rdns = Reader::new(content);
        let mut count = 0;
        let mut canonical = true;
        while !rdns.is_empty() {
            if count == MAX_ATTRIBUTES {
                return Err(Error::Oversized);
            }
            count += 1;
            let (_, _, tag) = read_attribute(&mut rdns)?;
            canonical &= tag == Tag::UTF8_STRING;
        }
        if canonical {
            return Ok(Self {
                content: content.into(),
            });
        }
        // Some value is a PrintableString: store it as a UTF8String.
        let mut w = Writer::with_capacity(content.len());
        let mut rdns = Reader::new(content);
        while !rdns.is_empty() {
            let (oid, value, _) = read_attribute(&mut rdns)?;
            write_attribute(&mut w, oid, value);
        }
        Ok(Self {
            content: w.finish().into(),
        })
    }

    /// Render as a one-line RFC 4514-style string, e.g. `C=US, O=Google LLC,
    /// CN=*.google.com`.
    pub fn display_string(&self) -> String {
        let parts: Vec<String> = self
            .attributes()
            .map(|(oid, value)| {
                let label = match oid {
                    oids::COMMON_NAME => "CN".to_owned(),
                    oids::ORGANIZATION => "O".to_owned(),
                    oids::COUNTRY => "C".to_owned(),
                    _ => Oid::from_der_content(oid)
                        .expect("attribute OIDs are validated on decode")
                        .to_string(),
                };
                format!("{label}={value}")
            })
            .collect();
        parts.join(", ")
    }
}

impl fmt::Debug for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DistinguishedName")
            .field(&self.display_string())
            .finish()
    }
}

/// Strictly read one RDN: a SET holding exactly one `SEQUENCE { OID,
/// DirectoryString }`. Returns the OID content, the value and its string
/// tag.
fn read_attribute<'a>(rdns: &mut Reader<'a>) -> Result<(&'a [u8], &'a str, Tag)> {
    let mut set = rdns.read_set()?;
    let mut atv = set.read_sequence()?;
    let oid = atv.read_oid_content()?;
    let tag = atv.peek_tag()?;
    let value = atv.read_directory_string()?;
    atv.expect_end()?;
    set.expect_end()?;
    Ok((oid, value, tag))
}

/// Write one RDN in canonical form.
fn write_attribute(w: &mut Writer, oid: &[u8], value: &str) {
    w.write_constructed(Tag::SET, |w| {
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_primitive(Tag::OID, oid);
            w.write_utf8_string(value);
        });
    });
}

/// Fluent builder for [`DistinguishedName`].
#[derive(Debug, Default)]
pub struct NameBuilder {
    content: Writer,
}

impl NameBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn country(self, c: &str) -> Self {
        self.push(oids::COUNTRY, c)
    }

    pub fn organization(self, o: &str) -> Self {
        self.push(oids::ORGANIZATION, o)
    }

    pub fn common_name(self, cn: &str) -> Self {
        self.push(oids::COMMON_NAME, cn)
    }

    pub fn attribute(self, oid: Oid, value: &str) -> Self {
        self.push(oid.der_content(), value)
    }

    fn push(mut self, oid: &[u8], value: &str) -> Self {
        write_attribute(&mut self.content, oid, value);
        self
    }

    pub fn build(self) -> DistinguishedName {
        DistinguishedName {
            content: self.content.finish().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistinguishedName {
        NameBuilder::new()
            .country("US")
            .organization("Google LLC")
            .common_name("*.google.com")
            .build()
    }

    #[test]
    fn accessors() {
        let n = sample();
        assert_eq!(n.country(), Some("US"));
        assert_eq!(n.organization(), Some("Google LLC"));
        assert_eq!(n.common_name(), Some("*.google.com"));
    }

    #[test]
    fn der_roundtrip() {
        let n = sample();
        let mut w = Writer::new();
        n.encode(&mut w);
        let der = w.finish();
        let mut r = Reader::new(&der);
        let decoded = DistinguishedName::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(decoded, n);
    }

    #[test]
    fn display_string() {
        assert_eq!(
            sample().display_string(),
            "C=US, O=Google LLC, CN=*.google.com"
        );
    }

    #[test]
    fn empty_name_roundtrip() {
        let n = DistinguishedName::default();
        let mut w = Writer::new();
        n.encode(&mut w);
        let der = w.finish();
        assert_eq!(der, vec![0x30, 0x00]);
        let mut r = Reader::new(&der);
        assert!(DistinguishedName::decode(&mut r).unwrap().is_empty());
    }

    #[test]
    fn printable_string_values_decode_as_utf8() {
        let mut w = Writer::new();
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_constructed(Tag::SET, |w| {
                w.write_constructed(Tag::SEQUENCE, |w| {
                    w.write_primitive(Tag::OID, oids::COUNTRY);
                    w.write_printable_string("US");
                });
            });
            w.write_constructed(Tag::SET, |w| {
                w.write_constructed(Tag::SEQUENCE, |w| {
                    w.write_primitive(Tag::OID, oids::ORGANIZATION);
                    w.write_utf8_string("Google LLC");
                });
            });
        });
        let der = w.finish();
        let decoded = DistinguishedName::decode(&mut Reader::new(&der)).unwrap();
        let built = NameBuilder::new()
            .country("US")
            .organization("Google LLC")
            .build();
        assert_eq!(decoded, built);
        let mut re = Writer::new();
        decoded.encode(&mut re);
        let mut expected = Writer::new();
        built.encode(&mut expected);
        assert_eq!(re.finish(), expected.finish());
    }

    #[test]
    fn unknown_attributes_roundtrip_and_display_dotted() {
        let oid = Oid::from_arcs(&[2, 5, 4, 11]).unwrap();
        let n = NameBuilder::new().attribute(oid, "Edge").build();
        let mut w = Writer::new();
        n.encode(&mut w);
        let der = w.finish();
        let decoded = DistinguishedName::decode(&mut Reader::new(&der)).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(decoded.display_string(), "2.5.4.11=Edge");
        assert_eq!(decoded.organization(), None);
    }

    #[test]
    fn attribute_bound_fails_at_the_33rd_attribute() {
        let encode = |n: usize, tail: &[u8]| {
            let mut rdns = Writer::new();
            for i in 0..n {
                write_attribute(&mut rdns, oids::COMMON_NAME, &format!("cn{i}"));
            }
            rdns.write_raw(tail);
            let mut w = Writer::new();
            w.write_primitive(Tag::SEQUENCE, &rdns.finish());
            w.finish()
        };
        let decode = |der: &[u8]| DistinguishedName::decode(&mut Reader::new(der));
        assert!(decode(&encode(32, &[])).is_ok());
        assert_eq!(decode(&encode(33, &[])).unwrap_err(), Error::Oversized);
        // The bound fires on reaching the 33rd RDN, before decoding it.
        assert_eq!(decode(&encode(32, &[0xff])).unwrap_err(), Error::Oversized);
        assert_ne!(decode(&encode(31, &[0xff])).unwrap_err(), Error::Oversized);
    }

    #[test]
    fn missing_attrs_are_none() {
        let n = NameBuilder::new().common_name("x").build();
        assert_eq!(n.organization(), None);
        assert_eq!(n.country(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use asn1::{Reader, Writer};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_names_roundtrip(
            org in "[a-zA-Z0-9 .,'()-]{0,40}",
            cn in "[a-zA-Z0-9 .*-]{0,40}",
            country in "[A-Z]{2}"
        ) {
            let name = NameBuilder::new()
                .country(&country)
                .organization(&org)
                .common_name(&cn)
                .build();
            let mut w = Writer::new();
            name.encode(&mut w);
            let der = w.finish();
            let mut r = Reader::new(&der);
            let decoded = DistinguishedName::decode(&mut r).unwrap();
            prop_assert_eq!(decoded, name);
        }

        #[test]
        fn unicode_attribute_values_roundtrip(value in "\\PC{0,30}") {
            let name = NameBuilder::new().organization(&value).build();
            let mut w = Writer::new();
            name.encode(&mut w);
            let der = w.finish();
            let mut r = Reader::new(&der);
            let decoded = DistinguishedName::decode(&mut r).unwrap();
            prop_assert_eq!(decoded.organization(), Some(value.as_str()));
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut r = Reader::new(&bytes);
            let _ = DistinguishedName::decode(&mut r);
        }
    }
}
