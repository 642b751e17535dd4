//! Minimal, strict DER (Distinguished Encoding Rules) reader and writer.
//!
//! This crate implements the ASN.1 subset required by the simulated X.509
//! PKI: definite-length TLV framing, universal types (BOOLEAN, INTEGER, BIT
//! STRING, OCTET STRING, NULL, OBJECT IDENTIFIER, UTF8String,
//! PrintableString, IA5String, SEQUENCE, SET, UTCTime, GeneralizedTime) and
//! context-specific tagging. Encoding is canonical: the writer always emits
//! minimal lengths, and the reader rejects non-minimal or indefinite forms,
//! matching how production TLS stacks treat certificates.

mod error;
mod oid;
mod reader;
mod tag;
mod time;
mod writer;

pub use error::{Error, Result};
pub use oid::Oid;
pub use reader::Reader;
pub use tag::{Class, Tag};
pub use time::{
    decode_generalized_time, decode_utc_time, encode_generalized_time, encode_utc_time,
};
pub use writer::Writer;

/// Well-known object identifiers used by the `x509` crate, as DER content
/// octets (base-128 arcs, first two packed). Parsers compare these against
/// the borrowed content [`Reader::read_oid_content`] returns, so matching a
/// well-known OID allocates nothing; `Oid::from_der_content` turns one
/// into an owned [`Oid`] where an API needs it.
pub mod oids {
    /// id-at-commonName (2.5.4.3)
    pub const COMMON_NAME: &[u8] = &[0x55, 0x04, 0x03];
    /// id-at-organizationName (2.5.4.10)
    pub const ORGANIZATION: &[u8] = &[0x55, 0x04, 0x0a];
    /// id-at-countryName (2.5.4.6)
    pub const COUNTRY: &[u8] = &[0x55, 0x04, 0x06];
    /// id-ce-subjectAltName (2.5.29.17)
    pub const SUBJECT_ALT_NAME: &[u8] = &[0x55, 0x1d, 0x11];
    /// id-ce-basicConstraints (2.5.29.19)
    pub const BASIC_CONSTRAINTS: &[u8] = &[0x55, 0x1d, 0x13];
    /// id-ce-keyUsage (2.5.29.15)
    pub const KEY_USAGE: &[u8] = &[0x55, 0x1d, 0x0f];
    /// Simulated signature algorithm "simsig-hmac-sha256" parked in a private
    /// enterprise arc (1.3.6.1.4.1.99999.1.1).
    pub const SIMSIG_HMAC_SHA256: &[u8] =
        &[0x2b, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8d, 0x1f, 0x01, 0x01];
    /// Simulated public key algorithm (1.3.6.1.4.1.99999.1.2).
    pub const SIMSIG_KEY: &[u8] = &[0x2b, 0x06, 0x01, 0x04, 0x01, 0x86, 0x8d, 0x1f, 0x01, 0x02];

    #[cfg(test)]
    mod tests {
        use crate::Oid;

        #[test]
        fn constants_match_their_arcs() {
            let cases: [(&[u8], &[u64]); 8] = [
                (super::COMMON_NAME, &[2, 5, 4, 3]),
                (super::ORGANIZATION, &[2, 5, 4, 10]),
                (super::COUNTRY, &[2, 5, 4, 6]),
                (super::SUBJECT_ALT_NAME, &[2, 5, 29, 17]),
                (super::BASIC_CONSTRAINTS, &[2, 5, 29, 19]),
                (super::KEY_USAGE, &[2, 5, 29, 15]),
                (super::SIMSIG_HMAC_SHA256, &[1, 3, 6, 1, 4, 1, 99999, 1, 1]),
                (super::SIMSIG_KEY, &[1, 3, 6, 1, 4, 1, 99999, 1, 2]),
            ];
            for (content, arcs) in cases {
                assert_eq!(
                    Oid::from_arcs(arcs).unwrap().der_content(),
                    content,
                    "{arcs:?}"
                );
            }
        }
    }
}
