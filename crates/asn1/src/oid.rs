use crate::{Error, Result};
use std::fmt;

/// An object identifier, stored in its DER content encoding (base-128 arcs,
/// first two arcs packed). Comparison and hashing operate on the canonical
/// byte form, so OIDs are cheap map keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    der: Vec<u8>,
}

impl Oid {
    /// Build an OID from its arc values, e.g. `[2, 5, 4, 10]`.
    pub fn from_arcs(arcs: &[u64]) -> Result<Self> {
        if arcs.len() < 2 {
            return Err(Error::InvalidOid);
        }
        let (first, second) = (arcs[0], arcs[1]);
        if first > 2 || (first < 2 && second >= 40) {
            return Err(Error::InvalidOid);
        }
        let mut der = Vec::with_capacity(arcs.len() + 2);
        encode_base128(first * 40 + second, &mut der);
        for &arc in &arcs[2..] {
            encode_base128(arc, &mut der);
        }
        Ok(Self { der })
    }

    /// Wrap raw DER content bytes, validating base-128 structure.
    pub fn from_der_content(bytes: &[u8]) -> Result<Self> {
        check_der_content(bytes)?;
        Ok(Self {
            der: bytes.to_vec(),
        })
    }

    /// The DER content octets (without tag/length).
    pub fn der_content(&self) -> &[u8] {
        &self.der
    }

    /// Decode back into arc values.
    pub fn arcs(&self) -> Vec<u64> {
        let mut arcs = Vec::new();
        let mut acc: u64 = 0;
        for &b in &self.der {
            acc = (acc << 7) | u64::from(b & 0x7f);
            if b & 0x80 == 0 {
                if arcs.is_empty() {
                    let first = (acc / 40).min(2);
                    arcs.push(first);
                    arcs.push(acc - first * 40);
                } else {
                    arcs.push(acc);
                }
                acc = 0;
            }
        }
        arcs
    }
}

/// Validate OID content octets: non-empty, every subidentifier minimal (no
/// leading 0x80) and terminated (last byte below 0x80).
#[inline]
pub(crate) fn check_der_content(bytes: &[u8]) -> Result<()> {
    let Some(&last) = bytes.last() else {
        return Err(Error::InvalidOid);
    };
    if last & 0x80 != 0 {
        return Err(Error::InvalidOid); // truncated arc
    }
    let mut start_of_arc = true;
    for &b in bytes {
        if start_of_arc && b == 0x80 {
            return Err(Error::InvalidOid); // non-minimal
        }
        start_of_arc = b & 0x80 == 0;
    }
    Ok(())
}

fn encode_base128(mut value: u64, out: &mut Vec<u8>) {
    let mut tmp = [0u8; 10];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            break;
        }
    }
    let n = tmp.len();
    for (j, b) in tmp[i..].iter().enumerate() {
        let last = i + j == n - 1;
        out.push(b | if last { 0 } else { 0x80 });
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arcs = self.arcs();
        for (i, a) in arcs.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn organization_oid_encoding() {
        let oid = Oid::from_arcs(&[2, 5, 4, 10]).unwrap();
        assert_eq!(oid.der_content(), &[0x55, 0x04, 0x0a]);
        assert_eq!(oid.to_string(), "2.5.4.10");
    }

    #[test]
    fn multi_byte_arcs() {
        // 1.3.6.1.4.1.99999.1.1 -- 99999 needs three base-128 bytes.
        let oid = Oid::from_arcs(&[1, 3, 6, 1, 4, 1, 99999, 1, 1]).unwrap();
        assert_eq!(oid.arcs(), vec![1, 3, 6, 1, 4, 1, 99999, 1, 1]);
    }

    #[test]
    fn rejects_bad_first_arcs() {
        assert!(Oid::from_arcs(&[3, 1]).is_err());
        assert!(Oid::from_arcs(&[0, 40]).is_err());
        assert!(Oid::from_arcs(&[1]).is_err());
    }

    #[test]
    fn rejects_malformed_content() {
        assert!(Oid::from_der_content(&[]).is_err());
        assert!(Oid::from_der_content(&[0x80, 0x01]).is_err()); // non-minimal
        assert!(Oid::from_der_content(&[0x81]).is_err()); // truncated
        assert!(Oid::from_der_content(&[0x55, 0x04, 0x0a]).is_ok());
    }

    proptest! {
        #[test]
        fn arcs_roundtrip(
            first in 0u64..=2,
            second in 0u64..40,
            rest in proptest::collection::vec(0u64..=u64::from(u32::MAX), 0..8)
        ) {
            let mut arcs = vec![first, second];
            arcs.extend(rest);
            let oid = Oid::from_arcs(&arcs).unwrap();
            prop_assert_eq!(oid.arcs(), arcs);
            // Content form re-validates.
            let rewrapped = Oid::from_der_content(oid.der_content()).unwrap();
            prop_assert_eq!(rewrapped, oid);
        }
    }
}
