use crate::writer::{is_printable_char, MAX_LEN};
use crate::{Error, Result, Tag};
use timebase::Timestamp;

/// A zero-copy DER reader over a byte slice.
///
/// The reader is strict: it rejects indefinite lengths, non-minimal length
/// encodings, and (for typed accessors) content that violates the type's
/// encoding rules. Constructed elements hand back a nested `Reader` over
/// their content.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless the input is fully consumed.
    #[inline]
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::TrailingBytes)
        }
    }

    /// Peek at the next element's tag without consuming it.
    #[inline]
    pub fn peek_tag(&self) -> Result<Tag> {
        if self.pos >= self.input.len() {
            return Err(Error::UnexpectedEof);
        }
        Ok(Tag(self.input[self.pos]))
    }

    /// Read the next TLV of any tag; returns `(tag, content)`.
    #[inline]
    pub fn read_any(&mut self) -> Result<(Tag, &'a [u8])> {
        let tag = self.peek_tag()?;
        self.pos += 1;
        let len = self.read_length()?;
        if self.remaining() < len {
            return Err(Error::UnexpectedEof);
        }
        let content = &self.input[self.pos..self.pos + len];
        self.pos += len;
        Ok((tag, content))
    }

    /// Read the next TLV including its header, returned as the raw encoded
    /// bytes. Useful for re-hashing the exact `tbsCertificate` encoding.
    #[inline]
    pub fn read_raw_tlv(&mut self) -> Result<&'a [u8]> {
        let start = self.pos;
        self.read_any()?;
        Ok(&self.input[start..self.pos])
    }

    /// Read an element with exactly the expected tag; returns its content.
    #[inline]
    pub fn read_expected(&mut self, expected: Tag) -> Result<&'a [u8]> {
        let tag = self.peek_tag()?;
        if tag != expected {
            return Err(Error::UnexpectedTag {
                expected: expected.0,
                found: tag.0,
            });
        }
        let (_, content) = self.read_any()?;
        Ok(content)
    }

    /// If the next element has the given tag, read and return it.
    #[inline]
    pub fn read_optional(&mut self, tag: Tag) -> Result<Option<&'a [u8]>> {
        match self.peek_tag() {
            Ok(t) if t == tag => Ok(Some(self.read_expected(tag)?)),
            _ => Ok(None),
        }
    }

    /// Read a constructed element and return a reader over its content.
    #[inline]
    pub fn read_nested(&mut self, tag: Tag) -> Result<Reader<'a>> {
        let content = self.read_expected(tag)?;
        Ok(Reader::new(content))
    }

    #[inline]
    pub fn read_sequence(&mut self) -> Result<Reader<'a>> {
        self.read_nested(Tag::SEQUENCE)
    }

    #[inline]
    pub fn read_set(&mut self) -> Result<Reader<'a>> {
        self.read_nested(Tag::SET)
    }

    #[inline]
    pub fn read_boolean(&mut self) -> Result<bool> {
        let content = self.read_expected(Tag::BOOLEAN)?;
        match content {
            [0x00] => Ok(false),
            [0xff] => Ok(true),
            _ => Err(Error::InvalidContent("BOOLEAN must be 0x00 or 0xff")),
        }
    }

    /// Read a non-negative INTEGER that fits in a `u64`.
    #[inline]
    pub fn read_integer_u64(&mut self) -> Result<u64> {
        let bytes = self.read_integer_bytes()?;
        if bytes.len() > 8 {
            return Err(Error::Oversized);
        }
        let mut acc: u64 = 0;
        for &b in bytes {
            acc = (acc << 8) | u64::from(b);
        }
        Ok(acc)
    }

    /// Read an INTEGER's magnitude bytes (leading 0x00 sign byte stripped).
    /// Negative INTEGERs are rejected — X.509 never uses them.
    #[inline]
    pub fn read_integer_bytes(&mut self) -> Result<&'a [u8]> {
        let content = self.read_expected(Tag::INTEGER)?;
        if content.is_empty() {
            return Err(Error::InvalidContent("empty INTEGER"));
        }
        if content[0] & 0x80 != 0 {
            return Err(Error::InvalidContent("negative INTEGER"));
        }
        if content.len() > 1 && content[0] == 0 && content[1] & 0x80 == 0 {
            return Err(Error::InvalidContent("non-minimal INTEGER"));
        }
        Ok(if content[0] == 0 && content.len() > 1 {
            &content[1..]
        } else {
            content
        })
    }

    #[inline]
    pub fn read_null(&mut self) -> Result<()> {
        let content = self.read_expected(Tag::NULL)?;
        if content.is_empty() {
            Ok(())
        } else {
            Err(Error::InvalidContent("NULL with content"))
        }
    }

    /// Read an OBJECT IDENTIFIER as its validated, borrowed content octets
    /// — compare against the [`crate::oids`] constants without allocating;
    /// `Oid::from_der_content` makes an owned [`crate::Oid`] of it.
    #[inline]
    pub fn read_oid_content(&mut self) -> Result<&'a [u8]> {
        let content = self.read_expected(Tag::OID)?;
        crate::oid::check_der_content(content)?;
        Ok(content)
    }

    #[inline]
    pub fn read_octet_string(&mut self) -> Result<&'a [u8]> {
        self.read_expected(Tag::OCTET_STRING)
    }

    /// Read a BIT STRING, requiring zero unused bits.
    #[inline]
    pub fn read_bit_string(&mut self) -> Result<&'a [u8]> {
        let content = self.read_expected(Tag::BIT_STRING)?;
        match content.split_first() {
            Some((0, rest)) => Ok(rest),
            Some(_) => Err(Error::InvalidContent("BIT STRING with unused bits")),
            None => Err(Error::InvalidContent("empty BIT STRING")),
        }
    }

    #[inline]
    pub fn read_utf8_string(&mut self) -> Result<&'a str> {
        let content = self.read_expected(Tag::UTF8_STRING)?;
        std::str::from_utf8(content).map_err(|_| Error::InvalidContent("invalid UTF-8"))
    }

    #[inline]
    pub fn read_printable_string(&mut self) -> Result<&'a str> {
        let content = self.read_expected(Tag::PRINTABLE_STRING)?;
        if !content.iter().all(|&b| is_printable_char(b)) {
            return Err(Error::InvalidContent("invalid PrintableString"));
        }
        std::str::from_utf8(content).map_err(|_| Error::InvalidContent("invalid PrintableString"))
    }

    #[inline]
    pub fn read_ia5_string(&mut self) -> Result<&'a str> {
        let content = self.read_expected(Tag::IA5_STRING)?;
        if !content.iter().all(|&b| b < 0x80) {
            return Err(Error::InvalidContent("invalid IA5String"));
        }
        std::str::from_utf8(content).map_err(|_| Error::InvalidContent("invalid IA5String"))
    }

    /// Read a directory string: UTF8String or PrintableString.
    #[inline]
    pub fn read_directory_string(&mut self) -> Result<&'a str> {
        match self.peek_tag()? {
            Tag::UTF8_STRING => self.read_utf8_string(),
            Tag::PRINTABLE_STRING => self.read_printable_string(),
            t => Err(Error::UnexpectedTag {
                expected: Tag::UTF8_STRING.0,
                found: t.0,
            }),
        }
    }

    /// Read a Time: UTCTime or GeneralizedTime.
    #[inline]
    pub fn read_time(&mut self) -> Result<Timestamp> {
        match self.peek_tag()? {
            Tag::UTC_TIME => {
                let content = self.read_expected(Tag::UTC_TIME)?;
                crate::decode_utc_time(content)
            }
            Tag::GENERALIZED_TIME => {
                let content = self.read_expected(Tag::GENERALIZED_TIME)?;
                crate::decode_generalized_time(content)
            }
            t => Err(Error::UnexpectedTag {
                expected: Tag::UTC_TIME.0,
                found: t.0,
            }),
        }
    }

    #[inline]
    fn read_length(&mut self) -> Result<usize> {
        if self.pos >= self.input.len() {
            return Err(Error::UnexpectedEof);
        }
        let first = self.input[self.pos];
        self.pos += 1;
        if first < 0x80 {
            return Ok(usize::from(first));
        }
        if first == 0x80 {
            return Err(Error::InvalidLength); // indefinite form
        }
        let n = usize::from(first & 0x7f);
        if n > 4 {
            return Err(Error::Oversized);
        }
        if self.remaining() < n {
            return Err(Error::UnexpectedEof);
        }
        let mut len: usize = 0;
        for _ in 0..n {
            len = (len << 8) | usize::from(self.input[self.pos]);
            self.pos += 1;
        }
        // DER: long form must be necessary and minimal.
        if len < 0x80 || (n > 1 && len < (1 << (8 * (n - 1)))) {
            return Err(Error::InvalidLength);
        }
        if len > MAX_LEN {
            return Err(Error::Oversized);
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, Writer};
    use proptest::prelude::*;

    #[test]
    fn read_what_writer_wrote() {
        let mut w = Writer::new();
        w.write_constructed(Tag::SEQUENCE, |w| {
            w.write_integer(42);
            w.write_utf8_string("google");
            w.write_boolean(true);
        });
        let der = w.finish();
        let mut r = Reader::new(&der);
        let mut seq = r.read_sequence().unwrap();
        assert_eq!(seq.read_integer_u64().unwrap(), 42);
        assert_eq!(seq.read_utf8_string().unwrap(), "google");
        assert!(seq.read_boolean().unwrap());
        seq.expect_end().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_indefinite_length() {
        let der = [0x30, 0x80, 0x00, 0x00];
        let mut r = Reader::new(&der);
        assert_eq!(r.read_sequence().unwrap_err(), Error::InvalidLength);
    }

    #[test]
    fn rejects_non_minimal_length() {
        // 0x81 0x05 encodes length 5 in long form; must be short form.
        let der = [0x04, 0x81, 0x05, 1, 2, 3, 4, 5];
        let mut r = Reader::new(&der);
        assert_eq!(r.read_octet_string().unwrap_err(), Error::InvalidLength);
    }

    #[test]
    fn rejects_truncated_content() {
        let der = [0x04, 0x05, 1, 2];
        let mut r = Reader::new(&der);
        assert_eq!(r.read_octet_string().unwrap_err(), Error::UnexpectedEof);
    }

    #[test]
    fn rejects_negative_and_non_minimal_integers() {
        let mut r = Reader::new(&[0x02, 0x01, 0x80]);
        assert!(matches!(
            r.read_integer_u64(),
            Err(Error::InvalidContent(_))
        ));
        let mut r = Reader::new(&[0x02, 0x02, 0x00, 0x05]);
        assert!(matches!(
            r.read_integer_u64(),
            Err(Error::InvalidContent(_))
        ));
    }

    #[test]
    fn optional_elements() {
        let mut w = Writer::new();
        w.write_integer(7);
        let der = w.finish();
        let mut r = Reader::new(&der);
        assert!(r.read_optional(Tag::BOOLEAN).unwrap().is_none());
        assert!(r.read_optional(Tag::INTEGER).unwrap().is_some());
    }

    #[test]
    fn trailing_bytes_detected() {
        let der = [0x05, 0x00, 0xde];
        let mut r = Reader::new(&der);
        r.read_null().unwrap();
        assert_eq!(r.expect_end().unwrap_err(), Error::TrailingBytes);
    }

    #[test]
    fn raw_tlv_covers_header() {
        let mut w = Writer::new();
        w.write_integer(300);
        let der = w.finish();
        let mut r = Reader::new(&der);
        assert_eq!(r.read_raw_tlv().unwrap(), der.as_slice());
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut r = Reader::new(&bytes);
            // Exercise every accessor; none may panic.
            let _ = r.clone().read_any();
            let _ = r.clone().read_sequence();
            let _ = r.clone().read_integer_u64();
            let _ = r.clone().read_oid_content();
            let _ = r.clone().read_bit_string();
            let _ = r.clone().read_time();
            let _ = r.clone().read_printable_string();
            let _ = r.clone().read_ia5_string();
            let _ = r.read_utf8_string();
        }

        #[test]
        fn oid_content_accepts_exactly_what_oid_accepts(
            content in proptest::collection::vec(any::<u8>(), 0..16)
        ) {
            let mut w = Writer::new();
            w.write_primitive(Tag::OID, &content);
            let der = w.finish();
            let borrowed = Reader::new(&der).read_oid_content().map(<[u8]>::to_vec);
            let owned = Oid::from_der_content(&content).map(|o| o.der_content().to_vec());
            prop_assert_eq!(borrowed, owned);
        }

        #[test]
        fn octet_string_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let mut w = Writer::new();
            w.write_octet_string(&bytes);
            let der = w.finish();
            let mut r = Reader::new(&der);
            prop_assert_eq!(r.read_octet_string().unwrap(), bytes.as_slice());
            r.expect_end().unwrap();
        }

        #[test]
        fn integer_roundtrip(v in any::<u64>()) {
            let mut w = Writer::new();
            w.write_integer(v);
            let der = w.finish();
            let mut r = Reader::new(&der);
            prop_assert_eq!(r.read_integer_u64().unwrap(), v);
        }
    }
}
