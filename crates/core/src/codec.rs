//! Shared on-disk envelope codec and aligned little-endian column views.
//!
//! Three artifact families share one file envelope — checkpoints
//! (`OFFNCKPT`), corpus segments (`OFFNSSEG`), and study artifacts
//! (`OFFNARTF`): `magic · version · fingerprint · length-prefixed payload
//! · SHA-256(payload)`. [`read_envelope`] validates the fixed-size header
//! (magic, version, and the declared length against the file's actual
//! size) *before* the payload is read, so a corrupt length field can
//! never drive a giant allocation — the payload buffer is bounded by what
//! is really on disk. Callers map [`EnvelopeIssue`] onto their own typed
//! error enums so the per-family variants (and their remedy strings) stay
//! exactly what they were when each loader was hand-rolled.
//!
//! The column view ([`U32Col`]) is the segment format's
//! zero-copy primitive: a sorted integer column is written as a count
//! followed by padding to the element's natural alignment and the raw
//! little-endian words, and is *read* as a borrowed slice of the one
//! loaded payload buffer. Consumers iterate `from_le_bytes` over the
//! slice — no per-column `Vec` materialization on the warm-admission
//! path. (Alignment is relative to the payload start; decoding is safe
//! Rust either way, the padding just keeps the format mmap-friendly.)

use crate::checkpoint::{CheckpointError, Dec, Enc};
use sha2sim::Sha256;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Fixed envelope header: 8-byte magic, u32 version, u64 fingerprint,
/// u64 payload length.
pub(crate) const ENVELOPE_HEADER: usize = 8 + 4 + 8 + 8;

/// What went wrong while opening an envelope, before family-specific
/// error mapping.
pub(crate) enum EnvelopeIssue {
    Io(PathBuf, std::io::Error),
    /// Missing/wrong magic — including files shorter than the header.
    BadMagic,
    BadVersion {
        found: u32,
    },
    Corrupt(String),
}

/// Validate the header of `path` against `magic`/`version`, check the
/// declared payload length against the file size, then read and
/// checksum-verify the payload. Returns the stored fingerprint (callers
/// compare it themselves — mismatch severity differs per family) and the
/// payload bytes.
pub(crate) fn read_envelope(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
) -> Result<(u64, Vec<u8>), EnvelopeIssue> {
    let mut f = std::fs::File::open(path).map_err(|e| EnvelopeIssue::Io(path.to_path_buf(), e))?;
    let file_len = f
        .metadata()
        .map_err(|e| EnvelopeIssue::Io(path.to_path_buf(), e))?
        .len();
    let mut header = [0u8; ENVELOPE_HEADER];
    if let Err(e) = f.read_exact(&mut header) {
        // A file shorter than the header can't carry the magic.
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EnvelopeIssue::BadMagic
        } else {
            EnvelopeIssue::Io(path.to_path_buf(), e)
        });
    }
    if &header[..8] != magic {
        return Err(EnvelopeIssue::BadMagic);
    }
    let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(EnvelopeIssue::BadVersion { found });
    }
    let fingerprint = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    let len = usize::try_from(declared)
        .map_err(|_| EnvelopeIssue::Corrupt(format!("oversized payload length {declared}")))?;
    // Header-first length check: reject before allocating anything
    // payload-sized, so the allocation below is bounded by the real file.
    let rest = (file_len as usize).saturating_sub(ENVELOPE_HEADER);
    if len.checked_add(32) != Some(rest) {
        return Err(EnvelopeIssue::Corrupt(format!(
            "payload length {rest} != declared {len} + 32"
        )));
    }
    let mut body = vec![0u8; rest];
    if let Err(e) = f.read_exact(&mut body) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EnvelopeIssue::Corrupt("file shrank while reading".to_owned())
        } else {
            EnvelopeIssue::Io(path.to_path_buf(), e)
        });
    }
    {
        let (payload, checksum) = body.split_at(len);
        if Sha256::digest(payload) != checksum[..32] {
            return Err(EnvelopeIssue::Corrupt("checksum mismatch".to_owned()));
        }
    }
    body.truncate(len);
    Ok((fingerprint, body))
}

/// Atomically write one envelope file (temp + rename). Returns the path
/// that failed with the error, for family-specific wrapping.
pub(crate) fn write_envelope(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    fingerprint: u64,
    payload: &[u8],
) -> Result<(), (PathBuf, std::io::Error)> {
    let mut file = Vec::with_capacity(payload.len() + ENVELOPE_HEADER + 32);
    file.extend_from_slice(magic);
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&fingerprint.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file.extend_from_slice(&Sha256::digest(payload));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &file).map_err(|e| (tmp.clone(), e))?;
    std::fs::rename(&tmp, path).map_err(|e| (path.to_path_buf(), e))
}

// ---------------------------------------------------------------------------
// Aligned LE integer columns: borrowed views over one loaded buffer.
// ---------------------------------------------------------------------------

/// A borrowed `u32` column: raw little-endian words inside the payload.
#[derive(Clone, Copy)]
pub(crate) struct U32Col<'a>(&'a [u8]);

impl<'a> U32Col<'a> {
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.0
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }
}

/// Zero-pad the encoder to an `n`-byte boundary (relative to the payload
/// start).
pub(crate) fn enc_align(e: &mut Enc, n: usize) {
    while !e.buf.len().is_multiple_of(n) {
        e.buf.push(0);
    }
}

/// Write a `u32` column: count, alignment padding, raw LE words.
pub(crate) fn enc_u32_col(e: &mut Enc, len: usize, vals: impl IntoIterator<Item = u32>) {
    e.usize(len);
    enc_align(e, 4);
    let mut written = 0usize;
    for v in vals {
        e.u32(v);
        written += 1;
    }
    debug_assert_eq!(written, len, "u32 column length mismatch");
}

fn dec_align(d: &mut Dec<'_>, n: usize) -> Result<(), CheckpointError> {
    let pad = (n - d.pos % n) % n;
    d.take(pad)?;
    Ok(())
}

/// Read a `u32` column as a borrowed view (no element decode, no `Vec`).
pub(crate) fn dec_u32_col<'a>(d: &mut Dec<'a>) -> Result<U32Col<'a>, CheckpointError> {
    let n = d.count(4)?;
    dec_align(d, 4)?;
    Ok(U32Col(d.take(n * 4)?))
}

/// Read a length-prefixed string as a borrowed `&str`.
pub(crate) fn dec_str_ref<'a>(d: &mut Dec<'a>) -> Result<&'a str, CheckpointError> {
    let n = d.count(1)?;
    let path = d.path;
    let bytes = d.take(n)?;
    std::str::from_utf8(bytes).map_err(|_| CheckpointError::corrupt(path, "non-UTF-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_round_trip_with_alignment() {
        let magic = b"OFFNTEST";
        let mut e = Enc::default();
        e.u8(7); // deliberately misalign
        enc_u32_col(&mut e, 3, [1u32, 2, 3]);
        e.u8(9); // and again before the next column
        enc_u32_col(&mut e, 0, []);
        let dir = std::env::temp_dir().join(format!("offnet-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        write_envelope(&path, magic, 9, 0xfeed, &e.buf).unwrap();

        let (fp, payload) = match read_envelope(&path, magic, 9) {
            Ok(v) => v,
            Err(_) => panic!("envelope should read back"),
        };
        assert_eq!(fp, 0xfeed);
        let mut d = Dec {
            buf: &payload,
            pos: 0,
            path: &path,
        };
        assert_eq!(d.u8().unwrap(), 7);
        let c32 = dec_u32_col(&mut d).unwrap();
        assert_eq!(c32.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(d.u8().unwrap(), 9);
        assert_eq!(dec_u32_col(&mut d).unwrap().iter().count(), 0);
        d.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_length_is_rejected_before_payload_read() {
        let magic = b"OFFNTEST";
        let dir = std::env::temp_dir().join(format!("offnet-codec-len-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.bin");
        write_envelope(&path, magic, 1, 1, b"payload").unwrap();
        // Patch the declared length to a preposterous value: the loader
        // must reject on the header check, not attempt the allocation.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_envelope(&path, magic, 1) {
            Err(EnvelopeIssue::Corrupt(d)) => assert!(d.contains("length"), "{d}"),
            _ => panic!("corrupt length must be typed Corrupt"),
        }
        // Short files are BadMagic, matching the historical loaders.
        std::fs::write(&path, b"OFF").unwrap();
        assert!(matches!(
            read_envelope(&path, magic, 1),
            Err(EnvelopeIssue::BadMagic)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
