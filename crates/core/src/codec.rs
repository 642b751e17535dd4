//! The one on-disk codec: the persistence error type, the little-endian
//! encoder/decoder, the stable enum tag tables, the file envelope, and
//! the integer run.
//!
//! The study log (`OFFNARTF`) and corpus segments (`OFFNSSEG`) both start
//! with one **envelope**: `magic · version u32 · fingerprint u64 ·
//! payload length u64 · payload · SHA-256(every byte before it)`. The
//! checksum covers the fixed fields too. A segment is exactly one
//! envelope; a study log is one envelope (its header) followed by
//! appended records. Buffers are sized from the file, and a declared
//! length or count is checked against the bytes present before it is
//! used, so a corrupt length can never drive a giant allocation. Every
//! decode failure is an [`ArtifactError`].
//!
//! Every count and length is one LEB128 **varint** of up to 64 bits
//! ([`Enc::u64`]); only the envelope's and the log's record framing,
//! `u32` scan values in segments, and `f64` bits are fixed-width.
//!
//! An integer **run** is the one encoding of an integer list, in the
//! study log and in corpus segments alike ([`Enc::run`]):
//! `count · byte length · values`, all LEB128, each value the zigzag delta
//! from the one before (the first from 0). Its count is checked against
//! its byte length, a varint is at most 10 bytes, the values must fill the
//! byte length exactly and stay in `u32`.
//!
//! A list that is usually a **subsequence** of one stored before it (§4.5
//! confirms only §4.3 candidates) is a one-byte form tag and one run
//! ([`Enc::subseq`]): the ascending positions of the superset it drops,
//! or, when it is no subsequence or that form is longer, its own values.

use crate::errors::RecordError;
use crate::validate::{InvalidReason, ValidationStats};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use scanner::{EngineId, FaultClass, ScanEngine, TransientClass};
use sha2sim::Sha256;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use x509::ChainError;

const REMEDY: &str = "delete the log or pass --no-resume";

/// Why a study log or a corpus segment could not be used.
///
/// Every variant but `Io` ends its `Display` with the remedy, so bad
/// input is diagnosed, never panicked over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem failure reading or writing a file.
    Io { path: PathBuf, detail: String },
    /// The file does not start with the study log magic.
    BadMagic { path: PathBuf },
    /// The file was written by a different format version.
    VersionMismatch {
        path: PathBuf,
        found: u32,
        expected: u32,
    },
    /// The file was written under a different study configuration
    /// (world, engine, fault/transient plans, or pipeline knobs).
    ConfigMismatch {
        path: PathBuf,
        found: u64,
        expected: u64,
    },
    /// Truncated, checksum-mismatched, or undecodable bytes, or a log
    /// that cannot continue the run.
    Corrupt { path: PathBuf, detail: String },
}

impl ArtifactError {
    pub(crate) fn io(path: &Path, err: std::io::Error) -> Self {
        ArtifactError::Io {
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        ArtifactError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, detail } => {
                write!(f, "I/O error at {}: {detail}", path.display())
            }
            ArtifactError::BadMagic { path } => write!(
                f,
                "{} is not a study log (bad magic); {REMEDY}",
                path.display()
            ),
            ArtifactError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} uses study log format v{found} but this binary writes v{expected}; {REMEDY}",
                path.display()
            ),
            ArtifactError::ConfigMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} was written under a different study configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); {REMEDY}",
                path.display()
            ),
            ArtifactError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt ({detail}); {REMEDY}", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

// ---------------------------------------------------------------------------
// Fingerprint primitives.
// ---------------------------------------------------------------------------

/// splitmix64 — the repo-wide seeded-hash primitive.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fold the world scenario and the engine (identity, coverage windows,
/// attached fault and transient plans) into `h` — the part every
/// on-disk fingerprint shares.
pub(crate) fn mix_world_engine(mut h: u64, world: &HgWorld, engine: &ScanEngine) -> u64 {
    let sc = world.config();
    h = mix(h ^ sc.seed);
    h = mix(h ^ sc.footprint_scale.to_bits());
    h = mix(h ^ sc.ip_scale.to_bits());
    h = mix(h ^ sc.background_ips.0 ^ sc.background_ips.1.rotate_left(32));
    h = mix(h ^ sc.countermeasures.len() as u64);
    h = mix(h ^ world.n_snapshots() as u64);
    h = mix(h ^ u64::from(engine_tag(engine.id)));
    h = mix(h ^ engine.active_since as u64);
    h = mix(h ^ engine.https_headers_since.map_or(u64::MAX, |s| s as u64));
    h = mix(h ^ engine.faults.as_ref().map_or(0, |p| p.fingerprint()));
    mix(h ^ engine.transients.as_ref().map_or(0, |p| p.fingerprint()))
}

// ---------------------------------------------------------------------------
// Stable enum tag tables. Append-only: reordering or inserting in the middle
// is a format break (bump the format version instead of renumbering).
// ---------------------------------------------------------------------------

const CHAIN_ERRORS: [ChainError; 9] = [
    ChainError::Empty,
    ChainError::Expired,
    ChainError::NotYetValid,
    ChainError::SelfSignedEndEntity,
    ChainError::IntermediateExpired,
    ChainError::IntermediateNotCa,
    ChainError::BadSignature,
    ChainError::UntrustedRoot,
    ChainError::TooLong,
];

pub(crate) const RECORD_ERRORS: [RecordError; 11] = [
    RecordError::MalformedDer,
    RecordError::DuplicateIp,
    RecordError::Expired,
    RecordError::NotYetValid,
    RecordError::SelfSignedEndEntity,
    RecordError::UntrustedChain,
    RecordError::BadSignature,
    RecordError::ChainTooLong,
    RecordError::OtherChain,
    RecordError::HeaderOversized,
    RecordError::HeaderMojibake,
];

/// Engines by tag, from 1.
const ENGINES: [EngineId; 3] = [EngineId::Rapid7, EngineId::Censys, EngineId::Certigo];

pub(crate) fn engine_tag(id: EngineId) -> u8 {
    1 + ENGINES
        .iter()
        .position(|&e| e == id)
        .expect("engine in tag table") as u8
}

pub(crate) fn engine_from_tag(tag: u8) -> Option<EngineId> {
    ENGINES.get(usize::from(tag).checked_sub(1)?).copied()
}

fn invalid_reason_tag(r: InvalidReason) -> u8 {
    match r {
        InvalidReason::Malformed => 0,
        InvalidReason::DuplicateIp => 1,
        InvalidReason::Chain(e) => {
            2 + CHAIN_ERRORS
                .iter()
                .position(|&c| c == e)
                .expect("chain error in tag table") as u8
        }
    }
}

fn invalid_reason_from_tag(tag: u8) -> Option<InvalidReason> {
    match tag {
        0 => Some(InvalidReason::Malformed),
        1 => Some(InvalidReason::DuplicateIp),
        t => CHAIN_ERRORS
            .get(t as usize - 2)
            .map(|&e| InvalidReason::Chain(e)),
    }
}

pub(crate) fn record_error_tag(r: RecordError) -> u8 {
    RECORD_ERRORS
        .iter()
        .position(|&e| e == r)
        .expect("record error in tag table") as u8
}

pub(crate) fn transient_tag(c: TransientClass) -> u8 {
    TransientClass::ALL
        .iter()
        .position(|&t| t == c)
        .expect("transient class in tag table") as u8
}

pub(crate) fn fault_tag(c: FaultClass) -> u8 {
    FaultClass::ALL
        .iter()
        .position(|&f| f == c)
        .expect("fault class in tag table") as u8
}

pub(crate) fn hg_tag(hg: Hg) -> u8 {
    ALL_HGS
        .iter()
        .position(|&h| h == hg)
        .expect("hg in ALL_HGS") as u8
}

// ---------------------------------------------------------------------------
// Encoder / decoder.
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// A count or length: LEB128, up to 64 bits.
    pub(crate) fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// The value's bits, fixed-width.
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
    /// One integer run: LEB128 count, LEB128 byte length, then each value
    /// as the LEB128 zigzag delta from the previous one (the first from
    /// 0). Sorted runs cost about a byte per value.
    pub(crate) fn run<I: Iterator<Item = u32> + Clone>(&mut self, vals: I) {
        let (n, len) = run_size(vals.clone());
        self.u64(n);
        self.u64(len);
        let mut prev = 0;
        for v in vals {
            self.u64(zigzag(prev, v));
            prev = v;
        }
    }
    /// `sub` against `sup`, behind a one-byte form tag: when `sub` is a
    /// subsequence of `sup` and that is the shorter form,
    /// [`FORM_DROPPED`] and the ascending run of the positions of `sup`
    /// that `sub` leaves out; otherwise [`FORM_EXPLICIT`] and `sub`'s own
    /// run. Any pair encodes, so the codec stays total.
    pub(crate) fn subseq<S, T>(&mut self, sup: S, sub: T)
    where
        S: Iterator<Item = u32> + Clone,
        T: Iterator<Item = u32> + Clone,
    {
        let dropped = dropped_positions(sup.clone(), sub.clone());
        let (n_sub, sub_len) = run_size(sub.clone());
        let (n_dropped, dropped_len) = run_size(dropped.clone());
        // Every value of `sub` was matched when the kept positions
        // number as many as its values.
        let subsequence = sup.count() as u64 == n_sub + n_dropped;
        if subsequence && dropped_len + varint_len(n_dropped) <= sub_len + varint_len(n_sub) {
            self.u8(FORM_DROPPED);
            self.run(dropped);
        } else {
            self.u8(FORM_EXPLICIT);
            self.run(sub);
        }
    }
    pub(crate) fn as_set(&mut self, set: &BTreeSet<AsId>) {
        self.run(set.iter().map(|a| a.0));
    }
}

/// The subset forms [`Enc::subseq`] writes: the subset's own run, or the
/// positions of the superset it drops.
pub(crate) const FORM_EXPLICIT: u8 = 0;
pub(crate) const FORM_DROPPED: u8 = 1;

/// The longest LEB128 the codec reads: 10 bytes, enough for any `u64`.
/// A run's counts and zigzagged `u32` deltas are bounded again by range.
const VARINT_MAX: usize = 10;

/// A run's count and value bytes.
fn run_size(vals: impl Iterator<Item = u32>) -> (u64, u64) {
    let (mut n, mut len, mut prev) = (0u64, 0u64, 0u32);
    for v in vals {
        n += 1;
        len += varint_len(zigzag(prev, v));
        prev = v;
    }
    (n, len)
}

/// The positions of `sup` a greedy in-order match against `sub` leaves
/// out. When `sub` is a subsequence of `sup`, keeping every other
/// position rebuilds `sub` exactly; otherwise fewer than `sub`'s values
/// are kept.
fn dropped_positions<S, T>(sup: S, sub: T) -> impl Iterator<Item = u32> + Clone
where
    S: Iterator<Item = u32> + Clone,
    T: Iterator<Item = u32> + Clone,
{
    let mut sub = sub.peekable();
    sup.zip(0u32..).filter_map(move |(v, i)| {
        if sub.peek() == Some(&v) {
            sub.next();
            None
        } else {
            Some(i)
        }
    })
}

fn zigzag(prev: u32, v: u32) -> u64 {
    let d = i64::from(v) - i64::from(prev);
    ((d << 1) ^ (d >> 63)) as u64
}

fn varint_len(v: u64) -> u64 {
    u64::from((64 - (v | 1).leading_zeros()).div_ceil(7))
}

/// Read one LEB128 value at `*pos` in `bytes`: at most [`VARINT_MAX`]
/// bytes long, and inside `u64`.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    // Most counts and run deltas fit one or two bytes.
    if let Some(&b0) = bytes.get(*pos) {
        if b0 < 0x80 {
            *pos += 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(*pos + 1).filter(|&&b| b < 0x80) {
            *pos += 2;
            return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
        }
    }
    read_long_varint(bytes, pos)
}

#[inline(never)]
fn read_long_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let mut v = 0u64;
    for i in 0..VARINT_MAX {
        let &b = bytes.get(*pos).ok_or("varint runs past its bytes")?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            // The tenth byte holds only bit 63.
            return if i == VARINT_MAX - 1 && b > 1 {
                Err("varint leaves the u64 range")
            } else {
                Ok(v)
            };
        }
    }
    Err("varint longer than 10 bytes")
}

/// Decode `n` zigzag-delta values that must fill `bytes` exactly,
/// handing each to `f` in order.
#[inline]
fn for_each_run_value(
    bytes: &[u8],
    n: usize,
    mut f: impl FnMut(u32) -> Result<(), &'static str>,
) -> Result<(), &'static str> {
    let (mut pos, mut prev) = (0usize, 0i64);
    for _ in 0..n {
        let z = read_varint(bytes, &mut pos)?;
        // `prev` is a u32, so a sum that wraps lands below 0 and fails
        // the range check like any other.
        let v = prev.wrapping_add((z >> 1) as i64 ^ -((z & 1) as i64));
        let v = u32::try_from(v).map_err(|_| "run value leaves the u32 range")?;
        f(v)?;
        prev = i64::from(v);
    }
    if pos == bytes.len() {
        Ok(())
    } else {
        Err("run values end before its byte length")
    }
}

pub(crate) struct Dec<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) path: &'a Path,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Dec { buf, pos: 0, path }
    }
    pub(crate) fn corrupt(&self, detail: impl Into<String>) -> ArtifactError {
        ArtifactError::corrupt(self.path, detail)
    }
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("payload overrun"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }
    /// A bool, or the presence flag of an optional value.
    #[inline]
    pub(crate) fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("bad flag {v}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    /// A count or length ([`Enc::u64`]).
    #[inline]
    pub(crate) fn u64(&mut self) -> Result<u64, ArtifactError> {
        read_varint(self.buf, &mut self.pos).map_err(|e| self.corrupt(e))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("oversized count {v}")))
    }
    /// A count that will allocate: bound it by the bytes that could
    /// plausibly remain, so a corrupt length can't trigger a huge alloc.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(self.corrupt(format!("count {n} exceeds remaining payload")));
        }
        Ok(n)
    }
    pub(crate) fn f64(&mut self) -> Result<f64, ArtifactError> {
        let bits = u64::from_le_bytes(self.take(8)?.try_into().expect("8"));
        Ok(f64::from_bits(bits))
    }
    pub(crate) fn str(&mut self) -> Result<String, ArtifactError> {
        dec_str_ref(self).map(str::to_owned)
    }
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], ArtifactError> {
        let n = self.count(1)?;
        self.take(n)
    }
    /// One [`Enc::run`]'s count and value bytes. The count is checked
    /// against the byte length (every value takes at least a byte) and the
    /// byte length against the buffer, before anything is allocated.
    #[inline]
    fn run_head(&mut self) -> Result<(usize, &'a [u8]), ArtifactError> {
        let n = self.u64()?;
        let len = self.u64()?;
        if n > len {
            return Err(self.corrupt(format!("run count {n} exceeds its {len} bytes")));
        }
        let bytes = self.take(usize::try_from(len).unwrap_or(usize::MAX))?;
        // n <= len == bytes.len(), so the count fits a usize.
        Ok((n as usize, bytes))
    }
    /// Decode one run onto the end of `out`.
    pub(crate) fn run_into(&mut self, out: &mut Vec<u32>) -> Result<(), ArtifactError> {
        let (n, bytes) = self.run_head()?;
        out.reserve(n);
        for_each_run_value(bytes, n, |v| {
            out.push(v);
            Ok(())
        })
        .map_err(|e| self.corrupt(e))
    }
    /// Decode one [`Enc::subseq`] against `sup`. Dropped positions must
    /// be strictly ascending and inside `sup`.
    pub(crate) fn subseq(&mut self, sup: &[u32]) -> Result<Vec<u32>, ArtifactError> {
        let mut out = Vec::new();
        self.subseq_into(sup, &mut out)?;
        Ok(out)
    }
    /// Decode one [`Enc::subseq`] against `sup` onto the end of `out`.
    pub(crate) fn subseq_into(
        &mut self,
        sup: &[u32],
        out: &mut Vec<u32>,
    ) -> Result<(), ArtifactError> {
        match self.u8()? {
            FORM_EXPLICIT => self.run_into(out),
            FORM_DROPPED => {
                let (n, bytes) = self.run_head()?;
                out.reserve(sup.len().saturating_sub(n));
                let mut next = 0usize;
                for_each_run_value(bytes, n, |p| {
                    let p = p as usize;
                    if p < next {
                        return Err("dropped positions are not strictly ascending");
                    }
                    if p >= sup.len() {
                        return Err("dropped position lies past its superset");
                    }
                    out.extend_from_slice(&sup[next..p]);
                    next = p + 1;
                    Ok(())
                })
                .map_err(|e| self.corrupt(e))?;
                out.extend_from_slice(&sup[next..]);
                Ok(())
            }
            tag => Err(self.corrupt(format!("bad subset form {tag}"))),
        }
    }
    pub(crate) fn run(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let mut out = Vec::new();
        self.run_into(&mut out)?;
        Ok(out)
    }
    pub(crate) fn as_set(&mut self) -> Result<BTreeSet<AsId>, ArtifactError> {
        Ok(self.run()?.into_iter().map(AsId).collect())
    }
    pub(crate) fn finish(self) -> Result<(), ArtifactError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

/// §4.1 validation stats, map entries canonicalized by stable tag.
pub(crate) fn encode_validation(e: &mut Enc, v: &ValidationStats) {
    e.usize(v.total_records);
    e.usize(v.valid);
    let mut entries: Vec<(u8, usize)> = v
        .invalid
        .iter()
        .map(|(&r, &n)| (invalid_reason_tag(r), n))
        .collect();
    entries.sort_unstable();
    e.usize(entries.len());
    for (tag, n) in entries {
        e.u8(tag);
        e.usize(n);
    }
}

pub(crate) fn decode_validation(d: &mut Dec) -> Result<ValidationStats, ArtifactError> {
    let total_records = d.usize()?;
    let valid = d.usize()?;
    let n = d.count(2)?;
    let mut invalid = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        let tag = d.u8()?;
        let reason = invalid_reason_from_tag(tag)
            .ok_or_else(|| d.corrupt(format!("bad invalid-reason tag {tag}")))?;
        invalid.insert(reason, d.usize()?);
    }
    Ok(ValidationStats {
        total_records,
        valid,
        invalid,
    })
}

// ---------------------------------------------------------------------------
// The envelope.
// ---------------------------------------------------------------------------

/// Fixed envelope header: 8-byte magic, u32 version, u64 fingerprint,
/// u64 payload length.
pub(crate) const ENVELOPE_HEADER: usize = 8 + 4 + 8 + 8;

/// What went wrong while opening an envelope, before family-specific
/// error mapping.
pub(crate) enum EnvelopeIssue {
    Io(std::io::Error),
    /// Missing/wrong magic — including files shorter than the magic.
    BadMagic,
    BadVersion {
        found: u32,
    },
    Corrupt(String),
}

/// One envelope's bytes: header, payload, and the checksum over both.
pub(crate) fn envelope(magic: &[u8; 8], version: u32, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len() + 32);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = Sha256::digest(&out);
    out.extend_from_slice(&sum);
    out
}

/// Split one envelope off the front of `bytes`, verifying it: magic,
/// then version, then the declared length against the bytes present,
/// then the checksum. Returns the fingerprint (callers compare it
/// themselves), the payload and the bytes after the envelope. A prefix
/// shorter than the magic is `BadMagic`.
pub(crate) fn split_envelope<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<(u64, &'a [u8], &'a [u8]), EnvelopeIssue> {
    if bytes.get(..8) != Some(&magic[..]) {
        return Err(EnvelopeIssue::BadMagic);
    }
    let field = |at: usize, n: usize| {
        bytes
            .get(at..at + n)
            .ok_or_else(|| EnvelopeIssue::Corrupt("file ends inside the envelope header".into()))
    };
    let found = u32::from_le_bytes(field(8, 4)?.try_into().expect("4 bytes"));
    if found != version {
        return Err(EnvelopeIssue::BadVersion { found });
    }
    let fingerprint = u64::from_le_bytes(field(12, 8)?.try_into().expect("8 bytes"));
    let declared = u64::from_le_bytes(field(20, 8)?.try_into().expect("8 bytes"));
    let end = usize::try_from(declared)
        .ok()
        .and_then(|n| n.checked_add(ENVELOPE_HEADER))
        .filter(|&end| end.checked_add(32).is_some_and(|n| n <= bytes.len()))
        .ok_or_else(|| {
            EnvelopeIssue::Corrupt(format!(
                "declared payload length {declared} runs past the {}-byte file",
                bytes.len()
            ))
        })?;
    let (covered, rest) = bytes.split_at(end);
    if Sha256::digest(covered)[..] != rest[..32] {
        return Err(EnvelopeIssue::Corrupt("checksum mismatch".to_owned()));
    }
    Ok((fingerprint, &covered[ENVELOPE_HEADER..], &rest[32..]))
}

/// Read a file that is exactly one envelope, returning its fingerprint
/// and payload. The buffer is sized from the file, never from the
/// length field.
pub(crate) fn read_envelope(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
) -> Result<(u64, Vec<u8>), EnvelopeIssue> {
    let mut bytes = std::fs::read(path).map_err(EnvelopeIssue::Io)?;
    let (fingerprint, payload, rest) = split_envelope(&bytes, magic, version)?;
    if !rest.is_empty() {
        return Err(EnvelopeIssue::Corrupt(format!(
            "{} bytes after the checksum",
            rest.len()
        )));
    }
    let len = payload.len();
    bytes.truncate(ENVELOPE_HEADER + len);
    bytes.drain(..ENVELOPE_HEADER);
    Ok((fingerprint, bytes))
}

/// Atomically replace `path` with `bytes` (temp file + rename), creating
/// parent directories.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(parent, e))?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| ArtifactError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| ArtifactError::io(path, e))
}

/// Read a length-prefixed string as a borrowed `&str`.
pub(crate) fn dec_str_ref<'a>(d: &mut Dec<'a>) -> Result<&'a str, ArtifactError> {
    let n = d.count(1)?;
    let bytes = d.take(n)?;
    std::str::from_utf8(bytes).map_err(|_| d.corrupt("non-UTF-8 string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_length_is_rejected_before_payload_read() {
        let magic = b"OFFNTEST";
        let dir = std::env::temp_dir().join(format!("offnet-codec-len-{}", std::process::id()));
        let path = dir.join("huge.bin");
        let bytes = envelope(magic, 1, 1, b"payload");
        write_atomic(&path, &bytes).unwrap();
        // Patch the declared length to a preposterous value: the loader
        // must reject on the header check, not attempt the allocation.
        let mut patched = bytes.clone();
        patched[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &patched).unwrap();
        match read_envelope(&path, magic, 1) {
            Err(EnvelopeIssue::Corrupt(d)) => assert!(d.contains("length"), "{d}"),
            _ => panic!("corrupt length must be typed Corrupt"),
        }
        assert!(matches!(
            split_envelope(&patched, magic, 1),
            Err(EnvelopeIssue::Corrupt(_))
        ));
        // The checksum covers the fixed fields: a flipped fingerprint is
        // caught even though the payload is intact.
        let mut flipped = bytes.clone();
        flipped[12] ^= 1;
        assert!(matches!(
            split_envelope(&flipped, magic, 1),
            Err(EnvelopeIssue::Corrupt(_))
        ));
        // Files shorter than the magic are BadMagic.
        std::fs::write(&path, b"OFF").unwrap();
        assert!(matches!(
            read_envelope(&path, magic, 1),
            Err(EnvelopeIssue::BadMagic)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tag_tables_are_total_and_stable() {
        for (i, &e) in RECORD_ERRORS.iter().enumerate() {
            assert_eq!(record_error_tag(e) as usize, i);
        }
        for (i, &c) in CHAIN_ERRORS.iter().enumerate() {
            assert_eq!(invalid_reason_tag(InvalidReason::Chain(c)) as usize, i + 2);
            assert_eq!(
                invalid_reason_from_tag((i + 2) as u8),
                Some(InvalidReason::Chain(c))
            );
        }
        assert!(invalid_reason_from_tag(2 + CHAIN_ERRORS.len() as u8).is_none());
        for (i, &hg) in ALL_HGS.iter().enumerate() {
            assert_eq!(hg_tag(hg) as usize, i);
        }
        for (i, &t) in TransientClass::ALL.iter().enumerate() {
            assert_eq!(transient_tag(t) as usize, i);
        }
        for (i, &c) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(fault_tag(c) as usize, i);
        }
        for (i, &id) in ENGINES.iter().enumerate() {
            assert_eq!(engine_tag(id) as usize, i + 1);
            assert_eq!(engine_from_tag(engine_tag(id)), Some(id));
        }
        assert_eq!(engine_from_tag(0), None);
    }

    /// Decode `bytes` as one run.
    fn run_of(bytes: &[u8]) -> Result<Vec<u32>, ArtifactError> {
        let mut d = Dec::new(bytes, Path::new("in-memory run"));
        let run = d.run()?;
        d.finish()?;
        Ok(run)
    }

    /// A run's bytes from its count, byte length and raw value varints.
    fn raw_run(n: u8, len: u8, values: &[u8]) -> Vec<u8> {
        [&[n, len][..], values].concat()
    }

    fn is_corrupt(r: Result<Vec<u32>, ArtifactError>, why: &str) -> bool {
        matches!(r, Err(ArtifactError::Corrupt { ref detail, .. }) if detail.contains(why))
    }

    #[test]
    fn runs_round_trip_any_order_and_extremes() {
        let cases: [&[u32]; 6] = [
            &[],
            &[0],
            &[u32::MAX],
            &[3, 4, 5, 1_000_000, 1_000_001],
            &[7, 2, 1, u32::MAX, 0, u32::MAX],
            &[u32::MAX, u32::MAX - 1, 0, 1 << 31],
        ];
        for vals in cases {
            let mut e = Enc::default();
            e.run(vals.iter().copied());
            assert_eq!(run_of(&e.buf).unwrap(), vals);
        }
        // Count, byte length, then zigzag deltas: 100 takes two bytes,
        // each small gap after it one.
        let mut e = Enc::default();
        e.run([100u32, 101, 103, 110].into_iter());
        assert_eq!(e.buf, [4, 5, 0xc8, 0x01, 2, 4, 14]);
    }

    #[test]
    fn damaged_runs_are_typed_not_a_panic() {
        // A varint longer than 10 bytes, or one past u64: in a count, a
        // length, a value.
        let long = [0x80u8; 11];
        let wide = [&[0xffu8; 9][..], &[0x02]].concat();
        for (varint, why) in [(&long[..], "longer than 10 bytes"), (&wide, "u64 range")] {
            assert!(is_corrupt(run_of(varint), why));
            assert!(is_corrupt(run_of(&[&[1][..], varint].concat()), why));
            assert!(is_corrupt(
                run_of(&raw_run(1, varint.len() as u8, varint)),
                why
            ));
        }
        // A 6-byte value is a valid varint but no u32 delta.
        let six = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(is_corrupt(run_of(&raw_run(1, 6, &six)), "u32 range"));
        // A count larger than the byte length is refused before anything
        // is allocated or read.
        assert!(is_corrupt(
            run_of(&raw_run(9, 2, &[2, 2])),
            "exceeds its 2 bytes"
        ));
        let huge_count = [0xff, 0xff, 0xff, 0xff, 0x0f, 4, 2, 2, 2, 2];
        assert!(is_corrupt(run_of(&huge_count), "exceeds its 4 bytes"));
        // A byte length past the buffer.
        assert!(is_corrupt(run_of(&raw_run(1, 9, &[2])), "overrun"));
        // Values that end before the byte length, or run past it.
        assert!(is_corrupt(run_of(&raw_run(1, 2, &[2, 2])), "end before"));
        assert!(is_corrupt(
            run_of(&raw_run(2, 2, &[2, 0x80])),
            "past its bytes"
        ));
        assert!(is_corrupt(
            run_of(&raw_run(1, 1, &[0x80, 1])),
            "past its bytes"
        ));
        // A running value below 0 or above u32::MAX.
        assert!(is_corrupt(run_of(&raw_run(1, 1, &[1])), "u32 range"));
        let mut e = Enc::default();
        e.run([u32::MAX].into_iter());
        let mut over = e.buf.clone();
        over[0] = 2;
        over[1] += 1;
        over.push(2); // +1 past u32::MAX
        assert!(is_corrupt(run_of(&over), "u32 range"));
    }

    /// Decode `bytes` as one subset of `sup`.
    fn subseq_of(bytes: &[u8], sup: &[u32]) -> Result<Vec<u32>, ArtifactError> {
        let mut d = Dec::new(bytes, Path::new("in-memory subset"));
        let sub = d.subseq(sup)?;
        d.finish()?;
        Ok(sub)
    }

    #[test]
    fn subsets_round_trip_in_the_shorter_form() {
        let sup = [5u32, 9, 9, 14, 20, 31, 40];
        let cases: [(&[u32], u8); 8] = [
            (&sup, FORM_DROPPED), // nothing dropped
            (&[], FORM_EXPLICIT), // an empty run beats seven positions
            (&[5, 9, 14, 31, 40], FORM_DROPPED),
            (&[5, 9, 9, 14, 31, 40], FORM_DROPPED), // a repeated value
            (&[9, 5], FORM_EXPLICIT),               // out of order
            (&[5, 6], FORM_EXPLICIT),               // a value `sup` lacks
            (&[9, 9, 9], FORM_EXPLICIT),            // more repeats than `sup` has
            (&[40], FORM_EXPLICIT),                 // six dropped positions outweigh one value
        ];
        for (sub, form) in cases {
            let mut e = Enc::default();
            e.subseq(sup.iter().copied(), sub.iter().copied());
            assert_eq!(e.buf[0], form, "{sub:?}");
            assert_eq!(subseq_of(&e.buf, &sup).unwrap(), sub);
        }
        // The greedy walk drops positions 2 and 4: form, count, byte
        // length, zigzag deltas.
        let mut e = Enc::default();
        e.subseq(sup.iter().copied(), [5, 9, 14, 31, 40].into_iter());
        assert_eq!(e.buf, [FORM_DROPPED, 2, 2, 4, 4]);
    }

    #[test]
    fn damaged_subsets_are_typed_not_a_panic() {
        let sup = [5u32, 9, 14];
        let dropped = |deltas: &[u8]| {
            [
                &[FORM_DROPPED, deltas.len() as u8, deltas.len() as u8][..],
                deltas,
            ]
            .concat()
        };
        let corrupt = |bytes: &[u8], why: &str| matches!(subseq_of(bytes, &sup), Err(ArtifactError::Corrupt { ref detail, .. }) if detail.contains(why));
        assert_eq!(subseq_of(&dropped(&[2, 2]), &sup).unwrap(), [5]);
        assert!(corrupt(&dropped(&[4, 1]), "strictly ascending")); // 2, then 1
        assert!(corrupt(&dropped(&[2, 0]), "strictly ascending")); // 1, then 1
        assert!(corrupt(&dropped(&[6]), "past its superset")); // 3
        assert!(corrupt(&[FORM_DROPPED, 1, 2, 2, 2], "end before"));
        assert!(corrupt(&[FORM_DROPPED, 2, 2, 2, 0x80], "past its bytes"));
        assert!(corrupt(&[7, 0, 0], "bad subset form 7"));
        assert!(corrupt(&[FORM_DROPPED, 1, 9, 2], "overrun"));
        // The explicit form is an ordinary run.
        let mut e = Enc::default();
        e.subseq(sup.iter().copied(), [u32::MAX].into_iter());
        assert_eq!(subseq_of(&e.buf, &sup).unwrap(), [u32::MAX]);
        assert!(corrupt(&e.buf[..e.buf.len() - 1], "overrun"));
    }

    #[test]
    fn counts_are_varints_up_to_64_bits() {
        for v in [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX] {
            let mut e = Enc::default();
            e.u64(v);
            assert_eq!(e.buf.len() as u64, varint_len(v));
            let mut d = Dec::new(&e.buf, Path::new("in-memory count"));
            assert_eq!(d.u64().unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn oversized_counts_cannot_trigger_huge_allocations() {
        // A payload whose first vector claims u64::MAX entries.
        let payload = u64::MAX.to_le_bytes();
        let path = Path::new("in-memory payload");
        let mut d = Dec::new(&payload, path);
        assert!(matches!(d.bytes(), Err(ArtifactError::Corrupt { .. })));
        let mut d = Dec::new(&payload, path);
        assert!(matches!(d.as_set(), Err(ArtifactError::Corrupt { .. })));
        let mut d = Dec::new(&payload, path);
        assert!(matches!(d.str(), Err(ArtifactError::Corrupt { .. })));
        // A well-formed varint count of u64::MAX.
        let mut e = Enc::default();
        e.u64(u64::MAX);
        e.buf.extend_from_slice(b"tail");
        let mut d = Dec::new(&e.buf, path);
        assert!(matches!(d.bytes(), Err(ArtifactError::Corrupt { .. })));
        let mut d = Dec::new(&e.buf, path);
        assert!(matches!(d.count(1), Err(ArtifactError::Corrupt { .. })));
    }
}
