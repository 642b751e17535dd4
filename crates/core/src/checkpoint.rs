//! Versioned on-disk study checkpoints for crash-resumable runs.
//!
//! A 31-snapshot study that dies at snapshot 27 used to lose everything.
//! With [`StudyConfig::checkpoint_dir`] set, every study mode instead
//! serializes one artifact per snapshot — the full [`SnapshotResult`],
//! the §6.2 Netflix fold state, and (in
//! [`StudyMode::Incremental`](crate::StudyMode::Incremental)) the
//! snapshot's validation-cache counters — so a
//! relaunched run adopts the completed prefix and continues from the
//! first missing snapshot, producing output byte-identical to an
//! uninterrupted run.
//!
//! Format: every `snap_NNNN.ckpt` file is
//!
//! ```text
//! magic "OFFNCKPT" · version u32 · config fingerprint u64
//! · payload length u64 · payload · SHA-256(payload)
//! ```
//!
//! written atomically (temp file + rename). The payload is a hand-rolled
//! little-endian encoding with *stable tag tables* for every enum — map
//! iteration orders are canonicalized at encode time — so a checkpoint's
//! bytes are a pure function of its contents.
//!
//! Invalidation rules: the config fingerprint digests everything that
//! shapes study output — world scenario, engine identity and its
//! fault/transient plans, and pipeline knobs — but deliberately *not*
//! the study mode (every mode writes the same checkpoints; a mode that
//! keeps reuse counters reads zeros where another mode wrote none) and
//! *not* the snapshot range, so a run killed at snapshot k resumes under
//! a longer `--snapshots` range. Mismatches surface as typed
//! [`CheckpointError`]s with explicit remediation, never a panic.

use crate::codec::{self, EnvelopeIssue};
use crate::errors::{DataQualityReport, RecordError};
use crate::pipeline::{HgSnapshotResult, SnapshotResult};
use crate::study::{DeltaReport, StudyConfig};
use crate::validate::{InvalidReason, ValidationStats};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use scanner::{ScanEngine, ScanHealth, TransientClass};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use x509::ChainError;

/// Current checkpoint format version. Bump on any payload layout change.
/// Version 2 dropped the per-snapshot delta evidence and kept only the
/// validation-cache counters of the reuse report.
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"OFFNCKPT";

/// Why a checkpoint directory could not be used.
///
/// Every variant's `Display` ends with the remediation — delete the
/// checkpoint dir or pass `--no-resume` — mirroring the
/// [`RecordError`]-style principle that bad input is diagnosed, not
/// panicked over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing an artifact.
    Io { path: PathBuf, detail: String },
    /// The file does not start with the checkpoint magic.
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
    /// Truncated, checksum-mismatched, or undecodable payload.
    Corrupt { path: PathBuf, detail: String },
}

impl CheckpointError {
    pub(crate) fn io(path: &Path, err: std::io::Error) -> Self {
        CheckpointError::Io {
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
        CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

/// Map a shared-codec envelope failure onto checkpoint error variants.
/// Fingerprint comparison is *not* handled here — callers decide whether
/// a mismatch is `ConfigMismatch` (checkpoints) or `Corrupt` (segments).
pub(crate) fn envelope_checkpoint_error(issue: EnvelopeIssue, path: &Path) -> CheckpointError {
    match issue {
        EnvelopeIssue::Io(p, e) => CheckpointError::io(&p, e),
        EnvelopeIssue::BadMagic => CheckpointError::BadMagic {
            path: path.to_path_buf(),
        },
        EnvelopeIssue::BadVersion { found } => CheckpointError::VersionMismatch {
            path: path.to_path_buf(),
            found,
            expected: CHECKPOINT_VERSION,
        },
        EnvelopeIssue::Corrupt(detail) => CheckpointError::corrupt(path, detail),
    }
}

const REMEDY: &str = "delete the checkpoint dir or pass --no-resume";

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error at {}: {detail}", path.display())
            }
            CheckpointError::BadMagic { path } => write!(
                f,
                "{} is not a study checkpoint (bad magic); {REMEDY}",
                path.display()
            ),
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} uses checkpoint format v{found} but this binary writes v{expected}; {REMEDY}",
                path.display()
            ),
            CheckpointError::ConfigMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} was written under a different study configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); {REMEDY}",
                path.display()
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "{} is corrupt ({detail}); {REMEDY}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One snapshot's durable record: everything a resumed run needs to
/// continue *past* this snapshot without recomputing it.
#[derive(Debug, Clone)]
pub struct SnapshotCheckpoint {
    pub snapshot_idx: usize,
    /// False when the engine's corpus did not cover the snapshot (the
    /// study skipped it) — recorded anyway so the completed prefix stays
    /// contiguous in snapshot indices and the resume point is unambiguous.
    pub processed: bool,
    /// The snapshot's pipeline result (default when `processed` is false).
    pub result: SnapshotResult,
    /// The §6.2 Netflix variant values this snapshot pushed.
    pub netflix_initial: usize,
    pub netflix_with_expired: usize,
    pub netflix_with_non_tls: usize,
    /// Cumulative Netflix IP history *after* this snapshot, sorted.
    pub netflix_ip_history: Vec<u32>,
    /// The snapshot's reuse report (incremental mode only). Only its
    /// validation-cache counters are stored.
    pub report: Option<DeltaReport>,
}

impl SnapshotCheckpoint {
    /// A marker for a snapshot the engine's corpus does not cover.
    pub fn skipped(snapshot_idx: usize, netflix_ip_history: Vec<u32>) -> Self {
        Self {
            snapshot_idx,
            processed: false,
            result: SnapshotResult::default(),
            netflix_initial: 0,
            netflix_with_expired: 0,
            netflix_with_non_tls: 0,
            netflix_ip_history,
            report: None,
        }
    }
}

/// A directory of per-snapshot checkpoint artifacts, pinned to one config
/// fingerprint. All writes are atomic (temp + rename) so a kill mid-write
/// never leaves a half-written artifact behind.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Open (creating if necessary) a checkpoint directory for runs with
    /// the given config fingerprint (see [`study_fingerprint`]).
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CheckpointError::io(&dir, e))?;
        Ok(Self { dir, fingerprint })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn path_for(&self, snapshot_idx: usize) -> PathBuf {
        self.dir.join(format!("snap_{snapshot_idx:04}.ckpt"))
    }

    /// Atomically persist one snapshot's checkpoint.
    pub fn save(&self, ckpt: &SnapshotCheckpoint) -> Result<(), CheckpointError> {
        let payload = encode_checkpoint(ckpt);
        let path = self.path_for(ckpt.snapshot_idx);
        codec::write_envelope(&path, MAGIC, CHECKPOINT_VERSION, self.fingerprint, &payload)
            .map_err(|(p, e)| CheckpointError::io(&p, e))
    }

    /// Parse and validate one artifact file.
    pub fn load(&self, path: &Path) -> Result<SnapshotCheckpoint, CheckpointError> {
        let (fingerprint, payload) = codec::read_envelope(path, MAGIC, CHECKPOINT_VERSION)
            .map_err(|issue| envelope_checkpoint_error(issue, path))?;
        if fingerprint != self.fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                path: path.to_path_buf(),
                found: fingerprint,
                expected: self.fingerprint,
            });
        }
        decode_checkpoint(&payload, path)
    }

    /// Load every artifact in the directory, sorted by snapshot index.
    /// Any invalid file fails the whole load — a checkpoint directory is
    /// either trustworthy or it is not.
    pub fn load_all(&self) -> Result<Vec<SnapshotCheckpoint>, CheckpointError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map_err(|e| CheckpointError::io(&self.dir, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
            .collect();
        paths.sort();
        let mut out = Vec::with_capacity(paths.len());
        for path in &paths {
            out.push(self.load(path)?);
        }
        out.sort_by_key(|c| c.snapshot_idx);
        Ok(out)
    }

    /// Delete every checkpoint artifact (and stale temp file) in the
    /// directory. The `--no-resume` path.
    pub fn wipe(&self) -> Result<(), CheckpointError> {
        for entry in std::fs::read_dir(&self.dir).map_err(|e| CheckpointError::io(&self.dir, e))? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path
                .extension()
                .is_some_and(|ext| ext == "ckpt" || ext == "tmp")
            {
                std::fs::remove_file(&path).map_err(|e| CheckpointError::io(&path, e))?;
            }
        }
        Ok(())
    }
}

/// Digest everything that shapes a study's checkpoints into one
/// fingerprint: the world scenario, the engine (identity, coverage
/// windows, attached fault and transient plans), and the pipeline knobs.
/// Checkpoints are interchangeable across study modes. The snapshot
/// *range* is deliberately excluded so a killed run can be resumed under
/// a longer range; so are the checkpoint directory, the worker count, and
/// sharding, none of which changes the output.
pub fn study_fingerprint(world: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> u64 {
    fingerprint_with_tag(world, engine, config, CHECKPOINT_TAG)
}

/// [`study_fingerprint`]'s salt, distinct from the artifact's.
const CHECKPOINT_TAG: u64 = 1;

/// The shared fingerprint chain behind [`study_fingerprint`] and
/// [`crate::artifact::artifact_fingerprint`]: everything that shapes study
/// output, salted with a caller-chosen tag, so a checkpoint and an
/// artifact of the same study never share a fingerprint.
pub(crate) fn fingerprint_with_tag(
    world: &HgWorld,
    engine: &ScanEngine,
    config: &StudyConfig,
    tag: u64,
) -> u64 {
    let mut h = mix(0x0ff5_e7c4_ecb9_0a17);
    h = mix(h ^ u64::from(CHECKPOINT_VERSION));
    h = mix(h ^ tag);
    h = mix_world_engine(h, world, engine);
    // Pipeline knobs.
    h = mix(h ^ config.header_reference_snapshot as u64);
    h = mix(h ^ confirm_tag(config) ^ candidate_bits(config) << 8);
    h
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
    h = mix(h ^ engine_tag(engine));
    h = mix(h ^ engine.active_since as u64);
    h = mix(h ^ engine.https_headers_since.map_or(u64::MAX, |s| s as u64));
    h = mix(h ^ engine.faults.as_ref().map_or(0, |p| p.fingerprint()));
    mix(h ^ engine.transients.as_ref().map_or(0, |p| p.fingerprint()))
}

fn engine_tag(engine: &ScanEngine) -> u64 {
    match engine.id {
        scanner::EngineId::Rapid7 => 1,
        scanner::EngineId::Censys => 2,
        scanner::EngineId::Certigo => 3,
    }
}

fn confirm_tag(config: &StudyConfig) -> u64 {
    match config.confirm_mode {
        crate::confirm::ConfirmMode::HttpOrHttps => 1,
        crate::confirm::ConfirmMode::HttpAndHttps => 2,
    }
}

fn candidate_bits(config: &StudyConfig) -> u64 {
    u64::from(config.candidate_options.require_san_subset)
        | u64::from(config.candidate_options.cloudflare_filter) << 1
}

/// splitmix64 — the repo-wide seeded-hash primitive.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Stable enum tag tables. Append-only: reordering or inserting in the middle
// is a format break (bump CHECKPOINT_VERSION instead of renumbering).
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

fn transient_tag(c: TransientClass) -> u8 {
    TransientClass::ALL
        .iter()
        .position(|&t| t == c)
        .expect("transient class in tag table") as u8
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
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
    pub(crate) fn as_set(&mut self, set: &BTreeSet<AsId>) {
        self.usize(set.len());
        for a in set {
            self.u32(a.0);
        }
    }
}

pub(crate) struct Dec<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) path: &'a Path,
}

impl<'a> Dec<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CheckpointError::corrupt(self.path, "payload overrun"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::corrupt(self.path, format!("bad bool {v}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::corrupt(self.path, format!("oversized count {v}")))
    }
    /// A count that will allocate: bound it by the bytes that could
    /// plausibly remain, so a corrupt length can't trigger a huge alloc.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(CheckpointError::corrupt(
                self.path,
                format!("count {n} exceeds remaining payload"),
            ));
        }
        Ok(n)
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::corrupt(self.path, "non-UTF-8 string"))
    }
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.count(1)?;
        self.take(n)
    }
    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }
    pub(crate) fn as_set(&mut self) -> Result<BTreeSet<AsId>, CheckpointError> {
        let n = self.count(4)?;
        (0..n).map(|_| Ok(AsId(self.u32()?))).collect()
    }
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::corrupt(
                self.path,
                format!("{} trailing bytes", self.buf.len() - self.pos),
            ))
        }
    }
}

fn encode_checkpoint(ckpt: &SnapshotCheckpoint) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(ckpt.snapshot_idx);
    e.bool(ckpt.processed);
    encode_result(&mut e, &ckpt.result);
    e.usize(ckpt.netflix_initial);
    e.usize(ckpt.netflix_with_expired);
    e.usize(ckpt.netflix_with_non_tls);
    e.u32s(&ckpt.netflix_ip_history);
    match &ckpt.report {
        None => e.u8(0),
        Some(r) => {
            e.u8(1);
            e.u64(r.chains_replayed);
            e.u64(r.chains_revalidated);
        }
    }
    e.buf
}

fn decode_checkpoint(payload: &[u8], path: &Path) -> Result<SnapshotCheckpoint, CheckpointError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
        path,
    };
    let snapshot_idx = d.usize()?;
    let processed = d.bool()?;
    let result = decode_result(&mut d)?;
    let netflix_initial = d.usize()?;
    let netflix_with_expired = d.usize()?;
    let netflix_with_non_tls = d.usize()?;
    let netflix_ip_history = d.u32s()?;
    let report = match d.u8()? {
        0 => None,
        1 => Some(DeltaReport::new(snapshot_idx, d.u64()?, d.u64()?)),
        v => return Err(CheckpointError::corrupt(path, format!("bad option {v}"))),
    };
    d.finish()?;
    Ok(SnapshotCheckpoint {
        snapshot_idx,
        processed,
        result,
        netflix_initial,
        netflix_with_expired,
        netflix_with_non_tls,
        netflix_ip_history,
        report,
    })
}

fn encode_result(e: &mut Enc, r: &SnapshotResult) {
    e.usize(r.snapshot_idx);
    e.usize(r.total_ips_with_certs);
    e.usize(r.n_ases_with_certs);
    encode_validation(e, &r.validation);
    // `per_hg` is a HashMap: canonicalize to ALL_HGS order with a
    // presence byte per HG.
    for hg in ALL_HGS {
        match r.per_hg.get(&hg) {
            None => e.u8(0),
            Some(h) => {
                e.u8(1);
                encode_hg_result(e, h);
            }
        }
    }
    e.u32s(&r.http_only_ips);
    encode_quality(e, &r.quality);
}

fn decode_result(d: &mut Dec) -> Result<SnapshotResult, CheckpointError> {
    let snapshot_idx = d.usize()?;
    let total_ips_with_certs = d.usize()?;
    let n_ases_with_certs = d.usize()?;
    let validation = decode_validation(d)?;
    let mut per_hg = std::collections::HashMap::new();
    for hg in ALL_HGS {
        if d.bool()? {
            per_hg.insert(hg, decode_hg_result(d)?);
        }
    }
    let http_only_ips = d.u32s()?;
    let quality = decode_quality(d)?;
    Ok(SnapshotResult {
        snapshot_idx,
        total_ips_with_certs,
        n_ases_with_certs,
        validation,
        per_hg,
        http_only_ips,
        quality,
    })
}

pub(crate) fn encode_validation(e: &mut Enc, v: &ValidationStats) {
    e.usize(v.total_records);
    e.usize(v.valid);
    // HashMap: canonicalize by stable tag.
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

pub(crate) fn decode_validation(d: &mut Dec) -> Result<ValidationStats, CheckpointError> {
    let total_records = d.usize()?;
    let valid = d.usize()?;
    let n = d.count(9)?;
    let mut invalid = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        let tag = d.u8()?;
        let reason = invalid_reason_from_tag(tag).ok_or_else(|| {
            CheckpointError::corrupt(d.path, format!("bad invalid-reason tag {tag}"))
        })?;
        invalid.insert(reason, d.usize()?);
    }
    Ok(ValidationStats {
        total_records,
        valid,
        invalid,
    })
}

fn encode_hg_result(e: &mut Enc, h: &HgSnapshotResult) {
    e.as_set(&h.candidate_ases);
    e.as_set(&h.confirmed_ases);
    e.as_set(&h.confirmed_and_ases);
    e.u32s(&h.candidate_ips);
    e.u32s(&h.confirmed_ips);
    e.u32s(&h.cert_ip_groups);
    e.usize(h.onnet_ip_count);
    match h.median_cert_lifetime_days {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.f64(v);
        }
    }
    e.as_set(&h.with_expired_ases);
    e.u32s(&h.with_expired_ips);
}

fn decode_hg_result(d: &mut Dec) -> Result<HgSnapshotResult, CheckpointError> {
    Ok(HgSnapshotResult {
        candidate_ases: d.as_set()?,
        confirmed_ases: d.as_set()?,
        confirmed_and_ases: d.as_set()?,
        candidate_ips: d.u32s()?,
        confirmed_ips: d.u32s()?,
        cert_ip_groups: d.u32s()?,
        onnet_ip_count: d.usize()?,
        median_cert_lifetime_days: match d.u8()? {
            0 => None,
            1 => Some(d.f64()?),
            v => return Err(CheckpointError::corrupt(d.path, format!("bad option {v}"))),
        },
        with_expired_ases: d.as_set()?,
        with_expired_ips: d.u32s()?,
    })
}

fn encode_quality(e: &mut Enc, q: &DataQualityReport) {
    e.usize(q.cert_records_seen);
    e.usize(q.banners_seen);
    e.usize(q.quarantined.len());
    for (&reason, &n) in &q.quarantined {
        e.u8(record_error_tag(reason));
        e.usize(n);
    }
    e.usize(q.degraded_hgs.len());
    for (hg, msg) in &q.degraded_hgs {
        e.str(hg);
        e.str(msg);
    }
    match &q.degraded_snapshot {
        None => e.u8(0),
        Some(msg) => {
            e.u8(1);
            e.str(msg);
        }
    }
    e.bool(q.empty_cert_snapshot);
    encode_health(e, &q.scan);
}

fn decode_quality(d: &mut Dec) -> Result<DataQualityReport, CheckpointError> {
    let cert_records_seen = d.usize()?;
    let banners_seen = d.usize()?;
    let mut quarantined = std::collections::BTreeMap::new();
    for _ in 0..d.count(9)? {
        let tag = d.u8()?;
        let reason = *RECORD_ERRORS.get(tag as usize).ok_or_else(|| {
            CheckpointError::corrupt(d.path, format!("bad record-error tag {tag}"))
        })?;
        quarantined.insert(reason, d.usize()?);
    }
    let mut degraded_hgs = std::collections::BTreeMap::new();
    for _ in 0..d.count(16)? {
        let hg = d.str()?;
        let msg = d.str()?;
        degraded_hgs.insert(hg, msg);
    }
    let degraded_snapshot = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        v => return Err(CheckpointError::corrupt(d.path, format!("bad option {v}"))),
    };
    let empty_cert_snapshot = d.bool()?;
    let scan = decode_health(d)?;
    Ok(DataQualityReport {
        cert_records_seen,
        banners_seen,
        quarantined,
        degraded_hgs,
        degraded_snapshot,
        empty_cert_snapshot,
        scan,
    })
}

pub(crate) fn encode_health(e: &mut Enc, h: &ScanHealth) {
    e.usize(h.targets);
    e.usize(h.attempts);
    e.usize(h.retries);
    e.usize(h.recovered);
    for map in [&h.base_lost, &h.gave_up] {
        e.usize(map.len());
        for (&class, &n) in map {
            e.u8(transient_tag(class));
            e.usize(n);
        }
    }
    e.usize(h.breaker_opens);
    e.usize(h.unreachable);
    e.u64(h.backoff_wait_s);
}

pub(crate) fn decode_health(d: &mut Dec) -> Result<ScanHealth, CheckpointError> {
    let mut h = ScanHealth {
        targets: d.usize()?,
        attempts: d.usize()?,
        retries: d.usize()?,
        recovered: d.usize()?,
        ..Default::default()
    };
    for which in 0..2 {
        for _ in 0..d.count(9)? {
            let tag = d.u8()?;
            let class = *TransientClass::ALL.get(tag as usize).ok_or_else(|| {
                CheckpointError::corrupt(d.path, format!("bad transient tag {tag}"))
            })?;
            let n = d.usize()?;
            let map = if which == 0 {
                &mut h.base_lost
            } else {
                &mut h.gave_up
            };
            map.insert(class, n);
        }
    }
    h.breaker_opens = d.usize()?;
    h.unreachable = d.usize()?;
    h.backoff_wait_s = d.u64()?;
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sha2sim::Sha256;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A process-unique temp directory per test.
    fn temp_store_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "offnet-ckpt-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A checkpoint exercising every codec branch: populated and absent
    /// HGs, non-trivial maps, NaN-free but non-integral floats, a report
    /// present.
    fn dense_checkpoint() -> SnapshotCheckpoint {
        let mut result = SnapshotResult {
            snapshot_idx: 7,
            total_ips_with_certs: 12_345,
            n_ases_with_certs: 321,
            ..Default::default()
        };
        result.validation.total_records = 13_000;
        result.validation.valid = 12_000;
        result
            .validation
            .invalid
            .insert(InvalidReason::Malformed, 17);
        result
            .validation
            .invalid
            .insert(InvalidReason::Chain(ChainError::Expired), 40);
        let hg_result = HgSnapshotResult {
            candidate_ases: [AsId(10), AsId(20)].into_iter().collect(),
            confirmed_ases: [AsId(10)].into_iter().collect(),
            confirmed_and_ases: BTreeSet::new(),
            candidate_ips: vec![1, 2, 3],
            confirmed_ips: vec![1],
            cert_ip_groups: vec![9, 4, 1],
            onnet_ip_count: 55,
            median_cert_lifetime_days: Some(89.5),
            with_expired_ases: [AsId(10), AsId(30)].into_iter().collect(),
            with_expired_ips: vec![1, 7],
        };
        result.per_hg.insert(Hg::Google, hg_result.clone());
        result.per_hg.insert(Hg::Netflix, hg_result);
        result.http_only_ips = vec![5, 6];
        result.quality.cert_records_seen = 13_000;
        result.quality.add(RecordError::MalformedDer, 17);
        result
            .quality
            .degraded_hgs
            .insert("Google".to_owned(), "boom".to_owned());
        result.quality.scan.targets = 500;
        result.quality.scan.attempts = 520;
        result.quality.scan.retries = 20;
        result
            .quality
            .scan
            .base_lost
            .insert(TransientClass::Timeout, 3);
        result
            .quality
            .scan
            .gave_up
            .insert(TransientClass::RateLimited, 2);
        result.quality.scan.backoff_wait_s = 77;

        SnapshotCheckpoint {
            snapshot_idx: 7,
            processed: true,
            result,
            netflix_initial: 3,
            netflix_with_expired: 5,
            netflix_with_non_tls: 6,
            netflix_ip_history: vec![1, 7, 9],
            report: Some(DeltaReport::new(7, 9000, 40)),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let dir = temp_store_dir();
        let store = CheckpointStore::open(&dir, 42).unwrap();
        let ckpt = dense_checkpoint();
        store.save(&ckpt).unwrap();
        let loaded = store.load(&dir.join("snap_0007.ckpt")).unwrap();
        // `SnapshotResult` has no `PartialEq`; canonical-bytes equality is
        // the codec's own (stronger) notion of identity.
        assert_eq!(encode_checkpoint(&loaded), encode_checkpoint(&ckpt));
        assert_eq!(loaded.snapshot_idx, 7);
        assert!(loaded.processed);
        assert_eq!(
            loaded.result.per_hg[&Hg::Google].median_cert_lifetime_days,
            Some(89.5)
        );
        assert_eq!(loaded.report, Some(DeltaReport::new(7, 9000, 40)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skipped_marker_round_trips_and_load_all_sorts() {
        let dir = temp_store_dir();
        let store = CheckpointStore::open(&dir, 42).unwrap();
        store.save(&dense_checkpoint()).unwrap();
        store
            .save(&SnapshotCheckpoint::skipped(3, vec![4, 5]))
            .unwrap();
        let all = store.load_all().unwrap();
        assert_eq!(
            all.iter().map(|c| c.snapshot_idx).collect::<Vec<_>>(),
            vec![3, 7]
        );
        assert!(!all[0].processed);
        assert_eq!(all[0].netflix_ip_history, vec![4, 5]);
        store.wipe().unwrap();
        assert!(store.load_all().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_typed_not_a_panic() {
        let dir = temp_store_dir();
        let store = CheckpointStore::open(&dir, 42).unwrap();
        store.save(&dense_checkpoint()).unwrap();
        let path = dir.join("snap_0007.ckpt");
        let clean = std::fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bytes = clean.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().ends_with(REMEDY), "{err}");

        // Truncate: declared length exceeds the file.
        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        assert!(matches!(
            store.load(&path).unwrap_err(),
            CheckpointError::Corrupt { .. }
        ));

        // Garbage magic.
        std::fs::write(&path, b"NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        let err = store.load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }), "{err}");
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_and_config_mismatches_are_typed() {
        let dir = temp_store_dir();
        let store = CheckpointStore::open(&dir, 42).unwrap();
        store.save(&dense_checkpoint()).unwrap();
        let path = dir.join("snap_0007.ckpt");

        // A different fingerprint rejects the artifact before decoding.
        let other = CheckpointStore::open(&dir, 43).unwrap();
        let err = other.load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ConfigMismatch {
                    found: 42,
                    expected: 43,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        // ...and poisons load_all() for the whole directory.
        assert!(other.load_all().is_err());

        // Patch the version field (before the checksummed payload).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::VersionMismatch {
                    found: 99,
                    expected: CHECKPOINT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_counts_cannot_trigger_huge_allocations() {
        let dir = temp_store_dir();
        let store = CheckpointStore::open(&dir, 42).unwrap();
        // A payload whose first vector claims u64::MAX entries, with a
        // valid envelope (correct length + checksum) around it.
        let payload = u64::MAX.to_le_bytes().to_vec();
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        file.extend_from_slice(&42u64.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&Sha256::digest(&payload));
        let path = dir.join("snap_0001.ckpt");
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            store.load(&path).unwrap_err(),
            CheckpointError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
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
    }
}
