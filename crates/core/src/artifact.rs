//! The frozen study-result artifact: the stable boundary between
//! computation and everything downstream (rendering, queries, serving).
//!
//! The study driver accumulates its per-snapshot results through one
//! [`ArtifactBuilder`] and can seal them into a [`StudyArtifact`] — a
//! versioned, checksummed, columnar file that is a pure function of the
//! study's output and *identical across modes* (sequential, parallel,
//! checkpointed, and incremental runs of the same config produce the same
//! rendered study, so they share one artifact fingerprint). Rendering a
//! loaded artifact is byte-identical to rendering the in-memory series;
//! `tests/artifact.rs` pins this the way `tests/parallel.rs` pins the
//! parallel mode.
//!
//! Format (same envelope discipline as [`crate::checkpoint`] and
//! [`crate::shard`]):
//!
//! ```text
//! magic "OFFNARTF" · version u32 · config fingerprint u64
//! · payload length u64 · payload · SHA-256(payload)
//! ```
//!
//! written atomically (temp file + rename). The payload is columnar: an
//! interned symbol pool up front (every string in the artifact is a `u32`
//! pool index), then per-snapshot scalar columns, per-HG sections whose
//! confirmed/candidate AS sets and IP lists are contiguous sorted-integer
//! columns, quality and scan-health columns, the §6.2 Netflix variant
//! series plus the cumulative certificate-history IP set (so an
//! incremental engine can *append* to an existing artifact and keep the
//! order-dependent fold exact), the learned header fingerprints, and the
//! incremental mode's per-snapshot validation-cache counters.
//!
//! Invalidation: the config fingerprint
//! ([`artifact_fingerprint`]) digests world scenario, engine identity and
//! fault/transient plans, and pipeline knobs — but not the snapshot range
//! (an artifact is appendable) and not the study mode (all modes emit the
//! same artifact). Mismatches, truncation, and corruption surface as typed
//! [`ArtifactError`]s with explicit remediation, never a panic.

use crate::checkpoint::{
    decode_health, decode_validation, encode_health, encode_validation, fingerprint_with_tag,
    record_error_tag, CheckpointError, Dec, Enc, SnapshotCheckpoint, RECORD_ERRORS,
};
use crate::codec::{self, EnvelopeIssue};
use crate::headers::{HeaderFingerprint, HeaderFingerprints};
use crate::pipeline::{HgSnapshotResult, SnapshotResult};
use crate::study::{DeltaReport, NetflixVariants, StudyConfig, StudySeries};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use scanner::{EngineId, ScanEngine};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Current artifact format version. Bump on any payload layout change.
/// Version 2 keeps only the validation-cache counters of each reuse
/// report.
pub const ARTIFACT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"OFFNARTF";

const REMEDY: &str = "delete the artifact file or pass --no-resume";

/// Driver-independent salt for [`artifact_fingerprint`] (must differ
/// from the checkpoint tag, 1).
const ARTIFACT_DRIVER_TAG: u64 = 0xa87f;

/// Why an artifact file could not be used. Mirrors
/// [`CheckpointError`]: every variant's `Display` ends with the
/// remediation, so bad input is diagnosed, not panicked over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem failure reading or writing the artifact.
    Io { path: PathBuf, detail: String },
    /// The file does not start with the artifact magic.
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

impl ArtifactError {
    fn io(path: &Path, err: std::io::Error) -> Self {
        ArtifactError::Io {
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }

    fn corrupt(path: &Path, detail: impl Into<String>) -> Self {
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
                write!(f, "artifact I/O error at {}: {detail}", path.display())
            }
            ArtifactError::BadMagic { path } => write!(
                f,
                "{} is not a study artifact (bad magic); {REMEDY}",
                path.display()
            ),
            ArtifactError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} uses artifact format v{found} but this binary writes v{expected}; {REMEDY}",
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

// The shared `Dec` codec reports through `CheckpointError`; inside this
// module those are always payload-decoding failures against the artifact
// path, so the conversion is variant-for-variant.
impl From<CheckpointError> for ArtifactError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io { path, detail } => ArtifactError::Io { path, detail },
            CheckpointError::BadMagic { path } => ArtifactError::corrupt(&path, "bad magic"),
            CheckpointError::VersionMismatch {
                path,
                found,
                expected,
            } => ArtifactError::VersionMismatch {
                path,
                found,
                expected,
            },
            CheckpointError::ConfigMismatch {
                path,
                found,
                expected,
            } => ArtifactError::ConfigMismatch {
                path,
                found,
                expected,
            },
            CheckpointError::Corrupt { path, detail } => ArtifactError::Corrupt { path, detail },
        }
    }
}

/// Digest everything that shapes a study's rendered output — world
/// scenario, engine identity and plans, pipeline knobs — into the
/// artifact's config fingerprint. Unlike
/// [`crate::checkpoint::study_fingerprint`] the study mode is *not*
/// mixed in: all modes render byte-identically, so their artifacts
/// are interchangeable. The snapshot range is also excluded, so an
/// artifact can be appended to under a longer `--snapshots` range.
pub fn artifact_fingerprint(world: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> u64 {
    fingerprint_with_tag(world, engine, config, ARTIFACT_DRIVER_TAG)
}

/// The order-dependent §6.2 Netflix fold, shared by every study mode:
/// per snapshot it pushes the three footprint variants and grows the
/// cumulative certificate-history IP set the non-TLS restoration consults.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetflixFold {
    pub(crate) variants: NetflixVariants,
    /// Cumulative IPs ever seen serving a (possibly expired) Netflix
    /// certificate — the history the non-TLS restoration consults.
    ip_history: HashSet<u32>,
}

impl NetflixFold {
    /// Fold one snapshot's result. `origins_of` maps an HTTP-only IP to
    /// its AS origins at this snapshot. Returns the `(initial, with_expired, with_non_tls)`
    /// triple pushed, so checkpoints can record it.
    fn push(
        &mut self,
        result: &SnapshotResult,
        origins_of: impl Fn(u32) -> Vec<AsId>,
    ) -> (usize, usize, usize) {
        let nf = &result.per_hg[&Hg::Netflix];
        let initial = nf.confirmed_ases.len();
        let with_expired = nf.with_expired_ases.len();

        // Non-TLS restoration: HTTP-only IPs with Netflix certificate
        // history map back to their ASes.
        let mut with_non_tls: BTreeSet<AsId> = nf.with_expired_ases.clone();
        for &ip in &result.http_only_ips {
            if self.ip_history.contains(&ip) {
                with_non_tls.extend(origins_of(ip));
            }
        }
        let with_non_tls = with_non_tls.len();

        self.variants.initial.push(initial);
        self.variants.with_expired.push(with_expired);
        self.variants.with_non_tls.push(with_non_tls);
        self.ip_history.extend(nf.with_expired_ips.iter().copied());
        self.ip_history.extend(nf.confirmed_ips.iter().copied());
        (initial, with_expired, with_non_tls)
    }

    /// The cumulative IP history in artifact-stable (sorted) order.
    fn sorted_history(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.ip_history.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Restore the fold to its state just after `ckpt`'s snapshot.
    fn adopt(&mut self, ckpt: &SnapshotCheckpoint) {
        if ckpt.processed {
            self.variants.initial.push(ckpt.netflix_initial);
            self.variants.with_expired.push(ckpt.netflix_with_expired);
            self.variants.with_non_tls.push(ckpt.netflix_with_non_tls);
        }
        self.ip_history = ckpt.netflix_ip_history.iter().copied().collect();
    }
}

/// A loaded (or about-to-be-written) study result artifact: everything
/// the rendered study is a function of, plus the fold history an
/// incremental append needs and the reuse counters an incremental run
/// recorded.
#[derive(Debug, Clone)]
pub struct StudyArtifact {
    pub engine: EngineId,
    /// The config fingerprint the file carries (see
    /// [`artifact_fingerprint`]).
    pub fingerprint: u64,
    /// One entry per processed snapshot, in order.
    pub snapshots: Vec<SnapshotResult>,
    pub netflix: NetflixVariants,
    /// Cumulative §6.2 Netflix certificate-history IPs after the last
    /// snapshot, sorted — restoring this is what makes on-disk appends
    /// exact.
    pub netflix_ip_history: Vec<u32>,
    pub header_fps: HeaderFingerprints,
    /// Per-snapshot reuse counters, when the incremental mode wrote the
    /// artifact (empty otherwise). Never rendered into the canonical
    /// study output, so artifacts with and without reports render
    /// identically.
    pub reports: Vec<DeltaReport>,
}

impl StudyArtifact {
    /// View the artifact as the in-memory series every renderer consumes.
    /// `render_study(&artifact.to_series())` is byte-identical to
    /// rendering the series the study returned directly.
    pub fn to_series(&self) -> StudySeries {
        StudySeries {
            engine: self.engine,
            snapshots: self.snapshots.clone(),
            netflix: self.netflix.clone(),
            header_fps: self.header_fps.clone(),
        }
    }

    /// [`Self::to_series`] without the clone.
    pub fn into_series(self) -> StudySeries {
        StudySeries {
            engine: self.engine,
            snapshots: self.snapshots,
            netflix: self.netflix,
            header_fps: self.header_fps,
        }
    }

    /// Atomically write the artifact (temp file + rename; parent
    /// directories are created).
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        let payload = encode_payload(
            self.engine,
            &self.snapshots,
            &self.netflix,
            &self.netflix_ip_history,
            &self.header_fps,
            &self.reports,
        );
        write_artifact_file(path, self.fingerprint, &payload)
    }

    /// Load an artifact, accepting whatever config fingerprint it carries
    /// (the query layer serves any valid artifact).
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        Self::load_impl(path, None)
    }

    /// Load an artifact, rejecting one written under a different config
    /// fingerprint — the resume/append path.
    pub fn load_expecting(path: &Path, fingerprint: u64) -> Result<Self, ArtifactError> {
        Self::load_impl(path, Some(fingerprint))
    }

    fn load_impl(path: &Path, expected: Option<u64>) -> Result<Self, ArtifactError> {
        let (fingerprint, payload) = read_artifact_envelope(path, expected)?;
        let (engine, snapshots, netflix, netflix_ip_history, header_fps, reports) =
            decode_payload(&payload, path)?;
        Ok(StudyArtifact {
            engine,
            fingerprint,
            snapshots,
            netflix,
            netflix_ip_history,
            header_fps,
            reports,
        })
    }
}

/// Read an artifact file's envelope — header validation and payload
/// checksum only — returning the carried config fingerprint and the raw
/// payload bytes, undecoded. Pair with [`ArtifactTables::parse`] for the
/// borrowed-load path ([`StudyArtifact::load`] is the full decode).
pub fn read_artifact_payload(path: &Path) -> Result<(u64, Vec<u8>), ArtifactError> {
    read_artifact_envelope(path, None)
}

/// Open an artifact through the shared envelope codec, mapping issues
/// onto [`ArtifactError`] and enforcing the optional fingerprint pin.
fn read_artifact_envelope(
    path: &Path,
    expected: Option<u64>,
) -> Result<(u64, Vec<u8>), ArtifactError> {
    let (fingerprint, payload) =
        codec::read_envelope(path, MAGIC, ARTIFACT_VERSION).map_err(|issue| match issue {
            EnvelopeIssue::Io(p, e) => ArtifactError::io(&p, e),
            EnvelopeIssue::BadMagic => ArtifactError::BadMagic {
                path: path.to_path_buf(),
            },
            EnvelopeIssue::BadVersion { found } => ArtifactError::VersionMismatch {
                path: path.to_path_buf(),
                found,
                expected: ARTIFACT_VERSION,
            },
            EnvelopeIssue::Corrupt(detail) => ArtifactError::corrupt(path, detail),
        })?;
    if let Some(expected) = expected {
        if fingerprint != expected {
            return Err(ArtifactError::ConfigMismatch {
                path: path.to_path_buf(),
                found: fingerprint,
                expected,
            });
        }
    }
    Ok((fingerprint, payload))
}

/// The shared accumulator behind every study mode: snapshot results,
/// the §6.2 Netflix fold, and (in the incremental mode) reuse
/// reports, with optional persistence to an artifact path, so a study
/// cannot drift from the artifact it emits.
#[derive(Debug, Clone)]
pub struct ArtifactBuilder {
    engine: EngineId,
    fingerprint: u64,
    header_fps: HeaderFingerprints,
    snapshots: Vec<SnapshotResult>,
    fold: NetflixFold,
    reports: Vec<DeltaReport>,
    path: Option<PathBuf>,
}

impl ArtifactBuilder {
    pub fn new(engine: EngineId, header_fps: HeaderFingerprints, fingerprint: u64) -> Self {
        Self {
            engine,
            fingerprint,
            header_fps,
            snapshots: Vec::new(),
            fold: NetflixFold::default(),
            reports: Vec::new(),
            path: None,
        }
    }

    /// Attach an output path: [`Self::persist`] writes there. Write-only —
    /// an existing file is ignored (and overwritten on the next persist);
    /// use [`Self::adopt_from_path`] to resume from one.
    pub fn attach_path(&mut self, path: impl Into<PathBuf>) {
        self.path = Some(path.into());
    }

    /// Attach `path` and, when a valid artifact already exists there (and
    /// the builder is still empty), adopt its snapshots, fold state, and
    /// reuse reports so subsequent pushes *append* to it. Returns the
    /// number of snapshots adopted. A missing file is fine (starts
    /// empty); a mismatched or corrupt one is a typed error.
    pub fn adopt_from_path(&mut self, path: impl Into<PathBuf>) -> Result<usize, ArtifactError> {
        let path = path.into();
        let exists = path.exists();
        let untouched = self.snapshots.is_empty()
            && self.reports.is_empty()
            && self.fold.variants.initial.is_empty()
            && self.fold.ip_history.is_empty();
        self.path = Some(path.clone());
        if !exists || !untouched {
            return Ok(0);
        }
        let artifact = StudyArtifact::load_expecting(&path, self.fingerprint)?;
        let adopted = artifact.snapshots.len();
        self.snapshots = artifact.snapshots;
        self.reports = artifact.reports;
        self.fold.variants = artifact.netflix;
        self.fold.ip_history = artifact.netflix_ip_history.into_iter().collect();
        Ok(adopted)
    }

    /// Fold one snapshot's result in (§6.2 Netflix variants included) and
    /// record it. Returns the Netflix triple pushed, so checkpoints can
    /// record it.
    pub fn push_snapshot(
        &mut self,
        result: SnapshotResult,
        origins_of: impl Fn(u32) -> Vec<AsId>,
    ) -> (usize, usize, usize) {
        let triple = self.fold.push(&result, origins_of);
        self.snapshots.push(result);
        triple
    }

    /// Record the incremental mode's reuse report for the snapshot just
    /// pushed.
    pub fn push_report(&mut self, report: DeltaReport) {
        self.reports.push(report);
    }

    /// Restore builder state from an adopted checkpoint (fold history and,
    /// when the checkpoint processed its snapshot, the recorded result).
    pub fn adopt_checkpoint(&mut self, ckpt: &SnapshotCheckpoint) {
        self.fold.adopt(ckpt);
        if ckpt.processed {
            self.snapshots.push(ckpt.result.clone());
        }
    }

    pub fn snapshots(&self) -> &[SnapshotResult] {
        &self.snapshots
    }

    pub fn reports(&self) -> &[DeltaReport] {
        &self.reports
    }

    /// The cumulative §6.2 Netflix IP history, sorted (checkpoint- and
    /// artifact-stable).
    pub fn netflix_history(&self) -> Vec<u32> {
        self.fold.sorted_history()
    }

    /// Write the current state to the attached path, if any (atomic
    /// temp + rename). The incremental engine calls this after every
    /// append, so the on-disk artifact always reflects the grown prefix.
    pub fn persist(&self) -> Result<(), ArtifactError> {
        match &self.path {
            Some(path) => self.save_to(&path.clone()),
            None => Ok(()),
        }
    }

    /// Write the current state to an explicit path.
    pub fn save_to(&self, path: &Path) -> Result<(), ArtifactError> {
        let payload = encode_payload(
            self.engine,
            &self.snapshots,
            &self.fold.variants,
            &self.fold.sorted_history(),
            &self.header_fps,
            &self.reports,
        );
        write_artifact_file(path, self.fingerprint, &payload)
    }

    /// Snapshot the accumulated state as an owned [`StudyArtifact`].
    pub fn artifact(&self) -> StudyArtifact {
        StudyArtifact {
            engine: self.engine,
            fingerprint: self.fingerprint,
            snapshots: self.snapshots.clone(),
            netflix: self.fold.variants.clone(),
            netflix_ip_history: self.fold.sorted_history(),
            header_fps: self.header_fps.clone(),
            reports: self.reports.clone(),
        }
    }

    /// Consume the builder into the series every mode returns, plus the
    /// incremental reuse reports (empty for the other modes).
    pub fn finish(self) -> (StudySeries, Vec<DeltaReport>) {
        (
            StudySeries {
                engine: self.engine,
                snapshots: self.snapshots,
                netflix: self.fold.variants,
                header_fps: self.header_fps,
            },
            self.reports,
        )
    }
}

fn write_artifact_file(path: &Path, fingerprint: u64, payload: &[u8]) -> Result<(), ArtifactError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(parent, e))?;
        }
    }
    codec::write_envelope(path, MAGIC, ARTIFACT_VERSION, fingerprint, payload)
        .map_err(|(p, e)| ArtifactError::io(&p, e))
}

// ---------------------------------------------------------------------------
// Columnar payload codec.
// ---------------------------------------------------------------------------

fn engine_id_tag(id: EngineId) -> u8 {
    match id {
        EngineId::Rapid7 => 1,
        EngineId::Censys => 2,
        EngineId::Certigo => 3,
    }
}

fn engine_id_from_tag(tag: u8) -> Option<EngineId> {
    match tag {
        1 => Some(EngineId::Rapid7),
        2 => Some(EngineId::Censys),
        3 => Some(EngineId::Certigo),
        _ => None,
    }
}

/// The interned string pool: every string the artifact carries is written
/// once here and referenced by `u32` index, so the columns themselves are
/// pure integers.
#[derive(Default)]
struct SymPool {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl SymPool {
    fn sym(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

fn read_sym(d: &mut Dec, pool: &[String]) -> Result<String, CheckpointError> {
    let i = d.u32()? as usize;
    pool.get(i)
        .cloned()
        .ok_or_else(|| CheckpointError::Corrupt {
            path: d.path.to_path_buf(),
            detail: format!("symbol {i} out of pool range {}", pool.len()),
        })
}

fn encode_payload(
    engine: EngineId,
    snapshots: &[SnapshotResult],
    netflix: &NetflixVariants,
    ip_history: &[u32],
    header_fps: &HeaderFingerprints,
    reports: &[DeltaReport],
) -> Vec<u8> {
    let mut pool = SymPool::default();
    let mut b = Enc::default();
    b.u8(engine_id_tag(engine));
    b.usize(snapshots.len());
    // Per-snapshot scalar columns.
    for s in snapshots {
        b.usize(s.snapshot_idx);
    }
    for s in snapshots {
        b.usize(s.total_ips_with_certs);
    }
    for s in snapshots {
        b.usize(s.n_ases_with_certs);
    }
    // Validation column (map entries canonicalized by stable tag inside).
    for s in snapshots {
        encode_validation(&mut b, &s.validation);
    }
    // HTTP-only IP ragged column.
    for s in snapshots {
        b.u32s(&s.http_only_ips);
    }
    // Per-HG sections in ALL_HGS order: a presence column, then one
    // contiguous sorted-integer column per field over the present cells.
    for hg in ALL_HGS {
        for s in snapshots {
            b.bool(s.per_hg.contains_key(&hg));
        }
        let cells: Vec<&HgSnapshotResult> =
            snapshots.iter().filter_map(|s| s.per_hg.get(&hg)).collect();
        for h in &cells {
            b.as_set(&h.confirmed_ases);
        }
        for h in &cells {
            b.as_set(&h.candidate_ases);
        }
        for h in &cells {
            b.as_set(&h.confirmed_and_ases);
        }
        for h in &cells {
            b.u32s(&h.candidate_ips);
        }
        for h in &cells {
            b.u32s(&h.confirmed_ips);
        }
        for h in &cells {
            b.u32s(&h.cert_ip_groups);
        }
        for h in &cells {
            b.usize(h.onnet_ip_count);
        }
        for h in &cells {
            match h.median_cert_lifetime_days {
                None => b.u8(0),
                Some(v) => {
                    b.u8(1);
                    b.f64(v);
                }
            }
        }
        for h in &cells {
            b.as_set(&h.with_expired_ases);
        }
        for h in &cells {
            b.u32s(&h.with_expired_ips);
        }
    }
    // Quality columns (strings go through the pool; maps are BTreeMaps,
    // already canonically ordered).
    for s in snapshots {
        b.usize(s.quality.cert_records_seen);
    }
    for s in snapshots {
        b.usize(s.quality.banners_seen);
    }
    for s in snapshots {
        b.usize(s.quality.quarantined.len());
        for (&reason, &n) in &s.quality.quarantined {
            b.u8(record_error_tag(reason));
            b.usize(n);
        }
    }
    for s in snapshots {
        b.usize(s.quality.degraded_hgs.len());
        for (hg, msg) in &s.quality.degraded_hgs {
            b.u32(pool.sym(hg));
            b.u32(pool.sym(msg));
        }
    }
    for s in snapshots {
        match &s.quality.degraded_snapshot {
            None => b.u8(0),
            Some(msg) => {
                b.u8(1);
                b.u32(pool.sym(msg));
            }
        }
    }
    for s in snapshots {
        b.bool(s.quality.empty_cert_snapshot);
    }
    // Scan-health column (class maps canonicalized by stable tag inside).
    for s in snapshots {
        encode_health(&mut b, &s.quality.scan);
    }
    // §6.2 Netflix variant columns plus the fold's cumulative IP history.
    for column in [
        &netflix.initial,
        &netflix.with_expired,
        &netflix.with_non_tls,
    ] {
        b.usize(column.len());
        for &v in column {
            b.usize(v);
        }
    }
    b.u32s(ip_history);
    // Learned header fingerprints, canonicalized by keyword.
    let mut fps: Vec<&HeaderFingerprint> = header_fps.iter().collect();
    fps.sort_by(|a, b| a.keyword.cmp(&b.keyword));
    b.usize(fps.len());
    for fp in fps {
        b.u32(pool.sym(&fp.keyword));
        b.usize(fp.support);
        b.usize(fp.pairs.len());
        for (name, value) in &fp.pairs {
            b.u32(pool.sym(name));
            b.u32(pool.sym(value));
        }
        b.usize(fp.names.len());
        for name in &fp.names {
            b.u32(pool.sym(name));
        }
    }
    // Reuse-counter columns (empty outside the incremental mode).
    b.usize(reports.len());
    for r in reports {
        b.usize(r.snapshot_idx);
    }
    for r in reports {
        b.u64(r.chains_replayed);
    }
    for r in reports {
        b.u64(r.chains_revalidated);
    }
    // The pool goes up front so the decoder can resolve symbols in one
    // forward pass; it is only complete once the body is encoded.
    let mut e = Enc::default();
    e.usize(pool.strings.len());
    for s in &pool.strings {
        e.str(s);
    }
    e.buf.extend_from_slice(&b.buf);
    e.buf
}

type DecodedPayload = (
    EngineId,
    Vec<SnapshotResult>,
    NetflixVariants,
    Vec<u32>,
    HeaderFingerprints,
    Vec<DeltaReport>,
);

fn decode_payload(payload: &[u8], path: &Path) -> Result<DecodedPayload, CheckpointError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
        path,
    };
    let pool_n = d.count(8)?;
    let mut pool = Vec::with_capacity(pool_n);
    for _ in 0..pool_n {
        pool.push(d.str()?);
    }
    let engine_tag = d.u8()?;
    let engine = engine_id_from_tag(engine_tag).ok_or_else(|| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("bad engine tag {engine_tag}"),
    })?;
    let n = d.count(1)?;
    let mut snaps: Vec<SnapshotResult> = (0..n).map(|_| SnapshotResult::default()).collect();
    for s in &mut snaps {
        s.snapshot_idx = d.usize()?;
    }
    for s in &mut snaps {
        s.total_ips_with_certs = d.usize()?;
    }
    for s in &mut snaps {
        s.n_ases_with_certs = d.usize()?;
    }
    for s in &mut snaps {
        s.validation = decode_validation(&mut d)?;
    }
    for s in &mut snaps {
        s.http_only_ips = d.u32s()?;
    }
    for hg in ALL_HGS {
        let mut present = Vec::with_capacity(n);
        for _ in 0..n {
            present.push(d.bool()?);
        }
        let idxs: Vec<usize> = (0..n).filter(|&i| present[i]).collect();
        for &i in &idxs {
            snaps[i].per_hg.insert(hg, HgSnapshotResult::default());
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").confirmed_ases = d.as_set()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").candidate_ases = d.as_set()?;
        }
        for &i in &idxs {
            snaps[i]
                .per_hg
                .get_mut(&hg)
                .expect("cell")
                .confirmed_and_ases = d.as_set()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").candidate_ips = d.u32s()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").confirmed_ips = d.u32s()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").cert_ip_groups = d.u32s()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").onnet_ip_count = d.usize()?;
        }
        for &i in &idxs {
            snaps[i]
                .per_hg
                .get_mut(&hg)
                .expect("cell")
                .median_cert_lifetime_days = match d.u8()? {
                0 => None,
                1 => Some(d.f64()?),
                v => {
                    return Err(CheckpointError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("bad option {v}"),
                    })
                }
            };
        }
        for &i in &idxs {
            snaps[i]
                .per_hg
                .get_mut(&hg)
                .expect("cell")
                .with_expired_ases = d.as_set()?;
        }
        for &i in &idxs {
            snaps[i].per_hg.get_mut(&hg).expect("cell").with_expired_ips = d.u32s()?;
        }
    }
    for s in &mut snaps {
        s.quality.cert_records_seen = d.usize()?;
    }
    for s in &mut snaps {
        s.quality.banners_seen = d.usize()?;
    }
    for s in &mut snaps {
        for _ in 0..d.count(9)? {
            let tag = d.u8()?;
            let reason =
                *RECORD_ERRORS
                    .get(tag as usize)
                    .ok_or_else(|| CheckpointError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("bad record-error tag {tag}"),
                    })?;
            s.quality.quarantined.insert(reason, d.usize()?);
        }
    }
    for s in &mut snaps {
        for _ in 0..d.count(8)? {
            let hg = read_sym(&mut d, &pool)?;
            let msg = read_sym(&mut d, &pool)?;
            s.quality.degraded_hgs.insert(hg, msg);
        }
    }
    for s in &mut snaps {
        s.quality.degraded_snapshot = match d.u8()? {
            0 => None,
            1 => Some(read_sym(&mut d, &pool)?),
            v => {
                return Err(CheckpointError::Corrupt {
                    path: path.to_path_buf(),
                    detail: format!("bad option {v}"),
                })
            }
        };
    }
    for s in &mut snaps {
        s.quality.empty_cert_snapshot = d.bool()?;
    }
    for s in &mut snaps {
        s.quality.scan = decode_health(&mut d)?;
    }
    let mut netflix = NetflixVariants::default();
    for column in [
        &mut netflix.initial,
        &mut netflix.with_expired,
        &mut netflix.with_non_tls,
    ] {
        for _ in 0..d.count(8)? {
            column.push(d.usize()?);
        }
    }
    let netflix_ip_history = d.u32s()?;
    let mut header_fps = HeaderFingerprints::default();
    for _ in 0..d.count(8)? {
        let keyword = read_sym(&mut d, &pool)?;
        let support = d.usize()?;
        let mut pairs = Vec::new();
        for _ in 0..d.count(8)? {
            let name = read_sym(&mut d, &pool)?;
            let value = read_sym(&mut d, &pool)?;
            pairs.push((name, value));
        }
        let mut names = Vec::new();
        for _ in 0..d.count(4)? {
            names.push(read_sym(&mut d, &pool)?);
        }
        header_fps.insert(HeaderFingerprint {
            keyword,
            pairs,
            names,
            support,
        });
    }
    let n_reports = d.count(24)?;
    let mut reports: Vec<DeltaReport> = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        reports.push(DeltaReport::new(d.usize()?, 0, 0));
    }
    for r in &mut reports {
        r.chains_replayed = d.u64()?;
    }
    for r in &mut reports {
        r.chains_revalidated = d.u64()?;
    }
    d.finish()?;
    Ok((
        engine,
        snaps,
        netflix,
        netflix_ip_history,
        header_fps,
        reports,
    ))
}

// ---------------------------------------------------------------------------
// Borrowed table view: the query layer's load path.
// ---------------------------------------------------------------------------

fn skip_str(d: &mut Dec) -> Result<(), CheckpointError> {
    let n = d.count(1)?;
    d.take(n)?;
    Ok(())
}

/// Consume one `u32s`/`as_set` run and return its raw LE word bytes.
fn take_u32_run<'b>(d: &mut Dec<'b>) -> Result<&'b [u8], CheckpointError> {
    let n = d.count(4)?;
    d.take(n * 4)
}

fn skip_validation(d: &mut Dec) -> Result<(), CheckpointError> {
    d.take(16)?; // total_records, valid
    let n = d.count(9)?;
    d.take(n * 9)?; // tag u8 + count u64 per entry
    Ok(())
}

fn skip_health(d: &mut Dec) -> Result<(), CheckpointError> {
    d.take(32)?; // targets, attempts, retries, recovered
    for _ in 0..2 {
        let n = d.count(9)?;
        d.take(n * 9)?; // class tag u8 + count u64 per entry
    }
    d.take(24)?; // breaker_opens, unreachable, backoff_wait_s
    Ok(())
}

fn iter_le_u32(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
}

/// Exactly the columns the query layer freezes, borrowed straight from
/// one loaded payload buffer: per-cell confirmed/candidate AS runs as raw
/// little-endian word slices, the processed-snapshot index column, and
/// the §6.2 Netflix variant series. [`Self::parse`] makes one forward
/// pass over the payload and *skips* everything else — no symbol pool
/// materialization, no `BTreeSet` or [`SnapshotResult`] construction —
/// which is what makes a query-server cold start cheap
/// (`BENCH_query.json` tracks the load median).
///
/// Cells are snapshot-major, `row * ALL_HGS.len() + hg_position`,
/// matching the query layer's layout; a cell absent from the artifact is
/// an empty slice.
pub struct ArtifactTables<'a> {
    engine: EngineId,
    snapshot_idxs: Vec<u32>,
    confirmed: Vec<&'a [u8]>,
    candidate: Vec<&'a [u8]>,
    netflix: [Vec<u64>; 3],
}

impl<'a> ArtifactTables<'a> {
    /// One validating forward pass over a payload from
    /// [`read_artifact_payload`]. The walk visits every field (so
    /// truncation and bad counts surface as typed errors exactly as the
    /// full decode would report them) but only the query columns are
    /// retained, as borrowed slices.
    pub fn parse(payload: &'a [u8], path: &'a Path) -> Result<Self, ArtifactError> {
        let mut d = Dec {
            buf: payload,
            pos: 0,
            path,
        };
        let pool_n = d.count(8)?;
        for _ in 0..pool_n {
            skip_str(&mut d)?;
        }
        let engine_tag = d.u8()?;
        let engine = engine_id_from_tag(engine_tag).ok_or_else(|| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("bad engine tag {engine_tag}"),
        })?;
        let n = d.count(1)?;
        let mut snapshot_idxs = Vec::with_capacity(n);
        for _ in 0..n {
            snapshot_idxs.push(d.usize()? as u32);
        }
        d.take(n * 8)?; // total_ips_with_certs column
        d.take(n * 8)?; // n_ases_with_certs column
        for _ in 0..n {
            skip_validation(&mut d)?;
        }
        for _ in 0..n {
            take_u32_run(&mut d)?; // http_only_ips
        }

        let hg_n = ALL_HGS.len();
        let empty: &'a [u8] = &payload[..0];
        let mut confirmed: Vec<&'a [u8]> = vec![empty; n * hg_n];
        let mut candidate: Vec<&'a [u8]> = vec![empty; n * hg_n];
        for hg_i in 0..hg_n {
            let mut present = Vec::with_capacity(n);
            for _ in 0..n {
                present.push(d.bool()?);
            }
            let rows: Vec<usize> = (0..n).filter(|&i| present[i]).collect();
            for &row in &rows {
                confirmed[row * hg_n + hg_i] = take_u32_run(&mut d)?;
            }
            for &row in &rows {
                candidate[row * hg_n + hg_i] = take_u32_run(&mut d)?;
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // confirmed_and_ases
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // candidate_ips
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // confirmed_ips
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // cert_ip_groups
            }
            d.take(rows.len() * 8)?; // onnet_ip_count column
            for _ in &rows {
                // median_cert_lifetime_days option
                if d.u8()? == 1 {
                    d.take(8)?;
                }
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // with_expired_ases
            }
            for _ in &rows {
                take_u32_run(&mut d)?; // with_expired_ips
            }
        }

        d.take(n * 8)?; // cert_records_seen column
        d.take(n * 8)?; // banners_seen column
        for _ in 0..n {
            let k = d.count(9)?;
            d.take(k * 9)?; // quarantined entries
        }
        for _ in 0..n {
            let k = d.count(8)?;
            d.take(k * 8)?; // degraded_hgs (two pooled syms each)
        }
        for _ in 0..n {
            // degraded_snapshot option (pooled sym)
            if d.u8()? == 1 {
                d.take(4)?;
            }
        }
        d.take(n)?; // empty_cert_snapshot bools
        for _ in 0..n {
            skip_health(&mut d)?;
        }

        let mut netflix: [Vec<u64>; 3] = Default::default();
        for column in netflix.iter_mut() {
            let k = d.count(8)?;
            for _ in 0..k {
                column.push(d.u64()?);
            }
        }
        take_u32_run(&mut d)?; // netflix_ip_history
        let n_fps = d.count(8)?;
        for _ in 0..n_fps {
            d.take(12)?; // keyword sym + support
            let pairs = d.count(8)?;
            d.take(pairs * 8)?; // two pooled syms each
            let names = d.count(4)?;
            d.take(names * 4)?;
        }
        let n_reports = d.count(24)?;
        d.take(n_reports * 8)?; // snapshot_idx column
        d.take(n_reports * 16)?; // chains_replayed + chains_revalidated
        d.finish()?;
        Ok(ArtifactTables {
            engine,
            snapshot_idxs,
            confirmed,
            candidate,
            netflix,
        })
    }

    pub fn engine(&self) -> EngineId {
        self.engine
    }

    /// Processed snapshots (query rows).
    pub fn n_rows(&self) -> usize {
        self.snapshot_idxs.len()
    }

    /// Snapshot index per row, ascending.
    pub fn snapshot_idxs(&self) -> &[u32] {
        &self.snapshot_idxs
    }

    /// Confirmed-AS run for one snapshot-major cell, decoded on the fly
    /// from the borrowed slice (already ascending — it was written from a
    /// `BTreeSet`).
    pub fn confirmed_cell(&self, cell: usize) -> impl Iterator<Item = u32> + 'a {
        iter_le_u32(self.confirmed[cell])
    }

    /// Candidate-AS run for one snapshot-major cell.
    pub fn candidate_cell(&self, cell: usize) -> impl Iterator<Item = u32> + 'a {
        iter_le_u32(self.candidate[cell])
    }

    /// The §6.2 Netflix `(initial, with_expired, with_non_tls)` columns.
    pub fn netflix_columns(&self) -> &[Vec<u64>; 3] {
        &self.netflix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::RecordError;
    use crate::validate::InvalidReason;
    use proptest::prelude::*;
    use scanner::TransientClass;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use x509::ChainError;

    /// A process-unique temp path per test.
    fn temp_artifact_path() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "offnet-artifact-test-{}-{}/study.offna",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn canonical_bytes(a: &StudyArtifact) -> Vec<u8> {
        encode_payload(
            a.engine,
            &a.snapshots,
            &a.netflix,
            &a.netflix_ip_history,
            &a.header_fps,
            &a.reports,
        )
    }

    /// An artifact exercising every codec branch: present and absent HG
    /// cells, every quality map, pooled strings shared across snapshots,
    /// header fingerprints, and reuse reports.
    fn dense_artifact() -> StudyArtifact {
        let mut a = SnapshotResult {
            snapshot_idx: 3,
            total_ips_with_certs: 10_000,
            n_ases_with_certs: 200,
            ..Default::default()
        };
        a.validation.total_records = 11_000;
        a.validation.valid = 10_500;
        a.validation.invalid.insert(InvalidReason::Malformed, 9);
        a.validation
            .invalid
            .insert(InvalidReason::Chain(ChainError::Expired), 31);
        let cell = HgSnapshotResult {
            candidate_ases: [AsId(10), AsId(20), AsId(30)].into_iter().collect(),
            confirmed_ases: [AsId(10), AsId(20)].into_iter().collect(),
            confirmed_and_ases: [AsId(10)].into_iter().collect(),
            candidate_ips: vec![1, 2, 3],
            confirmed_ips: vec![1, 2],
            cert_ip_groups: vec![7, 2, 1],
            onnet_ip_count: 44,
            median_cert_lifetime_days: Some(90.25),
            with_expired_ases: [AsId(10), AsId(20), AsId(40)].into_iter().collect(),
            with_expired_ips: vec![1, 2, 9],
        };
        a.per_hg.insert(Hg::Google, cell.clone());
        a.per_hg.insert(Hg::Netflix, cell.clone());
        a.http_only_ips = vec![5, 6];
        a.quality.cert_records_seen = 11_000;
        a.quality.add(RecordError::MalformedDer, 9);
        a.quality
            .degraded_hgs
            .insert("Google".to_owned(), "boom".to_owned());
        a.quality.scan.targets = 400;
        a.quality.scan.attempts = 410;
        a.quality.scan.retries = 10;
        a.quality.scan.base_lost.insert(TransientClass::Timeout, 2);
        a.quality.scan.backoff_wait_s = 12;

        let mut b = SnapshotResult {
            snapshot_idx: 4,
            ..Default::default()
        };
        b.per_hg.insert(Hg::Netflix, cell);
        // A repeated string must intern to one pool entry.
        b.quality
            .degraded_hgs
            .insert("Google".to_owned(), "boom".to_owned());
        b.quality.degraded_snapshot = Some("worker panic".to_owned());
        b.quality.empty_cert_snapshot = true;

        let mut header_fps = HeaderFingerprints::default();
        header_fps.insert(HeaderFingerprint {
            keyword: "google".to_owned(),
            pairs: vec![("server".to_owned(), "gws".to_owned())],
            names: vec!["alt-svc".to_owned()],
            support: 120,
        });
        header_fps.insert(HeaderFingerprint {
            keyword: "netflix".to_owned(),
            pairs: vec![("via".to_owned(), String::new())],
            names: vec![],
            support: 33,
        });

        StudyArtifact {
            engine: EngineId::Rapid7,
            fingerprint: 0x1234_5678_9abc_def0,
            snapshots: vec![a, b],
            netflix: NetflixVariants {
                initial: vec![3, 4],
                with_expired: vec![5, 6],
                with_non_tls: vec![5, 7],
            },
            netflix_ip_history: vec![1, 2, 9],
            header_fps,
            reports: vec![DeltaReport::new(3, 0, 800), DeltaReport::new(4, 700, 100)],
        }
    }

    #[test]
    fn file_round_trip_is_exact() {
        let path = temp_artifact_path();
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();
        let loaded = StudyArtifact::load(&path).unwrap();
        // No `PartialEq` on the payload structs; canonical-bytes equality
        // is the codec's own (stronger) notion of identity.
        assert_eq!(canonical_bytes(&loaded), canonical_bytes(&artifact));
        assert_eq!(loaded.fingerprint, artifact.fingerprint);
        assert_eq!(loaded.engine, EngineId::Rapid7);
        assert_eq!(loaded.snapshots.len(), 2);
        assert_eq!(
            loaded.snapshots[0].per_hg[&Hg::Google].median_cert_lifetime_days,
            Some(90.25)
        );
        assert!(!loaded.snapshots[1].per_hg.contains_key(&Hg::Google));
        assert_eq!(loaded.netflix_ip_history, vec![1, 2, 9]);
        assert_eq!(loaded.reports.len(), 2);
        assert_eq!(loaded.reports[1].chains_replayed, 700);
        assert_eq!(
            loaded.header_fps.get("google").unwrap().pairs,
            vec![("server".to_owned(), "gws".to_owned())]
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn borrowed_tables_match_the_full_decode() {
        let path = temp_artifact_path();
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();
        let (fp, payload) = read_artifact_payload(&path).unwrap();
        assert_eq!(fp, artifact.fingerprint);
        let tables = ArtifactTables::parse(&payload, &path).unwrap();
        assert_eq!(tables.engine(), artifact.engine);
        assert_eq!(tables.n_rows(), artifact.snapshots.len());
        for (row, snap) in artifact.snapshots.iter().enumerate() {
            assert_eq!(tables.snapshot_idxs()[row] as usize, snap.snapshot_idx);
            for (hg_i, hg) in ALL_HGS.iter().enumerate() {
                let cell = row * ALL_HGS.len() + hg_i;
                let confirmed: Vec<u32> = tables.confirmed_cell(cell).collect();
                let candidate: Vec<u32> = tables.candidate_cell(cell).collect();
                let expect = |set: Option<&BTreeSet<AsId>>| -> Vec<u32> {
                    set.into_iter().flatten().map(|a| a.0).collect()
                };
                let h = snap.per_hg.get(hg);
                assert_eq!(confirmed, expect(h.map(|h| &h.confirmed_ases)));
                assert_eq!(candidate, expect(h.map(|h| &h.candidate_ases)));
            }
        }
        let nf = tables.netflix_columns();
        assert_eq!(nf[0], vec![3, 4]);
        assert_eq!(nf[2], vec![5, 7]);

        // The skipping walk still validates: corrupt payloads are typed.
        let mut bad = payload.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        // (Checksum already caught at envelope level; parse the raw bytes
        // directly to exercise the walk's own bounds checks.)
        let _ = ArtifactTables::parse(&bad, &path); // must not panic
        let truncated = &payload[..payload.len() - 9];
        assert!(ArtifactTables::parse(truncated, &path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn corruption_and_truncation_are_typed_not_a_panic() {
        let path = temp_artifact_path();
        dense_artifact().write(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bytes = clean.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = StudyArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
        assert!(err.to_string().ends_with(REMEDY), "{err}");

        // Truncate: declared length exceeds the file.
        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        assert!(matches!(
            StudyArtifact::load(&path).unwrap_err(),
            ArtifactError::Corrupt { .. }
        ));

        // Garbage magic.
        std::fs::write(&path, b"NOTANART-xxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        let err = StudyArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::BadMagic { .. }), "{err}");
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn version_and_config_mismatches_are_typed() {
        let path = temp_artifact_path();
        dense_artifact().write(&path).unwrap();

        let err = StudyArtifact::load_expecting(&path, 99).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::ConfigMismatch {
                    found: 0x1234_5678_9abc_def0,
                    expected: 99,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        // Without an expectation the carried fingerprint is accepted.
        assert!(StudyArtifact::load(&path).is_ok());

        // Patch the version field (before the checksummed payload).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&77u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = StudyArtifact::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::VersionMismatch {
                    found: 77,
                    expected: ARTIFACT_VERSION,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().ends_with(REMEDY), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn builder_adopts_its_own_artifact_exactly() {
        let path = temp_artifact_path();
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();
        let mut builder = ArtifactBuilder::new(
            artifact.engine,
            artifact.header_fps.clone(),
            artifact.fingerprint,
        );
        assert_eq!(builder.adopt_from_path(&path).unwrap(), 2);
        assert_eq!(
            canonical_bytes(&builder.artifact()),
            canonical_bytes(&artifact)
        );
        // Adopting into a non-empty builder only attaches the path.
        let mut busy = ArtifactBuilder::new(
            artifact.engine,
            artifact.header_fps.clone(),
            artifact.fingerprint,
        );
        busy.adopt_checkpoint(&SnapshotCheckpoint::skipped(0, vec![1]));
        busy.push_report(DeltaReport::new(0, 0, 0));
        let before = busy.reports().len();
        assert_eq!(busy.adopt_from_path(&path).unwrap(), 0);
        assert_eq!(busy.reports().len(), before);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Deterministic structured generator (splitmix64): the shimmed
    /// proptest drives scalars, each seed maps to one randomized
    /// artifact.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn as_set(&mut self) -> BTreeSet<AsId> {
            (0..self.below(8))
                .map(|_| AsId(self.below(500) as u32))
                .collect()
        }

        fn ips(&mut self) -> Vec<u32> {
            (0..self.below(6))
                .map(|_| self.below(1 << 20) as u32)
                .collect()
        }

        fn string(&mut self) -> String {
            // A tiny vocabulary on purpose: repeated strings must intern.
            const WORDS: [&str; 5] = ["google", "netflix", "boom", "worker panic", ""];
            WORDS[self.below(WORDS.len() as u64) as usize].to_owned()
        }

        fn artifact(&mut self) -> StudyArtifact {
            let n = self.below(4) as usize;
            let mut snapshots = Vec::with_capacity(n);
            for t in 0..n {
                let mut s = SnapshotResult {
                    snapshot_idx: t,
                    total_ips_with_certs: self.below(10_000) as usize,
                    n_ases_with_certs: self.below(300) as usize,
                    ..Default::default()
                };
                s.validation.total_records = self.below(10_000) as usize;
                if self.below(2) == 1 {
                    s.validation.invalid.insert(
                        InvalidReason::Chain(ChainError::Expired),
                        self.below(50) as usize,
                    );
                }
                for hg in [Hg::Google, Hg::Netflix, Hg::Akamai] {
                    if hg == Hg::Netflix || self.below(2) == 1 {
                        s.per_hg.insert(
                            hg,
                            HgSnapshotResult {
                                candidate_ases: self.as_set(),
                                confirmed_ases: self.as_set(),
                                confirmed_and_ases: self.as_set(),
                                candidate_ips: self.ips(),
                                confirmed_ips: self.ips(),
                                cert_ip_groups: self.ips(),
                                onnet_ip_count: self.below(100) as usize,
                                median_cert_lifetime_days: if self.below(2) == 1 {
                                    Some(self.below(1000) as f64 / 4.0)
                                } else {
                                    None
                                },
                                with_expired_ases: self.as_set(),
                                with_expired_ips: self.ips(),
                            },
                        );
                    }
                }
                s.http_only_ips = self.ips();
                s.quality.cert_records_seen = self.below(10_000) as usize;
                if self.below(2) == 1 {
                    s.quality
                        .add(RecordError::MalformedDer, self.below(20) as usize);
                }
                if self.below(2) == 1 {
                    let (hg, msg) = (self.string(), self.string());
                    s.quality.degraded_hgs.insert(hg, msg);
                }
                if self.below(3) == 0 {
                    s.quality.degraded_snapshot = Some(self.string());
                }
                s.quality.scan.targets = self.below(1000) as usize;
                if self.below(2) == 1 {
                    s.quality
                        .scan
                        .gave_up
                        .insert(TransientClass::RateLimited, self.below(9) as usize);
                }
                snapshots.push(s);
            }
            let mut header_fps = HeaderFingerprints::default();
            for _ in 0..self.below(3) {
                let keyword = self.string();
                if keyword.is_empty() {
                    continue;
                }
                header_fps.insert(HeaderFingerprint {
                    keyword,
                    pairs: vec![(self.string(), self.string())],
                    names: vec![self.string()],
                    support: self.below(200) as usize,
                });
            }
            let reports = if self.below(2) == 1 {
                (0..n)
                    .map(|t| DeltaReport::new(t, self.below(1000), self.below(1000)))
                    .collect()
            } else {
                Vec::new()
            };
            StudyArtifact {
                engine: EngineId::Censys,
                fingerprint: self.next(),
                snapshots,
                netflix: NetflixVariants {
                    initial: (0..n).map(|_| self.below(50) as usize).collect(),
                    with_expired: (0..n).map(|_| self.below(80) as usize).collect(),
                    with_non_tls: (0..n).map(|_| self.below(99) as usize).collect(),
                },
                netflix_ip_history: {
                    let mut v = self.ips();
                    v.sort_unstable();
                    v.dedup();
                    v
                },
                header_fps,
                reports,
            }
        }
    }

    proptest! {
        /// Build → write → load → re-encode is the identity on canonical
        /// bytes (the round-trip law behind the render byte-identity that
        /// `tests/artifact.rs` pins end to end).
        #[test]
        fn artifact_round_trips(seed in any::<u64>()) {
            let artifact = Gen(seed).artifact();
            let path = temp_artifact_path();
            artifact.write(&path).unwrap();
            let loaded = StudyArtifact::load(&path).unwrap();
            prop_assert_eq!(canonical_bytes(&loaded), canonical_bytes(&artifact));
            prop_assert_eq!(loaded.fingerprint, artifact.fingerprint);
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
