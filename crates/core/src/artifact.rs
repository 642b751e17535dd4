//! The study log: the one on-disk form of a study's results. Every study
//! mode appends to it as snapshots complete, a relaunched study resumes
//! from it, and rendering ([`StudyArtifact`]) and queries
//! ([`ArtifactTables`]) read it. DESIGN.md §16 gives the full rules.
//!
//! ```text
//! header   magic "OFFNARTF" · version u32 · config fingerprint u64
//!          · body length u64 · body · SHA-256(every header byte before it)
//! record   body length u64 · !body length u64 · body · SHA-256(body)
//!          … one per snapshot, in snapshot order
//! ```
//!
//! The header (the codec's envelope, created once by temp + rename)
//! holds the engine and the learned header fingerprints. A record holds
//! the snapshot index and whether the engine covered it; for a covered
//! snapshot also the §6.2 Netflix triple, the incremental mode's cache
//! counters when present, and the full [`SnapshotResult`]. Its integer
//! lists (the AS sets, the IP lists, the certificate groups and the
//! HTTP-only IPs) are the codec's delta-varint runs; every other field is
//! fixed-width. An append writes only its own record. The length's
//! complement tells a damaged length from a record cut short.
//!
//! The §6.2 certificate-history IP set is not stored: it is the union of
//! the Netflix `confirmed_ips ∪ with_expired_ips` over the records.
//! Resume adopts the longest valid prefix that continues the run's range
//! and cuts a torn tail off before its first append; a damaged complete
//! record, a log that cannot continue the range, or a file changed under
//! the writer is a typed [`ArtifactError::Corrupt`]. Readers are strict:
//! for them a torn tail is `Corrupt` too.

use crate::codec::{
    self, decode_validation, encode_validation, engine_from_tag, engine_tag, mix, mix_world_engine,
    record_error_tag, transient_tag, ArtifactError, Dec, Enc, EnvelopeIssue, RECORD_ERRORS,
};
use crate::errors::DataQualityReport;
use crate::headers::{HeaderFingerprint, HeaderFingerprints};
use crate::pipeline::{HgSnapshotResult, SnapshotResult};
use crate::study::{DeltaReport, NetflixVariants, StudyConfig, StudySeries};
use hgsim::{Hg, HgWorld, ALL_HGS};
use netsim::AsId;
use scanner::{EngineId, ScanEngine, ScanHealth, TransientClass};
use sha2sim::Sha256;
use std::collections::{BTreeSet, HashSet};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// Current study log format version. Bump on any layout change. Version
/// 3 replaced the whole-file columnar artifact with the append-only log;
/// version 4 stores a record's integer lists as delta-varint runs.
pub const ARTIFACT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"OFFNARTF";

/// Record framing: the body length and its complement before the body,
/// its SHA-256 after.
const FRAME_HEAD: usize = 16;
const FRAME_TAIL: usize = 32;

/// Digest everything that shapes a study's rendered output — world
/// scenario, engine identity and plans, pipeline knobs — into the log's
/// config fingerprint. The snapshot range, study mode, sharding and log
/// path are excluded: none changes a record.
pub fn artifact_fingerprint(world: &HgWorld, engine: &ScanEngine, config: &StudyConfig) -> u64 {
    let mut h = mix(0x0ff5_e7c4_ecb9_0a17);
    h = mix(h ^ u64::from(ARTIFACT_VERSION));
    h = mix_world_engine(h, world, engine);
    h = mix(h ^ config.header_reference_snapshot as u64);
    let confirm = match config.confirm_mode {
        crate::confirm::ConfirmMode::HttpOrHttps => 1,
        crate::confirm::ConfirmMode::HttpAndHttps => 2,
    };
    let candidate = u64::from(config.candidate_options.require_san_subset)
        | u64::from(config.candidate_options.cloudflare_filter) << 1;
    mix(h ^ confirm ^ candidate << 8)
}

/// The order-dependent §6.2 Netflix fold, shared by every study mode:
/// per snapshot it pushes the three footprint variants and grows the
/// certificate-history IP set the non-TLS restoration consults.
#[derive(Debug, Clone, Default)]
struct NetflixFold {
    variants: NetflixVariants,
    ip_history: HashSet<u32>,
}

impl NetflixFold {
    /// Fold one snapshot's result. `origins_of` maps an HTTP-only IP to
    /// its AS origins at this snapshot. Returns the `(initial,
    /// with_expired, with_non_tls)` triple pushed.
    fn push(
        &mut self,
        result: &SnapshotResult,
        origins_of: impl Fn(u32) -> Vec<AsId>,
    ) -> (usize, usize, usize) {
        let nf = &result.per_hg[&Hg::Netflix];
        // Non-TLS restoration: HTTP-only IPs with Netflix certificate
        // history map back to their ASes.
        let mut with_non_tls: BTreeSet<AsId> = nf.with_expired_ases.clone();
        for &ip in &result.http_only_ips {
            if self.ip_history.contains(&ip) {
                with_non_tls.extend(origins_of(ip));
            }
        }
        let triple = (
            nf.confirmed_ases.len(),
            nf.with_expired_ases.len(),
            with_non_tls.len(),
        );
        self.adopt(triple, result);
        triple
    }

    /// Fold in a snapshot whose triple was already computed.
    fn adopt(
        &mut self,
        (initial, with_expired, with_non_tls): (usize, usize, usize),
        result: &SnapshotResult,
    ) {
        self.variants.initial.push(initial);
        self.variants.with_expired.push(with_expired);
        self.variants.with_non_tls.push(with_non_tls);
        self.remember(result);
    }

    /// Grow the certificate history with one snapshot's Netflix IPs.
    fn remember(&mut self, result: &SnapshotResult) {
        if let Some(nf) = result.per_hg.get(&Hg::Netflix) {
            self.ip_history.extend(nf.with_expired_ips.iter().copied());
            self.ip_history.extend(nf.confirmed_ips.iter().copied());
        }
    }
}

/// A loaded study log: everything the rendered study is a function of,
/// plus the reuse counters the incremental mode recorded.
#[derive(Debug, Clone)]
pub struct StudyArtifact {
    pub engine: EngineId,
    /// The config fingerprint the log carries (see
    /// [`artifact_fingerprint`]).
    pub fingerprint: u64,
    /// One entry per processed snapshot, in order.
    pub snapshots: Vec<SnapshotResult>,
    pub netflix: NetflixVariants,
    pub header_fps: HeaderFingerprints,
    /// The reuse counters of the records that carry them (the incremental
    /// mode writes them). Never rendered into the canonical study output.
    pub reports: Vec<DeltaReport>,
}

impl StudyArtifact {
    /// View the log as the in-memory series every renderer consumes.
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

    /// Atomically write these results as a complete log (temp file +
    /// rename; parent directories are created). Gaps between snapshot
    /// indices become skip markers; the i-th snapshot carries the i-th
    /// Netflix variant values and the report with its index, if any.
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        let mut bytes = header_bytes(self.engine, &self.header_fps, self.fingerprint);
        let mut next = None;
        for (row, snap) in self.snapshots.iter().enumerate() {
            let t = snap.snapshot_idx;
            let first = next.unwrap_or(t);
            if t < first {
                return Err(ArtifactError::corrupt(path, "snapshots out of order"));
            }
            for skipped in first..t {
                bytes.extend(encode_record(skipped, None));
            }
            let nf = |col: &[usize]| col.get(row).copied().unwrap_or(0);
            let triple = (
                nf(&self.netflix.initial),
                nf(&self.netflix.with_expired),
                nf(&self.netflix.with_non_tls),
            );
            let report = self.reports.iter().find(|r| r.snapshot_idx == t).copied();
            bytes.extend(encode_record(t, Some((snap, triple, report))));
            next = Some(t + 1);
        }
        codec::write_atomic(path, &bytes)
    }

    /// Load a complete log, accepting whatever config fingerprint it
    /// carries (the query layer serves any valid log). A torn tail is
    /// `Corrupt`.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
        let view = LogView::split(&bytes, path, true)?;
        let mut artifact = StudyArtifact {
            engine: view.engine,
            fingerprint: view.fingerprint,
            snapshots: Vec::new(),
            netflix: NetflixVariants::default(),
            header_fps: decode_header_fps(view.header_fps, path)?,
            reports: Vec::new(),
        };
        for body in view.records {
            let (_, Some((result, (initial, with_expired, with_non_tls), report))) =
                decode_record(body, path)?
            else {
                continue;
            };
            artifact.netflix.initial.push(initial);
            artifact.netflix.with_expired.push(with_expired);
            artifact.netflix.with_non_tls.push(with_non_tls);
            artifact.reports.extend(report);
            artifact.snapshots.push(result);
        }
        Ok(artifact)
    }
}

/// Read a study log and check its header, returning the config
/// fingerprint and the whole file, undecoded. Pair with
/// [`ArtifactTables::parse`] for the borrowed-load path
/// ([`StudyArtifact::load`] is the full decode).
pub fn read_artifact_payload(path: &Path) -> Result<(u64, Vec<u8>), ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| ArtifactError::io(path, e))?;
    let (fingerprint, _, _) = codec::split_envelope(&bytes, MAGIC, ARTIFACT_VERSION)
        .map_err(|issue| header_error(issue, path))?;
    Ok((fingerprint, bytes))
}

fn header_error(issue: EnvelopeIssue, path: &Path) -> ArtifactError {
    match issue {
        EnvelopeIssue::Io(e) => ArtifactError::io(path, e),
        EnvelopeIssue::BadMagic => ArtifactError::BadMagic {
            path: path.to_path_buf(),
        },
        EnvelopeIssue::BadVersion { found } => ArtifactError::VersionMismatch {
            path: path.to_path_buf(),
            found,
            expected: ARTIFACT_VERSION,
        },
        EnvelopeIssue::Corrupt(detail) => ArtifactError::corrupt(path, detail),
    }
}

/// A snapshot a study log recorded, as [`ArtifactBuilder::open_log`]
/// adopts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adopted {
    pub snapshot_idx: usize,
    /// False for a snapshot the engine's corpus did not cover.
    pub processed: bool,
    /// The reuse counters the record carries, if any.
    pub report: Option<DeltaReport>,
}

/// The shared accumulator behind every study mode: snapshot results,
/// the §6.2 Netflix fold, the incremental reuse reports, and the study
/// log they are appended to, so a study cannot drift from its log.
#[derive(Debug, Clone)]
pub struct ArtifactBuilder {
    engine: EngineId,
    fingerprint: u64,
    header_fps: HeaderFingerprints,
    snapshots: Vec<SnapshotResult>,
    fold: NetflixFold,
    reports: Vec<DeltaReport>,
    log: Option<LogWriter>,
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
            log: None,
        }
    }

    /// Open the study log at `path` for a run over `range` and adopt what
    /// it holds, replacing whatever the builder held. A missing log is
    /// created with just its header. Otherwise the header must carry this
    /// builder's fingerprint, a torn tail is cut off, and the records
    /// must continue the range: records before its start feed only the
    /// fold's history, and records inside it are adopted and returned.
    pub fn open_log(
        &mut self,
        path: PathBuf,
        range: RangeInclusive<usize>,
    ) -> Result<Vec<Adopted>, ArtifactError> {
        self.snapshots.clear();
        self.fold = NetflixFold::default();
        self.reports.clear();
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let header = header_bytes(self.engine, &self.header_fps, self.fingerprint);
                codec::write_atomic(&path, &header)?;
                header
            }
            read => read.map_err(|e| ArtifactError::io(&path, e))?,
        };
        let view = LogView::split(&bytes, &path, false)?;
        if view.fingerprint != self.fingerprint {
            return Err(ArtifactError::ConfigMismatch {
                path,
                found: view.fingerprint,
                expected: self.fingerprint,
            });
        }
        let records = view
            .records
            .iter()
            .map(|body| decode_record(body, &path))
            .collect::<Result<Vec<_>, _>>()?;
        let next = records.last().map(|(t, _)| t + 1);
        if let (Some(&(first, _)), Some(next)) = (records.first(), next) {
            if !(first..=next).contains(range.start()) {
                return Err(ArtifactError::corrupt(
                    &path,
                    format!(
                        "it holds snapshots {first}..{next}, which a run from snapshot {} cannot continue",
                        range.start()
                    ),
                ));
            }
        }
        if view.valid_len < bytes.len() {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(view.valid_len as u64))
                .map_err(|e| ArtifactError::io(&path, e))?;
        }

        let mut adopted = Vec::new();
        for (t, recorded) in records {
            match recorded {
                Some((result, _, _)) if t < *range.start() => self.fold.remember(&result),
                _ if !range.contains(&t) => {}
                None => adopted.push(Adopted {
                    snapshot_idx: t,
                    processed: false,
                    report: None,
                }),
                Some((result, netflix, report)) => {
                    self.fold.adopt(netflix, &result);
                    self.snapshots.push(result);
                    adopted.push(Adopted {
                        snapshot_idx: t,
                        processed: true,
                        report,
                    });
                }
            }
        }
        self.log = Some(LogWriter {
            path,
            len: view.valid_len as u64,
            next,
        });
        Ok(adopted)
    }

    /// Fold one snapshot's result in (§6.2 Netflix variants included) and
    /// keep it. Writes nothing. Returns the Netflix triple pushed.
    pub fn push_snapshot(
        &mut self,
        result: SnapshotResult,
        origins_of: impl Fn(u32) -> Vec<AsId>,
    ) -> (usize, usize, usize) {
        let triple = self.fold.push(&result, origins_of);
        self.snapshots.push(result);
        triple
    }

    /// The record path: push snapshot `t`'s result and reuse report, and
    /// append its record to the log when one is open.
    pub fn record(
        &mut self,
        t: usize,
        result: SnapshotResult,
        report: Option<DeltaReport>,
        origins_of: impl Fn(u32) -> Vec<AsId>,
    ) -> Result<(), ArtifactError> {
        let netflix = self.push_snapshot(result, origins_of);
        self.reports.extend(report);
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let result = self.snapshots.last().expect("pushed above");
        log.append(t, &encode_record(t, Some((result, netflix, report))))
    }

    /// Append a marker for snapshot `t`, which the engine's corpus does
    /// not cover, when a log is open.
    pub(crate) fn record_skip(&mut self, t: usize) -> Result<(), ArtifactError> {
        match &mut self.log {
            Some(log) => log.append(t, &encode_record(t, None)),
            None => Ok(()),
        }
    }

    /// Record an adopted snapshot's reuse report.
    pub(crate) fn push_report(&mut self, report: DeltaReport) {
        self.reports.push(report);
    }

    pub fn reports(&self) -> &[DeltaReport] {
        &self.reports
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

/// The append end of an open log.
#[derive(Debug, Clone)]
struct LogWriter {
    path: PathBuf,
    /// The log's length after this writer's last append. Another length
    /// means the file changed under the writer — a clone of the engine
    /// appended, say.
    len: u64,
    /// The snapshot the next record must hold (`None`: the log is empty).
    next: Option<usize>,
}

impl LogWriter {
    fn append(&mut self, t: usize, record: &[u8]) -> Result<(), ArtifactError> {
        if let Some(next) = self.next.filter(|&n| n != t) {
            return Err(ArtifactError::corrupt(
                &self.path,
                format!("the next record must hold snapshot {next}, not {t}"),
            ));
        }
        let io = |e| ArtifactError::io(&self.path, e);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(io)?;
        let found = f.metadata().map_err(io)?.len();
        if found != self.len {
            return Err(ArtifactError::corrupt(
                &self.path,
                format!(
                    "it is {found} bytes where this writer left {}: it changed under the writer",
                    self.len
                ),
            ));
        }
        f.write_all(record).map_err(io)?;
        self.len += record.len() as u64;
        self.next = Some(t + 1);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reading: one verified split of the log's bytes, shared by every reader.
// ---------------------------------------------------------------------------

/// A log's bytes split into its header fields and verified record bodies.
struct LogView<'a> {
    fingerprint: u64,
    engine: EngineId,
    /// The encoded header fingerprints, decoded only by the reader that
    /// returns them.
    header_fps: &'a [u8],
    records: Vec<&'a [u8]>,
    /// The header plus every complete record; shorter than the file when
    /// the final record is torn.
    valid_len: usize,
}

impl<'a> LogView<'a> {
    /// Verify the header, then every complete record's length, checksum
    /// and snapshot order. A final record that runs past the end (a torn
    /// tail) ends the walk (`valid_len` tells), or is `Corrupt` when
    /// `strict`.
    fn split(bytes: &'a [u8], path: &Path, strict: bool) -> Result<Self, ArtifactError> {
        let (fingerprint, header, mut rest) = codec::split_envelope(bytes, MAGIC, ARTIFACT_VERSION)
            .map_err(|issue| header_error(issue, path))?;
        let (&tag, header_fps) = header
            .split_first()
            .ok_or_else(|| ArtifactError::corrupt(path, "empty header"))?;
        let engine = engine_from_tag(tag)
            .ok_or_else(|| ArtifactError::corrupt(path, format!("bad engine tag {tag}")))?;

        let mut records: Vec<&'a [u8]> = Vec::new();
        let mut first = 0u64;
        while rest.len() >= FRAME_HEAD {
            let k = records.len();
            let mut d = Dec::new(rest, path);
            let (len, check) = (d.u64()?, d.u64()?);
            if check != !len {
                return Err(d.corrupt(format!("record {k}'s length field is damaged")));
            }
            let body_len = usize::try_from(len).unwrap_or(usize::MAX);
            let framed = body_len.saturating_add(FRAME_HEAD + FRAME_TAIL);
            if framed > rest.len() {
                break;
            }
            let (body, sum) = rest[FRAME_HEAD..framed].split_at(body_len);
            if Sha256::digest(body)[..] != *sum {
                return Err(d.corrupt(format!("record {k} checksum mismatch")));
            }
            let t = Dec::new(body, path).u64()?;
            if k == 0 {
                first = t;
            } else if t != first.saturating_add(k as u64) {
                return Err(d.corrupt(format!("record {k} holds snapshot {t} out of order")));
            }
            records.push(body);
            rest = &rest[framed..];
        }
        if strict && !rest.is_empty() {
            return Err(ArtifactError::corrupt(
                path,
                format!("the log ends {} bytes into a record", rest.len()),
            ));
        }
        Ok(LogView {
            fingerprint,
            engine,
            header_fps,
            records,
            valid_len: bytes.len() - rest.len(),
        })
    }
}

// ---------------------------------------------------------------------------
// The record codec (row-wise).
// ---------------------------------------------------------------------------

fn header_bytes(engine: EngineId, fps: &HeaderFingerprints, fingerprint: u64) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(engine_tag(engine));
    // Canonicalized by keyword.
    let mut fps: Vec<&HeaderFingerprint> = fps.iter().collect();
    fps.sort_by(|a, b| a.keyword.cmp(&b.keyword));
    e.usize(fps.len());
    for fp in fps {
        e.str(&fp.keyword);
        e.usize(fp.support);
        e.usize(fp.pairs.len());
        for (name, value) in &fp.pairs {
            e.str(name);
            e.str(value);
        }
        e.usize(fp.names.len());
        for name in &fp.names {
            e.str(name);
        }
    }
    codec::envelope(MAGIC, ARTIFACT_VERSION, fingerprint, &e.buf)
}

fn decode_header_fps(bytes: &[u8], path: &Path) -> Result<HeaderFingerprints, ArtifactError> {
    let mut d = Dec::new(bytes, path);
    let mut fps = HeaderFingerprints::default();
    for _ in 0..d.count(24)? {
        let keyword = d.str()?;
        let support = d.usize()?;
        let pairs = (0..d.count(16)?)
            .map(|_| Ok((d.str()?, d.str()?)))
            .collect::<Result<_, ArtifactError>>()?;
        let names = (0..d.count(8)?)
            .map(|_| d.str())
            .collect::<Result<_, _>>()?;
        fps.insert(HeaderFingerprint {
            keyword,
            pairs,
            names,
            support,
        });
    }
    d.finish()?;
    Ok(fps)
}

/// The §6.2 Netflix `(initial, with_expired, with_non_tls)` triple.
type NetflixTriple = (usize, usize, usize);

/// A covered snapshot's record: its result, Netflix triple, and reuse
/// counters when present.
type Recorded = (SnapshotResult, NetflixTriple, Option<DeltaReport>);

/// One framed record: length, complement, body, checksum.
fn encode_record(
    t: usize,
    recorded: Option<(&SnapshotResult, NetflixTriple, Option<DeltaReport>)>,
) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.resize(FRAME_HEAD, 0);
    e.usize(t);
    e.bool(recorded.is_some());
    if let Some((result, (initial, with_expired, with_non_tls), report)) = recorded {
        e.usize(initial);
        e.usize(with_expired);
        e.usize(with_non_tls);
        e.bool(report.is_some());
        if let Some(r) = report {
            e.u64(r.chains_replayed);
            e.u64(r.chains_revalidated);
        }
        encode_result(&mut e, result);
    }
    let len = (e.buf.len() - FRAME_HEAD) as u64;
    e.buf[..8].copy_from_slice(&len.to_le_bytes());
    e.buf[8..FRAME_HEAD].copy_from_slice(&(!len).to_le_bytes());
    let sum = Sha256::digest(&e.buf[FRAME_HEAD..]);
    e.buf.extend_from_slice(&sum);
    e.buf
}

/// A record's snapshot index, and what it recorded unless the snapshot
/// was skipped.
fn decode_record(body: &[u8], path: &Path) -> Result<(usize, Option<Recorded>), ArtifactError> {
    let mut d = Dec::new(body, path);
    let t = d.usize()?;
    let recorded = if d.bool()? {
        let netflix = (d.usize()?, d.usize()?, d.usize()?);
        let report = if d.bool()? {
            Some(DeltaReport::new(t, d.u64()?, d.u64()?))
        } else {
            None
        };
        Some((decode_result(&mut d)?, netflix, report))
    } else {
        None
    };
    d.finish()?;
    Ok((t, recorded))
}

fn encode_result(e: &mut Enc, r: &SnapshotResult) {
    e.usize(r.snapshot_idx);
    e.usize(r.total_ips_with_certs);
    e.usize(r.n_ases_with_certs);
    encode_validation(e, &r.validation);
    // `per_hg` is a HashMap: canonicalize to ALL_HGS order with a
    // presence flag per HG.
    for hg in ALL_HGS {
        let cell = r.per_hg.get(&hg);
        e.bool(cell.is_some());
        if let Some(h) = cell {
            encode_hg_result(e, h);
        }
    }
    e.run(r.http_only_ips.iter().copied());
    encode_quality(e, &r.quality);
}

fn decode_result(d: &mut Dec) -> Result<SnapshotResult, ArtifactError> {
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
    Ok(SnapshotResult {
        snapshot_idx,
        total_ips_with_certs,
        n_ases_with_certs,
        validation,
        per_hg,
        http_only_ips: d.run()?,
        quality: decode_quality(d)?,
    })
}

fn encode_hg_result(e: &mut Enc, h: &HgSnapshotResult) {
    e.as_set(&h.candidate_ases);
    e.as_set(&h.confirmed_ases);
    e.as_set(&h.confirmed_and_ases);
    e.run(h.candidate_ips.iter().copied());
    e.run(h.confirmed_ips.iter().copied());
    e.run(h.cert_ip_groups.iter().copied());
    e.usize(h.onnet_ip_count);
    e.bool(h.median_cert_lifetime_days.is_some());
    if let Some(v) = h.median_cert_lifetime_days {
        e.f64(v);
    }
    e.as_set(&h.with_expired_ases);
    e.run(h.with_expired_ips.iter().copied());
}

fn decode_hg_result(d: &mut Dec) -> Result<HgSnapshotResult, ArtifactError> {
    Ok(HgSnapshotResult {
        candidate_ases: d.as_set()?,
        confirmed_ases: d.as_set()?,
        confirmed_and_ases: d.as_set()?,
        candidate_ips: d.run()?,
        confirmed_ips: d.run()?,
        cert_ip_groups: d.run()?,
        onnet_ip_count: d.usize()?,
        median_cert_lifetime_days: if d.bool()? { Some(d.f64()?) } else { None },
        with_expired_ases: d.as_set()?,
        with_expired_ips: d.run()?,
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
    e.bool(q.degraded_snapshot.is_some());
    if let Some(msg) = &q.degraded_snapshot {
        e.str(msg);
    }
    e.bool(q.empty_cert_snapshot);
    encode_health(e, &q.scan);
}

fn decode_quality(d: &mut Dec) -> Result<DataQualityReport, ArtifactError> {
    let cert_records_seen = d.usize()?;
    let banners_seen = d.usize()?;
    let mut quarantined = std::collections::BTreeMap::new();
    for _ in 0..d.count(9)? {
        let tag = d.u8()?;
        let reason = *RECORD_ERRORS
            .get(tag as usize)
            .ok_or_else(|| d.corrupt(format!("bad record-error tag {tag}")))?;
        quarantined.insert(reason, d.usize()?);
    }
    let mut degraded_hgs = std::collections::BTreeMap::new();
    for _ in 0..d.count(16)? {
        degraded_hgs.insert(d.str()?, d.str()?);
    }
    Ok(DataQualityReport {
        cert_records_seen,
        banners_seen,
        quarantined,
        degraded_hgs,
        degraded_snapshot: if d.bool()? { Some(d.str()?) } else { None },
        empty_cert_snapshot: d.bool()?,
        scan: decode_health(d)?,
    })
}

fn encode_health(e: &mut Enc, h: &ScanHealth) {
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

fn decode_health(d: &mut Dec) -> Result<ScanHealth, ArtifactError> {
    let mut h = ScanHealth {
        targets: d.usize()?,
        attempts: d.usize()?,
        retries: d.usize()?,
        recovered: d.usize()?,
        ..Default::default()
    };
    for map in [&mut h.base_lost, &mut h.gave_up] {
        for _ in 0..d.count(9)? {
            let tag = d.u8()?;
            let class = *TransientClass::ALL
                .get(tag as usize)
                .ok_or_else(|| d.corrupt(format!("bad transient tag {tag}")))?;
            map.insert(class, d.usize()?);
        }
    }
    h.breaker_opens = d.usize()?;
    h.unreachable = d.usize()?;
    h.backoff_wait_s = d.u64()?;
    Ok(h)
}

// ---------------------------------------------------------------------------
// Query tables: the query layer's load path.
// ---------------------------------------------------------------------------

fn skip_validation(d: &mut Dec) -> Result<(), ArtifactError> {
    d.take(16)?; // total_records, valid
    let n = d.count(9)?;
    d.take(n * 9)?; // tag u8 + count u64 per entry
    Ok(())
}

/// Integer runs laid end to end: cell `c` is
/// `values[offsets[c]..offsets[c + 1]]`, one allocation per column.
#[derive(Debug, Clone)]
struct RunColumn {
    /// `cells + 1` entries, non-decreasing.
    offsets: Vec<usize>,
    values: Vec<u32>,
}

impl RunColumn {
    fn with_cells(cells: usize) -> Self {
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        RunColumn {
            offsets,
            values: Vec::new(),
        }
    }

    /// End the cell whose values were appended since the last call.
    fn close_cell(&mut self) {
        self.offsets.push(self.values.len());
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.values[self.offsets[c]..self.offsets[c + 1]]
    }
}

/// Exactly the columns the query layer serves: per-cell confirmed and
/// candidate AS runs decoded into two flat columns, the processed-snapshot
/// index column, and the §6.2 Netflix variant series. [`Self::parse`]
/// makes one forward pass over a log's records, decodes those two runs
/// and *skips* every other run by its byte length — no `BTreeSet` or
/// [`SnapshotResult`] construction — which is what makes a query cold
/// start cheap (perfbench's `query` workload times it as
/// `query.load_ms`).
///
/// Cells are snapshot-major, `row * ALL_HGS.len() + hg_position`; a cell
/// absent from the log is empty. Each cell is ascending: it was written
/// from a `BTreeSet`.
#[derive(Debug, Clone)]
pub struct ArtifactTables {
    engine: EngineId,
    snapshot_idxs: Vec<u32>,
    confirmed: RunColumn,
    candidate: RunColumn,
    netflix: [Vec<u64>; 3],
    record_body_lens: Vec<usize>,
}

impl ArtifactTables {
    /// One validating pass over a log from [`read_artifact_payload`]:
    /// the header and every record's framing and checksum are verified
    /// (a torn tail is `Corrupt`), and only the query columns are decoded.
    pub fn parse(bytes: &[u8], path: &Path) -> Result<Self, ArtifactError> {
        let view = LogView::split(bytes, path, true)?;
        let cells = view.records.len() * ALL_HGS.len();
        let mut tables = ArtifactTables {
            engine: view.engine,
            snapshot_idxs: Vec::with_capacity(view.records.len()),
            confirmed: RunColumn::with_cells(cells),
            candidate: RunColumn::with_cells(cells),
            netflix: Default::default(),
            record_body_lens: view.records.iter().map(|body| body.len()).collect(),
        };
        for body in view.records {
            let mut d = Dec::new(body, path);
            let idx = d.u64()?;
            if !d.bool()? {
                continue;
            }
            let idx = u32::try_from(idx).map_err(|_| d.corrupt(format!("snapshot {idx}")))?;
            tables.snapshot_idxs.push(idx);
            for column in tables.netflix.iter_mut() {
                column.push(d.u64()?);
            }
            if d.bool()? {
                d.take(16)?; // chains_replayed, chains_revalidated
            }
            d.take(24)?; // snapshot_idx, total_ips_with_certs, n_ases_with_certs
            skip_validation(&mut d)?;
            for _ in ALL_HGS {
                if d.bool()? {
                    d.run_into(&mut tables.candidate.values)?;
                    d.run_into(&mut tables.confirmed.values)?;
                    for _ in 0..4 {
                        d.skip_run()?; // confirmed_and_ases, candidate/confirmed IPs, cert groups
                    }
                    d.take(8)?; // onnet_ip_count
                    if d.bool()? {
                        d.take(8)?; // median_cert_lifetime_days
                    }
                    d.skip_run()?; // with_expired_ases
                    d.skip_run()?; // with_expired_ips
                }
                tables.candidate.close_cell();
                tables.confirmed.close_cell();
            }
            // The HTTP-only IPs and the quality report that follow are not
            // queried; the record's checksum already vouched for them.
        }
        Ok(tables)
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

    /// Confirmed ASes of one snapshot-major cell, ascending.
    pub fn confirmed_cell(&self, cell: usize) -> &[u32] {
        self.confirmed.cell(cell)
    }

    /// Candidate (certificate-only) ASes of one snapshot-major cell.
    pub fn candidate_cell(&self, cell: usize) -> &[u32] {
        self.candidate.cell(cell)
    }

    /// The §6.2 Netflix `(initial, with_expired, with_non_tls)` columns.
    pub fn netflix_columns(&self) -> &[Vec<u64>; 3] {
        &self.netflix
    }

    /// Body length of each record (skip markers included) whose checksum
    /// was verified, in log order.
    pub fn record_body_lens(&self) -> &[usize] {
        &self.record_body_lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::RecordError;
    use crate::validate::InvalidReason;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use x509::ChainError;

    const REMEDY: &str = "delete the log or pass --no-resume";

    /// A process-unique temp path per call.
    fn temp_artifact_path() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "offnet-artifact-test-{}-{}/study.offna",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// The log `a` writes. No `PartialEq` on the payload structs;
    /// byte equality is the codec's own (stronger) notion of identity.
    fn log_bytes(a: &StudyArtifact) -> Vec<u8> {
        let path = temp_artifact_path();
        a.write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        bytes
    }

    /// The first `k` snapshots of `a`.
    fn prefix(a: &StudyArtifact, k: usize) -> StudyArtifact {
        StudyArtifact {
            snapshots: a.snapshots[..k].to_vec(),
            netflix: NetflixVariants {
                initial: a.netflix.initial[..k].to_vec(),
                with_expired: a.netflix.with_expired[..k].to_vec(),
                with_non_tls: a.netflix.with_non_tls[..k].to_vec(),
            },
            reports: a.reports[..k].to_vec(),
            ..a.clone()
        }
    }

    fn builder_for(a: &StudyArtifact) -> ArtifactBuilder {
        ArtifactBuilder::new(a.engine, a.header_fps.clone(), a.fingerprint)
    }

    /// A log exercising every codec branch: present and absent HG cells,
    /// every quality map, header fingerprints, and reuse reports, over
    /// three consecutive snapshots.
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
        a.quality
            .scan
            .gave_up
            .insert(TransientClass::RateLimited, 1);
        a.quality.scan.backoff_wait_s = 12;

        let mut b = SnapshotResult {
            snapshot_idx: 4,
            ..Default::default()
        };
        b.per_hg.insert(Hg::Netflix, cell);
        b.quality
            .degraded_hgs
            .insert("Google".to_owned(), "boom".to_owned());
        b.quality.degraded_snapshot = Some("worker panic".to_owned());
        b.quality.empty_cert_snapshot = true;

        let mut c = a.clone();
        c.snapshot_idx = 5;
        c.http_only_ips = vec![9, 11];

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
            snapshots: vec![a, b, c],
            netflix: NetflixVariants {
                initial: vec![3, 4, 2],
                with_expired: vec![5, 6, 3],
                with_non_tls: vec![5, 7, 4],
            },
            header_fps,
            reports: vec![
                DeltaReport::new(3, 0, 800),
                DeltaReport::new(4, 700, 100),
                DeltaReport::new(5, 750, 50),
            ],
        }
    }

    #[test]
    fn file_round_trip_is_exact() {
        let path = temp_artifact_path();
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();
        let loaded = StudyArtifact::load(&path).unwrap();
        assert_eq!(log_bytes(&loaded), log_bytes(&artifact));
        assert_eq!(loaded.fingerprint, artifact.fingerprint);
        assert_eq!(loaded.engine, EngineId::Rapid7);
        assert_eq!(loaded.snapshots.len(), 3);
        assert_eq!(
            loaded.snapshots[0].per_hg[&Hg::Google].median_cert_lifetime_days,
            Some(90.25)
        );
        assert!(!loaded.snapshots[1].per_hg.contains_key(&Hg::Google));
        assert_eq!(loaded.netflix.with_non_tls, vec![5, 7, 4]);
        assert_eq!(loaded.reports, artifact.reports);
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
        let (fp, bytes) = read_artifact_payload(&path).unwrap();
        assert_eq!(fp, artifact.fingerprint);
        let tables = ArtifactTables::parse(&bytes, &path).unwrap();
        assert_eq!(tables.engine(), artifact.engine);
        assert_eq!(tables.n_rows(), artifact.snapshots.len());
        for (row, snap) in artifact.snapshots.iter().enumerate() {
            assert_eq!(tables.snapshot_idxs()[row] as usize, snap.snapshot_idx);
            for (hg_i, hg) in ALL_HGS.iter().enumerate() {
                let cell = row * ALL_HGS.len() + hg_i;
                let confirmed = tables.confirmed_cell(cell).to_vec();
                let candidate = tables.candidate_cell(cell).to_vec();
                let expect = |set: Option<&BTreeSet<AsId>>| -> Vec<u32> {
                    set.into_iter().flatten().map(|a| a.0).collect()
                };
                let h = snap.per_hg.get(hg);
                assert_eq!(confirmed, expect(h.map(|h| &h.confirmed_ases)));
                assert_eq!(candidate, expect(h.map(|h| &h.candidate_ases)));
            }
        }
        let nf = tables.netflix_columns();
        assert_eq!(nf[0], vec![3, 4, 2]);
        assert_eq!(nf[2], vec![5, 7, 4]);

        // The walk verifies every record: damage is typed.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(ArtifactTables::parse(&bad, &path).is_err());
        let truncated = &bytes[..bytes.len() - 9];
        assert!(ArtifactTables::parse(truncated, &path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn corruption_and_truncation_are_typed_not_a_panic() {
        let path = temp_artifact_path();
        dense_artifact().write(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Flip one byte of a record: checksum mismatch.
        let mut bytes = clean.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = StudyArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
        assert!(err.to_string().ends_with(REMEDY), "{err}");

        // Truncate: the last record runs past the end.
        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        let err = StudyArtifact::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");

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
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();

        let err = ArtifactBuilder::new(artifact.engine, artifact.header_fps.clone(), 99)
            .open_log(path.clone(), 3..=5)
            .unwrap_err();
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
        // Readers accept whatever fingerprint the log carries.
        assert!(StudyArtifact::load(&path).is_ok());

        // Patch the version field (read before the header checksum).
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
    fn resume_version_and_config_mismatches_are_typed() {
        let path = temp_artifact_path();
        let artifact = dense_artifact();
        artifact.write(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // A run of another configuration refuses the log, every time, and
        // leaves it untouched for the run it belongs to.
        for _ in 0..2 {
            let err = ArtifactBuilder::new(artifact.engine, artifact.header_fps.clone(), 43)
                .open_log(path.clone(), 3..=5)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::ConfigMismatch {
                        found: 0x1234_5678_9abc_def0,
                        expected: 43,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().ends_with(REMEDY), "{err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        assert_eq!(
            builder_for(&artifact)
                .open_log(path.clone(), 3..=5)
                .unwrap()
                .len(),
            3
        );

        // A log of another format version is refused on resume too.
        let mut bytes = clean;
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = builder_for(&artifact)
            .open_log(path.clone(), 3..=5)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::VersionMismatch {
                    found: 99,
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

        // A builder that already holds a result: opening replaces it.
        let mut builder = builder_for(&artifact);
        builder.push_snapshot(artifact.snapshots[0].clone(), |_| Vec::new());
        let adopted = builder.open_log(path.clone(), 3..=5).unwrap();
        let reports: Vec<DeltaReport> = adopted.iter().filter_map(|a| a.report).collect();
        assert!(adopted.iter().all(|a| a.processed));
        assert_eq!(reports, artifact.reports);
        let (series, _) = builder.finish();
        let adopted_artifact = StudyArtifact {
            snapshots: series.snapshots,
            netflix: series.netflix,
            ..artifact.clone()
        };
        assert_eq!(log_bytes(&adopted_artifact), log_bytes(&artifact));

        // A shifted start: the earlier record feeds only the fold's
        // certificate history.
        let mut shifted = builder_for(&artifact);
        assert_eq!(shifted.open_log(path.clone(), 4..=5).unwrap().len(), 2);
        assert_eq!(shifted.fold.variants.initial, vec![4, 2]);
        let history: BTreeSet<u32> = shifted.fold.ip_history.iter().copied().collect();
        assert_eq!(history, [1, 2, 9].into_iter().collect());

        // A range the log cannot continue: a gap, or a start before it.
        for range in [7..=9, 2..=5] {
            let err = builder_for(&artifact)
                .open_log(path.clone(), range)
                .unwrap_err();
            assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn skipped_marker_round_trips() {
        let path = temp_artifact_path();
        let mut artifact = prefix(&dense_artifact(), 3);
        artifact.snapshots.remove(1); // snapshot 4 becomes a skip marker
        artifact.netflix.initial.remove(1);
        artifact.netflix.with_expired.remove(1);
        artifact.netflix.with_non_tls.remove(1);
        artifact.reports.remove(1);
        artifact.write(&path).unwrap();

        let loaded = StudyArtifact::load(&path).unwrap();
        assert_eq!(log_bytes(&loaded), log_bytes(&artifact));
        let mut builder = builder_for(&artifact);
        let adopted: Vec<(usize, bool)> = builder
            .open_log(path.clone(), 3..=5)
            .unwrap()
            .iter()
            .map(|a| (a.snapshot_idx, a.processed))
            .collect();
        assert_eq!(adopted, vec![(3, true), (4, false), (5, true)]);

        // Appends continue the snapshot sequence, and only it.
        let len = std::fs::metadata(&path).unwrap().len();
        builder.record_skip(6).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > len);
        let err = builder.record_skip(8).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt { .. }), "{err}");
        // A clone's appends change the file under the original writer.
        let mut clone = builder.clone();
        clone.record_skip(7).unwrap();
        let err = builder.record_skip(7).unwrap_err();
        assert!(
            err.to_string().contains("changed under the writer"),
            "{err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Cut a small dense log at every byte offset, and flip every byte:
    /// the strict readers (`StudyArtifact::load`, and
    /// `read_artifact_payload` with `ArtifactTables::parse`) return the
    /// first k records exactly at a record boundary and a typed error
    /// anywhere else; resume adopts the records before the cut and cuts
    /// the torn tail off, or fails typed inside the header. Every flip —
    /// header included — is an error for all three.
    #[test]
    fn every_truncation_and_flip_is_typed() {
        let full = dense_artifact();
        let whole = log_bytes(&full);
        let boundaries: Vec<usize> = (0..=full.snapshots.len())
            .map(|k| log_bytes(&prefix(&full, k)).len())
            .collect();
        assert_eq!(boundaries.last(), Some(&whole.len()));
        let path = temp_artifact_path();
        full.write(&path).unwrap();
        let tables_rows = |path: &Path| {
            read_artifact_payload(path)
                .and_then(|(_, bytes)| ArtifactTables::parse(&bytes, path).map(|t| t.n_rows()))
        };
        let reopen = |path: &Path| builder_for(&full).open_log(path.to_path_buf(), 3..=5);

        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let loaded = StudyArtifact::load(&path);
            let rows = tables_rows(&path);
            match boundaries.iter().position(|&b| b == cut) {
                Some(k) => {
                    assert_eq!(log_bytes(&loaded.unwrap()), whole[..cut], "cut at {cut}");
                    assert_eq!(rows.unwrap(), k, "cut at {cut}");
                }
                None => {
                    assert!(loaded.is_err(), "cut at {cut} loaded");
                    assert!(rows.is_err(), "cut at {cut} parsed");
                }
            }
            match boundaries.iter().rposition(|&b| b <= cut) {
                Some(k) => {
                    assert_eq!(reopen(&path).unwrap().len(), k, "cut at {cut}");
                    let len = std::fs::metadata(&path).unwrap().len();
                    assert_eq!(len as usize, boundaries[k], "cut at {cut}: torn tail kept");
                }
                None => assert!(reopen(&path).is_err(), "cut at {cut} reopened"),
            }
        }
        for i in 0..whole.len() {
            let mut flipped = whole.clone();
            flipped[i] ^= 0xff;
            std::fs::write(&path, &flipped).unwrap();
            assert!(StudyArtifact::load(&path).is_err(), "flip at {i} loaded");
            assert!(tables_rows(&path).is_err(), "flip at {i} parsed");
            assert!(reopen(&path).is_err(), "flip at {i} reopened");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// Deterministic structured generator (splitmix64): the shimmed
    /// proptest drives scalars, each seed maps to one randomized log.
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
                header_fps,
                reports,
            }
        }
    }

    proptest! {
        /// Write → load → write is the identity on the log's bytes (the
        /// round-trip law behind the render byte-identity that
        /// `tests/study_log.rs` pins end to end).
        #[test]
        fn artifact_round_trips(seed in any::<u64>()) {
            let artifact = Gen(seed).artifact();
            let path = temp_artifact_path();
            artifact.write(&path).unwrap();
            let loaded = StudyArtifact::load(&path).unwrap();
            prop_assert_eq!(log_bytes(&loaded), log_bytes(&artifact));
            prop_assert_eq!(loaded.fingerprint, artifact.fingerprint);
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }
}
