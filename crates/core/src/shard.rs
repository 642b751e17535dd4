//! The streaming sharded corpus pipeline: bounded-peak-memory snapshot
//! processing for worlds too large to materialize in one piece.
//!
//! The monolithic path ([`observe_snapshot`](scanner::observe_snapshot) →
//! [`SnapshotCorpus::build`] → [`process_corpus`](crate::process_corpus))
//! holds every endpoint, record and corpus table of a snapshot resident at
//! once. This module splits corpus *construction* from corpus
//! *consumption*: a producer walks the endpoint stream in contiguous
//! chunks of `shard_size` ([`for_each_chunk`]), scans each chunk through
//! the same [`ObservationStream`] `observe_snapshot` runs as one chunk,
//! freezes the chunk's interned columnar corpus into a compact on-disk
//! **segment**, extracts the small cross-shard accumulators (§4.1 stats,
//! on-net fingerprint names, AS unions), and drops the shard before the
//! next one is generated. A consumer pass then streams segments back to
//! run the per-HG §4.3–§4.5 stages, merging per-shard partial results.
//!
//! Peak memory is O(depth × shard) + O(merged summaries), never
//! O(snapshot) — and because shards are contiguous chunks of the *same*
//! record stream the monolithic path scans (fault coins are pure
//! per-record functions, IPs are unique per snapshot, and an endpoint's
//! certificate and banner records always share a chunk), every per-record
//! decision — validation dedup, banner quarantine, candidate filtering,
//! confirmation — is local to a shard and concatenates in shard order to
//! exactly the monolithic result. `render_study` output is byte-identical
//! across the two paths; `tests/sharded.rs` pins this.
//!
//! Segments are one checksummed, fingerprinted envelope of the shared
//! codec (the `codec` module), written atomically (tmp + rename): a
//! killed producer resumes by *reusing* every valid segment on disk —
//! admitting (not rescanning) those chunks keeps the scan-health and
//! fault ledgers exact — and rebuilding only what is missing or stale.
//!
//! **Pipelined produce.** The serial spine of the producer is only what
//! is genuinely order-dependent: the endpoint walk, the stateful
//! observation stream (scan or admit), and the reuse decision. Everything
//! CPU-heavy about freezing a shard — §4.1 chain validation, interning,
//! columnar encode, SHA-256, atomic persist — runs on a
//! [`bounded_pipeline`] worker pool, and an ordered fold absorbs shard
//! summaries strictly by shard index, so rendered output is
//! byte-identical at any `OFFNET_THREADS`. The pipeline admits at most
//! `depth` = [`pipeline_depth`](crate::parallel::pipeline_depth)`(workers)`
//! shards between feed and fold, keeping peak memory at `depth × shard`
//! ([`ShardLedger`] tracks the realized high-water mark). The consumer
//! pass runs on the same [`bounded_pipeline`]: workers load segments, and
//! its ordered fold merges each shard's per-HG partials in shard order
//! for the same byte-identity guarantee. The shard pool is the only
//! thread fan-out inside a snapshot: within one shard the per-HG stages
//! run in sequence.
//!
//! **Summary-only admission.** A segment payload leads with a compact
//! *summary section*: the shard's snapshot totals (validation stats,
//! certificate IP count, AS set, HTTP-only IPs, banner quarantine
//! counts), stored once, the faults the chunk's scan injected, plus its
//! §4.2 on-net names. Warm admission decodes only that section and folds
//! those faults back into the streams' fault ledger; the corpus body
//! behind it is touched only by the consumer pass, which reads the totals
//! back from the summary and hands them with the decoded tables to the
//! constructor `SnapshotCorpus::build` ends in. Every integer list in a
//! segment is a delta-varint run and every count a varint, the codec's
//! encodings.
//!
//! The consumer runs each shard through the in-memory path's per-corpus
//! HG loop (`pipeline::run_hgs`), with the same per-HG panic isolation:
//! an HG that panics in any shard degrades to an empty result with the
//! same `degraded_hgs` entry the in-memory path writes. Only the §4.2
//! fingerprint differs: the in-memory path learns it from its corpus, a
//! shard rebases the producer's merged on-net names. Result/quality
//! assembly is shared too (`pipeline::finish_snapshot`).
//!
//! Per-shard corpora carry `Default` scan health; the true merged health
//! comes from the producer's observation stream and lands in the
//! snapshot-level quality report, exactly as the monolithic path's merged
//! observation health does.

use crate::codec::{
    self, dec_str_ref, decode_validation, encode_validation, fault_tag, hg_tag, mix,
    mix_world_engine, ArtifactError, Dec, Enc, EnvelopeIssue,
};
use crate::confirm::BannerQuality;
use crate::corpus::SnapshotCorpus;
use crate::parallel::bounded_pipeline;
use crate::pipeline::{
    finish_snapshot, run_hgs, standard_validate_options, CorpusTotals, HgAccum, PipelineContext,
    SnapshotResult,
};
use crate::tls_fingerprint::{learn_tls_fingerprints, TlsFingerprint};
use crate::validate::ValidatedCert;
use crate::wordhash::{DerKey, WordMap};
use hgsim::{Hg, HgWorld, ALL_HGS};
use intern::{HostSym, Interner, SymTable};
use netsim::{AsId, IpToAsMap};
use scanner::{
    for_each_chunk, ChunkFaults, FaultClass, HttpRecord, HttpScanSnapshot, ObservationStream,
    ScanEngine, ScanHealth,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use x509::Certificate;

/// Segment format version. Bumping it invalidates (and silently rebuilds)
/// every on-disk segment. Version 2 added the summary section in front of
/// the corpus body (summary-only admission); version 3 dropped the chain
/// digest and per-HG evidence columns; version 4 extends the checksum over
/// the envelope's fixed fields; version 5 stores every integer list as a
/// delta-varint run and the snapshot totals once, in the summary; version
/// 6 stores every count as a varint and the faults injected into the
/// shard's chunk in the summary; version 7 drops the string-model size
/// from the summary.
pub const SEGMENT_VERSION: u32 = 7;

const SEGMENT_MAGIC: &[u8; 8] = b"OFFNSSEG";

/// How a study spills and re-reads corpus shards.
#[derive(Debug, Clone)]
pub struct ShardingConfig {
    /// Maximum endpoints per shard (clamped to ≥ 1). Peak memory scales
    /// with this (times the pipeline depth), not with the snapshot.
    pub shard_size: usize,
    /// Segment directory; per-snapshot subdirectories (`t0007/`) are
    /// created inside it, so parallel snapshots never collide.
    pub spill_dir: PathBuf,
    /// Shared build/reuse accounting, readable after the run.
    pub ledger: Arc<ShardLedger>,
    /// Shard-freeze / segment-consume worker count. `None` defers to the
    /// pipeline context's `threads` (i.e. `OFFNET_THREADS`); `1` runs
    /// thread-free. The produce pipeline holds at most
    /// [`pipeline_depth`](crate::parallel::pipeline_depth)`(workers)`
    /// shards fed but not yet folded.
    pub workers: Option<usize>,
}

impl ShardingConfig {
    pub fn new(shard_size: usize, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            shard_size,
            spill_dir: spill_dir.into(),
            ledger: Arc::new(ShardLedger::default()),
            workers: None,
        }
    }

    /// Pin the produce/consume worker count (overrides `OFFNET_THREADS`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    fn resolved_workers(&self, ctx: &PipelineContext) -> usize {
        self.workers.unwrap_or(ctx.threads).max(1)
    }
}

/// Per-shard statistics row recorded by the producer.
#[derive(Debug, Clone, Copy)]
pub struct ShardStat {
    pub snapshot_idx: usize,
    pub shard_idx: usize,
    /// Endpoints in the chunk the shard covers.
    pub endpoints: usize,
    /// Serialized segment payload size on disk.
    pub segment_bytes: usize,
    /// In-memory interned corpus size of the shard as built: the figure
    /// its segment summary stores, which the resident gauge charges.
    pub interned_bytes: usize,
    /// Whether the shard was loaded from a valid on-disk segment instead
    /// of being rescanned and rebuilt.
    pub reused: bool,
}

/// Cross-thread build/reuse ledger for a sharded study (the parallel
/// mode's workers and the produce pipeline all record into the same
/// instance).
#[derive(Debug, Default)]
pub struct ShardLedger {
    built: AtomicUsize,
    reused: AtomicUsize,
    rows: Mutex<Vec<ShardStat>>,
    /// Interned bytes of shards resident right now (guard-scoped).
    resident_now: AtomicUsize,
    /// High-water mark of `resident_now` — the realized peak the
    /// `depth × shard` memory bound is about.
    resident_peak: AtomicUsize,
}

impl ShardLedger {
    pub fn segments_built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    pub fn segments_reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }

    /// Every recorded shard row, sorted by (snapshot, shard).
    pub fn rows(&self) -> Vec<ShardStat> {
        let mut rows = self.rows.lock().expect("shard ledger lock").clone();
        rows.sort_by_key(|r| (r.snapshot_idx, r.shard_idx));
        rows
    }

    /// Largest single-shard interned footprint seen so far.
    pub fn peak_shard_interned_bytes(&self) -> usize {
        self.rows
            .lock()
            .expect("shard ledger lock")
            .iter()
            .map(|r| r.interned_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Largest *concurrent* interned footprint: the sum of every shard
    /// resident at once across produce workers and consume workers. With
    /// the pipelined producer this is bounded by
    /// `max(depth, workers) × max-shard-interned`.
    pub fn peak_resident_interned_bytes(&self) -> usize {
        self.resident_peak.load(Ordering::Relaxed)
    }

    fn record(&self, stat: ShardStat) {
        if stat.reused {
            self.reused.fetch_add(1, Ordering::Relaxed);
        } else {
            self.built.fetch_add(1, Ordering::Relaxed);
        }
        self.rows.lock().expect("shard ledger lock").push(stat);
    }

    /// Account `bytes` as resident until the returned guard drops.
    fn resident_guard(&self, bytes: usize) -> ResidentGuard<'_> {
        let now = self.resident_now.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.resident_peak.fetch_max(now, Ordering::SeqCst);
        ResidentGuard {
            ledger: self,
            bytes,
        }
    }
}

/// RAII residency accounting: subtracts its bytes from the ledger's
/// resident gauge on drop.
struct ResidentGuard<'a> {
    ledger: &'a ShardLedger,
    bytes: usize,
}

impl Drop for ResidentGuard<'_> {
    fn drop(&mut self) {
        self.ledger
            .resident_now
            .fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

/// Directory of one snapshot's segments.
fn snapshot_dir(spill_dir: &Path, snapshot_idx: usize) -> PathBuf {
    spill_dir.join(format!("t{snapshot_idx:04}"))
}

/// On-disk path of one segment.
pub fn segment_path(spill_dir: &Path, snapshot_idx: usize, shard_idx: usize) -> PathBuf {
    snapshot_dir(spill_dir, snapshot_idx).join(format!("shard_{shard_idx:04}.seg"))
}

/// Fingerprint of everything that shapes one segment's contents: the
/// world scenario, the engine (identity, coverage windows, fault and
/// transient plans), and the shard's position `(t, shard_size,
/// shard_idx)`. A segment whose stored fingerprint differs is stale and
/// rebuilt. Validation options are fixed
/// ([`standard_validate_options`]) and covered by [`SEGMENT_VERSION`].
pub fn segment_fingerprint(
    world: &HgWorld,
    engine: &ScanEngine,
    snapshot_idx: usize,
    shard_size: usize,
    shard_idx: usize,
) -> u64 {
    let mut h = mix(0x5e6_0ff5_e75e_6a11);
    h = mix(h ^ u64::from(SEGMENT_VERSION));
    h = mix_world_engine(h, world, engine);
    h = mix(h ^ snapshot_idx as u64);
    h = mix(h ^ shard_size as u64);
    h = mix(h ^ shard_idx as u64);
    h
}

// ---------------------------------------------------------------------------
// Segment envelope (shared codec) and payload framing.
// ---------------------------------------------------------------------------

fn write_segment(path: &Path, fingerprint: u64, payload: &[u8]) -> Result<(), ArtifactError> {
    let bytes = codec::envelope(SEGMENT_MAGIC, SEGMENT_VERSION, fingerprint, payload);
    codec::write_atomic(path, &bytes)
}

/// Read and fully validate one segment, returning its payload.
fn read_segment(path: &Path, fingerprint: u64) -> Result<Vec<u8>, ArtifactError> {
    let (found, payload) = codec::read_envelope(path, SEGMENT_MAGIC, SEGMENT_VERSION).map_err(
        |issue| match issue {
            EnvelopeIssue::Io(e) => ArtifactError::io(path, e),
            EnvelopeIssue::BadMagic => ArtifactError::corrupt(path, "bad segment magic"),
            EnvelopeIssue::BadVersion { found } => ArtifactError::corrupt(
                path,
                format!("segment version {found} != {SEGMENT_VERSION}"),
            ),
            EnvelopeIssue::Corrupt(detail) => ArtifactError::corrupt(path, detail),
        },
    )?;
    if found != fingerprint {
        return Err(ArtifactError::corrupt(
            path,
            "segment fingerprint mismatch (stale scenario/engine/shard config)",
        ));
    }
    Ok(payload)
}

/// Payload framing: `u64 summary_len · summary · body`.
fn frame_segment(summary: &[u8], body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + summary.len() + body.len());
    payload.extend_from_slice(&(summary.len() as u64).to_le_bytes());
    payload.extend_from_slice(summary);
    payload.extend_from_slice(body);
    payload
}

/// Split a validated payload into its (summary, body) sections.
fn split_segment_payload<'a>(
    payload: &'a [u8],
    path: &Path,
) -> Result<(&'a [u8], &'a [u8]), ArtifactError> {
    if payload.len() < 8 {
        return Err(ArtifactError::corrupt(
            path,
            "segment truncated before summary",
        ));
    }
    let n = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")) as usize;
    let rest = &payload[8..];
    if n > rest.len() {
        return Err(ArtifactError::corrupt(
            path,
            "segment summary length out of range",
        ));
    }
    Ok(rest.split_at(n))
}

// ---------------------------------------------------------------------------
// Segment body codec (the full per-shard corpus).
// ---------------------------------------------------------------------------

fn enc_pool(e: &mut Enc, (buf, spans): (&str, &[(u32, u32)])) {
    e.str(buf);
    e.usize(spans.len());
    for &(start, len) in spans {
        e.u32(start);
        e.u32(len);
    }
}

fn dec_pool(d: &mut Dec) -> Result<(String, Vec<(u32, u32)>), ArtifactError> {
    let buf = d.str()?;
    let n = d.count(8)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let (start, len) = (d.u32()?, d.u32()?);
        let end = start.checked_add(len).map(|end| end as usize);
        if end.and_then(|end| buf.get(start as usize..end)).is_none() {
            return Err(d.corrupt(format!("pool span {start}+{len} is outside its string")));
        }
        spans.push((start, len));
    }
    Ok((buf, spans))
}

fn enc_http(e: &mut Enc, snap: Option<&HttpScanSnapshot>) {
    match snap {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.usize(s.records.len());
            for r in &s.records {
                e.u32(r.ip);
                e.usize(r.headers.len());
                for (n, v) in &r.headers {
                    e.u32(n.index());
                    e.u32(v.index());
                }
            }
        }
    }
}

/// One port's banner records; a scan the shard's corpus did not carry
/// decodes to none.
fn dec_http(
    d: &mut Dec,
    interner: &Interner,
    path: &Path,
) -> Result<Vec<HttpRecord>, ArtifactError> {
    if d.u8()? == 0 {
        return Ok(Vec::new());
    }
    let n = d.count(5)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let ip = d.u32()?;
        let n_headers = d.count(8)?;
        let mut headers = Vec::with_capacity(n_headers);
        for _ in 0..n_headers {
            let name = interner
                .header_names
                .sym_for_index(d.u32()?)
                .ok_or_else(|| ArtifactError::corrupt(path, "header name symbol out of range"))?;
            let value = interner
                .header_values
                .sym_for_index(d.u32()?)
                .ok_or_else(|| ArtifactError::corrupt(path, "header value symbol out of range"))?;
            headers.push((name, value));
        }
        records.push(HttpRecord { ip, headers });
    }
    Ok(records)
}

/// Serialize one shard's corpus into a segment body. The interner pools
/// are the *corpus* pools (scanner pools plus SAN host interning), so the
/// stored SAN/banner symbol indices resolve against them on load. The
/// snapshot totals are the summary's, not repeated here.
fn encode_shard(
    c: &SnapshotCorpus,
    http80: Option<&HttpScanSnapshot>,
    https443: Option<&HttpScanSnapshot>,
) -> Vec<u8> {
    let mut e = Enc::default();
    enc_pool(&mut e, c.interner.hosts().raw_parts());
    enc_pool(&mut e, c.interner.header_names().raw_parts());
    enc_pool(&mut e, c.interner.header_values().raw_parts());
    e.usize(c.valids.len());
    for vc in &c.valids {
        e.u32(vc.ip);
        e.bool(vc.expiry_exempted);
        e.bytes(vc.leaf.der());
    }
    e.run(c.san_offsets.iter().copied());
    e.run(c.san_syms.iter().map(|s| s.index()));
    enc_http(&mut e, http80);
    enc_http(&mut e, https443);
    e.buf
}

/// Rebuild a shard's corpus from a validated segment payload (summary
/// and body): the snapshot totals come from the summary, the tables from
/// the body, and the constructor `SnapshotCorpus::build` ends in derives
/// the rest. Chain verification is *not* redone — the stored valids are
/// the §4.1 survivors. Also returns the built shard's interned size the
/// summary stores, which the resident gauge charges on both passes.
fn decode_shard(
    payload: &[u8],
    expected_idx: usize,
    ip_to_as: Arc<IpToAsMap>,
    path: &Path,
) -> Result<(SnapshotCorpus, usize), ArtifactError> {
    let (summary, body) = split_segment_payload(payload, path)?;
    let ShardSummary {
        totals,
        interned_bytes,
        ..
    } = decode_summary(summary, path)?;
    let snapshot_idx = totals.snapshot_idx;
    if snapshot_idx != expected_idx {
        return Err(ArtifactError::corrupt(path, "segment snapshot mismatch"));
    }
    let mut d = Dec::new(body, path);
    let (hosts_buf, hosts_spans) = dec_pool(&mut d)?;
    let (names_buf, names_spans) = dec_pool(&mut d)?;
    let (values_buf, values_spans) = dec_pool(&mut d)?;
    let interner = Interner {
        hosts: SymTable::from_parts(hosts_buf, hosts_spans),
        header_names: SymTable::from_parts(names_buf, names_spans),
        header_values: SymTable::from_parts(values_buf, values_spans),
    };

    let n_valids = d.count(6)?;
    let mut valids = Vec::with_capacity(n_valids);
    // Valids serving the same leaf share one parse and one `Arc`, as
    // validation hands them out on the in-memory path.
    let mut leaves: WordMap<DerKey, Arc<Certificate>> = WordMap::default();
    for _ in 0..n_valids {
        let ip = d.u32()?;
        let expiry_exempted = d.bool()?;
        let der = d.bytes()?;
        let leaf = match leaves.entry(DerKey(der)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let leaf = Certificate::parse(der)
                    .map_err(|_| ArtifactError::corrupt(path, "stored leaf DER does not parse"))?;
                Arc::clone(e.insert(Arc::new(leaf)))
            }
        };
        valids.push(ValidatedCert {
            ip,
            leaf,
            expiry_exempted,
        });
    }
    let san_offsets = d.run()?;
    if san_offsets.len() != valids.len() + 1 {
        return Err(ArtifactError::corrupt(path, "SAN offset table size"));
    }
    let san_syms: Vec<HostSym> = d
        .run()?
        .into_iter()
        .map(|i| {
            interner
                .hosts
                .sym_for_index(i)
                .ok_or_else(|| ArtifactError::corrupt(path, "SAN symbol out of range"))
        })
        .collect::<Result<_, _>>()?;
    let offsets_fit = san_offsets[0] == 0
        && san_offsets.windows(2).all(|w| w[0] <= w[1])
        && san_offsets[valids.len()] as usize == san_syms.len();
    if !offsets_fit {
        return Err(ArtifactError::corrupt(
            path,
            "SAN offsets out of order or range",
        ));
    }
    let http80 = dec_http(&mut d, &interner, path)?;
    let https443 = dec_http(&mut d, &interner, path)?;
    d.finish()?;

    let mut corpus = SnapshotCorpus::assemble(
        totals,
        interner,
        valids,
        (san_offsets, san_syms),
        [&http80, &https443],
        ip_to_as,
    );
    corpus.memory.segment_bytes = payload.len();
    Ok((corpus, interned_bytes))
}

// ---------------------------------------------------------------------------
// Segment summary codec: the admission section.
// ---------------------------------------------------------------------------

/// One §4.2 contribution in a shard summary: an HG whose shard-local
/// on-net fingerprint learned at least one certificate.
struct HgSummaryEntry<'a> {
    hg: Hg,
    onnet_certs: usize,
    names: Vec<&'a str>,
}

/// A decoded summary section: everything the producer's fold absorbs.
/// The §4.2 names borrow from the summary bytes.
struct ShardSummary<'a> {
    totals: CorpusTotals,
    endpoints: usize,
    interned_bytes: usize,
    faults: ChunkFaults,
    hg_entries: Vec<HgSummaryEntry<'a>>,
}

/// A shard's snapshot totals, all but the scan health (the producer's
/// streams account for it across the whole snapshot).
fn encode_totals(e: &mut Enc, t: &CorpusTotals) {
    e.usize(t.snapshot_idx);
    e.usize(t.total_ips_with_certs);
    e.run(t.ases_with_certs.iter().map(|a| a.0));
    encode_validation(e, &t.validation);
    let q = &t.banner_quality;
    e.usize(q.records_seen);
    e.usize(q.oversized);
    e.usize(q.mojibake);
    e.usize(q.duplicate_ip);
    e.run(t.http_only_ips.iter().copied());
}

fn decode_totals(d: &mut Dec) -> Result<CorpusTotals, ArtifactError> {
    Ok(CorpusTotals {
        snapshot_idx: d.usize()?,
        total_ips_with_certs: d.usize()?,
        ases_with_certs: d.run()?.into_iter().map(AsId).collect(),
        validation: decode_validation(d)?,
        banner_quality: BannerQuality {
            records_seen: d.usize()?,
            oversized: d.usize()?,
            mojibake: d.usize()?,
            duplicate_ip: d.usize()?,
        },
        http_only_ips: d.run()?,
        scan: ScanHealth::default(),
    })
}

fn encode_faults(e: &mut Enc, faults: &ChunkFaults) {
    for stats in faults {
        e.usize(stats.iter().count());
        for (class, n) in stats.iter() {
            e.u8(fault_tag(class));
            e.usize(n);
        }
    }
}

fn decode_faults(d: &mut Dec) -> Result<ChunkFaults, ArtifactError> {
    let mut faults = ChunkFaults::default();
    for stats in &mut faults {
        for _ in 0..d.count(2)? {
            let tag = d.u8()?;
            let class = *FaultClass::ALL
                .get(tag as usize)
                .ok_or_else(|| d.corrupt(format!("bad fault tag {tag}")))?;
            stats.add(class, d.usize()?);
        }
    }
    Ok(faults)
}

/// Serialize a built shard's summary section: its totals, the faults
/// its scan injected, and every §4.2 contribution, precomputed at build
/// time so admission never touches the corpus body.
fn encode_summary(
    c: &SnapshotCorpus,
    endpoints: usize,
    faults: &ChunkFaults,
    ctx: &PipelineContext,
) -> Vec<u8> {
    let mut e = Enc::default();
    encode_totals(&mut e, &CorpusTotals::of(c));
    e.usize(endpoints);
    e.usize(c.memory.interned_bytes);
    encode_faults(&mut e, faults);

    // §4.2 contributions: shard-local on-net names and certificate
    // counts, resolved to strings so they bridge per-shard symbol spaces.
    let mut entries: Vec<(Hg, usize, Vec<String>)> = Vec::new();
    for hg in ALL_HGS {
        let idx = c.hg_std_indices(hg);
        if idx.is_empty() {
            continue;
        }
        let fp = learn_tls_fingerprints(hg.spec().keyword, &ctx.hg_ases[&hg], c, idx);
        if fp.onnet_certs == 0 {
            continue;
        }
        let names = fp.resolved_names(&c.interner).map(str::to_owned).collect();
        entries.push((hg, fp.onnet_certs, names));
    }
    e.usize(entries.len());
    for (hg, onnet_certs, names) in &entries {
        e.u8(hg_tag(*hg));
        e.usize(*onnet_certs);
        e.usize(names.len());
        for n in names {
            e.str(n);
        }
    }
    e.buf
}

fn hg_from_tag(tag: u8, path: &Path) -> Result<Hg, ArtifactError> {
    ALL_HGS
        .get(tag as usize)
        .copied()
        .ok_or_else(|| ArtifactError::corrupt(path, "HG tag out of range"))
}

/// Decode a summary section; the §4.2 names borrow from `bytes`.
fn decode_summary<'a>(bytes: &'a [u8], path: &'a Path) -> Result<ShardSummary<'a>, ArtifactError> {
    let mut d = Dec::new(bytes, path);
    let totals = decode_totals(&mut d)?;
    let endpoints = d.usize()?;
    let interned_bytes = d.usize()?;
    let faults = decode_faults(&mut d)?;
    let n_entries = d.count(3)?;
    let mut hg_entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let hg = hg_from_tag(d.u8()?, path)?;
        let onnet_certs = d.usize()?;
        let n_names = d.count(1)?;
        let mut names = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            names.push(dec_str_ref(&mut d)?);
        }
        hg_entries.push(HgSummaryEntry {
            hg,
            onnet_certs,
            names,
        });
    }
    d.finish()?;
    Ok(ShardSummary {
        totals,
        endpoints,
        interned_bytes,
        faults,
        hg_entries,
    })
}

/// Validate a payload's summary section for admission: it must decode
/// cleanly and belong to snapshot `t`. Returns an owned copy of the
/// summary bytes and the faults the shard's scan injected; the corpus
/// body is never touched.
fn probe_summary(
    payload: &[u8],
    t: usize,
    path: &Path,
) -> Result<(Vec<u8>, ChunkFaults), ArtifactError> {
    let (summary, _body) = split_segment_payload(payload, path)?;
    let s = decode_summary(summary, path)?;
    if s.totals.snapshot_idx != t {
        return Err(ArtifactError::corrupt(path, "segment snapshot mismatch"));
    }
    Ok((summary.to_vec(), s.faults))
}

// ---------------------------------------------------------------------------
// Producer: chunk the endpoint stream, build or reuse segments through the
// bounded pipeline, fold the cross-shard summaries in shard order.
// ---------------------------------------------------------------------------

/// Everything the producer pass leaves behind: segment references for the
/// consumer pass plus every merged snapshot-level summary.
#[derive(Default)]
struct Produced {
    segments: Vec<(PathBuf, u64)>,
    totals: CorpusTotals,
    /// Study-wide on-net dNSName sets, kept as strings so they bridge the
    /// per-shard symbol spaces.
    hg_names: HashMap<Hg, BTreeSet<String>>,
    hg_onnet_certs: HashMap<Hg, usize>,
}

impl Produced {
    /// Fold one shard's summary into the cross-shard accumulators. Both
    /// freshly built and admitted shards land here, through the same
    /// decoded representation — one absorption path, so rendered output
    /// cannot depend on which shards were reused.
    fn absorb_summary(&mut self, s: ShardSummary<'_>) {
        self.totals.merge(s.totals);

        // §4.2 contributions: the global on-net fingerprint is the union
        // of per-shard on-net name sets (each contributing certificate
        // lives in exactly one shard).
        for entry in &s.hg_entries {
            self.hg_names
                .entry(entry.hg)
                .or_default()
                .extend(entry.names.iter().map(|&n| n.to_owned()));
            *self.hg_onnet_certs.entry(entry.hg).or_insert(0) += entry.onnet_certs;
        }
    }
}

/// One unit of pipeline work: a chunk to freeze, or a valid on-disk
/// segment already admitted (passed through so the fold sees shards in
/// order).
enum ShardTask {
    Admit(ShardDone),
    Build {
        obs: Box<scanner::SnapshotObservations>,
        endpoints: usize,
        faults: ChunkFaults,
        path: PathBuf,
        fingerprint: u64,
    },
}

/// What a worker hands the ordered fold for one shard.
struct ShardDone {
    summary: Vec<u8>,
    segment_bytes: usize,
    reused: bool,
    path: PathBuf,
    fingerprint: u64,
}

/// Producer pass: walk the endpoint stream in `shard_size` chunks; per
/// chunk, either reuse a valid on-disk segment (admitting the chunk into
/// the observation stream for health parity) or scan it through the
/// stream and hand the observation bundle to the worker pool to freeze.
/// An ordered fold absorbs each shard's summary by shard index.
fn produce(
    mut stream: ObservationStream<'_>,
    world: &HgWorld,
    engine: &ScanEngine,
    t: usize,
    ctx: &PipelineContext,
    sharding: &ShardingConfig,
) -> Result<Produced, ArtifactError> {
    let shard_size = sharding.shard_size.max(1);
    let dir = snapshot_dir(&sharding.spill_dir, t);
    std::fs::create_dir_all(&dir).map_err(|e| ArtifactError::io(&dir, e))?;

    let workers = sharding.resolved_workers(ctx);

    let mut acc = Produced {
        totals: CorpusTotals {
            snapshot_idx: t,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut streams_health: Option<ScanHealth> = None;

    // Feeder (caller thread): the order-dependent spine. The observation
    // stream and the reuse probes stay strictly serial; everything else
    // is pushed through the pipeline.
    let feed = |push: &mut dyn FnMut(ShardTask) -> bool| -> Result<(), ArtifactError> {
        let mut shard_idx = 0usize;
        let walked = for_each_chunk(world, t, shard_size, |chunk| {
            let path = segment_path(&sharding.spill_dir, t, shard_idx);
            let fingerprint = segment_fingerprint(world, engine, t, shard_size, shard_idx);
            shard_idx += 1;

            // Reuse path: any read/validation/decode failure simply falls
            // through to a rebuild — segments are a cache, not a source of
            // truth. Only the summary section is decoded here; the corpus
            // body stays untouched until the consumer pass.
            let reuse = read_segment(&path, fingerprint).and_then(|payload| {
                let (summary, faults) = probe_summary(&payload, t, &path)?;
                Ok((summary, faults, payload.len()))
            });
            if let Ok((summary, faults, segment_bytes)) = reuse {
                stream.admit_chunk(chunk, &faults);
                return push(ShardTask::Admit(ShardDone {
                    summary,
                    segment_bytes,
                    reused: true,
                    path,
                    fingerprint,
                }));
            }

            // Build path: scan the chunk (the stream is stateful, so this
            // is serial by construction) and let a worker freeze its
            // bundle.
            let (obs, faults) = stream.observe_chunk(chunk);
            push(ShardTask::Build {
                obs: Box::new(obs),
                endpoints: chunk.len(),
                faults,
                path,
                fingerprint,
            })
        });
        if walked {
            let mut health = ScanHealth::default();
            for stream_health in stream.finish() {
                health.merge(&stream_health);
            }
            streams_health = Some(health);
        }
        Ok(())
    };

    // Worker: freeze one chunk — §4.1 validation, interning, columnar
    // encode, checksum, atomic persist. Pure per-shard, so any worker
    // count yields byte-identical segments and summaries.
    let work = |_idx: usize, task: ShardTask| -> Result<ShardDone, ArtifactError> {
        match task {
            ShardTask::Admit(done) => Ok(done),
            ShardTask::Build {
                obs,
                endpoints,
                faults,
                path,
                fingerprint,
            } => {
                let corpus = SnapshotCorpus::build(
                    &obs,
                    &ctx.roots,
                    &standard_validate_options(),
                    ctx.validation_cache.as_deref(),
                );
                // The figure the summary stores, as `consume` charges it.
                let _resident = sharding.ledger.resident_guard(corpus.memory.interned_bytes);
                let summary = encode_summary(&corpus, endpoints, &faults, ctx);
                let body = encode_shard(&corpus, obs.http80.as_ref(), obs.https443.as_ref());
                let payload = frame_segment(&summary, &body);
                write_segment(&path, fingerprint, &payload)?;
                Ok(ShardDone {
                    summary,
                    segment_bytes: payload.len(),
                    reused: false,
                    path,
                    fingerprint,
                })
            }
        }
    };

    // Ordered fold: summaries absorb strictly by shard index, so the
    // accumulators see exactly the serial sequence.
    let ledger = &sharding.ledger;
    let fold = |shard_idx: usize, done: ShardDone| -> Result<(), ArtifactError> {
        {
            // Both arms checked the summary: built from snapshot `t`'s
            // chunk, or admitted by `probe_summary`.
            let s = decode_summary(&done.summary, &done.path)?;
            ledger.record(ShardStat {
                snapshot_idx: t,
                shard_idx,
                endpoints: s.endpoints,
                segment_bytes: done.segment_bytes,
                interned_bytes: s.interned_bytes,
                reused: done.reused,
            });
            acc.absorb_summary(s);
        }
        acc.segments.push((done.path, done.fingerprint));
        Ok(())
    };

    bounded_pipeline(workers, feed, work, fold)?;

    acc.totals.scan = streams_health.take().unwrap_or_default();
    Ok(acc)
}

// ---------------------------------------------------------------------------
// Consumer: stream segments back through the bounded pipeline, run
// §4.3–§4.5 per HG per shard, merge the partials in shard order.
// ---------------------------------------------------------------------------

/// Consumer pass: stream segments through the worker pool — each loads
/// once and runs the per-corpus HG loop ([`run_hgs`]) — and fold each
/// shard's partials into the merged result in shard order (so IP vectors
/// concatenate exactly as the serial loop appended them). A worker hands
/// its load error to the fold, so the first error in shard order stops
/// the pass. An HG that panicked in any shard comes back as the first
/// such panic message, in shard order.
///
/// Each shard re-bases the global §4.2 fingerprint into its own symbol
/// space: global on-net names absent from the shard's host pool cannot
/// appear in any shard SAN span, so dropping them preserves every
/// covers-all verdict.
fn consume(
    produced: &Produced,
    t: usize,
    world: &HgWorld,
    ctx: &PipelineContext,
    sharding: &ShardingConfig,
) -> Result<Vec<Result<HgAccum, String>>, ArtifactError> {
    let workers = sharding.resolved_workers(ctx);
    let shard_outcomes = |(path, fingerprint): &(PathBuf, u64)| {
        let payload = read_segment(path, *fingerprint)?;
        let (corpus, interned_bytes) = decode_shard(&payload, t, world.ip_to_as(t), path)?;
        let _resident = sharding.ledger.resident_guard(interned_bytes);
        Ok(run_hgs(&corpus, ctx, |hg| {
            let mut syms: Vec<HostSym> = produced
                .hg_names
                .get(&hg)
                .map(|ns| {
                    ns.iter()
                        .filter_map(|n| corpus.interner.hosts().get(n))
                        .collect()
                })
                .unwrap_or_default();
            syms.sort_unstable();
            TlsFingerprint::from_parts(
                hg.spec().keyword.to_ascii_lowercase(),
                syms,
                produced.hg_onnet_certs.get(&hg).copied().unwrap_or(0),
            )
        }))
    };

    let mut merged: Vec<Result<HgAccum, String>> =
        ALL_HGS.iter().map(|_| Ok(HgAccum::default())).collect();
    bounded_pipeline(
        workers,
        |push| {
            for segment in &produced.segments {
                if !push(segment) {
                    break;
                }
            }
            Ok(())
        },
        |_, segment| Ok(shard_outcomes(segment)),
        |_, outcomes: Result<Vec<Result<HgAccum, String>>, ArtifactError>| {
            for (into, from) in merged.iter_mut().zip(outcomes?) {
                match (into.as_mut(), from) {
                    (Ok(into), Ok(from)) => into.merge(from),
                    (Ok(_), Err(message)) => *into = Err(message),
                    (Err(_), _) => {}
                }
            }
            Ok(())
        },
    )?;
    Ok(merged)
}

/// Bench/diagnostic hook: walk snapshot `t`'s on-disk segments in shard
/// order and admit each one — summary-only when `full_decode` is false
/// (the warm path), or through the whole-body corpus decode (the cost of
/// admission without a summary section) when true. Returns the number of segments admitted.
pub fn admit_segments_for_bench(
    world: &HgWorld,
    engine: &ScanEngine,
    t: usize,
    sharding: &ShardingConfig,
    full_decode: bool,
) -> Result<usize, ArtifactError> {
    let shard_size = sharding.shard_size.max(1);
    let mut admitted = 0usize;
    loop {
        let path = segment_path(&sharding.spill_dir, t, admitted);
        if !path.is_file() {
            return Ok(admitted);
        }
        let fingerprint = segment_fingerprint(world, engine, t, shard_size, admitted);
        let payload = read_segment(&path, fingerprint)?;
        if full_decode {
            std::hint::black_box(decode_shard(&payload, t, world.ip_to_as(t), &path)?);
        } else {
            std::hint::black_box(probe_summary(&payload, t, &path)?);
        }
        admitted += 1;
    }
}

/// The sharded equivalent of observe +
/// [`process_snapshot`](crate::process_snapshot): returns `None` when
/// the engine's corpus
/// does not cover `t`, otherwise the snapshot result with peak memory
/// bounded by `depth × shard_size`.
pub fn process_snapshot_sharded(
    world: &HgWorld,
    engine: &ScanEngine,
    t: usize,
    ctx: &PipelineContext,
    sharding: &ShardingConfig,
) -> Result<Option<SnapshotResult>, ArtifactError> {
    let Some(stream) = ObservationStream::new(world, engine, t) else {
        return Ok(None);
    };
    let produced = produce(stream, world, engine, t, ctx, sharding)?;
    let outcomes = consume(&produced, t, world, ctx, sharding)?;
    Ok(Some(finish_snapshot(produced.totals, outcomes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confirm::Port;
    use hgsim::ScenarioConfig;
    use scanner::SnapshotObservations;
    use std::collections::HashSet;

    /// A built shard's framed segment payload: summary, then body.
    fn segment_payload(
        corpus: &SnapshotCorpus,
        obs: &SnapshotObservations,
        ctx: &PipelineContext,
    ) -> Vec<u8> {
        frame_segment(
            &encode_summary(corpus, 0, &ChunkFaults::default(), ctx),
            &encode_shard(corpus, obs.http80.as_ref(), obs.https443.as_ref()),
        )
    }

    /// A decoded segment gives back the corpus it was built from: the
    /// stored tables, and everything assembly derives from them — one
    /// shared leaf per distinct DER, the per-HG indices, the Cloudflare
    /// flags, the banner index and its quarantine counters, and the
    /// memory figures. Record faults make the quarantine counters nonzero.
    #[test]
    fn decoded_shard_shares_one_leaf_per_distinct_der() {
        let world = HgWorld::generate(ScenarioConfig::small());
        let plan = scanner::FaultPlan::uniform_record_faults(11, 0.1);
        let engine = ScanEngine::rapid7().with_faults(Arc::new(plan));
        let ctx = PipelineContext::new(
            world.pki().root_store().clone(),
            world.org_db(),
            Default::default(),
        );
        let t = 30;
        let obs = scanner::observe_snapshot(&world, &engine, t).expect("snapshot in corpus");
        let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);
        let payload = segment_payload(&corpus, &obs, &ctx);
        let path = Path::new("in-memory segment");
        let (decoded, interned_bytes) = decode_shard(&payload, t, world.ip_to_as(t), path).unwrap();
        let (built, decoded) = (&corpus, &decoded);
        assert_eq!(interned_bytes, built.memory.interned_bytes);
        assert_eq!(decoded.memory.segment_bytes, payload.len());

        // The totals the summary stores once come back on the corpus.
        assert_eq!(built.total_ips_with_certs, decoded.total_ips_with_certs);
        assert_eq!(built.ases_with_certs, decoded.ases_with_certs);
        assert_eq!(built.http_only_ips, decoded.http_only_ips);
        assert_eq!(built.validation.valid, decoded.validation.valid);
        assert_eq!(built.validation.invalid, decoded.validation.invalid);
        assert_eq!(built.san_offsets, decoded.san_offsets);
        assert_eq!(built.san_syms, decoded.san_syms);

        assert_eq!(built.valids.len(), decoded.valids.len());
        for (b, d) in built.valids.iter().zip(&decoded.valids) {
            assert_eq!((b.ip, b.expiry_exempted), (d.ip, d.expiry_exempted));
            assert_eq!(b.leaf.der(), d.leaf.der());
        }
        let distinct_der: HashSet<&[u8]> = decoded.valids.iter().map(|v| v.leaf.der()).collect();
        let distinct_arcs = |c: &SnapshotCorpus| {
            c.valids
                .iter()
                .map(|v| Arc::as_ptr(&v.leaf))
                .collect::<HashSet<_>>()
                .len()
        };
        assert!(distinct_der.len() < decoded.valids.len(), "no shared leaf");
        assert_eq!(distinct_arcs(decoded), distinct_der.len());
        assert_eq!(distinct_arcs(built), distinct_der.len());
        assert_eq!(built.by_hg_std, decoded.by_hg_std);
        assert_eq!(built.by_hg_all, decoded.by_hg_all);
        assert_eq!(built.cf_free_host, decoded.cf_free_host);
        assert!(built.cf_free_host.contains(&true), "no Cloudflare marker");

        let quality = built.banners.quality;
        assert_eq!(quality, decoded.banners.quality);
        assert!(quality.oversized > 0 && quality.mojibake > 0 && quality.duplicate_ip > 0);
        // Banner rows hold the same symbols, and each corpus's own pools
        // resolve them to the same header strings.
        fn header_strings(c: &SnapshotCorpus, port: Port, ip: u32) -> Option<Vec<(&str, &str)>> {
            let (names, values) = (c.interner.header_names(), c.interner.header_values());
            let row = c.banners.get(port, ip)?;
            Some(
                row.iter()
                    .map(|&(n, v)| (names.resolve(n), values.resolve(v)))
                    .collect(),
            )
        }
        let [http, https] = obs.banner_records();
        let valid_ips = built.valids.iter().map(|v| v.ip);
        for ip in http.iter().chain(https).map(|r| r.ip).chain(valid_ips) {
            for port in Port::ALL {
                let (b, d) = (built.banners.get(port, ip), decoded.banners.get(port, ip));
                assert_eq!(b, d, "{ip} {port:?}");
                assert_eq!(
                    header_strings(built, port, ip),
                    header_strings(decoded, port, ip),
                    "{ip} {port:?}"
                );
            }
        }
        // Each leaf's SAN span resolves to the same host strings.
        fn san_strings(c: &SnapshotCorpus) -> Vec<Vec<&str>> {
            let hosts = c.interner.hosts();
            let span = |i| c.sans(i).iter().map(|&h| hosts.resolve(h)).collect();
            (0..c.valids.len() as u32).map(span).collect()
        }
        assert_eq!(san_strings(built), san_strings(decoded));
        // The memory figures match but for the host pool's growth slack:
        // built by doubling as SANs were interned, decoded to size.
        let slack = |c: &SnapshotCorpus| c.memory.interned_bytes - c.interner.hosts().heap_bytes();
        assert_eq!(slack(built), slack(decoded));
        assert_eq!(built.memory.hosts, decoded.memory.hosts);
        let m = built.memory;
        assert!(m.hosts > 0 && m.header_names > 0 && m.header_values > 0);
    }

    /// A small shard of snapshot 30: up to `cap` on-net and `cap` off-net
    /// certificate records, and the first `cap` banners of each port.
    fn small_shard(
        cap: usize,
    ) -> (
        HgWorld,
        PipelineContext,
        SnapshotObservations,
        SnapshotCorpus,
    ) {
        let world = HgWorld::generate(ScenarioConfig::small());
        let engine = ScanEngine::rapid7();
        let ctx = PipelineContext::new(
            world.pki().root_store().clone(),
            world.org_db(),
            Default::default(),
        );
        let mut obs = scanner::observe_snapshot(&world, &engine, 30).expect("snapshot in corpus");
        let ip_to_as = obs.ip_to_as.clone();
        let on_net = |ip: u32| {
            let origins = ip_to_as.lookup(ip);
            ctx.hg_ases
                .values()
                .any(|ases| origins.iter().any(|a| ases.contains(a)))
        };
        let mut kept = (0, 0);
        obs.cert.records.retain(|r| {
            let slot = if on_net(r.ip) {
                &mut kept.0
            } else {
                &mut kept.1
            };
            *slot += 1;
            *slot <= cap
        });
        // The kept banners get pools of their own, so a segment holds just
        // this shard's strings.
        let scanned = std::mem::take(&mut obs.interner);
        for http in [obs.http80.as_mut(), obs.https443.as_mut()]
            .into_iter()
            .flatten()
        {
            http.records.truncate(cap);
            for (name, value) in http.records.iter_mut().flat_map(|r| &mut r.headers) {
                let pools = &mut obs.interner;
                *name = pools
                    .header_names
                    .intern(scanned.header_names.resolve(*name));
                *value = pools
                    .header_values
                    .intern(scanned.header_values.resolve(*value));
            }
        }
        let corpus = SnapshotCorpus::build(&obs, &ctx.roots, &standard_validate_options(), None);
        (world, ctx, obs, corpus)
    }

    /// The admission decoder reads bytes below the segment checksum, so it
    /// must survive any damage on its own: every truncation of a framed
    /// summary is an error, and no byte flip panics or drives an
    /// allocation from an unchecked count.
    #[test]
    fn summary_decoder_survives_truncation_and_flips() {
        let (_world, ctx, _obs, corpus) = small_shard(12);
        let mut faults = ChunkFaults::default();
        faults[0].add(FaultClass::TruncatedDer, 3);
        faults[0].add(FaultClass::DuplicateIp, 1);
        faults[2].add(FaultClass::MojibakeHeader, 200);
        let summary = encode_summary(&corpus, 24, &faults, &ctx);
        let payload = frame_segment(&summary, &[]);
        let path = Path::new("in-memory segment");
        let decode = |bytes: &[u8]| -> Result<usize, ArtifactError> {
            let (summary, _body) = split_segment_payload(bytes, path)?;
            let s = decode_summary(summary, path)?;
            Ok(s.hg_entries.len())
        };
        assert!(decode(&payload).unwrap() > 0, "no §4.2 entry to damage");
        assert_eq!(decode_summary(&summary, path).unwrap().faults, faults);

        for cut in 0..payload.len() {
            assert!(decode(&payload[..cut]).is_err(), "cut at {cut} decoded");
        }
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = payload.clone();
                flipped[i] ^= mask;
                let _ = decode(&flipped);
            }
        }
    }

    /// The corpus decoder, like the summary's, reads bytes below the
    /// checksum: every truncation of a framed payload (summary and body)
    /// is an error, and no byte flip panics or sizes an allocation from an
    /// unchecked length — a span, offset or symbol that points outside its
    /// table is `Corrupt`.
    #[test]
    fn body_decoder_survives_truncation_and_flips() {
        let (world, ctx, obs, corpus) = small_shard(3);
        let payload = segment_payload(&corpus, &obs, &ctx);
        let path = Path::new("in-memory segment");
        let ip_to_as = world.ip_to_as(30);
        let decode = |bytes: &[u8]| decode_shard(bytes, 30, ip_to_as.clone(), path);
        let (decoded, _) = decode(&payload).unwrap();
        assert!(!decoded.valids.is_empty() && !decoded.san_syms.is_empty());

        for cut in 0..payload.len() {
            assert!(decode(&payload[..cut]).is_err(), "cut at {cut} decoded");
        }
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = payload.clone();
                flipped[i] ^= mask;
                let _ = decode(&flipped);
            }
        }
    }
}
