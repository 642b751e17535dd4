//! Deterministic fault injection for scan corpora.
//!
//! Real scan corpora are messy: truncated DER blobs, garbage banners,
//! duplicate rows for one IP, whole snapshots missing from the archive.
//! A [`FaultPlan`] reproduces that mess deterministically — every fault is
//! decided by a seeded per-(class, snapshot, record) coin, so two runs with
//! the same plan corrupt exactly the same records — and keeps an exact
//! ledger of what it injected so the pipeline's quarantine counts can be
//! checked against ground truth.
//!
//! Plans compose with every [`ScanEngine`](crate::ScanEngine) via
//! [`ScanEngine::with_faults`](crate::ScanEngine::with_faults); faults are
//! applied to each chunk's records on the way out of the scan streams
//! (`CertScanStream`, `HttpScanStream`), before the pipeline ever sees
//! them. A plan with all rates at zero is a byte-identical no-op.

use crate::engine::mix;
use crate::scan::{CertScanRecord, HttpRecord};
use bytes::Bytes;
use intern::Interner;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Banner header values longer than this are treated as corrupt and
/// quarantined by the pipeline's banner indexer (no simulated header comes
/// anywhere near it; real-world parsers impose similar caps).
pub const MAX_HEADER_VALUE_LEN: usize = 4096;

/// One class of injectable corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Leaf DER cut short mid-structure (partial capture).
    TruncatedDer,
    /// Leaf DER replaced by random bytes (corrupted archive row).
    GarbageDer,
    /// One bit flipped inside the leaf DER header (wire damage).
    BitFlippedDer,
    /// The record appears twice for the same IP (double-counted row).
    DuplicateIp,
    /// A banner header value gains control bytes / U+FFFD (mojibake).
    MojibakeHeader,
    /// A banner header value blown past [`MAX_HEADER_VALUE_LEN`].
    OversizedHeader,
    /// The certificate snapshot exists but carries zero records.
    EmptySnapshot,
    /// The whole (engine, snapshot) observation is missing.
    DroppedSnapshot,
}

impl FaultClass {
    /// Every class, in a fixed order (also the per-record precedence order
    /// for the mutually exclusive DER corruptions).
    pub const ALL: [FaultClass; 8] = [
        FaultClass::TruncatedDer,
        FaultClass::GarbageDer,
        FaultClass::BitFlippedDer,
        FaultClass::DuplicateIp,
        FaultClass::MojibakeHeader,
        FaultClass::OversizedHeader,
        FaultClass::EmptySnapshot,
        FaultClass::DroppedSnapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultClass::TruncatedDer => "truncated-der",
            FaultClass::GarbageDer => "garbage-der",
            FaultClass::BitFlippedDer => "bit-flipped-der",
            FaultClass::DuplicateIp => "duplicate-ip",
            FaultClass::MojibakeHeader => "mojibake-header",
            FaultClass::OversizedHeader => "oversized-header",
            FaultClass::EmptySnapshot => "empty-snapshot",
            FaultClass::DroppedSnapshot => "dropped-snapshot",
        }
    }

    /// Per-class salt diffused into the coin hash.
    fn tag(self) -> u64 {
        match self {
            FaultClass::TruncatedDer => 0x7472_756e,
            FaultClass::GarbageDer => 0x6761_7262,
            FaultClass::BitFlippedDer => 0x666c_6970,
            FaultClass::DuplicateIp => 0x6475_7065,
            FaultClass::MojibakeHeader => 0x6d6f_6a69,
            FaultClass::OversizedHeader => 0x6f76_6572,
            FaultClass::EmptySnapshot => 0x656d_7074,
            FaultClass::DroppedSnapshot => 0x6472_6f70,
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Exact injected-fault counts, by class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    counts: BTreeMap<FaultClass, usize>,
}

impl FaultStats {
    pub fn count(&self, class: FaultClass) -> usize {
        self.counts.get(&class).copied().unwrap_or(0)
    }

    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.values().all(|&n| n == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (FaultClass, usize)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    pub fn add(&mut self, class: FaultClass, n: usize) {
        if n > 0 {
            *self.counts.entry(class).or_insert(0) += n;
        }
    }

    pub fn merge(&mut self, other: &FaultStats) {
        for (class, n) in other.iter() {
            self.add(class, n);
        }
    }
}

/// Which record stream a ledger entry belongs to. Ledger entries are keyed
/// by (snapshot, stream) and overwritten on re-observation, so observing
/// the same snapshot twice (e.g. the header-reference pass plus the study
/// loop) never double-counts.
const STREAM_CERT: u8 = 0;
const STREAM_HTTP80: u8 = 1;
const STREAM_HTTPS443: u8 = 2;
const STREAM_OBSERVE: u8 = 3;

/// A seeded, per-class-rate fault-injection plan.
///
/// Interior-mutable: the same plan (behind an `Arc`) is shared by the
/// engine clones inside a parallel study, and its injected-fault ledger is
/// written from whichever worker observes a snapshot.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: BTreeMap<FaultClass, f64>,
    injected: Mutex<BTreeMap<(usize, u8), FaultStats>>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Default::default()
        }
    }

    /// Set one class's injection rate (clamped to `[0, 1]`).
    pub fn with_rate(mut self, class: FaultClass, rate: f64) -> Self {
        self.rates.insert(class, rate.clamp(0.0, 1.0));
        self
    }

    /// A plan injecting a single fault class.
    pub fn single(seed: u64, class: FaultClass, rate: f64) -> Self {
        Self::new(seed).with_rate(class, rate)
    }

    /// A plan injecting every record-level class (everything except the
    /// snapshot-level drops/empties) at one uniform rate.
    pub fn uniform_record_faults(seed: u64, rate: f64) -> Self {
        let mut plan = Self::new(seed);
        for class in [
            FaultClass::TruncatedDer,
            FaultClass::GarbageDer,
            FaultClass::BitFlippedDer,
            FaultClass::DuplicateIp,
            FaultClass::MojibakeHeader,
            FaultClass::OversizedHeader,
        ] {
            plan = plan.with_rate(class, rate);
        }
        plan
    }

    pub fn rate(&self, class: FaultClass) -> f64 {
        self.rates.get(&class).copied().unwrap_or(0.0)
    }

    /// Stable digest of the plan's seed and per-class rates (the ledger is
    /// runtime state and does not participate). Two plans with equal
    /// fingerprints corrupt scans identically, so study log config
    /// fingerprints can include this to invalidate stale logs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.seed ^ 0xfa51_7b1a_u64.rotate_left(1));
        for (class, rate) in &self.rates {
            h = mix(h ^ class.tag() ^ rate.to_bits());
        }
        h
    }

    /// The deterministic coin for (class, snapshot, record key).
    fn coin(&self, class: FaultClass, t: usize, key: u64) -> bool {
        let rate = self.rate(class);
        if rate <= 0.0 {
            return false;
        }
        let h = self.hash(class, t, key);
        (h as f64 / u64::MAX as f64) < rate
    }

    fn hash(&self, class: FaultClass, t: usize, key: u64) -> u64 {
        mix(mix(self.seed ^ class.tag()) ^ mix((t as u64).rotate_left(24) ^ key))
    }

    /// A deterministic parameter draw, independent of the coin.
    fn draw(&self, class: FaultClass, t: usize, key: u64) -> u64 {
        mix(self.hash(class, t, key) ^ 0xd00d_f00d)
    }

    /// Whether this plan removes snapshot `t` from the corpus entirely.
    /// Recording is idempotent, so repeated queries are safe.
    pub fn drops_snapshot(&self, t: usize) -> bool {
        if self.coin(FaultClass::DroppedSnapshot, t, 0x0b5e) {
            let mut stats = FaultStats::default();
            stats.add(FaultClass::DroppedSnapshot, 1);
            self.store(t, STREAM_OBSERVE, stats);
            return true;
        }
        false
    }

    /// Start a certificate fault pass over one scan's record chunks.
    /// Coins are keyed per record, so chunking cannot change any
    /// decision; counts accumulate across chunks into the same single
    /// ledger entry, stored by [`CertFaultSession::finish`].
    pub(crate) fn cert_session(&self, t: usize) -> CertFaultSession<'_> {
        let mut stats = FaultStats::default();
        let empty = self.coin(FaultClass::EmptySnapshot, t, 0xe321);
        if empty {
            stats.add(FaultClass::EmptySnapshot, 1);
        }
        CertFaultSession {
            plan: self,
            t,
            empty,
            stats,
        }
    }

    /// Start a banner fault pass over one scan's record chunks.
    ///
    /// Corrupted header values are new strings, so they are interned into
    /// the scan's (still append-only) interner. A zero-rate plan interns
    /// nothing, keeping symbol assignment byte-identical to a plan-free
    /// scan.
    pub(crate) fn http_session(&self, t: usize, port: u16) -> HttpFaultSession<'_> {
        HttpFaultSession {
            plan: self,
            t,
            port,
            stats: FaultStats::default(),
        }
    }

    fn store(&self, t: usize, stream: u8, stats: FaultStats) {
        self.injected
            .lock()
            .expect("fault ledger lock")
            .insert((t, stream), stats);
    }

    /// Exact injected counts for snapshot `t`, merged over all streams.
    pub fn injected_for(&self, t: usize) -> FaultStats {
        let mut merged = FaultStats::default();
        for ((_, _), stats) in self
            .injected
            .lock()
            .expect("fault ledger lock")
            .range((t, u8::MIN)..=(t, u8::MAX))
        {
            merged.merge(stats);
        }
        merged
    }

    /// Exact injected counts over every snapshot observed so far.
    pub fn injected_total(&self) -> FaultStats {
        let mut merged = FaultStats::default();
        for stats in self.injected.lock().expect("fault ledger lock").values() {
            merged.merge(stats);
        }
        merged
    }
}

/// Chunk-by-chunk certificate corruption with one accumulated ledger
/// entry. Per-record coins are pure functions of (class, snapshot, IP),
/// so feeding the record stream through chunks of any size corrupts
/// exactly the same records — a whole-snapshot scan (one chunk) and a
/// sharded one stay byte-identical. A resumed producer that reuses an
/// on-disk segment instead of re-scanning its chunk folds the counts the
/// segment recorded back in ([`Self::admit`]), so the ledger entry is the
/// same either way.
pub(crate) struct CertFaultSession<'p> {
    plan: &'p FaultPlan,
    t: usize,
    empty: bool,
    stats: FaultStats,
}

impl CertFaultSession<'_> {
    /// Whether the EmptySnapshot coin fired: every chunk's records are
    /// dropped (endpoints are still admitted for scan-health parity).
    pub(crate) fn empty_snapshot(&self) -> bool {
        self.empty
    }

    /// Corrupt one chunk's records, returning the faults injected into
    /// them (also accumulated into the session's ledger entry).
    pub(crate) fn apply_chunk(&mut self, records: &mut Vec<CertScanRecord>) -> FaultStats {
        let mut stats = FaultStats::default();
        if self.empty {
            records.clear();
            return stats;
        }
        let t = self.t;
        let mut out = Vec::with_capacity(records.len());
        for mut rec in records.drain(..) {
            let key = u64::from(rec.ip);
            if self.plan.coin(FaultClass::TruncatedDer, t, key) {
                truncate_leaf(
                    &mut rec.chain_der,
                    self.plan.draw(FaultClass::TruncatedDer, t, key),
                );
                stats.add(FaultClass::TruncatedDer, 1);
            } else if self.plan.coin(FaultClass::GarbageDer, t, key) {
                garbage_leaf(
                    &mut rec.chain_der,
                    self.plan.draw(FaultClass::GarbageDer, t, key),
                );
                stats.add(FaultClass::GarbageDer, 1);
            } else if self.plan.coin(FaultClass::BitFlippedDer, t, key) {
                bit_flip_leaf(
                    &mut rec.chain_der,
                    self.plan.draw(FaultClass::BitFlippedDer, t, key),
                );
                stats.add(FaultClass::BitFlippedDer, 1);
            }
            if self.plan.coin(FaultClass::DuplicateIp, t, key) {
                out.push(rec.clone());
                stats.add(FaultClass::DuplicateIp, 1);
            }
            out.push(rec);
        }
        *records = out;
        self.stats.merge(&stats);
        stats
    }

    /// Count a chunk's faults without re-scanning it: the chunk was
    /// scanned before and `injected` is what that scan returned.
    pub(crate) fn admit(&mut self, injected: &FaultStats) {
        self.stats.merge(injected);
    }

    pub(crate) fn finish(self) {
        self.plan.store(self.t, STREAM_CERT, self.stats);
    }
}

/// Chunk-by-chunk banner corruption with one accumulated ledger entry
/// (see [`CertFaultSession`] for the equivalence argument).
pub(crate) struct HttpFaultSession<'p> {
    plan: &'p FaultPlan,
    t: usize,
    port: u16,
    stats: FaultStats,
}

impl HttpFaultSession<'_> {
    /// Corrupt one chunk's records, returning the faults injected into
    /// them (also accumulated into the session's ledger entry).
    pub(crate) fn apply_chunk(
        &mut self,
        records: &mut Vec<HttpRecord>,
        interner: &mut Interner,
    ) -> FaultStats {
        let mut stats = FaultStats::default();
        let t = self.t;
        let salt = u64::from(self.port) << 40;
        let mut out = Vec::with_capacity(records.len());
        for mut rec in records.drain(..) {
            let key = u64::from(rec.ip) ^ salt;
            if self.plan.coin(FaultClass::MojibakeHeader, t, key) {
                mojibake_header(
                    &mut rec,
                    self.plan.draw(FaultClass::MojibakeHeader, t, key),
                    interner,
                );
                stats.add(FaultClass::MojibakeHeader, 1);
            } else if self.plan.coin(FaultClass::OversizedHeader, t, key) {
                oversize_header(
                    &mut rec,
                    self.plan.draw(FaultClass::OversizedHeader, t, key),
                    interner,
                );
                stats.add(FaultClass::OversizedHeader, 1);
            }
            if self.plan.coin(FaultClass::DuplicateIp, t, key) {
                out.push(rec.clone());
                stats.add(FaultClass::DuplicateIp, 1);
            }
            out.push(rec);
        }
        *records = out;
        self.stats.merge(&stats);
        stats
    }

    /// See [`CertFaultSession::admit`].
    pub(crate) fn admit(&mut self, injected: &FaultStats) {
        self.stats.merge(injected);
    }

    pub(crate) fn finish(self) {
        let stream = if self.port == 443 {
            STREAM_HTTPS443
        } else {
            STREAM_HTTP80
        };
        self.plan.store(self.t, stream, self.stats);
    }
}

/// Cut the leaf DER to a strict prefix: the outer SEQUENCE length then
/// overruns the buffer, so `x509::Certificate::parse` must fail.
fn truncate_leaf(chain: &mut [Bytes], draw: u64) {
    let Some(leaf) = chain.first_mut() else {
        return;
    };
    if leaf.len() < 2 {
        *leaf = Bytes::copy_from_slice(&[0xff]);
        return;
    }
    let keep = 1 + (draw as usize % (leaf.len() - 1));
    *leaf = leaf.slice(0..keep);
}

/// Replace the leaf DER with pseudo-random bytes. The first byte is forced
/// to 0xFF (not a SEQUENCE tag), so parsing deterministically fails.
fn garbage_leaf(chain: &mut [Bytes], draw: u64) {
    let Some(leaf) = chain.first_mut() else {
        return;
    };
    let n = 8 + (draw as usize % 56);
    let mut bytes = Vec::with_capacity(n);
    bytes.push(0xff);
    let mut x = draw;
    for _ in 1..n {
        x = mix(x);
        bytes.push((x & 0xff) as u8);
    }
    *leaf = Bytes::copy_from_slice(&bytes);
}

/// Flip one bit inside the leaf's outer tag or first length byte. Either
/// corrupts the SEQUENCE framing, so parsing fails without depending on
/// anything deeper in the structure.
fn bit_flip_leaf(chain: &mut [Bytes], draw: u64) {
    let Some(leaf) = chain.first_mut() else {
        return;
    };
    let mut bytes = leaf.to_vec();
    if bytes.is_empty() {
        return;
    }
    let byte = (draw as usize) % 2.min(bytes.len());
    let bit = 1u8 << ((draw >> 8) % 8);
    bytes[byte] ^= bit;
    *leaf = Bytes::copy_from_slice(&bytes);
}

/// Splice a replacement character and a control byte into one header value.
fn mojibake_header(rec: &mut HttpRecord, draw: u64, interner: &mut Interner) {
    ensure_corruptible_header(rec, interner);
    let i = (draw as usize) % rec.headers.len();
    let mut v = interner.header_values.resolve(rec.headers[i].1).to_owned();
    v.push('\u{fffd}');
    v.push('\u{0007}');
    rec.headers[i].1 = interner.header_values.intern(&v);
}

/// Blow one header value past [`MAX_HEADER_VALUE_LEN`].
fn oversize_header(rec: &mut HttpRecord, draw: u64, interner: &mut Interner) {
    ensure_corruptible_header(rec, interner);
    let i = (draw as usize) % rec.headers.len();
    let pad = MAX_HEADER_VALUE_LEN + 1 + (draw >> 16) as usize % 64;
    rec.headers[i].1 = interner.header_values.intern(&"A".repeat(pad));
}

/// Give a headerless record one synthetic header to corrupt.
fn ensure_corruptible_header(rec: &mut HttpRecord, interner: &mut Interner) {
    if rec.headers.is_empty() {
        rec.headers.push((
            interner.header_names.intern("x-corrupt"),
            interner.header_values.intern(""),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` certificate records of snapshot 5, one per IP.
    fn cert_records(n: usize) -> Vec<CertScanRecord> {
        (0..n as u32)
            .map(|ip| CertScanRecord {
                ip,
                chain_der: vec![Bytes::copy_from_slice(&[
                    0x30, 0x82, 0x01, 0x00, 0xaa, 0xbb,
                ])],
            })
            .collect()
    }

    /// `n` port-80 banner records of snapshot 5, one per IP.
    fn http_records(n: usize, interner: &mut Interner) -> Vec<HttpRecord> {
        let name = interner.header_names.intern("server");
        let value = interner.header_values.intern("sim");
        (0..n as u32)
            .map(|ip| HttpRecord {
                ip,
                headers: vec![(name, value)],
            })
            .collect()
    }

    /// One certificate fault pass over snapshot 5, as a single chunk.
    fn corrupt_certs(plan: &FaultPlan, records: &mut Vec<CertScanRecord>) {
        let mut session = plan.cert_session(5);
        session.apply_chunk(records);
        session.finish();
    }

    /// One port-80 banner fault pass over snapshot 5, as a single chunk.
    fn corrupt_banners(plan: &FaultPlan, records: &mut Vec<HttpRecord>, interner: &mut Interner) {
        let mut session = plan.http_session(5, 80);
        session.apply_chunk(records, interner);
        session.finish();
    }

    #[test]
    fn zero_rate_plan_is_identity() {
        let plan = FaultPlan::new(9);
        let mut records = cert_records(100);
        let before: Vec<(u32, Vec<Bytes>)> = records
            .iter()
            .map(|r| (r.ip, r.chain_der.clone()))
            .collect();
        corrupt_certs(&plan, &mut records);
        let after: Vec<(u32, Vec<Bytes>)> = records
            .iter()
            .map(|r| (r.ip, r.chain_der.clone()))
            .collect();
        assert_eq!(before, after);
        assert!(plan.injected_total().is_empty());
        assert!(!plan.drops_snapshot(5));
    }

    #[test]
    fn injection_is_deterministic() {
        let run = || {
            let plan = FaultPlan::uniform_record_faults(42, 0.2);
            let mut records = cert_records(500);
            corrupt_certs(&plan, &mut records);
            let ledger = plan.injected_for(5);
            let ders: Vec<Vec<u8>> = records.iter().map(|r| r.chain_der[0].to_vec()).collect();
            (ledger, ders)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ledger_counts_match_observable_corruption() {
        let plan = FaultPlan::uniform_record_faults(7, 0.1);
        let mut records = cert_records(1000);
        corrupt_certs(&plan, &mut records);
        let ledger = plan.injected_for(5);
        let corrupt = records
            .iter()
            .filter(|r| r.chain_der[0].as_ref() != [0x30, 0x82, 0x01, 0x00, 0xaa, 0xbb])
            .count();
        let injected_der = ledger.count(FaultClass::TruncatedDer)
            + ledger.count(FaultClass::GarbageDer)
            + ledger.count(FaultClass::BitFlippedDer);
        assert!(
            injected_der > 0,
            "rate 0.1 over 1000 records injected nothing"
        );
        // Duplicates clone the (possibly corrupted) record, so the corrupt
        // row count is injected_der plus corrupted duplicates.
        assert!(corrupt >= injected_der, "{corrupt} < {injected_der}");
        assert_eq!(records.len(), 1000 + ledger.count(FaultClass::DuplicateIp));
    }

    #[test]
    fn ledger_is_idempotent_across_reobservation() {
        let plan = FaultPlan::uniform_record_faults(7, 0.1);
        corrupt_certs(&plan, &mut cert_records(200));
        let first = plan.injected_for(5);
        corrupt_certs(&plan, &mut cert_records(200));
        assert_eq!(first, plan.injected_for(5), "re-observation double-counted");
    }

    #[test]
    fn http_faults_inject_detectable_defects() {
        let mut interner = Interner::default();
        let plan = FaultPlan::new(3)
            .with_rate(FaultClass::MojibakeHeader, 0.15)
            .with_rate(FaultClass::OversizedHeader, 0.15);
        let mut records = http_records(500, &mut interner);
        corrupt_banners(&plan, &mut records, &mut interner);
        let ledger = plan.injected_for(5);
        let mojibake = records
            .iter()
            .filter(|r| {
                r.headers.iter().any(|(_, v)| {
                    interner
                        .header_values
                        .resolve(*v)
                        .chars()
                        .any(|c| c == '\u{fffd}')
                })
            })
            .count();
        let oversized = records
            .iter()
            .filter(|r| {
                r.headers
                    .iter()
                    .any(|(_, v)| interner.header_values.resolve(*v).len() > MAX_HEADER_VALUE_LEN)
            })
            .count();
        assert_eq!(mojibake, ledger.count(FaultClass::MojibakeHeader));
        assert_eq!(oversized, ledger.count(FaultClass::OversizedHeader));
        assert!(mojibake > 0 && oversized > 0);
    }

    #[test]
    fn zero_rate_http_plan_interns_nothing() {
        // The interner is part of the observation's byte-identity: a no-op
        // plan must not mint symbols a plan-free scan would lack.
        let mut interner = Interner::default();
        let plan = FaultPlan::new(9);
        let mut records = http_records(200, &mut interner);
        let before = (
            interner.header_names.len(),
            interner.header_values.len(),
            records.clone(),
        );
        corrupt_banners(&plan, &mut records, &mut interner);
        assert_eq!(interner.header_names.len(), before.0);
        assert_eq!(interner.header_values.len(), before.1);
        assert_eq!(records, before.2);
    }

    #[test]
    fn dropped_snapshots_hit_roughly_the_rate() {
        let plan = FaultPlan::single(11, FaultClass::DroppedSnapshot, 0.3);
        let dropped = (0..1000).filter(|&t| plan.drops_snapshot(t)).count();
        assert!((150..450).contains(&dropped), "{dropped} of 1000 dropped");
    }

    #[test]
    fn corrupted_leaves_never_parse() {
        // The three DER corruptions must each guarantee a parse failure, or
        // quarantine counts drift from the injected ledger.
        let plan = FaultPlan::uniform_record_faults(13, 1.0);
        for draw in 0..64u64 {
            let der = Bytes::copy_from_slice(&[
                0x30, 0x82, 0x00, 0x10, 0x30, 0x0e, 0xa0, 0x03, 0x02, 0x01, 0x02, 0x02, 0x01, 0x01,
                0x05, 0x00, 0x30, 0x00, 0x30, 0x00,
            ]);
            for f in [truncate_leaf, garbage_leaf, bit_flip_leaf] {
                let mut chain = vec![der.clone()];
                f(&mut chain, plan.draw(FaultClass::TruncatedDer, 0, draw));
                assert!(
                    x509::Certificate::parse(&chain[0]).is_err(),
                    "corruption survived parsing: {:02x?}",
                    chain[0].as_ref()
                );
            }
        }
    }
}
