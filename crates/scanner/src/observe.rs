//! Bundled per-snapshot observations: everything the inference pipeline
//! consumes for one (engine, snapshot) pair, observed whole
//! ([`observe_snapshot`]) or one endpoint chunk at a time
//! ([`ObservationStream`]).

use crate::engine::{EngineId, ScanEngine};
use crate::faults::FaultStats;
use crate::scan::{CertScanSnapshot, CertScanStream, HttpRecord, HttpScanSnapshot, HttpScanStream};
use crate::transient::ScanHealth;
use hgsim::{Endpoint, HgWorld};
use intern::Interner;
use netsim::IpToAsMap;
use std::sync::Arc;
use timebase::Date;

/// One (engine, snapshot) observation bundle.
#[derive(Debug, Clone)]
pub struct SnapshotObservations {
    pub cert: CertScanSnapshot,
    /// Port-80 banner headers (always available).
    pub http80: Option<HttpScanSnapshot>,
    /// Port-443 application headers (engine/epoch dependent).
    pub https443: Option<HttpScanSnapshot>,
    /// The snapshot's symbol tables: every header name/value symbol in
    /// the banner records above resolves here. Append-only during
    /// observation; the corpus builder clones and freezes it before the
    /// per-HG stages.
    pub interner: Interner,
    pub ip_to_as: Arc<IpToAsMap>,
    pub snapshot_idx: usize,
}

impl SnapshotObservations {
    /// Scan health merged over every pass in the bundle (certificates plus
    /// whichever banner scans the corpus carries at this snapshot).
    pub fn scan_health(&self) -> crate::ScanHealth {
        let mut health = self.cert.health.clone();
        if let Some(snap) = &self.http80 {
            health.merge(&snap.health);
        }
        if let Some(snap) = &self.https443 {
            health.merge(&snap.health);
        }
        health
    }

    /// The banner records per port, HTTP then HTTPS; a scan the corpus
    /// does not carry at this snapshot has none.
    pub fn banner_records(&self) -> [&[HttpRecord]; 2] {
        [&self.http80, &self.https443].map(|s| s.as_ref().map_or(&[][..], |s| &s.records))
    }
}

/// The faults injected into one endpoint chunk, per scan stream:
/// certificates, HTTP, HTTPS.
pub type ChunkFaults = [FaultStats; 3];

/// One engine's three scans of one snapshot — certificates, HTTP and
/// HTTPS banners — fed endpoint chunks in snapshot order. Each scan keeps
/// its session (health, retries, breakers) and fault pass across chunks,
/// and every fault coin is per record, so the chunks' bundles concatenate
/// to what one whole-snapshot chunk observes ([`observe_snapshot`] is that
/// case), wherever the chunks are cut. A chunk scanned before can be
/// admitted instead ([`Self::admit_chunk`]): the health and the fault
/// ledger come out as if it were scanned again.
pub struct ObservationStream<'e> {
    cert: CertScanStream<'e>,
    http80: Option<HttpScanStream<'e>>,
    https443: Option<HttpScanStream<'e>>,
    engine: EngineId,
    t: usize,
    date: Date,
    ip_to_as: Arc<IpToAsMap>,
}

impl<'e> ObservationStream<'e> {
    /// Open the scans of snapshot `t`; `None` when the engine's corpus
    /// does not cover it ([`covers_snapshot`]).
    pub fn new(world: &HgWorld, engine: &'e ScanEngine, t: usize) -> Option<Self> {
        if !covers_snapshot(engine, t) {
            return None;
        }
        let n = world.n_snapshots();
        Some(Self {
            cert: CertScanStream::new(engine, t, n),
            http80: HttpScanStream::new(engine, t, 80, n),
            https443: HttpScanStream::new(engine, t, 443, n),
            engine: engine.id,
            t,
            date: world.snapshot_date(t),
            ip_to_as: world.ip_to_as(t),
        })
    }

    /// Scan one endpoint chunk: its observation bundle, with banner
    /// symbols in an interner of its own and `Default` health (the
    /// streams account health over the whole snapshot, see
    /// [`Self::finish`]), and the faults each stream injected into it.
    pub fn observe_chunk(&mut self, eps: &[Endpoint]) -> (SnapshotObservations, ChunkFaults) {
        let (engine, t) = (self.engine, self.t);
        let mut faults = ChunkFaults::default();
        let (records, cert_faults) = self.cert.scan_chunk(eps);
        faults[0] = cert_faults;
        let mut interner = Interner::default();
        let [_, http_faults, https_faults] = &mut faults;
        let mut banners = |stream: Option<&mut HttpScanStream>, port, injected: &mut FaultStats| {
            let (records, chunk_faults) = stream?.scan_chunk(eps, &mut interner);
            *injected = chunk_faults;
            Some(HttpScanSnapshot {
                engine,
                snapshot_idx: t,
                port,
                records,
                health: ScanHealth::default(),
            })
        };
        let http80 = banners(self.http80.as_mut(), 80, http_faults);
        let https443 = banners(self.https443.as_mut(), 443, https_faults);
        let obs = SnapshotObservations {
            cert: CertScanSnapshot {
                engine,
                snapshot_idx: t,
                date: self.date,
                records,
                health: ScanHealth::default(),
            },
            http80,
            https443,
            interner,
            ip_to_as: self.ip_to_as.clone(),
            snapshot_idx: t,
        };
        (obs, faults)
    }

    /// Admit a chunk without scanning it: its endpoints pass through the
    /// sessions so the health counts every target, and `faults` — what
    /// [`Self::observe_chunk`] returned for the chunk — goes to the fault
    /// ledger.
    pub fn admit_chunk(&mut self, eps: &[Endpoint], faults: &ChunkFaults) {
        let [cert, http80, https443] = faults;
        self.cert.admit_chunk(eps, cert);
        if let Some(s) = &mut self.http80 {
            s.admit_chunk(eps, http80);
        }
        if let Some(s) = &mut self.https443 {
            s.admit_chunk(eps, https443);
        }
    }

    /// Close the scans, storing their fault ledger entries, and return
    /// each one's health: certificates, HTTP, HTTPS. A banner scan the
    /// corpus does not carry at this snapshot has `Default` health.
    pub fn finish(self) -> [ScanHealth; 3] {
        let banners = |s: Option<HttpScanStream>| s.map(HttpScanStream::finish).unwrap_or_default();
        [
            self.cert.finish(),
            banners(self.http80),
            banners(self.https443),
        ]
    }
}

/// Walk snapshot `t`'s endpoints ([`HgWorld::for_each_endpoint`]) in
/// contiguous chunks of `chunk_size` (at least 1; the last chunk may be
/// shorter), handing each to `f` in order until `f` returns `false`. The
/// chunk buffer grows with the endpoints it holds, so a chunk size beyond
/// the snapshot costs one snapshot, not the nominal size. Returns whether
/// `f` took every chunk.
pub fn for_each_chunk(
    world: &HgWorld,
    t: usize,
    chunk_size: usize,
    mut f: impl FnMut(&[Endpoint]) -> bool,
) -> bool {
    let chunk_size = chunk_size.max(1);
    let mut chunk: Vec<Endpoint> = Vec::new();
    let mut going = true;
    world.for_each_endpoint(t, |ep| {
        if !going {
            return;
        }
        chunk.push(ep);
        if chunk.len() == chunk_size {
            going = f(&chunk);
            chunk.clear();
        }
    });
    if going && !chunk.is_empty() {
        going = f(&chunk);
    }
    going
}

/// Observe snapshot `t` of `world` with `engine`: generate the endpoints
/// and run the [`ObservationStream`] over them as one chunk.
///
/// Returns `None` when the engine's corpus does not cover the snapshot.
pub fn observe_snapshot(
    world: &HgWorld,
    engine: &ScanEngine,
    t: usize,
) -> Option<SnapshotObservations> {
    let mut stream = ObservationStream::new(world, engine, t)?;
    let (mut obs, _) = stream.observe_chunk(world.endpoints(t).endpoints());
    let [cert, http80, https443] = stream.finish();
    obs.cert.health = cert;
    for (snap, health) in [(&mut obs.http80, http80), (&mut obs.https443, https443)] {
        if let Some(snap) = snap {
            snap.health = health;
        }
    }
    Some(obs)
}

/// Whether `engine`'s corpus covers snapshot `t` at all: the engine is
/// active and fault injection did not drop the month from the archive.
/// This is the gate [`ObservationStream::new`] applies before scanning,
/// exposed so a caller can decide coverage without generating a single
/// endpoint.
pub fn covers_snapshot(engine: &ScanEngine, t: usize) -> bool {
    if t < engine.active_since {
        return false;
    }
    // Fault injection can remove whole snapshots from the corpus, exactly
    // like a missing month in a real scan archive.
    if let Some(plan) = &engine.faults {
        if plan.drops_snapshot(t) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgsim::ScenarioConfig;

    #[test]
    fn observation_bundle_complete() {
        let world = HgWorld::generate(ScenarioConfig::small());
        let obs = observe_snapshot(&world, &ScanEngine::rapid7(), 30).unwrap();
        assert!(!obs.cert.records.is_empty());
        assert!(obs.http80.is_some());
        assert!(obs.https443.is_some());
        assert!(obs.ip_to_as.prefix_count() > 1000);
        // Censys has no corpus at snapshot 3.
        assert!(observe_snapshot(&world, &ScanEngine::censys(), 3).is_none());
    }
}
