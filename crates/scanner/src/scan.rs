//! Certificate and HTTP(S)-banner scans over an endpoint set.
//!
//! Each scan is a stream fed endpoint chunks ([`CertScanStream`],
//! [`HttpScanStream`]). [`ObservationStream`](crate::ObservationStream)
//! runs one snapshot's three scans together: `observe_snapshot` feeds it
//! the whole snapshot as one chunk, the sharded corpus producer one chunk
//! per shard. [`scan_certificates`] and [`scan_http_headers`] run a single
//! scan over a whole snapshot.

use crate::engine::ScanEngine;
use crate::faults::{CertFaultSession, FaultStats, HttpFaultSession};
use crate::transient::{ScanHealth, ScanSession, STREAM_CERT, STREAM_HTTP80, STREAM_HTTPS443};
use bytes::Bytes;
use hgsim::{Endpoint, EndpointSet};
use intern::{HeaderNameSym, HeaderValueSym, Interner};
use timebase::Date;
use tlssim::{TlsClient, TlsEndpoint};

/// One IP's observation in a certificate scan: the default chain it served
/// to a no-SNI handshake (end entity first).
#[derive(Debug, Clone)]
pub struct CertScanRecord {
    pub ip: u32,
    pub chain_der: Vec<Bytes>,
}

/// One quarterly certificate-scan snapshot for one engine.
#[derive(Debug, Clone)]
pub struct CertScanSnapshot {
    pub engine: crate::EngineId,
    pub snapshot_idx: usize,
    pub date: Date,
    pub records: Vec<CertScanRecord>,
    /// Exact reachability/retry accounting for this scan pass.
    pub health: ScanHealth,
}

/// One IP's HTTP banner headers on one port, as symbol pairs into the
/// snapshot's [`Interner`]. Header names are interned lowercased (every
/// downstream consumer — fingerprint learning and matching — works on
/// lowercase names); values keep their original bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRecord {
    pub ip: u32,
    pub headers: Vec<(HeaderNameSym, HeaderValueSym)>,
}

/// An HTTP or HTTPS banner-scan snapshot.
#[derive(Debug, Clone)]
pub struct HttpScanSnapshot {
    pub engine: crate::EngineId,
    pub snapshot_idx: usize,
    pub port: u16,
    pub records: Vec<HttpRecord>,
    /// Exact reachability/retry accounting for this scan pass.
    pub health: ScanHealth,
}

/// Run a port-443 certificate scan: a real (simulated-wire) no-SNI TLS
/// handshake against every reachable endpoint. IPs that refuse TLS or
/// serve a null default certificate produce no record, exactly as in the
/// Rapid7 corpus (§7 "SNI"). The whole snapshot is one chunk of the
/// certificate scan stream.
pub fn scan_certificates(
    eps: &EndpointSet,
    engine: &ScanEngine,
    date: Date,
    n_snapshots: usize,
) -> CertScanSnapshot {
    let t = eps.snapshot_idx;
    let mut stream = CertScanStream::new(engine, t, n_snapshots);
    let (records, _) = stream.scan_chunk(eps.endpoints());
    CertScanSnapshot {
        engine: engine.id,
        snapshot_idx: t,
        date,
        records,
        health: stream.finish(),
    }
}

/// Run an HTTP (port 80) or HTTPS (port 443) banner scan as one
/// [`HttpScanStream`] chunk. Returns `None` under the stream's gates: the
/// engine's corpus lacks that data at this snapshot (Rapid7 has HTTPS
/// headers only from summer 2016; Censys from late 2019), or the port is
/// neither 80 nor 443.
pub fn scan_http_headers(
    eps: &EndpointSet,
    engine: &ScanEngine,
    port: u16,
    n_snapshots: usize,
    interner: &mut Interner,
) -> Option<HttpScanSnapshot> {
    let t = eps.snapshot_idx;
    let mut stream = HttpScanStream::new(engine, t, port, n_snapshots)?;
    let (records, _) = stream.scan_chunk(eps.endpoints(), interner);
    Some(HttpScanSnapshot {
        engine: engine.id,
        snapshot_idx: t,
        port,
        records,
        health: stream.finish(),
    })
}

/// A certificate scan fed endpoint chunks: one TLS client, one
/// [`ScanSession`] (health, retries, breakers) and one fault pass persist
/// across chunks. Fault coins are per record, so the concatenation of the
/// per-chunk record vectors does not depend on where the chunks are cut,
/// and [`CertScanStream::finish`] yields the same [`ScanHealth`] either
/// way. [`scan_certificates`] is the one-chunk case; the
/// [`ObservationStream`](crate::ObservationStream) runs it with the two
/// banner scans.
pub struct CertScanStream<'e> {
    client: TlsClient,
    session: ScanSession<'e>,
    faults: Option<CertFaultSession<'e>>,
}

impl<'e> CertScanStream<'e> {
    pub fn new(engine: &'e ScanEngine, t: usize, n_snapshots: usize) -> Self {
        Self {
            client: TlsClient::new([0x5cu8; 32]),
            session: ScanSession::new(engine, t, n_snapshots, STREAM_CERT),
            faults: engine.faults.as_deref().map(|p| p.cert_session(t)),
        }
    }

    /// Scan one endpoint chunk, returning its (fault-applied) records and
    /// the faults injected into them.
    pub fn scan_chunk(&mut self, eps: &[Endpoint]) -> (Vec<CertScanRecord>, FaultStats) {
        // When the EmptySnapshot fault fired, records are dropped but
        // endpoints are still admitted, so the scan health counts every
        // target.
        let fetch = !self.faults.as_ref().is_some_and(|f| f.empty_snapshot());
        let mut records = Vec::with_capacity(eps.len());
        for ep in eps {
            if !self.session.admit(ep.ip, ep.true_as) {
                continue;
            }
            if !fetch {
                continue;
            }
            let endpoint = TlsEndpoint::new(ep.tls.clone());
            match self.client.fetch_chain(&endpoint, None) {
                Ok(chain) if !chain.is_empty() => records.push(CertScanRecord {
                    ip: ep.ip,
                    chain_der: chain,
                }),
                _ => {}
            }
        }
        let injected = match &mut self.faults {
            Some(f) => f.apply_chunk(&mut records),
            None => FaultStats::default(),
        };
        (records, injected)
    }

    /// Admit a chunk's endpoints without fetching, for a chunk scanned
    /// before: the health still counts every target, and `injected` —
    /// what [`Self::scan_chunk`] returned for it — goes to the fault ledger.
    pub fn admit_chunk(&mut self, eps: &[Endpoint], injected: &FaultStats) {
        for ep in eps {
            self.session.admit(ep.ip, ep.true_as);
        }
        if let Some(f) = &mut self.faults {
            f.admit(injected);
        }
    }

    /// Close the stream: store the fault ledger entry and return the
    /// accumulated health.
    pub fn finish(self) -> ScanHealth {
        if let Some(f) = self.faults {
            f.finish();
        }
        self.session.finish()
    }
}

/// The banner-scan counterpart of the certificate scan stream;
/// [`scan_http_headers`] is its one-chunk case. `new` returns `None` when no corpus carries the
/// scan: a port other than 80/443 (an empty `Some` would masquerade as a
/// real scan that found nothing), an engine not yet active, or HTTPS
/// headers not in the corpus yet.
pub struct HttpScanStream<'e> {
    session: ScanSession<'e>,
    port: u16,
    faults: Option<HttpFaultSession<'e>>,
}

impl<'e> HttpScanStream<'e> {
    pub fn new(engine: &'e ScanEngine, t: usize, port: u16, n_snapshots: usize) -> Option<Self> {
        if port != 80 && port != 443 {
            return None;
        }
        if t < engine.active_since {
            return None;
        }
        if port == 443 {
            match engine.https_headers_since {
                Some(since) if t >= since => {}
                _ => return None,
            }
        }
        let stream = if port == 80 {
            STREAM_HTTP80
        } else {
            STREAM_HTTPS443
        };
        Some(Self {
            session: ScanSession::new(engine, t, n_snapshots, stream),
            port,
            faults: engine.faults.as_deref().map(|p| p.http_session(t, port)),
        })
    }

    /// Scan one endpoint chunk, interning headers into `interner`. Returns
    /// the (fault-applied) records and the faults injected into them.
    pub fn scan_chunk(
        &mut self,
        eps: &[Endpoint],
        interner: &mut Interner,
    ) -> (Vec<HttpRecord>, FaultStats) {
        let mut records = Vec::with_capacity(eps.len());
        for ep in eps {
            if !self.session.admit(ep.ip, ep.true_as) {
                continue;
            }
            let headers = if self.port == 80 {
                Some(&ep.http_headers)
            } else {
                ep.https_headers.as_ref()
            };
            if let Some(headers) = headers {
                if !headers.is_empty() {
                    records.push(HttpRecord {
                        ip: ep.ip,
                        headers: headers
                            .iter()
                            .map(|(n, v)| {
                                (
                                    intern_header_name(interner, n),
                                    interner.header_values.intern(v),
                                )
                            })
                            .collect(),
                    });
                }
            }
        }
        let injected = match &mut self.faults {
            Some(f) => f.apply_chunk(&mut records, interner),
            None => FaultStats::default(),
        };
        (records, injected)
    }

    /// Admit a chunk's endpoints without fetching, for a chunk scanned
    /// before: the health still counts every target, and `injected` —
    /// what [`Self::scan_chunk`] returned for it — goes to the fault ledger.
    pub fn admit_chunk(&mut self, eps: &[Endpoint], injected: &FaultStats) {
        for ep in eps {
            self.session.admit(ep.ip, ep.true_as);
        }
        if let Some(f) = &mut self.faults {
            f.admit(injected);
        }
    }

    pub fn finish(self) -> ScanHealth {
        if let Some(f) = self.faults {
            f.finish();
        }
        self.session.finish()
    }
}

/// Intern a header name lowercased, allocating only when the wire form
/// actually carries uppercase bytes.
pub(crate) fn intern_header_name(interner: &mut Interner, name: &str) -> HeaderNameSym {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        interner.header_names.intern(&name.to_ascii_lowercase())
    } else {
        interner.header_names.intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgsim::{HgWorld, ScenarioConfig};
    use std::sync::OnceLock;

    fn world() -> &'static HgWorld {
        static W: OnceLock<HgWorld> = OnceLock::new();
        W.get_or_init(|| HgWorld::generate(ScenarioConfig::small()))
    }

    #[test]
    fn cert_scan_produces_parseable_chains() {
        let w = world();
        let eps = w.endpoints(30);
        let snap = scan_certificates(&eps, &ScanEngine::rapid7(), w.snapshot_date(30), 31);
        assert!(snap.records.len() > 2000, "{} records", snap.records.len());
        for r in snap.records.iter().take(200) {
            let leaf = x509::Certificate::parse(&r.chain_der[0]).expect("leaf parses");
            assert!(!leaf.dns_names().is_empty() || leaf.subject().common_name().is_some());
        }
    }

    #[test]
    fn http_only_endpoints_missing_from_cert_scan() {
        let w = world();
        // Snapshot 18 is inside the Netflix HTTP-downgrade window.
        let eps = w.endpoints(18);
        let http_only_ips: Vec<u32> = eps
            .endpoints()
            .iter()
            .filter(|e| e.https_headers.is_none())
            .map(|e| e.ip)
            .collect();
        assert!(!http_only_ips.is_empty());
        let snap = scan_certificates(&eps, &ScanEngine::certigo(), w.snapshot_date(18), 31);
        let scanned: std::collections::HashSet<u32> = snap.records.iter().map(|r| r.ip).collect();
        for ip in http_only_ips {
            assert!(!scanned.contains(&ip));
        }
    }

    #[test]
    fn https_header_availability_windows() {
        let w = world();
        let mut i = Interner::default();
        let eps = w.endpoints(5); // 2015-01: before Rapid7 HTTPS headers
        let r7 = ScanEngine::rapid7();
        assert!(scan_http_headers(&eps, &r7, 443, 31, &mut i).is_none());
        assert!(scan_http_headers(&eps, &r7, 80, 31, &mut i).is_some());
        let eps = w.endpoints(12);
        assert!(scan_http_headers(&eps, &r7, 443, 31, &mut i).is_some());
        // Censys corpus does not exist before snapshot 24.
        let cs = ScanEngine::censys();
        assert!(scan_http_headers(&eps, &cs, 80, 31, &mut i).is_none());
    }

    #[test]
    fn unknown_port_returns_none() {
        // Regression: ports outside {80, 443} used to yield a `Some`
        // snapshot with zero records, indistinguishable from a real scan
        // that found nothing.
        let w = world();
        let mut i = Interner::default();
        let eps = w.endpoints(30);
        let r7 = ScanEngine::rapid7();
        for port in [0u16, 22, 81, 8080, 8443, 65535] {
            assert!(
                scan_http_headers(&eps, &r7, port, 31, &mut i).is_none(),
                "port {port} produced a snapshot"
            );
        }
        assert!(scan_http_headers(&eps, &r7, 80, 31, &mut i).is_some());
        assert!(scan_http_headers(&eps, &r7, 443, 31, &mut i).is_some());
    }

    #[test]
    fn header_names_interned_lowercase_values_verbatim() {
        let w = world();
        let mut i = Interner::default();
        let eps = w.endpoints(30);
        let snap = scan_http_headers(&eps, &ScanEngine::rapid7(), 80, 31, &mut i).unwrap();
        assert!(!snap.records.is_empty());
        for r in snap.records.iter().take(500) {
            for (n, _) in &r.headers {
                let name = i.header_names.resolve(*n);
                assert_eq!(name, name.to_ascii_lowercase(), "name not lowercased");
            }
        }
        // Symbolization is deterministic: a fresh interner over the same
        // endpoints assigns identical symbols.
        let mut j = Interner::default();
        let again = scan_http_headers(&eps, &ScanEngine::rapid7(), 80, 31, &mut j).unwrap();
        assert_eq!(snap.records, again.records);
    }

    /// [`ObservationStream`](crate::ObservationStream) under record
    /// faults and transients, at 777-endpoint chunks and as one
    /// whole-snapshot chunk, matches `observe_snapshot` in resolved
    /// records, per-stream health and fault ledger; so does a run that
    /// admits every other chunk with the faults a scan of it reported.
    #[test]
    fn chunked_streams_match_monolithic_scans() {
        use crate::faults::{FaultClass, FaultPlan};
        use crate::transient::TransientPolicy;
        use crate::{for_each_chunk, observe_snapshot, ObservationStream, SnapshotObservations};
        use std::sync::Arc;

        /// Per stream, the records with banner symbols resolved, so
        /// bundles with interners of their own compare.
        type Records = (
            Vec<(u32, Vec<Bytes>)>,
            [Vec<(u32, Vec<(String, String)>)>; 2],
        );
        fn resolve(obs: &SnapshotObservations, into: &mut Records) {
            let (names, values) = (&obs.interner.header_names, &obs.interner.header_values);
            let certs = obs.cert.records.iter();
            into.0.extend(certs.map(|r| (r.ip, r.chain_der.clone())));
            for (snap, out) in [&obs.http80, &obs.https443].into_iter().zip(&mut into.1) {
                for r in snap.iter().flat_map(|s| &s.records) {
                    let resolved = r.headers.iter().map(|(n, v)| {
                        (names.resolve(*n).to_owned(), values.resolve(*v).to_owned())
                    });
                    out.push((r.ip, resolved.collect()));
                }
            }
        }

        let (w, t) = (world(), 30);
        // Each run gets plans of its own, so each ledger stands alone.
        let engine = || {
            ScanEngine::rapid7()
                .with_faults(Arc::new(FaultPlan::uniform_record_faults(11, 0.1)))
                .with_transients(Arc::new(TransientPolicy::new(5, 0.1)))
        };
        let ledger = |e: &ScanEngine| e.faults.as_ref().unwrap().injected_for(t);
        let mono_engine = engine();
        let mono = observe_snapshot(w, &mono_engine, t).unwrap();
        let mut mono_records = Records::default();
        resolve(&mono, &mut mono_records);
        let health = |s: &Option<HttpScanSnapshot>| s.as_ref().unwrap().health.clone();
        let mono_health = [
            mono.cert.health.clone(),
            health(&mono.http80),
            health(&mono.https443),
        ];
        assert!(ledger(&mono_engine).count(FaultClass::DuplicateIp) > 0);
        assert!(mono.scan_health().retries > 0, "no transient retried");

        // One run in chunks of `size`, checking health and ledger: per
        // chunk, its records and faults. With `known` (a scanned run's
        // faults), every odd chunk is admitted instead, without records.
        let run = |size: usize, known: Option<&[_]>| {
            let e = engine();
            let mut stream = ObservationStream::new(w, &e, t).unwrap();
            let mut chunks = Vec::new();
            for_each_chunk(w, t, size, |eps| {
                let i = chunks.len();
                chunks.push(match known {
                    Some(known) if i % 2 == 1 => {
                        stream.admit_chunk(eps, &known[i]);
                        (None, known[i].clone())
                    }
                    _ => {
                        let (obs, faults) = stream.observe_chunk(eps);
                        let mut records = Records::default();
                        resolve(&obs, &mut records);
                        (Some(records), faults)
                    }
                });
                true
            });
            assert_eq!(stream.finish(), mono_health, "chunk size {size}");
            assert_eq!(ledger(&e), ledger(&mono_engine), "chunk size {size}");
            chunks
        };

        let scanned = run(777, None);
        let whole = run(usize::MAX, None);
        assert!(scanned.len() > 2 && whole.len() == 1);
        for chunks in [&scanned, &whole] {
            let mut records = Records::default();
            for (chunk, _) in chunks {
                let (certs, [http, https]) = chunk.clone().unwrap();
                records.0.extend(certs);
                records.1[0].extend(http);
                records.1[1].extend(https);
            }
            assert_eq!(records, mono_records, "{} chunks", chunks.len());
        }
        let faults: Vec<_> = scanned.iter().map(|(_, f)| f.clone()).collect();
        for (i, (a, s)) in run(777, Some(&faults)).iter().zip(&scanned).enumerate() {
            assert_eq!(
                a.0.as_ref(),
                s.0.as_ref().filter(|_| i % 2 == 0),
                "chunk {i}"
            );
        }
    }

    #[test]
    fn engines_see_different_record_counts() {
        let w = world();
        let eps = w.endpoints(24);
        let date = w.snapshot_date(24);
        let r7 = scan_certificates(&eps, &ScanEngine::rapid7(), date, 31);
        let ac = scan_certificates(&eps, &ScanEngine::certigo(), date, 31);
        assert!(
            ac.records.len() > r7.records.len(),
            "certigo {} !> rapid7 {}",
            ac.records.len(),
            r7.records.len()
        );
    }
}
