//! Certificate and HTTP(S)-banner scans over an endpoint set.
//!
//! Each scan is a stream fed endpoint chunks ([`CertScanStream`],
//! [`HttpScanStream`]). The whole-snapshot scans ([`scan_certificates`],
//! [`scan_http_headers`]) feed their stream one chunk, the whole
//! snapshot; the sharded corpus producer feeds it one chunk per shard.

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
/// Rapid7 corpus (§7 "SNI"). The whole snapshot is one
/// [`CertScanStream`] chunk.
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
/// way. [`scan_certificates`] is the one-chunk case.
///
/// The sharded corpus producer feeds it shard-sized chunks: a chunk's
/// records can be validated, interned, frozen to a segment and dropped
/// before the next chunk is generated.
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

    /// Admit a chunk's endpoints without fetching: the segment-reuse path
    /// of a resumed study, where the chunk's records already live in a
    /// valid on-disk segment but the scan health must still account for
    /// every target. `injected` is what [`Self::scan_chunk`] returned for
    /// the chunk, folded into the fault ledger as if it were re-scanned.
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

/// The banner-scan counterpart of [`CertScanStream`]; [`scan_http_headers`]
/// is its one-chunk case. `new` returns `None` when no corpus carries the
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

    /// Scan one endpoint chunk, interning headers into `interner` (the
    /// per-shard interner in the sharded pipeline). Returns the
    /// (fault-applied) records and the faults injected into them.
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

    /// Admit a chunk's endpoints without interning (segment-reuse path;
    /// see [`CertScanStream::admit_chunk`]).
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

    #[test]
    fn chunked_streams_match_monolithic_scans() {
        use crate::faults::{FaultClass, FaultPlan};
        use std::sync::Arc;
        let w = world();
        let eps = w.endpoints(30);
        let date = w.snapshot_date(30);
        // Exercise the fault path too: per-record coins must not change
        // with chunking, and the accumulated ledger must match.
        let plan = || Arc::new(FaultPlan::uniform_record_faults(11, 0.1));
        let mono_engine = ScanEngine::rapid7().with_faults(plan());
        let stream_engine = ScanEngine::rapid7().with_faults(plan());

        let mono_cert = scan_certificates(&eps, &mono_engine, date, 31);
        let mut mono_interner = Interner::default();
        let mono_http = scan_http_headers(&eps, &mono_engine, 80, 31, &mut mono_interner).unwrap();
        let mono_https =
            scan_http_headers(&eps, &mono_engine, 443, 31, &mut mono_interner).unwrap();

        let mut cert = CertScanStream::new(&stream_engine, 30, 31);
        let mut http = HttpScanStream::new(&stream_engine, 30, 80, 31).unwrap();
        let mut https = HttpScanStream::new(&stream_engine, 30, 443, 31).unwrap();
        assert!(HttpScanStream::new(&stream_engine, 5, 443, 31).is_none());
        let mut stream_interner = Interner::default();
        let mut cert_records = Vec::new();
        let mut http_records = Vec::new();
        let mut https_records = Vec::new();
        for chunk in eps.endpoints().chunks(777) {
            cert_records.extend(cert.scan_chunk(chunk).0);
            http_records.extend(http.scan_chunk(chunk, &mut stream_interner).0);
            https_records.extend(https.scan_chunk(chunk, &mut stream_interner).0);
        }
        assert_eq!(cert_records.len(), mono_cert.records.len());
        for (a, b) in cert_records.iter().zip(&mono_cert.records) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.chain_der, b.chain_der);
        }
        assert_eq!(cert.finish(), mono_cert.health);
        assert_eq!(http.finish(), mono_http.health);
        assert_eq!(https.finish(), mono_https.health);
        // Banner symbols differ between the two interners only if the
        // interleaving changed (http80 and https443 alternate per chunk
        // in the stream); compare resolved strings instead.
        let resolve = |records: &[HttpRecord], i: &Interner| -> Vec<(u32, Vec<(String, String)>)> {
            records
                .iter()
                .map(|r| {
                    (
                        r.ip,
                        r.headers
                            .iter()
                            .map(|(n, v)| {
                                (
                                    i.header_names.resolve(*n).to_owned(),
                                    i.header_values.resolve(*v).to_owned(),
                                )
                            })
                            .collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            resolve(&http_records, &stream_interner),
            resolve(&mono_http.records, &mono_interner)
        );
        assert_eq!(
            resolve(&https_records, &stream_interner),
            resolve(&mono_https.records, &mono_interner)
        );
        // Identical fault ledgers, including duplicate-IP injections.
        let (mono_plan, stream_plan) = (
            mono_engine.faults.as_ref().unwrap(),
            stream_engine.faults.as_ref().unwrap(),
        );
        assert_eq!(mono_plan.injected_for(30), stream_plan.injected_for(30));
        assert!(mono_plan.injected_for(30).count(FaultClass::DuplicateIp) > 0);
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
