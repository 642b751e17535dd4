//! Internet-wide scan simulation: certificate scans (Rapid7 Sonar,
//! Censys, and the paper's own certigo campaign), HTTP(S) banner grabs,
//! and ZGrab2-style targeted `(IP, domain)` probes.
//!
//! Scan clients genuinely perform the simulated TLS handshake — bytes are
//! framed, sent to the endpoint, and parsed back — so the certificate
//! corpus contains exactly what a real scan would capture: the *default*
//! certificate of each IP (no SNI), §7's key limitation.

mod engine;
pub mod faults;
mod observe;
mod scan;
pub mod transient;
mod zgrab;

pub use engine::{EngineId, ScanEngine};
pub use faults::{FaultClass, FaultPlan, FaultStats, MAX_HEADER_VALUE_LEN};
pub use observe::{
    covers_snapshot, for_each_chunk, observe_snapshot, ChunkFaults, ObservationStream,
    SnapshotObservations,
};
pub use scan::{
    scan_certificates, scan_http_headers, CertScanRecord, CertScanSnapshot, HttpRecord,
    HttpScanSnapshot, HttpScanStream,
};
pub use transient::{
    RetryConfig, ScanHealth, ScanSession, TransientClass, TransientPolicy, STREAM_CERT,
    STREAM_HTTP80, STREAM_HTTPS443,
};
pub use zgrab::{zgrab_probe, ZgrabResult};

// Symbol types for the interned banner records (`HttpRecord.headers`),
// re-exported so downstream crates need no direct `intern` dependency.
pub use intern::{FrozenInterner, HeaderNameSym, HeaderValueSym, HostSym, Interner};
