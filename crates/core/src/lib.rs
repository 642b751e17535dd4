//! The paper's methodology (§4): infer Hypergiants' off-net footprints from
//! TLS certificate scans, confirmed with HTTP(S) header fingerprints.
//!
//! Stages, each its own module:
//! 1. [`validate`] — §4.1: chain verification against the WebPKI root
//!    store, discarding expired and self-signed end-entity certificates.
//! 2. [`tls_fingerprint`] — §4.2: learn each HG's authoritative dNSName
//!    set from end-entity certificates served inside the HG's own address
//!    space whose Subject Organization matches the HG name.
//! 3. [`candidates`] — §4.3: find IPs outside the HG serving org-matching
//!    certificates whose dNSNames are *all* covered by the on-net set
//!    (plus the documented Cloudflare customer-certificate filter, §7).
//! 4. [`headers`] — §4.4: learn HTTP(S) header fingerprints from on-net
//!    banners by frequency + distinctiveness analysis.
//! 5. [`confirm`] — §4.5: keep the candidates whose banners match the HG's
//!    header fingerprint; map IPs to ASes.
//!
//! [`pipeline`] orchestrates the stages over one snapshot — an in-memory
//! corpus, or [`shard`]'s spilled segments — and [`study`] runs a full
//! longitudinal series (including the Netflix restoration analyses of
//! §6.2) against a simulated world: one driver, whose [`StudyMode`]
//! (sequential, or parallel over a shared validation cache), sharding,
//! and study log ([`artifact`]) are independent options on
//! [`StudyConfig`]; [`DeltaStudyEngine`] appends one snapshot at a time
//! through the same driver. `codec` is the one on-disk codec the study
//! log and [`shard`]'s segments share.
//!
//! ```no_run
//! use hgsim::{Hg, HgWorld, ScenarioConfig};
//! use offnet_core::study::learn_reference_fingerprints;
//! use offnet_core::{process_snapshot, PipelineContext};
//! use scanner::{observe_snapshot, ScanEngine};
//!
//! let world = HgWorld::generate(ScenarioConfig::small());
//! let engine = ScanEngine::rapid7();
//! let fps = learn_reference_fingerprints(&world, &engine, 28);
//! let ctx = PipelineContext::new(world.pki().root_store().clone(), world.org_db(), fps);
//! let obs = observe_snapshot(&world, &engine, 30).expect("snapshot in corpus");
//! let result = process_snapshot(&obs, &ctx);
//! let google = &result.per_hg[&Hg::Google];
//! println!("google off-nets inferred in {} ASes", google.confirmed_ases.len());
//! ```

pub mod artifact;
pub mod baselines;
pub mod candidates;
pub(crate) mod codec;
pub mod confirm;
pub mod corpus;
pub mod errors;
pub mod headers;
pub mod parallel;
pub mod pipeline;
pub mod shard;
pub mod study;
pub mod tls_fingerprint;
pub mod validate;
pub mod validation_cache;
mod wordhash;

pub use artifact::{
    artifact_fingerprint, read_artifact_payload, Adopted, ArtifactBuilder, ArtifactTables,
    StudyArtifact, ARTIFACT_VERSION,
};
pub use candidates::{find_candidates, CandidateSet};
pub use codec::ArtifactError;
pub use confirm::{
    confirm_candidates, BannerIndex, BannerQuality, CompiledFingerprint, CompiledFingerprints,
    ConfirmMode, ConfirmedSet, Port,
};
pub use corpus::{CorpusMemoryStats, SnapshotCorpus};
pub use errors::{DataQualityReport, RecordError};
pub use headers::{learn_header_fingerprints_from_tallies, HeaderFingerprint, HeaderFingerprints};
pub use parallel::default_thread_count;
pub use pipeline::{
    process_corpus, process_snapshot, standard_validate_options, HgSnapshotResult, PipelineContext,
    SnapshotResult,
};
pub use shard::{
    process_snapshot_sharded, segment_fingerprint, segment_path, ShardLedger, ShardStat,
    ShardingConfig, SEGMENT_VERSION,
};
pub use study::{
    run_study, try_run_study, DeltaReport, DeltaStudyEngine, NetflixVariants, StudyConfig,
    StudyError, StudyMode, StudySeries,
};
pub use tls_fingerprint::{learn_tls_fingerprints, TlsFingerprint};
pub use validate::{validate_records, InvalidReason, ValidatedCert, ValidationStats};
pub use validation_cache::{validate_records_cached, CacheStats, ValidationCache};
