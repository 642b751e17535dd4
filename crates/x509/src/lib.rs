//! A simulated X.509 public-key infrastructure.
//!
//! Implements the RFC 5280 certificate profile subset that the off-net
//! methodology depends on: v3 certificates with subject/issuer distinguished
//! names, validity windows, subjectAltName dNSNames, basicConstraints, and a
//! chain verifier against a root store ("WebPKI").
//!
//! The one substitution relative to a production PKI is the signature
//! scheme: instead of RSA/ECDSA, certificates are signed with `SimSig`
//! (HMAC-SHA-256 keyed by the issuer's public-key octets). This keeps the
//! whole pipeline deterministic and dependency-free while preserving the
//! structural properties the paper relies on — expired, self-signed, and
//! untrusted-chain certificates are all detectable exactly as in §4.1.

mod builder;
mod cert;
mod extensions;
mod name;
mod sign;
mod store;
mod verify;

pub use builder::CertificateBuilder;
pub use cert::{Certificate, Fingerprint, TbsCertificate, Validity};
pub use extensions::{BasicConstraints, DnsNameIter, DnsNames, Extensions, KeyUsage};
pub use name::{DistinguishedName, NameBuilder};
pub use sign::{KeyPair, PublicKey, Signature};
pub use store::RootStore;
pub use verify::{verify_chain, ChainError, VerifiedChain, MAX_CHAIN};
