//! Pins the heap allocations `Certificate::parse` makes for a corpus-shaped
//! leaf: one each for the DER copy, the issuer name, the subject name and
//! the SAN list. Reading the parsed fields allocates nothing.
//!
//! A counting global allocator counts per thread, so tests running in
//! parallel threads of this binary do not see each other's allocations.

use offnet_x509::{Certificate, CertificateBuilder, KeyPair, NameBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use timebase::Timestamp;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are nobody's to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls on the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for every pointer handed out; the counter is
// a const-initialized thread-local `Cell` without a destructor, so
// touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A leaf shaped like the simulated corpus's: a three-attribute issuer, an
/// organization and common name, several SANs, end-entity constraints.
fn corpus_leaf(sans: &[&str]) -> Vec<u8> {
    let ca = KeyPair::from_seed("alloc:ca");
    let issuer = NameBuilder::new()
        .country("US")
        .organization("SimTrust 2")
        .common_name("SimTrust Issuing CA 2")
        .build();
    CertificateBuilder::new()
        .serial(0x5eed_1234)
        .subject(
            NameBuilder::new()
                .organization("Google LLC")
                .common_name("*.google.com")
                .build(),
        )
        .validity(
            Timestamp::from_civil(2019, 1, 1, 0, 0, 0),
            Timestamp::from_civil(2020, 1, 1, 0, 0, 0),
        )
        .dns_names(sans)
        .end_entity()
        .subject_key(&KeyPair::from_seed("alloc:leaf"))
        .issued_by(&issuer, &ca)
        .der()
        .to_vec()
}

#[test]
fn corpus_leaf_parses_in_four_allocations() {
    let der = corpus_leaf(&[
        "*.google.com",
        "google.com",
        "*.googlevideo.com",
        "*.ytimg.com",
    ]);
    let (cert, n) = allocations(|| Certificate::parse(&der).expect("leaf parses"));
    assert_eq!(n, 4, "DER copy, issuer, subject, SANs");

    let (_, n) = allocations(|| {
        let subject = cert.subject();
        assert_eq!(subject.organization(), Some("Google LLC"));
        assert_eq!(subject.common_name(), Some("*.google.com"));
        assert_eq!(cert.issuer().country(), Some("US"));
        assert_eq!(cert.dns_names().iter().count(), 4);
        assert!(!cert.is_self_issued());
        assert!(!cert.is_ca());
        cert.fingerprint()
    });
    assert_eq!(n, 0, "reading a parsed leaf allocates");
}

#[test]
fn leaf_without_sans_parses_in_three_allocations() {
    let der = corpus_leaf(&[]);
    let (cert, n) = allocations(|| Certificate::parse(&der).expect("leaf parses"));
    assert_eq!(n, 3, "DER copy, issuer, subject");
    assert!(cert.dns_names().is_empty());
}
