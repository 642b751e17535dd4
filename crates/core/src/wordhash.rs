//! A word-wise hash for the per-snapshot maps and sets keyed by scan data:
//! leaf DER bytes, IPv4 addresses, AS numbers, organization strings.
//!
//! SipHash, the standard library's default, costs a few nanoseconds per
//! integer key and reads a 400-byte certificate at a fraction of memory
//! speed. [`WordHasher`] folds each `u64` word into one lane with a
//! 64×64→128-bit multiply whose halves are XORed — the fold the
//! validation cache's chain key runs over whole chains. Only the bucket
//! choice changes: the maps still compare full keys, so byte and integer
//! equality stay exact.
//!
//! The lane starts from a seed drawn once per process from the standard
//! library's random hasher keys, so bucket layout differs between runs as
//! it does with the default hasher. The fold is not a keyed PRF: it
//! spreads simulated scan data, it does not defend against keys crafted
//! to collide.
//!
//! Certificate DER keys go through [`DerKey`], which hashes only the
//! length and the last 32 bytes: a SimSig certificate ends in its 32-byte
//! signature value, an HMAC over the to-be-signed bytes, so those bytes
//! already spread distinct certificates. Equality still reads every byte.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed word-wise.
pub(crate) type WordMap<K, V> = HashMap<K, V, WordState>;

/// A `HashSet` hashed word-wise.
pub(crate) type WordSet<K> = HashSet<K, WordState>;

/// The single lane's odd multiplier (the golden-ratio constant).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fold `word` into `lane`: multiply `lane ^ word` by `mul` into 128 bits
/// and XOR the halves.
#[inline]
pub(crate) fn fold(lane: u64, word: u64, mul: u64) -> u64 {
    let product = u128::from(lane ^ word) * u128::from(mul);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Feed `bytes` to `absorb` as little-endian `u64` words, the last partial
/// word zero-padded. Callers frame the length themselves.
#[inline]
pub(crate) fn for_each_word(bytes: &[u8], mut absorb: impl FnMut(u64)) {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        absorb(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        absorb(u64::from_le_bytes(last));
    }
}

/// A certificate's DER as a map key, hashed by its length and last 32
/// bytes (the SimSig signature value) and compared in full. Equal DER
/// always hashes equal; two certificates differing only in their
/// to-be-signed bytes share a bucket and still compare unequal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DerKey<'a>(pub(crate) &'a [u8]);

/// Bytes of a SimSig signature value, which ends every certificate's DER.
const SIGNATURE_BYTES: usize = 32;

impl Hash for DerKey<'_> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let der = self.0;
        state.write_usize(der.len());
        for_each_word(&der[der.len().saturating_sub(SIGNATURE_BYTES)..], |w| {
            state.write_u64(w)
        });
    }
}

/// Builds [`WordHasher`]s seeded with the process-wide seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordState {
    seed: u64,
}

impl Default for WordState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(MUL)),
        }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher { lane: self.seed }
    }
}

/// One-lane word fold; see the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHasher {
    lane: u64,
}

impl WordHasher {
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.lane = fold(self.lane, word, MUL);
    }
}

impl Hasher for WordHasher {
    /// Absorbs the length first: `str` keys arrive with no length prefix,
    /// and the length is what frames the zero-padded tail.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64);
        for_each_word(bytes, |w| self.absorb(w));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.absorb(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.absorb(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.absorb(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.absorb(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        WordState::default().hash_one(v)
    }

    #[test]
    fn framing_separates_padded_and_split_keys() {
        let ab: &[u8] = b"ab";
        let ab0: &[u8] = b"ab\0";
        assert_ne!(hash(ab), hash(ab0));
        assert_ne!(hash(&[ab, b"c"]), hash(&[b"a" as &[u8], b"bc"]));
        assert_ne!(hash("ab"), hash("ab\0"));
        assert_eq!(hash(b"x".as_slice()), hash(b"x".to_vec().as_slice()));
    }

    #[test]
    fn ip_keys_spread_over_low_and_high_bits() {
        // hashbrown picks the bucket from the low bits and the control
        // byte from the top 7: sequential IPs must vary both.
        let hashes: Vec<u64> = (0u32..4096).map(|ip| hash(&(0x0a00_0000 + ip))).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(
            low.len() > 2400,
            "{} distinct low-12-bit buckets",
            low.len()
        );
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn word_maps_compare_full_keys() {
        let mut m: WordMap<&[u8], u32> = WordMap::default();
        let a = [7u8; 400];
        let mut b = a;
        b[399] = 8;
        m.insert(&a, 1);
        m.insert(&b, 2);
        assert_eq!(m[a.as_slice()], 1);
        assert_eq!(m[b.as_slice()], 2);
    }

    #[test]
    fn der_keys_hash_the_signature_and_compare_every_byte() {
        let der: Vec<u8> = (0..400u32).map(|i| (i * 7 + 3) as u8).collect();
        let copy = der.clone();
        assert_eq!(hash(&DerKey(&der)), hash(&DerKey(&copy)));
        assert_eq!(DerKey(&der), DerKey(&copy));

        // A flipped to-be-signed byte keeps the length and the last 32
        // bytes: same bucket, unequal key.
        let mut flipped = der.clone();
        flipped[100] ^= 0x01;
        assert_eq!(hash(&DerKey(&der)), hash(&DerKey(&flipped)));
        assert_ne!(DerKey(&der), DerKey(&flipped));
        let mut m: WordMap<DerKey, u32> = WordMap::default();
        m.insert(DerKey(&der), 1);
        m.insert(DerKey(&flipped), 2);
        assert_eq!((m[&DerKey(&copy)], m[&DerKey(&flipped)]), (1, 2));

        // A different signature or length moves the hash; keys shorter
        // than a signature hash whole.
        let mut resigned = der.clone();
        resigned[399] ^= 0x01;
        assert_ne!(hash(&DerKey(&der)), hash(&DerKey(&resigned)));
        assert_ne!(hash(&DerKey(&der)), hash(&DerKey(&der[1..])));
        assert_ne!(hash(&DerKey(b"ab")), hash(&DerKey(b"ab\0")));
    }
}
