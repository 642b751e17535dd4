//! A self-contained SHA-256 implementation (FIPS 180-4).
//!
//! Used by the `x509` crate for certificate fingerprints and for the
//! HMAC-style `SimSig` signature scheme that stands in for real public-key
//! signatures in the simulated WebPKI. Implemented from the spec so the
//! workspace has no crypto dependencies.
//!
//! Two compression kernels compute the same function:
//!
//! - a portable one in plain Rust, which runs everywhere and is the
//!   oracle the tests check the other against;
//! - on x86-64, one built on the SHA extensions (SHA-NI,
//!   `sha256rnds2`/`sha256msg1`/`sha256msg2`), about 8× faster on bulk
//!   input.
//!
//! The CPU alone picks the kernel: the first hasher created checks once
//! for SHA-NI, SSSE3 and SSE4.1 and caches the answer; [`accelerated`] reports
//! it. There is no switch to force either kernel. Whole 64-byte blocks
//! go from the caller's slice straight into one multi-block kernel call.
//!
//! This crate's `unsafe` is confined to the private x86-64 module, where
//! each block depends on the runtime CPU check.

#![deny(unsafe_code)]

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Whether this CPU runs the SHA-NI kernel (x86-64 with the SHA
/// extensions, SSSE3 and SSE4.1). When false, every digest uses the portable
/// kernel, which gives the same bytes more slowly.
pub fn accelerated() -> bool {
    !matches!(Kernel::active(), Kernel::Portable)
}

/// A SHA-256 compression kernel.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(x86::ShaNi),
}

impl Kernel {
    /// The fastest kernel this CPU supports (detected once per process).
    fn active() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = x86::ShaNi::detect() {
            return Kernel::ShaNi(token);
        }
        Kernel::Portable
    }

    /// Compress every whole 64-byte block of `blocks` into `state`.
    /// Callers pass a multiple of 64 bytes.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(token) => token.compress(state, blocks),
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    kernel: Kernel,
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self::with_kernel(Kernel::active())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Self {
            kernel,
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Hash `data` in one shot.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Feed more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            self.kernel.compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Consume the hasher and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length — one block,
        // or two when fewer than 9 bytes of the last one are free.
        let mut pad = [0u8; 128];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let len = if self.buffered < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        self.kernel.compress(&mut state, &pad[..len]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel. Everything that can reach its intrinsics goes
/// through a `ShaNi` token, and only `ShaNi::detect` (after the runtime
/// CPU check) makes one.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Proof that this CPU has the SHA extensions, SSSE3 and SSE4.1. The private
    /// field keeps it from being built anywhere but [`ShaNi::detect`].
    #[derive(Debug, Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// The token, if the CPU supports the kernel. The CPUID check runs
        /// once per process; later calls read the cached answer.
        pub(super) fn detect() -> Option<Self> {
            static SUPPORTED: OnceLock<bool> = OnceLock::new();
            let supported = *SUPPORTED.get_or_init(|| {
                is_x86_feature_detected!("sha")
                    && is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1")
            });
            supported.then_some(ShaNi(()))
        }

        /// Compress every whole 64-byte block of `blocks` into `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only if `detect` saw the `sha`,
            // `ssse3` and `sse4.1` features at run time, which are exactly
            // the features `compress_blocks` enables (SSE2 is baseline on
            // x86-64).
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Four message words plus their round constants, then four rounds.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            // SAFETY: `K` has 64 entries and `$i` < 16, so the 16-byte
            // unaligned load reads `K[4 * $i..4 * $i + 4]`; the load is
            // SSE2, baseline on x86-64.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()) };
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four schedule words from the previous sixteen. Only
    /// `compress_blocks` calls it, under the same features.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`, as checked by
    /// `ShaNi::detect`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit word: big-endian message words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 8 `u32`s (32 bytes), read as two unaligned
        // 16-byte halves; SSE2 loads are baseline on x86-64.
        let (abcd, efgh) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // The rounds instruction wants the state as ABEF and CDGH.
        let badc = _mm_shuffle_epi32(abcd, 0xb1);
        let hgfe = _mm_shuffle_epi32(efgh, 0x1b);
        let mut abef = _mm_alignr_epi8(badc, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `chunks_exact(64)` yields 64-byte blocks, read as
            // four unaligned 16-byte SSE2 loads at offsets 0, 16, 32, 48.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            w0 = _mm_shuffle_epi8(w0, bswap);
            w1 = _mm_shuffle_epi8(w1, bswap);
            w2 = _mm_shuffle_epi8(w2, bswap);
            w3 = _mm_shuffle_epi8(w3, bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            // Rounds 16..64: a sliding window of the last sixteen words.
            for i in 1..4 {
                w0 = schedule(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, 4 * i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, 4 * i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, 4 * i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, 4 * i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xf0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above: two unaligned 16-byte SSE2
        // stores into the halves of `state`.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, abcd);
            _mm_storeu_si128(p.add(1), efgh);
        }
    }
}

/// HMAC-SHA-256 (RFC 2104). `SimSig` signatures are HMACs under a per-key
/// secret, verified against the corresponding "public" key identifier.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_with(Kernel::active(), key, message)
}

fn hmac_with(kernel: Kernel, key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let mut h = Sha256::with_kernel(kernel);
        h.update(key);
        key_block[..32].copy_from_slice(&h.finalize());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::with_kernel(kernel);
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::with_kernel(kernel);
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Hex-encode a digest (lowercase), e.g. for certificate fingerprints.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        write!(out, "{b:02x}").expect("write to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel this CPU can run: the portable one first, then the
    /// accelerated one when present.
    fn kernels() -> Vec<Kernel> {
        let mut out = vec![Kernel::Portable];
        if accelerated() {
            out.push(Kernel::active());
        }
        out
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    fn digest_hex(data: &[u8]) -> String {
        hex(&Sha256::digest(data))
    }

    /// Deterministic pseudo-random bytes (xorshift), so failures repeat.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            digest_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        for kernel in kernels() {
            let cases: [(&[u8], &str); 3] = [
                (
                    b"",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                ),
                (
                    b"abc",
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                ),
                (
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                ),
            ];
            for (input, want) in cases {
                assert_eq!(hex(&digest_with(kernel, input)), want, "{kernel:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        for kernel in kernels() {
            let mut h = Sha256::with_kernel(kernel);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        for kernel in kernels() {
            // RFC 4231 test case 1
            let key = [0x0bu8; 20];
            let mac = hmac_with(kernel, &key, b"Hi There");
            assert_eq!(
                hex(&mac),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
            );
            // RFC 4231 test case 2
            let mac = hmac_with(kernel, b"Jefe", b"what do ya want for nothing?");
            assert_eq!(
                hex(&mac),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
            );
            // RFC 4231 test case 6 (key longer than block size)
            let key = [0xaau8; 131];
            let mac = hmac_with(
                kernel,
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
            );
            assert_eq!(
                hex(&mac),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
            );
        }
        let key = [0x0bu8; 20];
        assert_eq!(
            hmac_sha256(&key, b"Hi There"),
            hmac_with(Kernel::Portable, &key, b"Hi There")
        );
    }

    #[test]
    fn kernels_agree_on_every_length_to_1024() {
        let data = noise(1024, 0x5eed);
        for len in 0..=data.len() {
            let want = digest_with(Kernel::Portable, &data[..len]);
            assert_eq!(Sha256::digest(&data[..len]), want, "len={len}");
        }
    }

    #[test]
    fn kernels_agree_on_random_update_splits() {
        let data = noise(4096, 0xfeed);
        let want = digest_with(Kernel::Portable, &data);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            for kernel in kernels() {
                let mut h = Sha256::with_kernel(kernel);
                let mut rest = &data[..];
                while !rest.is_empty() {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    // Mostly short pieces, sometimes several blocks.
                    let cap = if rng.is_multiple_of(4) { 300 } else { 70 };
                    let n = ((rng >> 32) as usize % cap).min(rest.len());
                    h.update(&rest[..n]);
                    rest = &rest[n..];
                }
                assert_eq!(h.finalize(), want, "{kernel:?}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_one_mebibyte() {
        let data = noise(1 << 20, 0xbeef);
        let want = digest_with(Kernel::Portable, &data);
        for kernel in kernels() {
            assert_eq!(digest_with(kernel, &data), want, "{kernel:?}");
        }
        assert_eq!(Sha256::digest(&data), want);
    }

    #[test]
    fn accelerated_kernel_is_used_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            accelerated(),
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"),
            "SHA-NI detection disagrees with the CPU"
        );
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") {
            assert!(accelerated(), "CPU has SHA-NI but the portable kernel runs");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!accelerated());
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(hex(&[]), "");
    }
}
