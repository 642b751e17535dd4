use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 prefix, e.g. `192.0.2.0/24`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    base: u32,
    len: u8,
}

impl Prefix {
    /// Construct a prefix; the base is masked down to the prefix boundary.
    pub fn new(base: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        Self {
            base: base & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub fn base(&self) -> u32 {
        self.base
    }

    pub fn len(&self) -> u8 {
        self.len
    }

    /// A prefix always covers at least one address; provided for clippy's
    /// `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Last address in the prefix.
    pub fn end(&self) -> u32 {
        self.base + (self.size() - 1) as u32
    }

    pub fn contains(&self, ip: u32) -> bool {
        ip & Self::mask(self.len) == self.base
    }

    /// The `i`-th address inside the prefix (wrapping within the block).
    pub fn addr(&self, i: u64) -> u32 {
        self.base + (i % self.size()) as u32
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.base), self.len)
    }
}

/// Whether an address sits in reserved/special-purpose ("bogon") space —
/// the App. A.1 pipeline filters these out of BGP data.
pub fn is_bogon(ip: u32) -> bool {
    let first = (ip >> 24) as u8;
    matches!(first, 0 | 10 | 127) || first >= 224
        || (ip & 0xfff0_0000) == 0xac10_0000 // 172.16/12
        || (ip & 0xffff_0000) == 0xc0a8_0000 // 192.168/16
        || (ip & 0xffc0_0000) == 0x6440_0000 // 100.64/10
        || (ip & 0xffff_0000) == 0xa9fe_0000 // 169.254/16
}

/// Sequentially allocates non-overlapping, non-bogon prefixes.
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    cursor: u32,
}

impl Default for PrefixAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixAllocator {
    pub fn new() -> Self {
        Self { cursor: 1 << 24 } // start at 1.0.0.0
    }

    /// Allocate the next aligned `/len` prefix outside bogon space.
    ///
    /// Panics if the IPv4 space is exhausted (cannot happen at simulation
    /// scales).
    pub fn alloc(&mut self, len: u8) -> Prefix {
        assert!((8..=32).contains(&len), "unsupported prefix length");
        let size = 1u32 << (32 - len);
        loop {
            // Align the cursor.
            let aligned = (self.cursor + size - 1) & !(size - 1);
            let candidate = Prefix::new(aligned, len);
            assert!(
                aligned.checked_add(size - 1).is_some(),
                "IPv4 space exhausted"
            );
            if is_bogon(candidate.base()) || is_bogon(candidate.end()) {
                // Skip to the end of the containing special /8-ish block.
                self.cursor = ((aligned >> 24) + 1) << 24;
                continue;
            }
            self.cursor = aligned + size;
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(0xc000_0200, 24); // 192.0.2.0/24
        assert!(p.contains(0xc000_0200));
        assert!(p.contains(0xc000_02ff));
        assert!(!p.contains(0xc000_0300));
        assert_eq!(p.size(), 256);
        assert_eq!(p.to_string(), "192.0.2.0/24");
    }

    #[test]
    fn base_is_masked() {
        let p = Prefix::new(0xc000_02ab, 24);
        assert_eq!(p.base(), 0xc000_0200);
    }

    #[test]
    fn bogons() {
        assert!(is_bogon(u32::from(std::net::Ipv4Addr::new(10, 1, 2, 3))));
        assert!(is_bogon(u32::from(std::net::Ipv4Addr::new(127, 0, 0, 1))));
        assert!(is_bogon(u32::from(std::net::Ipv4Addr::new(192, 168, 1, 1))));
        assert!(is_bogon(u32::from(std::net::Ipv4Addr::new(224, 0, 0, 1))));
        assert!(is_bogon(u32::from(std::net::Ipv4Addr::new(172, 20, 0, 1))));
        assert!(!is_bogon(u32::from(std::net::Ipv4Addr::new(8, 8, 8, 8))));
        assert!(!is_bogon(u32::from(std::net::Ipv4Addr::new(193, 0, 0, 1))));
    }

    #[test]
    fn allocator_never_returns_bogons_or_overlaps() {
        let mut alloc = PrefixAllocator::new();
        let mut prev_end = 0u32;
        for i in 0..5000 {
            let len = 20 + (i % 5) as u8;
            let p = alloc.alloc(len);
            assert!(!is_bogon(p.base()), "{p} is bogon");
            assert!(!is_bogon(p.end()), "{p} end is bogon");
            assert!(p.base() > prev_end || prev_end == 0, "overlap at {p}");
            prev_end = p.end();
        }
    }

    #[test]
    fn allocator_alignment() {
        let mut alloc = PrefixAllocator::new();
        for _ in 0..100 {
            let p = alloc.alloc(22);
            assert_eq!(p.base() % (1 << 10), 0, "{p} misaligned");
        }
    }

    proptest! {
        #[test]
        fn addr_stays_inside(base in any::<u32>(), len in 8u8..=30, i in any::<u64>()) {
            let p = Prefix::new(base, len);
            prop_assert!(p.contains(p.addr(i)));
        }

        #[test]
        fn contains_iff_in_range(base in any::<u32>(), len in 8u8..=30, ip in any::<u32>()) {
            let p = Prefix::new(base, len);
            let in_range = ip >= p.base() && ip <= p.end();
            prop_assert_eq!(p.contains(ip), in_range);
        }
    }
}
