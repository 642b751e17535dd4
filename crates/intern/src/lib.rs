//! Study-wide string interning with typed symbols.
//!
//! The §4 pipeline is set-membership all the way down — §4.2/§4.3 test
//! that every dNSName of a candidate certificate is in the HG's on-net
//! name set, §4.4/§4.5 match banner header pairs against a top-50
//! fingerprint — yet the raw corpus repeats the same few thousand
//! distinct strings across millions of records. Interning maps each
//! distinct string to a dense `u32` symbol once, at observation time, so
//! every later stage compares integers.
//!
//! Three properties the pipeline depends on:
//!
//! - **Deterministic ids.** Symbols are assigned in first-insertion
//!   order, never by hash order, so two observations of the same corpus
//!   produce byte-identical symbolized records (the determinism suite
//!   asserts exactly this).
//! - **Typed symbols.** [`HostSym`], [`HeaderNameSym`] and
//!   [`HeaderValueSym`] are distinct types over distinct pools; a header
//!   name can never be compared against a hostname by accident.
//! - **Freeze before the stages.** An [`Interner`] is append-only while
//!   a snapshot — or one chunk of the scanner's `ObservationStream` — is
//!   being observed, then converted into a read-only [`FrozenInterner`]
//!   before the per-HG stages read it, so every stage reads it by
//!   `&`-reference and none can add a symbol.

use std::marker::PhantomData;

/// An arena-based string pool: one flat buffer plus `(start, len)` spans,
/// looked up through an open-addressing table. Ids are dense, starting at
/// zero, in first-insertion order.
#[derive(Clone, Default)]
pub struct Pool {
    buf: String,
    spans: Vec<(u32, u32)>,
    /// Open-addressing table of `id + 1` (0 = empty slot). Power-of-two
    /// sized; rebuilt on growth. The table is an acceleration structure
    /// only — ids and iteration order come from `spans`.
    table: Vec<u32>,
}

/// FNV-1a: stable across runs and platforms (no per-process hash seeds),
/// which keeps symbol assignment a pure function of insertion order.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl Pool {
    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if self.table.is_empty() {
            self.table = vec![0; 64];
        } else if (self.spans.len() + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(s) as usize) & mask;
        loop {
            match self.table[i] {
                0 => {
                    let id = self.spans.len() as u32;
                    let start = self.buf.len() as u32;
                    self.buf.push_str(s);
                    self.spans.push((start, s.len() as u32));
                    self.table[i] = id + 1;
                    return id;
                }
                slot => {
                    let id = slot - 1;
                    if self.resolve(id) == s {
                        return id;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Look up `s` without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(s) as usize) & mask;
        loop {
            match self.table[i] {
                0 => return None,
                slot => {
                    let id = slot - 1;
                    if self.resolve(id) == s {
                        return Some(id);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// The string behind an id. Panics on an id from another pool.
    pub fn resolve(&self, id: u32) -> &str {
        let (start, len) = self.spans[id as usize];
        &self.buf[start as usize..(start + len) as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All `(id, string)` entries in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.spans.len() as u32).map(|id| (id, self.resolve(id)))
    }

    /// Heap bytes held by the pool (buffer + spans + table).
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    fn grow(&mut self) {
        let new_len = (self.table.len() * 2).max(64);
        let mut table = vec![0u32; new_len];
        let mask = new_len - 1;
        for (id, s) in self.iter() {
            let mut i = (fnv1a(s) as usize) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = id + 1;
        }
        self.table = table;
    }

    /// The pool's serializable parts: the flat string buffer and the
    /// `(start, len)` span list, in id order. The probe table is an
    /// acceleration structure and is rebuilt by [`Pool::from_parts`].
    pub fn raw_parts(&self) -> (&str, &[(u32, u32)]) {
        (&self.buf, &self.spans)
    }

    /// Rebuild a pool from serialized parts. Ids are the span positions,
    /// so a round trip through `raw_parts` → `from_parts` preserves every
    /// symbol. Panics if a span reaches outside `buf` or splits a UTF-8
    /// boundary (corrupt input should have been caught by the segment
    /// checksum first).
    pub fn from_parts(buf: String, spans: Vec<(u32, u32)>) -> Self {
        let mut pool = Pool {
            buf,
            spans,
            table: Vec::new(),
        };
        if pool.spans.is_empty() {
            return pool;
        }
        let mut len = 64;
        while (pool.spans.len() + 1) * 4 >= len * 3 {
            len *= 2;
        }
        let mut table = vec![0u32; len];
        let mask = len - 1;
        for id in 0..pool.spans.len() as u32 {
            let s = pool.resolve(id);
            let mut i = (fnv1a(s) as usize) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = id + 1;
        }
        pool.table = table;
        pool
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("len", &self.len())
            .field("bytes", &self.buf.len())
            .finish()
    }
}

/// A typed symbol: a dense `u32` id tagged with the pool kind it came
/// from. The `fn() -> K` phantom keeps `Sym` `Send + Sync + Copy`
/// regardless of `K`.
pub struct Sym<K>(u32, PhantomData<fn() -> K>);

impl<K> Sym<K> {
    /// The raw dense index (valid for indexing per-symbol side tables).
    pub fn index(self) -> u32 {
        self.0
    }

    fn new(id: u32) -> Self {
        Sym(id, PhantomData)
    }
}

// Manual impls: derives would bound on `K`, which is a marker type only.
impl<K> Clone for Sym<K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K> Copy for Sym<K> {}
impl<K> PartialEq for Sym<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<K> Eq for Sym<K> {}
impl<K> PartialOrd for Sym<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Sym<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}
impl<K> std::hash::Hash for Sym<K> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}
impl<K> std::fmt::Debug for Sym<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// Marker for the hostname / dNSName pool.
pub enum Hosts {}
/// Marker for the (lowercased) header-name pool.
pub enum HeaderNames {}
/// Marker for the header-value pool.
pub enum HeaderValues {}

/// Symbol for a hostname or certificate dNSName.
pub type HostSym = Sym<Hosts>;
/// Symbol for a lowercased HTTP header name.
pub type HeaderNameSym = Sym<HeaderNames>;
/// Symbol for an HTTP header value (original bytes).
pub type HeaderValueSym = Sym<HeaderValues>;

/// A typed wrapper over one [`Pool`].
pub struct SymTable<K> {
    pool: Pool,
    _kind: PhantomData<fn() -> K>,
}

// Manual impls: derives would bound on the marker type `K`.
impl<K> Default for SymTable<K> {
    fn default() -> Self {
        Self {
            pool: Pool::default(),
            _kind: PhantomData,
        }
    }
}
impl<K> Clone for SymTable<K> {
    fn clone(&self) -> Self {
        Self {
            pool: self.pool.clone(),
            _kind: PhantomData,
        }
    }
}
impl<K> std::fmt::Debug for SymTable<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SymTable").field(&self.pool).finish()
    }
}

impl<K> SymTable<K> {
    pub fn intern(&mut self, s: &str) -> Sym<K> {
        Sym::new(self.pool.intern(s))
    }

    pub fn get(&self, s: &str) -> Option<Sym<K>> {
        self.pool.get(s).map(Sym::new)
    }

    pub fn resolve(&self, sym: Sym<K>) -> &str {
        self.pool.resolve(sym.index())
    }

    pub fn len(&self) -> usize {
        self.pool.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// All `(symbol, string)` entries in symbol (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym<K>, &str)> {
        self.pool.iter().map(|(id, s)| (Sym::new(id), s))
    }

    pub fn heap_bytes(&self) -> usize {
        self.pool.heap_bytes()
    }

    /// The typed symbol for a raw dense id, bounds-checked against the
    /// pool — the only way to mint a `Sym` from serialized data.
    pub fn sym_for_index(&self, id: u32) -> Option<Sym<K>> {
        ((id as usize) < self.pool.len()).then(|| Sym::new(id))
    }

    /// The table's serializable parts (see [`Pool::raw_parts`]).
    pub fn raw_parts(&self) -> (&str, &[(u32, u32)]) {
        self.pool.raw_parts()
    }

    /// Rebuild a typed table from serialized parts (see
    /// [`Pool::from_parts`]).
    pub fn from_parts(buf: String, spans: Vec<(u32, u32)>) -> Self {
        Self {
            pool: Pool::from_parts(buf, spans),
            _kind: PhantomData,
        }
    }
}

/// The append-only observation-time interner: one typed table per symbol
/// domain. Cloned per snapshot by the corpus builder, then [`frozen`]
/// before the per-HG stages read it.
///
/// [`frozen`]: Interner::freeze
#[derive(Debug, Clone, Default)]
pub struct Interner {
    pub hosts: SymTable<Hosts>,
    pub header_names: SymTable<HeaderNames>,
    pub header_values: SymTable<HeaderValues>,
}

impl Interner {
    /// Seal the interner. From here on only shared read access exists, so
    /// a `&FrozenInterner` can cross into worker threads without any
    /// synchronization.
    pub fn freeze(self) -> FrozenInterner {
        FrozenInterner(self)
    }

    /// Total heap bytes across the three pools.
    pub fn heap_bytes(&self) -> usize {
        self.hosts.heap_bytes() + self.header_names.heap_bytes() + self.header_values.heap_bytes()
    }
}

/// A read-only [`Interner`]: the freeze-before-the-stages contract made
/// into a type. There is no `&mut` API, so sharing one across threads is
/// lock-free by construction.
#[derive(Debug, Clone)]
pub struct FrozenInterner(Interner);

impl FrozenInterner {
    pub fn hosts(&self) -> &SymTable<Hosts> {
        &self.0.hosts
    }

    pub fn header_names(&self) -> &SymTable<HeaderNames> {
        &self.0.header_names
    }

    pub fn header_values(&self) -> &SymTable<HeaderValues> {
        &self.0.header_values
    }

    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// Sorted-merge subset test: is every symbol of `sub` present in `sup`?
/// Both slices must be sorted and deduplicated (the corpus stores SAN
/// spans and fingerprint name sets that way). Runs in `O(|sub| + |sup|)`
/// over plain integers — this is the §4.3 all-SANs-on-net rule.
pub fn sorted_subset<K>(sub: &[Sym<K>], sup: &[Sym<K>]) -> bool {
    let mut j = 0;
    'outer: for &s in sub {
        while j < sup.len() {
            match sup[j].cmp(&s) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_insertion_ordered() {
        let mut p = Pool::default();
        assert_eq!(p.intern("alpha"), 0);
        assert_eq!(p.intern("beta"), 1);
        assert_eq!(p.intern("alpha"), 0, "re-interning must not mint a new id");
        assert_eq!(p.intern("gamma"), 2);
        assert_eq!(p.resolve(1), "beta");
        assert_eq!(p.get("gamma"), Some(2));
        assert_eq!(p.get("delta"), None);
        let collected: Vec<(u32, &str)> = p.iter().collect();
        assert_eq!(collected, vec![(0, "alpha"), (1, "beta"), (2, "gamma")]);
    }

    #[test]
    fn survives_growth_past_initial_table() {
        let mut p = Pool::default();
        let ids: Vec<u32> = (0..5000)
            .map(|i| p.intern(&format!("host-{i}.example")))
            .collect();
        assert_eq!(p.len(), 5000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, i as u32);
            assert_eq!(p.resolve(*id), format!("host-{i}.example"));
            assert_eq!(p.get(&format!("host-{i}.example")), Some(*id));
        }
    }

    #[test]
    fn empty_string_and_collisions_are_fine() {
        let mut p = Pool::default();
        let empty = p.intern("");
        let a = p.intern("a");
        assert_ne!(empty, a);
        assert_eq!(p.resolve(empty), "");
        assert_eq!(p.get(""), Some(empty));
    }

    #[test]
    fn typed_tables_are_independent() {
        let mut i = Interner::default();
        let h = i.hosts.intern("example.com");
        let n = i.header_names.intern("example.com");
        // Same string, different pools, both id 0 — the types keep them
        // from ever being compared.
        assert_eq!(h.index(), 0);
        assert_eq!(n.index(), 0);
        let frozen = i.freeze();
        assert_eq!(frozen.hosts().resolve(h), "example.com");
        assert_eq!(frozen.header_names().resolve(n), "example.com");
    }

    #[test]
    fn insertion_order_is_deterministic_across_runs() {
        let build = || {
            let mut p = Pool::default();
            for i in 0..1000 {
                p.intern(&format!("{}.cdn.example", (i * 7919) % 503));
            }
            p.iter()
                .map(|(id, s)| (id, s.to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sorted_subset_semantics() {
        let mut t: SymTable<Hosts> = SymTable::default();
        let syms: Vec<HostSym> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        let sup = vec![syms[0], syms[2], syms[4]];
        assert!(sorted_subset(&[syms[0], syms[4]], &sup));
        assert!(sorted_subset(&[], &sup), "empty set is a subset");
        assert!(sorted_subset(&sup, &sup));
        assert!(!sorted_subset(&[syms[1]], &sup));
        assert!(!sorted_subset(&[syms[0], syms[3]], &sup));
        assert!(!sorted_subset(&[syms[0]], &[]));
    }

    #[test]
    fn heap_bytes_accounts_for_growth() {
        let mut p = Pool::default();
        let before = p.heap_bytes();
        for i in 0..1000 {
            p.intern(&format!("padding-string-{i}"));
        }
        assert!(p.heap_bytes() > before);
    }

    #[test]
    fn from_parts_round_trips_and_keeps_probing() {
        let mut p = Pool::default();
        for i in 0..3000 {
            p.intern(&format!("edge-{}.cdn.example", (i * 7919) % 2003));
        }
        let (buf, spans) = p.raw_parts();
        let q = Pool::from_parts(buf.to_owned(), spans.to_vec());
        assert_eq!(q.len(), p.len());
        for (id, s) in p.iter() {
            assert_eq!(q.resolve(id), s);
            assert_eq!(q.get(s), Some(id), "rebuilt table must find {s}");
        }
        // The rebuilt pool keeps interning with the same dense ids.
        let mut q = q;
        let next = q.intern("fresh.example");
        assert_eq!(next as usize, p.len());
        // Empty round trip.
        let empty = Pool::from_parts(String::new(), Vec::new());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.get("x"), None);
    }

    #[test]
    fn sym_for_index_is_bounds_checked() {
        let mut t: SymTable<Hosts> = SymTable::default();
        let a = t.intern("a.example");
        assert_eq!(t.sym_for_index(0), Some(a));
        assert_eq!(t.sym_for_index(1), None);
    }

    #[test]
    fn clone_preserves_ids() {
        let mut a = Pool::default();
        a.intern("x");
        a.intern("y");
        let mut b = a.clone();
        assert_eq!(b.intern("x"), 0);
        assert_eq!(b.intern("z"), 2);
        // The original is untouched by the clone's appends.
        assert_eq!(a.len(), 2);
    }
}
