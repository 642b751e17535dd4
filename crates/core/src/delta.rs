//! Snapshot-over-snapshot corpus deltas for the incremental study engine.
//!
//! The study is longitudinal — 31 monthly snapshots — yet `BENCH_parallel`
//! shows a large fraction of chains persist month-to-month, and every
//! per-HG stage (§4.2–§4.5) is a pure function of that HG's member
//! evidence: the ordered `by_hg_all` member list with each member's
//! `(ip, leaf fingerprint, expiry-exempted flag, AS origins)`, the
//! members' banner rows on both ports, and the fixed compiled header
//! fingerprints. This module distills each [`SnapshotCorpus`] into a
//! [`SnapshotEvidence`] of per-row `u64` digests, diffs adjacent
//! snapshots as sorted-integer set operations ([`CorpusDelta`]), and
//! recomputes only the HGs whose evidence changed — clean HGs replay the
//! previous snapshot's [`HgSnapshotResult`] verbatim.
//!
//! Two digest families with different jobs:
//!
//! - **Chain rows** hash the raw served DER ([`scanner::CertScanRecord::chain_digest`]
//!   upstream in the scanner). They track *churn* — new / rotated /
//!   vanished chains — for the reuse accounting, but are never used for
//!   invalidation: an unchanged chain can still flip §4.1 verdict as the
//!   clock moves past its notAfter.
//! - **Cert and banner rows** hash the *post-validation* corpus (`valids`
//!   and the quarantine-filtered banner index), so every time- and
//!   fault-dependent effect is already folded in. Equal evidence digests
//!   therefore imply equal stage inputs, which is what makes replay sound.
//!
//! Symbol ids are per-snapshot (dense, insertion-ordered), so banner rows
//! digest through the pools' [`stable_digest`] side tables — string
//! identity, not symbol identity — and cert rows digest the leaf's
//! SHA-256 fingerprint, which pins the full DER and hence SANs,
//! organization, and validity window.
//!
//! [`stable_digest`]: intern::stable_digest

use crate::confirm::Port;
use crate::corpus::SnapshotCorpus;
use crate::pipeline::{HgSnapshotResult, SnapshotResult};
use hgsim::{Hg, ALL_HGS};
use intern::Digest64;
use netsim::AsId;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Everything the delta engine needs to know about one HG's stage inputs,
/// reduced to comparable digests plus the HG's AS cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HgEvidence {
    /// Digest over the ordered `by_hg_all` member list: per member, the
    /// corpus IP, the leaf certificate's SHA-256 fingerprint, the
    /// expiry-exempted flag, and the IP's AS origins. `by_hg_std` is the
    /// same list filtered by the exempted flag, so one digest covers both
    /// §4.1 pools.
    pub membership_digest: u64,
    /// Digest over the members' banner rows on both ports (present/absent
    /// marker plus stable string digests per header pair, in row order).
    pub banner_digest: u64,
    /// The HG's report cells: every AS hosting one of its member IPs.
    pub cells: BTreeSet<AsId>,
}

/// One snapshot's corpus reduced to sorted digest rows: the unit the
/// delta engine diffs and the proptest round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEvidence {
    pub snapshot_idx: usize,
    /// Per-validated-certificate `(ip, digest)` rows, sorted by IP.
    pub cert_rows: Vec<(u32, u64)>,
    /// Per-IP banner-row digests over both ports, sorted by IP.
    pub banner_rows: Vec<(u32, u64)>,
    /// Raw served-chain digests from the scanner, sorted by IP — churn
    /// accounting only (see the module docs).
    pub chain_rows: Vec<(u32, u64)>,
    /// Per-HG stage-input evidence; HGs with no member certificates are
    /// absent (their stages are the constant empty result).
    pub per_hg: BTreeMap<Hg, HgEvidence>,
}

impl SnapshotEvidence {
    /// Distill a built corpus (plus the scanner's raw chain digests) into
    /// evidence rows.
    pub fn build(corpus: &SnapshotCorpus, chain_rows: Vec<(u32, u64)>) -> Self {
        let parts = EvidenceParts::of(corpus);
        let mut acc = EvidenceAccum::default();
        acc.absorb_rows(parts.cert_rows, parts.banner_rows, chain_rows);
        for h in parts.per_hg {
            acc.absorb_hg(
                h.hg,
                h.member_digests,
                &h.banner_flags,
                h.flagged_banner_digests,
                h.cells,
            );
        }
        acc.finish(corpus.snapshot_idx)
    }
}

/// One HG's slice of a corpus's evidence, before cross-shard merging.
pub(crate) struct HgParts {
    pub hg: Hg,
    /// Per member certificate (`by_hg_all` order): its cert-row digest.
    pub member_digests: Vec<u64>,
    /// One byte per member: 1 when the member IP had an indexed banner.
    pub banner_flags: Vec<u8>,
    /// Banner digests for exactly the flagged members, in member order.
    pub flagged_banner_digests: Vec<u64>,
    pub cells: BTreeSet<AsId>,
}

/// One corpus's evidence — a whole snapshot or one shard: cert rows in
/// corpus order, banner rows sorted by IP, and per-HG member streams.
pub(crate) struct EvidenceParts {
    pub cert_rows: Vec<(u32, u64)>,
    pub banner_rows: Vec<(u32, u64)>,
    pub per_hg: Vec<HgParts>,
}

impl EvidenceParts {
    pub(crate) fn of(corpus: &SnapshotCorpus) -> Self {
        // Per-pool stable string digests, once, so row digesting never
        // re-hashes a header string.
        let name_digests = corpus.interner.header_names().digests();
        let value_digests = corpus.interner.header_values().digests();

        let cert_rows: Vec<(u32, u64)> = corpus
            .valids
            .iter()
            .map(|vc| {
                let mut d = Digest64::new();
                d.write_u32(vc.ip);
                d.write(&vc.leaf.fingerprint().0);
                d.write_u8(u8::from(vc.expiry_exempted));
                let ases = corpus.ip_to_as.lookup(vc.ip);
                d.write_u64(ases.len() as u64);
                for a in ases {
                    d.write_u32(a.0);
                }
                (vc.ip, d.finish())
            })
            .collect();

        // Per-IP banner digest over both ports (an IP appears once even
        // when both ports indexed it).
        let banner_ips: BTreeSet<u32> = Port::ALL
            .iter()
            .flat_map(|&p| corpus.banners.indexed_ips(p))
            .collect();
        let banner_rows: Vec<(u32, u64)> = banner_ips
            .into_iter()
            .map(|ip| {
                let mut d = Digest64::new();
                for &port in &Port::ALL {
                    match corpus.banners.get(port, ip) {
                        None => d.write_u8(0),
                        Some(row) => {
                            d.write_u8(1);
                            d.write_u64(row.len() as u64);
                            for (n, v) in row {
                                d.write_u64(name_digests[n.index() as usize]);
                                d.write_u64(value_digests[v.index() as usize]);
                            }
                        }
                    }
                }
                (ip, d.finish())
            })
            .collect();
        let banner_map: HashMap<u32, u64> = banner_rows.iter().copied().collect();

        let mut per_hg = Vec::new();
        for hg in ALL_HGS {
            let members = corpus.hg_all_indices(hg);
            if members.is_empty() {
                continue;
            }
            let mut parts = HgParts {
                hg,
                member_digests: Vec::with_capacity(members.len()),
                banner_flags: Vec::with_capacity(members.len()),
                flagged_banner_digests: Vec::new(),
                cells: BTreeSet::new(),
            };
            for &i in members {
                let (ip, digest) = cert_rows[i as usize];
                parts.member_digests.push(digest);
                match banner_map.get(&ip) {
                    None => parts.banner_flags.push(0),
                    Some(&dg) => {
                        parts.banner_flags.push(1);
                        parts.flagged_banner_digests.push(dg);
                    }
                }
                parts
                    .cells
                    .extend(corpus.ip_to_as.lookup(ip).iter().copied());
            }
            per_hg.push(parts);
        }
        Self {
            cert_rows,
            banner_rows,
            per_hg,
        }
    }
}

/// Per-HG evidence accumulator: member digests are buffered (the
/// membership digest is length-prefixed); the banner digest streams.
#[derive(Default)]
struct HgMemberAccum {
    member_digests: Vec<u64>,
    banners: Digest64,
    cells: BTreeSet<AsId>,
}

/// Merges evidence parts, in shard order, into one [`SnapshotEvidence`].
#[derive(Default)]
pub(crate) struct EvidenceAccum {
    cert_rows: Vec<(u32, u64)>,
    banner_rows: Vec<(u32, u64)>,
    chain_rows: Vec<(u32, u64)>,
    per_hg: BTreeMap<Hg, HgMemberAccum>,
}

impl EvidenceAccum {
    pub(crate) fn absorb_rows(
        &mut self,
        cert_rows: impl IntoIterator<Item = (u32, u64)>,
        banner_rows: impl IntoIterator<Item = (u32, u64)>,
        chain_rows: impl IntoIterator<Item = (u32, u64)>,
    ) {
        self.cert_rows.extend(cert_rows);
        self.banner_rows.extend(banner_rows);
        self.chain_rows.extend(chain_rows);
    }

    pub(crate) fn absorb_hg(
        &mut self,
        hg: Hg,
        member_digests: impl IntoIterator<Item = u64>,
        banner_flags: &[u8],
        flagged_banner_digests: impl IntoIterator<Item = u64>,
        cells: impl IntoIterator<Item = AsId>,
    ) {
        let acc = self.per_hg.entry(hg).or_default();
        acc.member_digests.extend(member_digests);
        let mut flagged_banner_digests = flagged_banner_digests.into_iter();
        // Per member: a presence marker, then its banner digest if any.
        for &flag in banner_flags {
            if flag == 0 {
                acc.banners.write_u8(0);
            } else {
                acc.banners.write_u8(1);
                acc.banners.write_u64(
                    flagged_banner_digests
                        .next()
                        .expect("one digest per flagged member"),
                );
            }
        }
        acc.cells.extend(cells);
    }

    pub(crate) fn finish(self, snapshot_idx: usize) -> SnapshotEvidence {
        let sorted = |mut rows: Vec<(u32, u64)>| {
            rows.sort_unstable_by_key(|&(ip, _)| ip);
            rows
        };
        let per_hg = self
            .per_hg
            .into_iter()
            .map(|(hg, acc)| {
                let mut membership = Digest64::new();
                membership.write_u64(acc.member_digests.len() as u64);
                for &dg in &acc.member_digests {
                    membership.write_u64(dg);
                }
                (
                    hg,
                    HgEvidence {
                        membership_digest: membership.finish(),
                        banner_digest: acc.banners.finish(),
                        cells: acc.cells,
                    },
                )
            })
            .collect();
        SnapshotEvidence {
            snapshot_idx,
            cert_rows: sorted(self.cert_rows),
            banner_rows: sorted(self.banner_rows),
            chain_rows: sorted(self.chain_rows),
            per_hg,
        }
    }
}

/// A sorted-row diff: rows only in `to` (added), IPs only in `from`
/// (removed), and rows present in both but with a different digest
/// (changed, carrying the new digest).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    pub added: Vec<(u32, u64)>,
    pub removed: Vec<u32>,
    pub changed: Vec<(u32, u64)>,
}

impl RowDelta {
    pub fn is_clean(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Total rows touched in either direction.
    pub fn touched(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }

    fn diff(from: &[(u32, u64)], to: &[(u32, u64)]) -> Self {
        let mut out = RowDelta::default();
        let (mut i, mut j) = (0, 0);
        while i < from.len() && j < to.len() {
            match from[i].0.cmp(&to[j].0) {
                std::cmp::Ordering::Less => {
                    out.removed.push(from[i].0);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.added.push(to[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if from[i].1 != to[j].1 {
                        out.changed.push(to[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.removed.extend(from[i..].iter().map(|&(ip, _)| ip));
        out.added.extend_from_slice(&to[j..]);
        out
    }

    fn apply(&self, from: &[(u32, u64)]) -> Vec<(u32, u64)> {
        let mut map: BTreeMap<u32, u64> = from.iter().copied().collect();
        for ip in &self.removed {
            map.remove(ip);
        }
        for &(ip, dg) in self.changed.iter().chain(&self.added) {
            map.insert(ip, dg);
        }
        map.into_iter().collect()
    }
}

/// The symbol-level difference between two adjacent snapshots' evidence.
/// `apply`ing it to the `from` evidence reconstructs the `to` evidence
/// exactly (the round-trip the proptests pin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusDelta {
    pub from_idx: usize,
    pub to_idx: usize,
    pub cert: RowDelta,
    pub banner: RowDelta,
    pub chain: RowDelta,
    /// HGs whose evidence is new or changed in `to` (with the new value).
    pub hg_changed: Vec<(Hg, HgEvidence)>,
    /// HGs with evidence in `from` but none in `to`.
    pub hg_removed: Vec<Hg>,
}

impl CorpusDelta {
    pub fn diff(from: &SnapshotEvidence, to: &SnapshotEvidence) -> Self {
        let mut hg_changed = Vec::new();
        let mut hg_removed = Vec::new();
        for (hg, ev) in &to.per_hg {
            if from.per_hg.get(hg) != Some(ev) {
                hg_changed.push((*hg, ev.clone()));
            }
        }
        for hg in from.per_hg.keys() {
            if !to.per_hg.contains_key(hg) {
                hg_removed.push(*hg);
            }
        }
        CorpusDelta {
            from_idx: from.snapshot_idx,
            to_idx: to.snapshot_idx,
            cert: RowDelta::diff(&from.cert_rows, &to.cert_rows),
            banner: RowDelta::diff(&from.banner_rows, &to.banner_rows),
            chain: RowDelta::diff(&from.chain_rows, &to.chain_rows),
            hg_changed,
            hg_removed,
        }
    }

    /// Reconstruct the `to` evidence from the `from` evidence.
    pub fn apply(&self, from: &SnapshotEvidence) -> SnapshotEvidence {
        let mut per_hg = from.per_hg.clone();
        for hg in &self.hg_removed {
            per_hg.remove(hg);
        }
        for (hg, ev) in &self.hg_changed {
            per_hg.insert(*hg, ev.clone());
        }
        SnapshotEvidence {
            snapshot_idx: self.to_idx,
            cert_rows: self.cert.apply(&from.cert_rows),
            banner_rows: self.banner.apply(&from.banner_rows),
            chain_rows: self.chain.apply(&from.chain_rows),
            per_hg,
        }
    }

    /// No row and no HG evidence changed at all.
    pub fn is_clean(&self) -> bool {
        self.cert.is_clean()
            && self.banner.is_clean()
            && self.chain.is_clean()
            && self.hg_changed.is_empty()
            && self.hg_removed.is_empty()
    }

    /// HGs whose stages must re-run: evidence changed, appeared, or
    /// vanished between the snapshots.
    pub fn dirty_hgs(&self) -> HashSet<Hg> {
        self.hg_changed
            .iter()
            .map(|(hg, _)| *hg)
            .chain(self.hg_removed.iter().copied())
            .collect()
    }
}

/// Per-snapshot reuse accounting for the delta engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    pub snapshot_idx: usize,
    /// True for the first processed snapshot (or after a degraded
    /// predecessor): everything was recomputed, nothing was diffable.
    pub full_compute: bool,
    pub hgs_total: usize,
    pub hgs_recomputed: usize,
    pub hgs_replayed: usize,
    /// HG×AS report cells: a dirty HG recomputes the union of its current
    /// and previous cells; a clean HG replays its current cells.
    pub cells_recomputed: usize,
    pub cells_replayed: usize,
    /// Raw chain churn against the previous snapshot.
    pub chains_total: usize,
    pub chains_new: usize,
    pub chains_rotated: usize,
    pub chains_vanished: usize,
    /// Post-validation evidence rows touched by the diff.
    pub cert_rows_changed: usize,
    pub banner_rows_changed: usize,
    /// §4.1 work split for this snapshot, from the shared
    /// [`ValidationCache`](crate::ValidationCache): skeleton replays vs
    /// full verifications (first sightings + promotions).
    pub chains_replayed: u64,
    pub chains_revalidated: u64,
}

impl DeltaReport {
    /// A full-compute marker for a snapshot adopted without its report.
    pub(crate) fn full_compute(t: usize) -> Self {
        Self {
            snapshot_idx: t,
            full_compute: true,
            ..Default::default()
        }
    }

    pub fn cells_total(&self) -> usize {
        self.cells_recomputed + self.cells_replayed
    }

    /// Chains carried over unchanged from the previous snapshot.
    pub fn chains_persisted(&self) -> usize {
        self.chains_total - self.chains_new - self.chains_rotated
    }
}

/// One processed snapshot's state kept by the delta engine for diffing
/// against its successor.
#[derive(Debug, Clone)]
pub(crate) struct DeltaState {
    pub evidence: SnapshotEvidence,
    pub result: SnapshotResult,
}

/// The HGs a snapshot recomputes, the replayed rest, and the accounting.
pub(crate) struct DeltaPlan {
    /// In `ALL_HGS` order.
    pub dirty: Vec<Hg>,
    pub replayed: HashMap<Hg, HgSnapshotResult>,
    pub report: DeltaReport,
}

/// Plan a snapshot against the previous snapshot's state: clean HGs
/// replay their previous results, dirty ones are recomputed. With no
/// (usable) previous state every HG is dirty — a full compute.
/// Snapshot-level fields never replay; the §4.1 build runs regardless.
pub(crate) fn plan_delta(evidence: &SnapshotEvidence, prev: Option<&DeltaState>) -> DeltaPlan {
    // A degraded predecessor has unusable per-HG results; treat it as
    // no-previous-snapshot (full recompute keeps replay sound).
    let prev = prev.filter(|p| p.result.quality.degraded_snapshot.is_none());

    let mut report = DeltaReport {
        snapshot_idx: evidence.snapshot_idx,
        full_compute: prev.is_none(),
        hgs_total: ALL_HGS.len(),
        chains_total: evidence.chain_rows.len(),
        ..Default::default()
    };

    // Which HGs must re-run? Evidence-dirty ones, plus any the previous
    // snapshot degraded: their stored results are placeholders, and
    // recomputing re-fires a deterministic panic hook, keeping hook runs
    // byte-identical too.
    let dirty: Vec<Hg> = match prev {
        Some(p) => {
            let delta = CorpusDelta::diff(&p.evidence, evidence);
            let dirty_set = delta.dirty_hgs();
            report.chains_new = delta.chain.added.len();
            report.chains_rotated = delta.chain.changed.len();
            report.chains_vanished = delta.chain.removed.len();
            report.cert_rows_changed = delta.cert.touched();
            report.banner_rows_changed = delta.banner.touched();
            ALL_HGS
                .iter()
                .copied()
                .filter(|hg| {
                    dirty_set.contains(hg)
                        || p.result.quality.degraded_hgs.contains_key(&hg.to_string())
                })
                .collect()
        }
        None => {
            report.chains_new = evidence.chain_rows.len();
            report.cert_rows_changed = evidence.cert_rows.len();
            report.banner_rows_changed = evidence.banner_rows.len();
            ALL_HGS.to_vec()
        }
    };
    let dirty_set: HashSet<Hg> = dirty.iter().copied().collect();

    // Cell accounting: a dirty HG's recompute invalidates every cell it
    // touches now or touched before; a clean HG replays its cells as-is.
    let empty_cells = BTreeSet::new();
    let mut replayed: HashMap<Hg, HgSnapshotResult> = HashMap::with_capacity(ALL_HGS.len());
    for hg in ALL_HGS {
        let now = evidence.per_hg.get(&hg).map_or(&empty_cells, |e| &e.cells);
        if dirty_set.contains(&hg) {
            let before = prev
                .and_then(|p| p.evidence.per_hg.get(&hg))
                .map_or(&empty_cells, |e| &e.cells);
            report.cells_recomputed += now.union(before).count();
        } else {
            report.cells_replayed += now.len();
            if let Some(p) = prev {
                replayed.insert(hg, p.result.per_hg[&hg].clone());
            }
        }
    }
    report.hgs_replayed = replayed.len();
    report.hgs_recomputed = dirty.len();

    DeltaPlan {
        dirty,
        replayed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tiny deterministic generator (splitmix64) so the shimmed proptest
    /// harness — whose strategies are scalars only — can still drive
    /// structured evidence: each case contributes one seed, the evidence
    /// is a pure function of it.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Sorted, IP-deduplicated digest rows over a small IP domain
        /// (small on purpose: adjacent evidences then overlap, exercising
        /// added/removed/changed all at once).
        fn rows(&mut self) -> Vec<(u32, u64)> {
            let n = self.below(40) as usize;
            let mut v: Vec<(u32, u64)> = (0..n)
                .map(|_| (self.below(60) as u32, self.below(8)))
                .collect();
            v.sort_unstable_by_key(|&(ip, _)| ip);
            v.dedup_by_key(|&mut (ip, _)| ip);
            v
        }

        fn evidence(&mut self, idx: usize) -> SnapshotEvidence {
            let mut per_hg = BTreeMap::new();
            for _ in 0..self.below(6) {
                let hg = ALL_HGS[self.below(ALL_HGS.len() as u64) as usize];
                let cells = (0..self.below(12))
                    .map(|_| AsId(self.below(500) as u32))
                    .collect();
                per_hg.insert(
                    hg,
                    HgEvidence {
                        membership_digest: self.below(4),
                        banner_digest: self.below(4),
                        cells,
                    },
                );
            }
            SnapshotEvidence {
                snapshot_idx: idx,
                cert_rows: self.rows(),
                banner_rows: self.rows(),
                chain_rows: self.rows(),
                per_hg,
            }
        }
    }

    proptest! {
        /// The ISSUE's round-trip law: applying diff(A, B) to A
        /// reconstructs B — per-HG evidence and all row tables.
        #[test]
        fn corpus_delta_round_trips(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let a = g.evidence(3);
            let b = g.evidence(4);
            let delta = CorpusDelta::diff(&a, &b);
            prop_assert_eq!(delta.apply(&a), b);
        }

        /// Self-diff is clean, marks nothing dirty, and applies to the
        /// identity.
        #[test]
        fn self_diff_is_clean(seed in any::<u64>()) {
            let a = Gen(seed).evidence(5);
            let delta = CorpusDelta::diff(&a, &a);
            prop_assert!(delta.is_clean());
            prop_assert!(delta.dirty_hgs().is_empty());
            prop_assert_eq!(delta.apply(&a), a);
        }
    }

    #[test]
    fn row_delta_classifies_all_three_ways() {
        let from = vec![(1, 10), (2, 20), (4, 40)];
        let to = vec![(2, 21), (3, 30), (4, 40)];
        let d = RowDelta::diff(&from, &to);
        assert_eq!(d.added, vec![(3, 30)]);
        assert_eq!(d.removed, vec![1]);
        assert_eq!(d.changed, vec![(2, 21)]);
        assert_eq!(d.touched(), 3);
        assert_eq!(d.apply(&from), to);
    }
}
