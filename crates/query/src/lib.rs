//! Read-optimized query layer over a study log
//! ([`StudyArtifact`](offnet_core::StudyArtifact)).
//!
//! A production deployment serves footprint queries — "which ASes host HG
//! X in month Y?", "growth curve for AS Z", "coverage of population P" —
//! to many users at interactive latency. [`FrozenStudy::load`] makes one
//! pass over the log's records and decodes the per-HG confirmed/candidate
//! AS runs into two flat sorted-integer columns with offset tables
//! ([`ArtifactTables`]), so every query is an O(1) slice or an O(log n)
//! binary search — no hashing, no allocation, no locks. `cargo bench
//! --bench query` in `offnet-bench` drives the point-query path with a
//! load generator and prints p50/p99 latency and sustained queries/sec;
//! perfbench's `query` workload (`--workload query`) times load plus one
//! query end to end.

use hgsim::{Hg, ALL_HGS};
use offnet_core::{read_artifact_payload, ArtifactError, ArtifactTables};
use std::path::Path;
use timebase::Snapshot;

/// A study's results frozen into flat integer tables, ready to serve.
///
/// Cells are snapshot-major: `row * ALL_HGS.len() + hg_index`, where a
/// *row* is a position in the artifact's processed-snapshot list (not a
/// raw snapshot index — engines with partial coverage have fewer rows
/// than months).
#[derive(Debug, Clone)]
pub struct FrozenStudy {
    tables: ArtifactTables,
    /// `2013-10`-style month label per row.
    labels: Vec<String>,
}

/// A population of users to measure coverage over: `(AS number, users)`.
pub type Population<'a> = &'a [(u32, u64)];

impl FrozenStudy {
    /// Load a study log and freeze it. Any valid log is served, whatever
    /// config fingerprint it carries; a torn or damaged one is an error.
    ///
    /// The file is read once, then [`ArtifactTables::parse`] verifies
    /// each record's checksum and makes a single pass that decodes the
    /// confirmed/candidate runs into two flat columns and skips the rest —
    /// no `BTreeSet`s, no `SnapshotResult` materialization. The study
    /// keeps those columns as they are. It answers as the full decode
    /// ([`offnet_core::StudyArtifact::load`]) of the same log does, which
    /// `tests` pin.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let (_fingerprint, payload) = read_artifact_payload(path)?;
        let tables = ArtifactTables::parse(&payload, path)?;
        let labels = tables
            .snapshot_idxs()
            .iter()
            .map(|&idx| month_label(idx as usize))
            .collect();
        Ok(FrozenStudy { tables, labels })
    }

    /// Body length of each record [`Self::load`] verified (skip markers
    /// included), in log order.
    pub fn record_body_lens(&self) -> &[usize] {
        self.tables.record_body_lens()
    }

    pub fn engine(&self) -> scanner::EngineId {
        self.tables.engine()
    }

    /// Number of processed snapshots (query rows).
    pub fn n_rows(&self) -> usize {
        self.tables.n_rows()
    }

    /// Month label for a row (`2013-10` style).
    pub fn label(&self, row: usize) -> &str {
        &self.labels[row]
    }

    /// Raw snapshot index for a row.
    pub fn snapshot_idx(&self, row: usize) -> usize {
        self.tables.snapshot_idxs()[row] as usize
    }

    /// Row holding a raw snapshot index, if that month was processed.
    pub fn row_of(&self, snapshot_idx: usize) -> Option<usize> {
        self.tables
            .snapshot_idxs()
            .binary_search(&(snapshot_idx as u32))
            .ok()
    }

    /// Row for a `2013-10`-style month label.
    pub fn row_for_month(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    fn cell(&self, hg: Hg, row: usize) -> usize {
        row * ALL_HGS.len() + hg_index(hg)
    }

    /// "Which ASes host HG X in month Y?" — an O(1) sorted slice.
    pub fn ases_hosting(&self, hg: Hg, row: usize) -> &[u32] {
        self.tables.confirmed_cell(self.cell(hg, row))
    }

    /// Certificate-only (candidate) AS list for one HG and row.
    pub fn ases_candidate(&self, hg: Hg, row: usize) -> &[u32] {
        self.tables.candidate_cell(self.cell(hg, row))
    }

    /// "Does AS Z host HG X in month Y?" — the point query the load
    /// generator hammers; one binary search over a sorted cell.
    pub fn hosts(&self, hg: Hg, row: usize, asn: u32) -> bool {
        self.ases_hosting(hg, row).binary_search(&asn).is_ok()
    }

    /// "Growth curve for HG X" — confirmed-AS count per row, read off the
    /// offset table without touching the values.
    pub fn growth_curve(&self, hg: Hg) -> Vec<usize> {
        (0..self.n_rows())
            .map(|row| self.ases_hosting(hg, row).len())
            .collect()
    }

    /// "Growth curve for AS Z" — how many HGs the AS hosts per row.
    pub fn as_curve(&self, asn: u32) -> Vec<usize> {
        (0..self.n_rows())
            .map(|row| {
                ALL_HGS
                    .iter()
                    .filter(|&&hg| self.hosts(hg, row, asn))
                    .count()
            })
            .collect()
    }

    /// The HGs hosted inside one AS at one row.
    pub fn hgs_in_as(&self, row: usize, asn: u32) -> Vec<Hg> {
        ALL_HGS
            .iter()
            .copied()
            .filter(|&hg| self.hosts(hg, row, asn))
            .collect()
    }

    /// "Coverage of population P": the share of `population`'s users whose
    /// AS hosts `hg` at `row`. Returns `(covered_users, total_users)`.
    pub fn coverage(&self, hg: Hg, row: usize, population: Population) -> (u64, u64) {
        let mut covered = 0;
        let mut total = 0;
        for &(asn, users) in population {
            total += users;
            if self.hosts(hg, row, asn) {
                covered += users;
            }
        }
        (covered, total)
    }

    /// The §6.2 Netflix variant series
    /// `(initial, with_expired, with_non_tls)` per row.
    pub fn netflix_variants(&self, row: usize) -> (u64, u64, u64) {
        let nf = self.tables.netflix_columns();
        (nf[0][row], nf[1][row], nf[2][row])
    }
}

/// Position of an HG in [`ALL_HGS`] — the column index inside a row.
pub fn hg_index(hg: Hg) -> usize {
    ALL_HGS
        .iter()
        .position(|&h| h == hg)
        .expect("hg in ALL_HGS")
}

/// Parse an HG from its keyword (`google`) or variant name (`Google`),
/// case-insensitively.
pub fn parse_hg(name: &str) -> Option<Hg> {
    ALL_HGS.iter().copied().find(|hg| {
        hg.to_string().eq_ignore_ascii_case(name) || format!("{hg:?}").eq_ignore_ascii_case(name)
    })
}

/// `2013-10`-style label for a raw snapshot index.
pub fn month_label(snapshot_idx: usize) -> String {
    let start = Snapshot::study_start();
    let months = usize::from(start.month() - 1) + 3 * snapshot_idx;
    Snapshot::new(start.year() + (months / 12) as i32, (months % 12) as u8 + 1).label()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::AsId;
    use offnet_core::pipeline::{HgSnapshotResult, SnapshotResult};
    use offnet_core::{NetflixVariants, StudyArtifact};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `a` written to a process-unique log and loaded back.
    fn frozen(a: &StudyArtifact) -> FrozenStudy {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "offnet-query-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("study.offna");
        a.write(&path).unwrap();
        let f = FrozenStudy::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        f
    }

    fn artifact() -> StudyArtifact {
        let mut snaps = Vec::new();
        for (row, idx) in [3usize, 5, 6].into_iter().enumerate() {
            let mut s = SnapshotResult {
                snapshot_idx: idx,
                ..Default::default()
            };
            s.per_hg.insert(
                Hg::Google,
                HgSnapshotResult {
                    confirmed_ases: (0..row as u32 + 2).map(|i| AsId(10 * i + 5)).collect(),
                    candidate_ases: (0..row as u32 + 3).map(|i| AsId(10 * i + 5)).collect(),
                    ..Default::default()
                },
            );
            s.per_hg.insert(
                Hg::Netflix,
                HgSnapshotResult {
                    confirmed_ases: [AsId(77)].into_iter().collect(),
                    ..Default::default()
                },
            );
            snaps.push(s);
        }
        StudyArtifact {
            engine: scanner::EngineId::Rapid7,
            fingerprint: 1,
            snapshots: snaps,
            netflix: NetflixVariants {
                initial: vec![1, 1, 1],
                with_expired: vec![1, 2, 2],
                with_non_tls: vec![2, 2, 3],
            },
            header_fps: Default::default(),
            reports: vec![],
        }
    }

    #[test]
    fn rows_and_labels() {
        let f = frozen(&artifact());
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.row_of(5), Some(1));
        assert_eq!(f.row_of(4), None);
        // Snapshots are quarterly: idx 3 = 2014-07, idx 6 = 2015-04.
        assert_eq!(f.label(0), "2014-07");
        assert_eq!(f.row_for_month("2015-04"), Some(2));
        assert_eq!(f.row_for_month("2013-10"), None);
    }

    #[test]
    fn point_and_slice_queries() {
        let f = frozen(&artifact());
        assert_eq!(f.ases_hosting(Hg::Google, 0), &[5, 15]);
        assert_eq!(f.ases_candidate(Hg::Google, 0).len(), 3);
        assert!(f.hosts(Hg::Google, 2, 25));
        assert!(!f.hosts(Hg::Google, 0, 25));
        assert!(!f.hosts(Hg::Akamai, 0, 5), "absent HG cell is empty");
        assert_eq!(f.growth_curve(Hg::Google), vec![2, 3, 4]);
        assert_eq!(f.as_curve(77), vec![1, 1, 1]);
        assert_eq!(f.hgs_in_as(1, 5), vec![Hg::Google]);
        assert_eq!(f.netflix_variants(2), (1, 2, 3));
    }

    #[test]
    fn coverage_weights_users() {
        let f = frozen(&artifact());
        let population = [(5u32, 100u64), (77, 50), (999, 850)];
        assert_eq!(f.coverage(Hg::Google, 0, &population), (100, 1000));
        assert_eq!(f.coverage(Hg::Netflix, 0, &population), (50, 1000));
    }

    #[test]
    fn borrowed_load_matches_full_decode_freeze() {
        let dir = std::env::temp_dir().join(format!("offnet-query-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.offna");
        artifact().write(&path).unwrap();

        let f = FrozenStudy::load(&path).unwrap();
        let decoded = StudyArtifact::load(&path).unwrap();
        assert_eq!(f.engine(), decoded.engine);
        assert_eq!(f.n_rows(), decoded.snapshots.len());
        let nf = &decoded.netflix;
        for (row, snap) in decoded.snapshots.iter().enumerate() {
            assert_eq!(f.label(row), month_label(snap.snapshot_idx));
            assert_eq!(f.snapshot_idx(row), snap.snapshot_idx);
            let variants = (nf.initial[row], nf.with_expired[row], nf.with_non_tls[row]);
            let (a, b, c) = f.netflix_variants(row);
            assert_eq!((a as usize, b as usize, c as usize), variants);
            for hg in ALL_HGS {
                let ases = |set: fn(&HgSnapshotResult) -> &BTreeSet<AsId>| -> Vec<u32> {
                    snap.per_hg
                        .get(&hg)
                        .map_or(Vec::new(), |h| set(h).iter().map(|a| a.0).collect())
                };
                assert_eq!(f.ases_hosting(hg, row), ases(|h| &h.confirmed_ases));
                assert_eq!(f.ases_candidate(hg, row), ases(|h| &h.candidate_ases));
            }
        }
        assert_eq!(
            f.record_body_lens().len(),
            4,
            "three rows and a skip marker"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hg_parsing() {
        assert_eq!(parse_hg("google"), Some(Hg::Google));
        assert_eq!(parse_hg("Google"), Some(Hg::Google));
        assert_eq!(parse_hg("NETFLIX"), Some(Hg::Netflix));
        assert_eq!(parse_hg("nope"), None);
    }
}
