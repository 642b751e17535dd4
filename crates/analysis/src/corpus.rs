//! Table 2 (corpus comparison across scan engines) and Figure 2 (raw IP
//! counts plus HG certificate shares).

use hgsim::{Hg, HgWorld, TOP4};
use netsim::AsId;
use offnet_core::{process_snapshot, PipelineContext, StudySeries};
use scanner::{observe_snapshot, EngineId, ScanEngine};
use std::collections::HashSet;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub engine: EngineId,
    /// IPs with certificates (raw corpus).
    pub ips_with_certs: usize,
    /// ASes with at least one certificate-bearing IP.
    pub ases_with_certs: usize,
    /// ASes with certificates seen by this engine only.
    pub unique_ases: usize,
    /// ASes with any studied HG's certificates (candidates, §4.3).
    pub hg_any: usize,
    pub google: usize,
    pub netflix: usize,
    pub facebook: usize,
    pub akamai: usize,
}

/// Compute Table 2: compare the three corpuses at one snapshot
/// (the paper uses November 2019 = snapshot 24).
pub fn table2(world: &HgWorld, ctx: &PipelineContext, t: usize) -> Vec<Table2Row> {
    let engines = [
        ScanEngine::rapid7(),
        ScanEngine::censys(),
        ScanEngine::certigo(),
    ];
    // Collect per-engine AS sets first for the "unique" column.
    let mut rows = Vec::new();
    let mut as_sets: Vec<HashSet<AsId>> = Vec::new();
    let mut results = Vec::new();
    for engine in &engines {
        let obs = observe_snapshot(world, engine, t).expect("corpus covers t");
        let result = process_snapshot(&obs, ctx);
        let mut ases = HashSet::new();
        for r in &obs.cert.records {
            for a in obs.ip_to_as.lookup(r.ip) {
                ases.insert(*a);
            }
        }
        as_sets.push(ases);
        results.push((engine.id, obs.cert.records.len(), result));
    }
    for (i, (engine, n_ips, result)) in results.iter().enumerate() {
        let unique_ases = as_sets[i]
            .iter()
            .filter(|a| {
                as_sets
                    .iter()
                    .enumerate()
                    .all(|(j, s)| j == i || !s.contains(*a))
            })
            .count();
        let mut any: HashSet<AsId> = HashSet::new();
        for hg in TOP4 {
            any.extend(result.per_hg[&hg].candidate_ases.iter().copied());
        }
        for (hg, r) in &result.per_hg {
            if !TOP4.contains(hg) {
                any.extend(r.candidate_ases.iter().copied());
            }
        }
        rows.push(Table2Row {
            engine: *engine,
            ips_with_certs: *n_ips,
            ases_with_certs: as_sets[i].len(),
            unique_ases,
            hg_any: any.len(),
            google: result.per_hg[&Hg::Google].candidate_ases.len(),
            netflix: result.per_hg[&Hg::Netflix].candidate_ases.len(),
            facebook: result.per_hg[&Hg::Facebook].candidate_ases.len(),
            akamai: result.per_hg[&Hg::Akamai].candidate_ases.len(),
        });
    }
    rows
}

/// One row of the interned-corpus memory report (the `corpus-stats`
/// experiment): one snapshot's byte accounting for the symbol-table data
/// model.
#[derive(Debug, Clone, Copy)]
pub struct MemoryRow {
    pub snapshot_idx: usize,
    pub stats: offnet_core::CorpusMemoryStats,
}

/// Human-readable byte count (`1.2 MiB`-style, exact below 1 KiB).
pub fn humanize_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut v = bytes as f64 / 1024.0;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

/// Render the interned corpus memory accounting as a table, with a total
/// row summing every snapshot.
pub fn memory_table(rows: &[MemoryRow]) -> String {
    let mut out_rows = Vec::with_capacity(rows.len() + 1);
    let fmt = |label: String, s: &offnet_core::CorpusMemoryStats| {
        vec![
            label,
            s.hosts.to_string(),
            s.header_names.to_string(),
            s.header_values.to_string(),
            humanize_bytes(s.interned_bytes),
        ]
    };
    let mut total = offnet_core::CorpusMemoryStats::default();
    for r in rows {
        total.interned_bytes += r.stats.interned_bytes;
        total.hosts += r.stats.hosts;
        total.header_names += r.stats.header_names;
        total.header_values += r.stats.header_values;
        let label = crate::render::snapshot_label(r.snapshot_idx);
        out_rows.push(fmt(label, &r.stats));
    }
    out_rows.push(fmt("total".to_owned(), &total));
    crate::render::table(
        &["snapshot", "hosts", "hdr-names", "hdr-values", "interned"],
        &out_rows,
    )
}

/// Render the sharded pipeline's spill ledger (the `shard-stats`
/// experiment): one row per segment with endpoint count, on-disk payload
/// size, resident interned footprint, and build/reuse provenance; a
/// total row sums the study and a peak row states the bounded-memory
/// high-water mark.
pub fn shard_stats_table(rows: &[offnet_core::ShardStat]) -> String {
    let mut body = Vec::with_capacity(rows.len() + 2);
    let mut total_endpoints = 0usize;
    let mut total_segment = 0usize;
    let mut total_interned = 0usize;
    let mut reused = 0usize;
    let mut peak = 0usize;
    for r in rows {
        total_endpoints += r.endpoints;
        total_segment += r.segment_bytes;
        total_interned += r.interned_bytes;
        reused += usize::from(r.reused);
        peak = peak.max(r.interned_bytes);
        body.push(vec![
            crate::render::snapshot_label(r.snapshot_idx),
            r.shard_idx.to_string(),
            r.endpoints.to_string(),
            humanize_bytes(r.segment_bytes),
            humanize_bytes(r.interned_bytes),
            if r.reused { "reused" } else { "built" }.to_owned(),
        ]);
    }
    body.push(vec![
        "total".to_owned(),
        rows.len().to_string(),
        total_endpoints.to_string(),
        humanize_bytes(total_segment),
        humanize_bytes(total_interned),
        format!("{reused} reused"),
    ]);
    body.push(vec![
        "peak resident".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        humanize_bytes(peak),
        String::new(),
    ]);
    crate::render::table(
        &[
            "snapshot",
            "shard",
            "endpoints",
            "segment",
            "interned",
            "provenance",
        ],
        &body,
    )
}

/// One point of Figure 2.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Point {
    pub snapshot_idx: usize,
    /// Raw IPs with certificates in the corpus.
    pub raw_ips: usize,
    /// % of those IPs holding an HG certificate, hosted inside HG ASes.
    pub pct_in_hg_ases: f64,
    /// % hosted outside HG ASes (potential off-nets).
    pub pct_outside_hg_ases: f64,
}

/// Compute Figure 2's series from a study.
pub fn fig2(series: &StudySeries) -> Vec<Fig2Point> {
    series
        .snapshots
        .iter()
        .map(|s| {
            let (inside, outside) = s.any_hg_ip_split();
            let total = s.total_ips_with_certs.max(1) as f64;
            Fig2Point {
                snapshot_idx: s.snapshot_idx,
                raw_ips: s.total_ips_with_certs,
                pct_in_hg_ases: 100.0 * inside as f64 / total,
                pct_outside_hg_ases: 100.0 * outside as f64 / total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{ctx, study, world};

    #[test]
    fn table2_engines_similar_as_counts() {
        let rows = table2(world(), ctx(), 24);
        assert_eq!(rows.len(), 3);
        let anys: Vec<usize> = rows.iter().map(|r| r.hg_any).collect();
        let max = *anys.iter().max().unwrap() as f64;
        let min = *anys.iter().min().unwrap() as f64;
        // Engines' HG-AS counts agree within ~15% (paper: 3788-3974).
        assert!(min / max > 0.85, "{anys:?}");
        // Certigo sees the most IPs (its scan has the fewest exclusions).
        let ac = rows.iter().find(|r| r.engine == EngineId::Certigo).unwrap();
        let r7 = rows.iter().find(|r| r.engine == EngineId::Rapid7).unwrap();
        assert!(ac.ips_with_certs > r7.ips_with_certs);
        // Unique-AS counts are tiny relative to the corpus (paper: 84-519
        // of ~58k) and certigo, with the fewest exclusions, leads.
        let total_unique: usize = rows.iter().map(|r| r.unique_ases).sum();
        assert!(total_unique > 0, "{rows:?}");
        for r in &rows {
            assert!(
                r.unique_ases * 50 < r.ases_with_certs,
                "unique not small: {rows:?}"
            );
        }
        let ac_unique = rows
            .iter()
            .find(|r| r.engine == EngineId::Certigo)
            .unwrap()
            .unique_ases;
        assert!(rows.iter().all(|r| ac_unique >= r.unique_ases), "{rows:?}");
    }

    #[test]
    fn table2_hg_ordering() {
        let rows = table2(world(), ctx(), 24);
        for r in &rows {
            assert!(
                r.google > r.netflix,
                "google {} netflix {}",
                r.google,
                r.netflix
            );
            assert!(r.google > r.akamai);
            assert!(r.hg_any >= r.google);
            assert!(r.ases_with_certs > r.hg_any);
        }
    }

    #[test]
    fn humanize_bytes_units() {
        assert_eq!(humanize_bytes(512), "512 B");
        assert_eq!(humanize_bytes(1536), "1.5 KiB");
        assert_eq!(humanize_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn memory_table_totals() {
        let stats = offnet_core::CorpusMemoryStats {
            interned_bytes: 600,
            hosts: 10,
            header_names: 4,
            header_values: 7,
            ..Default::default()
        };
        let rows = vec![
            MemoryRow {
                snapshot_idx: 0,
                stats,
            },
            MemoryRow {
                snapshot_idx: 1,
                stats,
            },
        ];
        let out = memory_table(&rows);
        assert!(out.contains("2013-10"), "{out}");
        // The total row sums every column across snapshots.
        let total = out.lines().find(|l| l.contains("total")).expect(&out);
        let cells: Vec<&str> = total.split_whitespace().collect();
        assert_eq!(cells, ["total", "20", "8", "14", "1.2", "KiB"], "{out}");
    }

    #[test]
    fn fig2_share_grows() {
        let points = fig2(study());
        assert_eq!(points.len(), 31);
        // Raw corpus grows substantially.
        assert!(points[30].raw_ips as f64 / points[0].raw_ips as f64 > 2.0);
        // The off-net share (outside HG ASes) grows over the study.
        let early = points[0].pct_outside_hg_ases;
        let late = points[30].pct_outside_hg_ases;
        assert!(late > early, "outside share {early} -> {late}");
    }
}
