//! Minimal fixed-width rendering for report output (tables and series).

use timebase::Snapshot;

/// Render an ASCII table with a header row.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (n - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Compact one-line series.
pub fn series_line(label: &str, values: &[usize]) -> String {
    let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("{label}: [{}]", cells.join(", "))
}

/// `2013-10`-style label for a study snapshot index.
pub fn snapshot_label(idx: usize) -> String {
    let mut s = Snapshot::study_start();
    for _ in 0..idx {
        s = s.next();
    }
    s.label()
}

/// Percentage with one decimal.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", 100.0 * f)
}

/// The shared scaffolding behind [`quality_table`] and
/// [`scan_health_table`]: one row per snapshot from its quality report,
/// then a `total` row from the study-wide aggregate.
fn per_snapshot_table(
    series: &offnet_core::StudySeries,
    headers: &[&str],
    row: impl Fn(String, &offnet_core::DataQualityReport) -> Vec<String>,
) -> String {
    let mut rows = Vec::with_capacity(series.snapshots.len() + 1);
    for snap in &series.snapshots {
        rows.push(row(snapshot_label(snap.snapshot_idx), &snap.quality));
    }
    rows.push(row("total".to_owned(), &series.aggregate_quality()));
    table(headers, &rows)
}

/// Render a study's per-snapshot data-quality accounting: records seen,
/// quarantined-by-reason counts, and degraded stages, with a study-wide
/// total row. Quiet snapshots (nothing quarantined, nothing degraded)
/// still appear so gaps in the corpus are visible.
pub fn quality_table(series: &offnet_core::StudySeries) -> String {
    let row = |label: String, q: &offnet_core::DataQualityReport| -> Vec<String> {
        let reasons = if q.quarantined.is_empty() {
            "-".to_owned()
        } else {
            q.quarantined
                .iter()
                .map(|(r, n)| format!("{r}:{n}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let degraded = if let Some(msg) = &q.degraded_snapshot {
            format!("snapshot ({msg})")
        } else if !q.degraded_hgs.is_empty() {
            q.degraded_hgs.keys().cloned().collect::<Vec<_>>().join(" ")
        } else {
            "-".to_owned()
        };
        vec![
            label,
            q.cert_records_seen.to_string(),
            q.banners_seen.to_string(),
            q.quarantined_total().to_string(),
            reasons,
            degraded,
        ]
    };
    per_snapshot_table(
        series,
        &[
            "snapshot",
            "certs",
            "banners",
            "quarantined",
            "reasons",
            "degraded",
        ],
        row,
    )
}

/// Render a `DeltaStudyEngine`'s per-snapshot reuse accounting: how many
/// chains the shared validation cache replayed from a skeleton and how
/// many it verified in full, with a study-wide total row.
pub fn reuse_table(reports: &[offnet_core::DeltaReport]) -> String {
    let row = |label: String, replayed: u64, revalidated: u64| {
        vec![label, replayed.to_string(), revalidated.to_string()]
    };
    let mut rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            row(
                snapshot_label(r.snapshot_idx),
                r.chains_replayed,
                r.chains_revalidated,
            )
        })
        .collect();
    rows.push(row(
        "total".to_owned(),
        reports.iter().map(|r| r.chains_replayed).sum(),
        reports.iter().map(|r| r.chains_revalidated).sum(),
    ));
    table(
        &["snapshot", "chains replayed", "chains revalidated"],
        &rows,
    )
}

/// Render the scan layer's per-snapshot transient-failure accounting:
/// targets admitted, attempts (including retries), recoveries, losses by
/// transient class (both the engine's intrinsic drops and retry-layer
/// give-ups), circuit-breaker opens, breaker-skipped targets, and the
/// virtual seconds spent in backoff — with a study-wide total row. At
/// `--transient-rate 0` every retry-layer column is zero and only the
/// intrinsic `base lost` column carries counts.
pub fn scan_health_table(series: &offnet_core::StudySeries) -> String {
    let class_counts = |m: &std::collections::BTreeMap<scanner::TransientClass, usize>| {
        if m.values().all(|&n| n == 0) {
            "-".to_owned()
        } else {
            m.iter()
                .filter(|(_, &n)| n > 0)
                .map(|(c, n)| format!("{}:{n}", c.name()))
                .collect::<Vec<_>>()
                .join(" ")
        }
    };
    let row = |label: String, q: &offnet_core::DataQualityReport| -> Vec<String> {
        let h = &q.scan;
        vec![
            label,
            h.targets.to_string(),
            h.attempts.to_string(),
            h.retries.to_string(),
            h.recovered.to_string(),
            class_counts(&h.base_lost),
            class_counts(&h.gave_up),
            h.breaker_opens.to_string(),
            h.unreachable.to_string(),
            h.backoff_wait_s.to_string(),
        ]
    };
    per_snapshot_table(
        series,
        &[
            "snapshot",
            "targets",
            "attempts",
            "retries",
            "recovered",
            "base lost",
            "gave up",
            "breakers",
            "unreachable",
            "wait(s)",
        ],
        row,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = table(
            &["HG", "2013", "2021"],
            &[
                vec!["google".into(), "1044".into(), "3810".into()],
                vec!["facebook".into(), "0".into(), "2214".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("HG"));
        assert!(lines[2].contains("google"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn labels() {
        assert_eq!(snapshot_label(0), "2013-10");
        assert_eq!(snapshot_label(30), "2021-04");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.578), "57.8%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn series_line_format() {
        assert_eq!(series_line("x", &[1, 2]), "x: [1, 2]");
    }

    #[test]
    fn reuse_table_reports_modes_and_totals() {
        let reports = [
            offnet_core::DeltaReport::new(0, 0, 100),
            offnet_core::DeltaReport::new(1, 85, 15),
        ];
        let out = reuse_table(&reports);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(lines[0].contains("chains replayed"), "{out}");
        let cells = |line: &str| {
            line.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(cells(lines[2]), ["2013-10", "0", "100"], "{out}");
        assert_eq!(
            cells(lines[3]),
            [snapshot_label(1).as_str(), "85", "15"],
            "{out}"
        );
        assert_eq!(cells(lines[4]), ["total", "85", "115"], "{out}");
    }

    #[test]
    fn scan_health_table_reports_losses_and_breakers() {
        use offnet_core::pipeline::SnapshotResult;
        use scanner::TransientClass;
        let mut clean = SnapshotResult {
            snapshot_idx: 0,
            ..Default::default()
        };
        clean.quality.scan.targets = 100;
        clean.quality.scan.attempts = 100;
        let mut rough = SnapshotResult {
            snapshot_idx: 1,
            ..Default::default()
        };
        rough.quality.scan.targets = 90;
        rough.quality.scan.attempts = 120;
        rough.quality.scan.retries = 30;
        rough.quality.scan.recovered = 25;
        rough
            .quality
            .scan
            .base_lost
            .insert(TransientClass::Timeout, 4);
        rough
            .quality
            .scan
            .gave_up
            .insert(TransientClass::RateLimited, 5);
        rough.quality.scan.breaker_opens = 1;
        rough.quality.scan.unreachable = 12;
        rough.quality.scan.backoff_wait_s = 310;
        let series = offnet_core::StudySeries {
            engine: scanner::EngineId::Rapid7,
            snapshots: vec![clean, rough],
            netflix: Default::default(),
            header_fps: Default::default(),
        };
        let out = scan_health_table(&series);
        assert!(out.contains("timeout:4"), "{out}");
        assert!(out.contains("rate-limited:5"), "{out}");
        assert!(out.contains("310"), "{out}");
        assert!(out.contains("total"), "{out}");
        // The total row sums both snapshots' attempts.
        assert!(out.lines().last().unwrap_or("").contains("220"), "{out}");
    }

    #[test]
    fn quality_table_lists_quarantines_and_degradation() {
        use offnet_core::pipeline::SnapshotResult;
        use offnet_core::RecordError;
        let mut clean = SnapshotResult {
            snapshot_idx: 0,
            ..Default::default()
        };
        clean.quality.cert_records_seen = 100;
        let mut noisy = SnapshotResult {
            snapshot_idx: 1,
            ..Default::default()
        };
        noisy.quality.cert_records_seen = 90;
        noisy.quality.add(RecordError::MalformedDer, 7);
        noisy
            .quality
            .degraded_hgs
            .insert("Google".to_owned(), "boom".to_owned());
        let dead = SnapshotResult::degraded(2, "worker panic");
        let series = offnet_core::StudySeries {
            engine: scanner::EngineId::Rapid7,
            snapshots: vec![clean, noisy, dead],
            netflix: Default::default(),
            header_fps: Default::default(),
        };
        let out = quality_table(&series);
        assert!(out.contains("2013-10"), "{out}");
        assert!(out.contains("malformed-der:7"), "{out}");
        assert!(out.contains("Google"), "{out}");
        assert!(out.contains("snapshot (worker panic)"), "{out}");
        assert!(out.contains("total"), "{out}");
    }
}

/// Render rows as RFC 4180-ish CSV (quoting cells containing commas or
/// quotes) for downstream plotting.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod csv_tests {
    use super::csv;

    #[test]
    fn plain_cells() {
        let out = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn quoting() {
        let out = csv(&["x"], &[vec!["he said \"hi\", twice".into()]]);
        assert_eq!(out, "x\n\"he said \"\"hi\"\", twice\"\n");
    }

    #[test]
    fn empty_rows() {
        assert_eq!(csv(&["only"], &[]), "only\n");
    }

    #[test]
    fn header_escaping() {
        let out = csv(&["a,b", "c\"d", "e\nf"], &[]);
        assert_eq!(out, "\"a,b\",\"c\"\"d\",\"e\nf\"\n");
    }

    #[test]
    fn empty_cells_stay_unquoted() {
        let out = csv(&["a", "b"], &[vec![String::new(), "x".into()]]);
        assert_eq!(out, "a,b\n,x\n");
    }
}
