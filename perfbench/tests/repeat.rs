//! Self-test: two traced runs of one workload with one seed report
//! identical byte metrics and counts. Times may differ; these may not.
//!
//! Each case runs the benchmark binary twice, so the whole file takes a
//! few minutes: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// Metrics that must repeat exactly for a given seed.
const EXACT: &[&str] = &[
    "write_kib_per_op",
    "read_kib_per_op",
    "stored_kib",
    "validate.cache_hit_ratio",
    "validate.chains_replayed_ratio",
    "corpus.interned_kib",
    "delta.hgs_replayed_ratio",
    "delta.cells_replayed_ratio",
    "artifact.write_kib",
    "artifact.size_kib",
    "shard.segments_built",
    "shard.write_kib",
    "shard.read_kib",
];

/// The value of `name` in the benchmark's result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let from = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[from..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run(workload: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .current_dir(root)
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line").to_owned();
    assert!(line.contains("\"correct\": true, "), "{workload}: {line}");
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    line
}

fn repeats_exactly(workload: &str) {
    let (a, b) = (run(workload), run(workload));
    for name in EXACT {
        assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
    }
}

#[test]
fn study_repeats() {
    repeats_exactly("study");
}

#[test]
fn append_repeats() {
    repeats_exactly("append");
}

#[test]
fn sharded_repeats() {
    repeats_exactly("sharded");
}

#[test]
fn query_repeats() {
    repeats_exactly("query");
}

#[test]
fn bad_arguments_exit_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
