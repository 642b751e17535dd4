//! `offnet-query` piped into a reader that stops early (`| head -3`):
//! the write that finds stdout closed ends the run quietly, with exit
//! status 0 and nothing on stderr, instead of a panic.

use offnet_core::{SnapshotResult, StudyArtifact};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_query_quietly() {
    let dir = std::env::temp_dir().join(format!("offnet-query-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("study.offna");
    StudyArtifact {
        engine: scanner::EngineId::Rapid7,
        fingerprint: 1,
        snapshots: (0..3)
            .map(|t| SnapshotResult {
                snapshot_idx: t,
                ..Default::default()
            })
            .collect(),
        netflix: Default::default(),
        header_fps: Default::default(),
    }
    .write(&log)
    .expect("write a log");

    // The pipe's read end is closed before the query starts, so its
    // first write fails.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_offnet-query"))
        .arg(&log)
        .arg("info")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run offnet-query");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
