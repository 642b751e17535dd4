//! `reproduce` refuses a misspelt experiment name while parsing its
//! arguments, before any world is generated, instead of running nothing
//! and exiting 0.

use std::process::Command;

#[test]
fn an_unknown_experiment_name_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scale", "small", "tabel3"])
        .output()
        .expect("run reproduce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{}: {stderr}", out.status);
    assert!(
        stderr
            .lines()
            .any(|l| l.contains("unknown experiment") && l.contains("\"tabel3\"")),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
}
