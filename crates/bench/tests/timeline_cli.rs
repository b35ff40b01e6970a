//! The `timeline` binary's run-mode arguments: an id outside Table I is an
//! argument error that exits with status 2 and the usage line, never a
//! panic.

use std::process::Command;

#[test]
fn an_id_outside_table_i_exits_2_without_panicking() {
    for id in ["0", "99", "256"] {
        let out = Command::new(env!("CARGO_BIN_EXE_timeline"))
            .args(["--quick", "--no-cache", "--id", id])
            .output()
            .expect("timeline runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--id {id}: {stderr}");
        assert!(!stderr.contains("panicked"), "--id {id}: {stderr}");
        assert!(stderr.contains("Table I matrix id"), "--id {id}: {stderr}");
        assert!(stderr.contains("timeline: --validate FILE"), "--id {id}: no usage: {stderr}");
        assert!(out.stdout.is_empty(), "--id {id}: an argument error printed output");
    }
}
