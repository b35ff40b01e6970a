//! The `spacea-lint --check` gate, driven through the built binary: one
//! unsuppressed violation fails the run, a `lint:allow` directive clears it,
//! and no flag carries violations forward as accepted debt. A report whose
//! reader has gone (`| grep -q`) ends cleanly.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A scratch workspace root holding one `crates/sim/src/lib.rs`, removed on
/// drop.
struct Root(PathBuf);

impl Root {
    fn new(tag: &str, lib_rs: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("spacea-lint-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let src = dir.join("crates/sim/src");
        fs::create_dir_all(&src).expect("create scratch root");
        fs::write(src.join("lib.rs"), lib_rs).expect("write lib.rs");
        Root(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Root {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn lint(args: &[&str], root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spacea-lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run spacea-lint")
}

const UNWRAP: &str = "pub fn first(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

const ALLOWED: &str = "pub fn first(x: Option<u32>) -> u32 {\n    \
                       // lint:allow(R1) the caller checks is_some first\n    \
                       x.unwrap()\n}\n";

#[test]
fn check_fails_on_an_unsuppressed_violation() {
    let root = Root::new("unwrap", UNWRAP);
    let out = lint(&["--check"], root.path());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("crates/sim/src/lib.rs:2: "), "stderr: {stderr}");
    assert!(stderr.contains("[R1]"), "stderr: {stderr}");
}

#[test]
fn check_passes_once_the_site_carries_lint_allow() {
    let root = Root::new("allowed", ALLOWED);
    let out = lint(&["--check"], root.path());
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));
}

#[test]
fn no_flag_records_violations_as_accepted_debt() {
    let root = Root::new("debt", UNWRAP);
    let file = root.path().join("debt.json");
    let out = lint(&["--update-baseline", file.to_str().expect("utf-8 path")], root.path());
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!file.exists(), "a rejected flag must not write {}", file.display());
}

#[test]
fn why_exits_cleanly_when_its_reader_has_gone() {
    let root = Root::new("pipe", UNWRAP);
    // The read end closes before the child writes a byte, so every write
    // it makes fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_spacea-lint"))
        .args(["--why", "first", "--root"])
        .arg(root.path())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run spacea-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
