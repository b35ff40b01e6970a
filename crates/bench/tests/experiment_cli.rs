//! The `experiment ID` entrypoint: argument errors exit with status 2 and
//! list every registered id and study id, and a registered experiment or
//! study prints exactly what [`HarnessSession::emit`] prints for it.

use spacea_bench::{HarnessOptions, HarnessSession};
use spacea_core::experiments::{bandwidth_table, registry, studies, table2};
use std::process::{Command, Output};

fn experiment(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiment")).args(args).output().expect("experiment runs")
}

#[test]
fn a_missing_unknown_or_second_id_exits_2_and_lists_every_id() {
    for args in [&[][..], &["nosuch"], &["--quick"], &["fig5", "fig6"]] {
        let out = experiment(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: an argument error printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiment ID"), "{args:?}: {stderr}");
        for e in registry().iter().chain(&studies()) {
            assert!(stderr.contains(e.id), "{args:?}: stderr does not name '{}': {stderr}", e.id);
        }
    }
}

#[test]
fn a_registered_id_prints_what_emit_prints() {
    // Table II and the bandwidth study have no jobs, so with --no-cache
    // nothing is written to disk.
    let opts = HarnessOptions::from_args(["--no-cache", "--csv"].map(String::from).into_iter())
        .expect("flags parse");
    let session = HarnessSession::from_opts(opts);
    for (id, expected) in [
        ("table2", session.render(&table2::run())),
        ("bandwidth_table", session.render(&bandwidth_table::run(&session.opts.cfg.hw))),
    ] {
        let out = experiment(&[id, "--no-cache", "--csv"]);
        assert!(out.status.success(), "{id}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), expected, "{id}");
    }
}
