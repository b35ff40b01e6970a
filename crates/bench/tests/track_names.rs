//! Every published timeline track name, pinned to its literal string: the
//! machine's observed run, the HBM model's timeline and the daemon's
//! request timeline each write exactly these names, in this order.

use spacea_arch::{HwConfig, Machine, RunSpec};
use spacea_backend::hbm::hbm_timeline;
use spacea_backend::{HbmBackend, HbmSpec, Partition, ScenarioSpec};
use spacea_mapping::{LocalityMapping, MappingStrategy};
use spacea_matrix::formats::FormatKind;
use spacea_matrix::gen::{banded, BandedConfig};
use spacea_obs::{SamplerConfig, Timeline};
use spacea_serve::{ServeConfig, ServeEngine};

fn tracks(timeline: &Timeline) -> Vec<String> {
    timeline.series.iter().map(|(key, _)| key.track_name()).collect()
}

fn sample() -> spacea_matrix::Csr {
    banded(&BandedConfig { n: 200, mean_row_nnz: 8.0, seed: 7, ..Default::default() })
}

#[test]
fn an_observed_machine_run_publishes_eight_gauges_per_vault_then_two_global() {
    let a = sample();
    let x = vec![1.0; a.cols()];
    let cfg = HwConfig::tiny();
    let mapping = LocalityMapping::default().map(&a, &cfg.shape);
    let spec = RunSpec::spmv(&a, &x, &mapping).observed(SamplerConfig::default());
    let out = Machine::new(cfg.clone()).run(spec).expect("the tiny machine runs");
    let timeline = out.timeline.expect("an observed run yields a timeline");

    let mut want = Vec::new();
    for v in 0..cfg.shape.vaults() {
        for gauge in [
            "ldq/l1-occupancy",
            "ldq/l2-occupancy",
            "ldq/queue-age",
            "pe/pending",
            "cam/l1-hit-rate",
            "cam/l2-hit-rate",
            "dram/row-hit-rate",
            "tsv/bytes",
        ] {
            want.push(format!("vault{v}/{gauge}"));
        }
    }
    want.extend(["noc/byte-hops", "engine/queue-depth"].map(String::from));
    assert_eq!(tracks(&timeline), want);
}

#[test]
fn the_hbm_timeline_publishes_three_gauges_per_channel_then_two_global() {
    let a = sample();
    let x = vec![1.0; a.cols()];
    let format = FormatKind::Sell.build(&a);
    let spec = ScenarioSpec {
        a: &a,
        format: format.as_ref(),
        partition: Partition::RowSplit,
        x: &x,
        mapping: None,
    };
    let hbm = HbmSpec::default();
    let (_, detail) = HbmBackend { spec: hbm }.run_detailed(&spec).expect("the HBM model runs");

    let mut want = Vec::new();
    for ch in 0..hbm.channels {
        for gauge in ["hbm/channel-bytes", "hbm/channel-cycles", "hbm/channel-stalls"] {
            want.push(format!("vault{ch}/{gauge}"));
        }
    }
    want.extend(["hbm/reorder-stalls", "hbm/utilization"].map(String::from));
    assert_eq!(tracks(&hbm_timeline(&detail)), want);
}

#[test]
fn the_serve_timeline_publishes_its_eight_request_gauges() {
    let dir = std::env::temp_dir().join(format!("spacea-track-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ServeEngine::new(ServeConfig::quick(&dir));
    let got = tracks(&engine.timeline());
    let _ = std::fs::remove_dir_all(&dir);
    let want = [
        "serve/queue-wait-us",
        "serve/batch-size",
        "serve/cycles-per-request",
        "serve/queue-depth",
        "serve/shed",
        "serve/retries",
        "serve/deadline-miss",
        "serve/queue-age-us",
    ];
    assert_eq!(got, want);
}
