//! Every workload at 1/50 size, three ops: the output checks pass and
//! both runs print exactly the metrics `BENCHMARK.json` names.

use std::path::PathBuf;
use std::time::Instant;

use openmb_perfbench::trace::{Plain, Traced};
use openmb_perfbench::workloads::{ChainFwd, MoveLive, MoveTcp, MoveThreads};
use openmb_perfbench::{run_end_to_end, run_traced, Report, RunCfg, Workload};

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let from = json.find(&format!("\"{key}\"")).expect("key present");
    let array = &json[from..from + json[from..].find(']').expect("array closes")];
    array
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name is a string").to_owned())
        .collect()
}

fn assert_prints(report: &Report, key: &str) {
    let printed: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(printed, declared(key), "{key}: each declared metric printed exactly once");
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert_eq!(report.failed, 0, "an output check failed");
    assert!(report.to_json().starts_with("{\"correct\": true, \"attempted\": "));
}

fn smoke<P: Workload, T: Workload>() {
    assert!(declared("workloads").contains(&P::NAME.to_owned()));
    let e2e = run_end_to_end::<P>(1, RunCfg::smoke(), Instant::now());
    assert_prints(&e2e, "end_to_end");
    assert_eq!(e2e.attempted, 3);
    for (name, value, _) in &e2e.metrics {
        assert!(*value > 0.0, "{name} must never read 0");
    }

    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(P::NAME);
    let traced = run_traced::<P, T>(1, RunCfg::smoke(), &out).expect("spans written");
    assert_prints(&traced, "per_layer");
    let spans = std::fs::read_to_string(out.join(format!("{}.spans.json", P::NAME))).unwrap();
    assert!(spans.contains("\"name\":\"op\""), "the op spans are dumped");

    // Item counts per op are fixed by the workload, not by the seed.
    let other = run_end_to_end::<P>(2, RunCfg::smoke(), Instant::now());
    assert_eq!((other.items_per_op, other.failed), (e2e.items_per_op, 0));
}

#[test]
fn chain_fwd_64b() {
    smoke::<ChainFwd<Plain>, ChainFwd<Traced>>();
}

#[test]
fn move_live_1400b() {
    smoke::<MoveLive<Plain>, MoveLive<Traced>>();
}

#[test]
fn move_tcp_10k() {
    smoke::<MoveTcp<Plain>, MoveTcp<Traced>>();
}

#[test]
fn move_threads_2x() {
    smoke::<MoveThreads<Plain>, MoveThreads<Traced>>();
}
