//! Regenerate every table and figure from the paper's evaluation.
//!
//! ```text
//! cargo run --release -p openmb-harness --bin repro            # everything
//! cargo run --release -p openmb-harness --bin repro -- fig9 table3
//! ```
//!
//! Experiment names: fig7 fig8 fig9 fig10 table2 table3 snapshot
//! splitmerge correctness latency compress ablations faults conformance
//! (an unknown name exits 2 with this list).

use openmb_harness::*;

/// Every experiment, in print order: the one list behind both the
/// selection and the unknown-name error.
const EXPERIMENTS: [(&str, fn()); 14] = [
    ("fig7", || println!("{}", fig7::fig7())),
    ("fig8", || println!("{}", fig8::fig8())),
    ("fig9", || {
        let (a, b) = fig9::fig9ab();
        println!("{a}");
        println!("{b}");
        println!("{}", fig9::fig9cd(fig9::MbKind::Prads));
        println!("{}", fig9::fig9cd(fig9::MbKind::Bro));
    }),
    ("fig10", || {
        println!("{}", fig10::fig10a());
        println!("{}", fig10::fig10b());
    }),
    ("table2", || println!("{}", table2::table2())),
    ("table3", || println!("{}", table3::table3())),
    ("snapshot", || println!("{}", snapshot::snapshot_table())),
    ("splitmerge", || println!("{}", splitmerge::splitmerge_table())),
    ("correctness", || println!("{}", correctness::correctness_table())),
    ("latency", || println!("{}", latency::latency_table())),
    ("compress", || println!("{}", compress_xp::compress_table())),
    ("ablations", || println!("{}", ablations::ablations_table())),
    ("faults", || println!("{}", faults::faults_table())),
    ("conformance", || println!("{}", conformance::conformance_table())),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| EXPERIMENTS.iter().all(|(name, _)| name != a)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment {bad:?}; valid names: {}", names.join(" "));
        std::process::exit(2);
    }

    println!("OpenMB evaluation reproduction (paper: Gember et al., SDMBN/OpenMB)");
    println!("====================================================================\n");

    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run();
        }
    }
}
