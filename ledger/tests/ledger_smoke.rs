//! `ledger all --seconds 0.3` end to end: the document parses, names every
//! workload and metric `BENCHMARK.json` declares exactly once per workload,
//! and no op fails.

use mojave_ledger::harness::{bound, END_TO_END, PER_LAYER, RUN_SECONDS};
use mojave_ledger::json::Json;
use mojave_ledger::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn declared(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .expect("key present")
        .elements()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn all_reports_every_declared_metric_once_per_workload() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let benchmark = Json::parse(&benchmark).expect("BENCHMARK.json parses");
    let workloads = declared(&benchmark, "workloads");
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|m| m == "setup_s"));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "bad name `{name}`");
    }
    // `BENCHMARK.json` and the tables the program reports from say the same.
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        benchmark.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let field = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_owned);
    for (entry, (name, unit, better, listed)) in benchmark
        .get("end_to_end")
        .expect("key present")
        .elements()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(field(entry, "name").as_deref(), Some(name));
        assert_eq!(field(entry, "unit").as_deref(), Some(unit));
        assert_eq!(field(entry, "better").as_deref(), Some(better));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(listed));
        // The listed bound is that of the metric's least steady workload.
        let widest = WORKLOADS.iter().map(|w| bound(name, w)).fold(0.0, f64::max);
        assert_eq!(listed, widest, "{name}");
    }
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in benchmark
        .get("per_layer")
        .expect("key present")
        .elements()
        .iter()
        .zip(PER_LAYER)
    {
        assert_eq!(field(entry, "name").as_deref(), Some(metric.name));
        assert_eq!(field(entry, "unit").as_deref(), Some(metric.unit));
        assert_eq!(field(entry, "better").as_deref(), Some(metric.better));
    }
    assert_eq!(per_layer.len(), PER_LAYER.len());

    let ledger = Path::new(env!("CARGO_BIN_EXE_ledger"));
    let output = Command::new(ledger)
        .args(["all", "--seed", "5", "--seconds", "0.3"])
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "ledger all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&stdout).expect("the document parses");

    let served_possible = ledger.with_file_name("mcc").is_file();
    if !served_possible {
        println!("note: no `mcc` beside `ledger`; grid_served is skipped, not failed");
    }
    let reported = doc.get("workloads").expect("workloads").members();
    let expected: Vec<&String> = workloads
        .iter()
        .filter(|w| served_possible || *w != "grid_served")
        .collect();
    assert_eq!(
        reported.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        expected
    );
    for (workload, report) in reported {
        assert_eq!(
            report.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}: {report}"
        );
        assert_eq!(report.get("correct").and_then(Json::as_bool), Some(true));
        for (section, names) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let metrics = report.get(section).expect("section").members();
            // Same names, same order, hence each exactly once.
            assert_eq!(
                metrics.iter().map(|(name, _)| name).collect::<Vec<_>>(),
                names.iter().collect::<Vec<_>>(),
                "{workload} {section}"
            );
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {metric}"
                );
                assert!(metric.get("unit").and_then(Json::as_str).is_some());
            }
        }
        for (name, metric) in report.get("end_to_end").expect("section").members() {
            assert!(
                metric.get("value").and_then(Json::as_f64) > Some(0.0),
                "{workload} {name} must never be 0"
            );
        }
    }
}
