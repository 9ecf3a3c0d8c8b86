//! Integration tests for the bench report: byte-identity across worker
//! counts and trace sources, subsystem coverage, and JSON round-trip
//! shape guarantees.

use std::sync::Arc;

use fetchvp_experiments::{bench, ExperimentConfig, Sweep};
use fetchvp_metrics::Json;
use fetchvp_tracestore::TraceDir;

fn small_config() -> ExperimentConfig {
    ExperimentConfig { trace_len: 5_000, ..ExperimentConfig::default() }
}

/// The report comes from the simulation, not the clock, so the whole
/// document — counters, gauges and totals — must be byte-identical
/// whether the suite ran on 1 or 8 workers.
#[test]
fn bench_counters_identical_across_jobs() {
    let cfg = small_config();
    let serial = bench::run(&cfg, 1).to_json().to_json();
    assert_eq!(bench::run(&cfg, 8).to_json().to_json(), serial, "--jobs 1 vs --jobs 8");
}

/// Where the traces come from is sweep state, not part of the result: a
/// run over a cold and then a warm trace directory must reproduce the
/// in-memory report byte for byte.
#[test]
fn bench_report_identical_in_memory_and_from_a_trace_dir() {
    let cfg = small_config();
    let in_memory = bench::run(&cfg, 1).to_json().to_json();
    let root = std::env::temp_dir().join(format!("fetchvp-bench-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for pass in ["cold", "warm"] {
        let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::new(TraceDir::new(&root))), 2);
        assert_eq!(bench::run_with(&sweep).to_json().to_json(), in_memory, "{pass} trace dir");
    }
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

/// Every workload's snapshot must span the five counted subsystems.
#[test]
fn bench_covers_five_subsystems() {
    let report = bench::run(&small_config(), 1);
    assert!(!report.workloads.is_empty());
    for w in &report.workloads {
        let namespaces = w.registry.namespaces();
        for required in ["fetch", "machine", "predictor", "sched", "trace"] {
            assert!(
                namespaces.contains(&required),
                "{}: missing `{required}.*` counters (got {namespaces:?})",
                w.name
            );
        }
    }
}

/// A serialized report reparses, and re-serializing the parse is
/// byte-identical (stable key order, shortest-round-trip floats).
#[test]
fn bench_report_round_trips() {
    let report = bench::run(&small_config(), 1);
    let text = report.to_json().to_json();
    let reparsed = Json::parse(&text).expect("bench report must be valid JSON");
    assert_eq!(reparsed.to_json(), text, "re-serialization is not byte-stable");
    assert_eq!(
        reparsed.get("schema").and_then(Json::as_str),
        Some(bench::SCHEMA),
        "schema field missing or wrong"
    );
    // Only spec echoes and simulation counts: no clock, date or host field.
    let keys: Vec<&str> =
        reparsed.as_object().expect("report object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "trace_len", "seed", "totals", "workloads"]);
}

/// Counters are integers end to end: no counter value may be serialized
/// through a float (which would lose precision past 2^53).
#[test]
fn bench_counters_are_integer_only() {
    let report = bench::run(&small_config(), 1);
    let doc = report.to_json();
    let workloads = doc.get("workloads").and_then(Json::as_object).expect("workloads object");
    for (name, section) in workloads {
        let counters = section.get("counters").and_then(Json::as_object).expect("counters object");
        assert!(!counters.is_empty(), "{name}: empty counters section");
        for (key, value) in counters {
            assert!(
                matches!(value, Json::UInt(_)),
                "{name}: counter `{key}` serialized as {value:?}, expected an integer"
            );
        }
    }
}
