//! Disk-backed sweeps must be invisible in the results: a figure run
//! through the content-addressed trace cache is byte-identical to the
//! in-memory run, a warm cache regenerates nothing, and crossing the
//! in-memory trace-length boundary without the disk path is an explicit
//! panic, not an OOM.

use std::path::PathBuf;
use std::sync::Arc;

use fetchvp_experiments::{bench, fig3_1, ExperimentConfig, Sweep, MAX_IN_MEMORY_TRACE_LEN};
use fetchvp_tracestore::{stream_store_stats, TraceDir};

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fetchvp-ooc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_config() -> ExperimentConfig {
    ExperimentConfig { trace_len: 2000, ..ExperimentConfig::default() }
}

#[test]
fn disk_backed_sweeps_match_in_memory_results_and_stay_warm() {
    let cfg = small_config();
    let root = scratch("fig31");

    let mem = fig3_1::run_with(&Sweep::with_jobs(&cfg, 1)).to_table().to_csv();

    // Cold disk cache: same figure, every trace generated to disk once.
    let cold_dir = Arc::new(TraceDir::new(&root));
    let cold_sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&cold_dir)), 1);
    let cold = fig3_1::run_with(&cold_sweep).to_table().to_csv();
    assert_eq!(mem, cold, "disk-backed replay must not change the figure");
    let counters = cold_dir.counters();
    assert!(counters.misses > 0 && counters.hits == 0, "cold cache generates: {counters:?}");
    assert!(counters.bytes > 0);

    // Warm cache, fresh process state: zero generation, all hits.
    let warm_dir = Arc::new(TraceDir::new(&root));
    let warm_sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&warm_dir)), 1);
    let warm = fig3_1::run_with(&warm_sweep).to_table().to_csv();
    assert_eq!(mem, warm);
    assert_eq!(warm_sweep.cache().generated(), 0, "warm cache must not regenerate");
    let counters = warm_dir.counters();
    assert_eq!(counters.misses, 0, "{counters:?}");
    assert!(counters.hits > 0, "{counters:?}");
    assert_eq!(counters.bytes, 0, "no bytes written when warm");

    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
fn per_workload_stores_cover_the_full_trace() {
    let cfg = small_config();
    let root = scratch("stores");
    let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::new(TraceDir::new(&root))), 1);
    let stats = sweep.per_workload_store_extended(|workload, store| {
        assert_eq!(store.name(), workload.name());
        assert_eq!(store.len(), cfg.trace_len);
        stream_store_stats(store).expect("streamed stats")
    });
    // The streamed per-chunk stats equal the stats of the materialized
    // trace (which itself decodes from the same store here).
    for (name, streamed) in stats {
        let index = sweep
            .cache()
            .workloads(true)
            .iter()
            .position(|w| w.name() == name)
            .expect("store name is a suite workload");
        assert_eq!(streamed, sweep.cache().trace(index).stats(), "{name}");
    }
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

/// Trace-directory traffic is sweep state, not part of the bench result:
/// it shows in the sweep's counters (and the daemon's `/metrics`), never in
/// the report, which stays byte-identical to the in-memory run.
#[test]
fn bench_trace_dir_traffic_stays_out_of_the_report() {
    let cfg = small_config();
    let memory_sweep = Sweep::with_jobs(&cfg, 1);
    let in_memory = bench::run_with(&memory_sweep).to_json();
    assert!(memory_sweep.trace_counters().is_none(), "no counters without a trace dir");
    // (`trace_cache` still appears deeper in the JSON as a *machine*
    // label — only a top-level counter section must be absent.)
    assert!(in_memory.get("trace_cache").is_none());

    let root = scratch("bench");
    let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::new(TraceDir::new(&root))), 1);
    let report = bench::run_with(&sweep).to_json();
    let counters = sweep.trace_counters().expect("disk-backed sweeps count trace traffic");
    assert!(counters.misses > 0, "a cold trace dir generates every trace");
    assert!(report.get("trace_cache").is_none(), "trace traffic is not a result");
    assert_eq!(report.to_json(), in_memory.to_json(), "disk-backed report differs");
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
#[should_panic(expected = "exceeds the in-memory limit")]
fn materializing_an_out_of_core_trace_panics_with_the_limit() {
    let cfg =
        ExperimentConfig { trace_len: MAX_IN_MEMORY_TRACE_LEN + 1, ..ExperimentConfig::default() };
    // The assert fires before any generation, so this is instant.
    Sweep::with_jobs(&cfg, 1).cache().trace(0);
}

#[test]
#[should_panic(expected = "--trace-dir")]
fn out_of_core_replay_without_a_trace_dir_panics_with_the_fix() {
    let cfg =
        ExperimentConfig { trace_len: MAX_IN_MEMORY_TRACE_LEN + 1, ..ExperimentConfig::default() };
    Sweep::with_jobs(&cfg, 1).cache().store(0);
}
