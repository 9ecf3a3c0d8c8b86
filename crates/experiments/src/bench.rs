//! The `fetchvp bench` standard workload suite and its counters report.
//!
//! A bench run executes, for every benchmark of the extended suite, a fixed
//! set of machine configurations ([`MACHINE_LABELS`]) spanning every
//! subsystem the workspace counts — the §3 ideal machine, the §5
//! conventional front-end behind the §4 banked prediction table, the §2.2
//! branch address cache and the §5 trace cache — and records per workload
//! the simulated instruction count plus the merged, namespaced
//! [`Registry`] snapshot of every machine run and of the trace statistics
//! (`trace.*`, `predictor.*`, `predictor.banked.*`, `fetch.bpred.*`,
//! `fetch.bac.*`, `fetch.trace_cache.*`, `sched.*`, `machine.*`).
//!
//! The report is a pure function of `(trace_len, seed)`: byte-identical
//! across `--jobs` values, hosts, and in-memory versus out-of-core
//! (`--trace-dir`) runs. It carries no wall-clock field; simulator
//! throughput is measured by the repository benchmark (`perfbench/`).
//!
//! # Example
//!
//! ```no_run
//! use fetchvp_experiments::{bench, ExperimentConfig, Sweep};
//!
//! let sweep = Sweep::new(&ExperimentConfig::quick());
//! let report = bench::run_with(&sweep);
//! println!("{}", report.to_json().to_json());
//! ```

use fetchvp_core::{
    run_batch, BtbKind, FrontEnd, IdealConfig, MachineConfig, MachineResult, RealisticConfig,
    VpConfig,
};
use fetchvp_fetch::{BacConfig, TraceCacheConfig};
use fetchvp_metrics::{Json, MetricsSink, Registry};
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::TraceStats;
use fetchvp_tracestore::{run_batch_store, stream_store_stats};

use crate::{ExperimentConfig, Sweep};

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "fetchvp-bench/v2";

/// One benchmark's bench result.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Benchmark name (extended-suite order).
    pub name: &'static str,
    /// Dynamic instructions simulated across all machine configurations.
    pub instructions: u64,
    /// The merged metrics snapshot of every machine configuration.
    pub registry: Registry,
}

/// A full bench run: the spec it ran under and per-workload sections.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Dynamic instructions traced per benchmark.
    pub trace_len: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Per-benchmark results, extended-suite order.
    pub workloads: Vec<WorkloadBench>,
}

impl BenchReport {
    /// Total simulated instructions across all workloads.
    pub fn total_instructions(&self) -> u64 {
        self.workloads.iter().map(|w| w.instructions).sum()
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let workloads = Json::object(self.workloads.iter().map(|w| {
            (
                w.name.to_string(),
                Json::object([
                    ("instructions".to_string(), Json::UInt(w.instructions)),
                    ("counters".to_string(), w.registry.counters_json()),
                    ("gauges".to_string(), w.registry.gauges_json()),
                ]),
            )
        }));
        Json::object([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("trace_len".to_string(), Json::UInt(self.trace_len)),
            ("seed".to_string(), Json::UInt(self.seed)),
            (
                "totals".to_string(),
                Json::object([("instructions".to_string(), Json::UInt(self.total_instructions()))]),
            ),
            ("workloads".to_string(), workloads),
        ])
    }
}

/// Labels of the bench machine set, in run order: the §3 ideal machine at
/// fetch 16, §5 conventional fetch behind the §4 banked table, the §2.2
/// branch address cache and the §5 trace cache.
pub const MACHINE_LABELS: [&str; 4] = ["ideal16", "conv4_banked", "bac", "trace_cache"];

/// The machine configurations a bench cell runs, spanning every counted
/// subsystem. All four advance in batched lockstep over one trace walk.
fn bench_configs() -> [MachineConfig; 4] {
    let btb = BtbKind::two_level_paper();
    [
        // §3 ideal machine, fetch 16, stride VP: predictor.* and sched.*.
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        }),
        // §5 conventional fetch behind the §4 banked table:
        // predictor.banked.*.
        MachineConfig::Realistic(
            RealisticConfig::paper(
                FrontEnd::Conventional { width: 40, max_taken: Some(4), btb },
                VpConfig::stride_infinite(),
            )
            .with_banked(BankedConfig::default()),
        ),
        // §2.2 branch address cache: fetch.bac.*.
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::BranchAddressCache { config: BacConfig::classic(), btb },
            VpConfig::stride_infinite(),
        )),
        // §5 trace cache: fetch.trace_cache.*.
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb },
            VpConfig::stride_infinite(),
        )),
    ]
}

/// One workload's section: the trace statistics, then every machine's
/// metrics, merged in [`MACHINE_LABELS`] order.
fn merge(stats: &TraceStats, results: &[MachineResult]) -> (u64, Registry) {
    let mut registry = Registry::new();
    stats.export_metrics(&mut registry, "trace");
    for r in results {
        registry.merge(&r.metrics());
    }
    (results.iter().map(|r| r.instructions).sum(), registry)
}

/// Runs the bench suite on an existing [`Sweep`] (its configuration decides
/// trace length and seed; its job count decides parallelism). A sweep with
/// a trace directory replays each workload chunk by chunk through
/// [`run_batch_store`], which is byte-identical to the in-memory
/// [`run_batch`], so both paths produce the same report.
pub fn run_with(sweep: &Sweep) -> BenchReport {
    let cfg = *sweep.config();
    let configs = bench_configs();
    let cells: Vec<(&'static str, (u64, Registry))> = if sweep.cache().out_of_core() {
        sweep.per_workload_store_extended(|_, store| {
            let stats = stream_store_stats(store)
                .unwrap_or_else(|e| panic!("streaming stats of `{}`: {e}", store.name()));
            let results = run_batch_store(store, &configs)
                .unwrap_or_else(|e| panic!("out-of-core bench replay of `{}`: {e}", store.name()));
            merge(&stats, &results)
        })
    } else {
        sweep
            .cells_extended(&[()], |_, trace, ()| {
                merge(&trace.stats(), &run_batch(trace, &configs))
            })
            .into_iter()
            .map(|(name, mut rs)| (name, rs.pop().expect("one bench result per workload")))
            .collect()
    };
    BenchReport {
        trace_len: cfg.trace_len,
        seed: cfg.workloads.seed,
        workloads: cells
            .into_iter()
            .map(|(name, (instructions, registry))| WorkloadBench { name, instructions, registry })
            .collect(),
    }
}

/// Runs the bench suite from scratch with `jobs` workers.
pub fn run(cfg: &ExperimentConfig, jobs: usize) -> BenchReport {
    run_with(&Sweep::with_jobs(cfg, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_machine_feeds_its_subsystem() {
        let workload = fetchvp_workloads::by_name("gcc", &Default::default()).unwrap();
        let trace = fetchvp_trace::trace_program(workload.program(), 2_000);
        let expected = ["sched.", "predictor.banked.", "fetch.bac.", "fetch.trace_cache."];
        for ((label, config), prefix) in MACHINE_LABELS.iter().zip(bench_configs()).zip(expected) {
            let counters = run_batch(&trace, &[config])[0].metrics().counters_json();
            let keys = counters.as_object().expect("counters object");
            assert!(keys.iter().any(|(k, _)| k.starts_with(prefix)), "{label}: no `{prefix}*`");
        }
    }
}
