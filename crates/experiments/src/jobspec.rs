//! The job-spec → sweep adapter behind `fetchvp serve`.
//!
//! A *job spec* is the JSON document a client `POST`s to the daemon's
//! `/run` endpoint: which experiment to execute and under which
//! [`ExperimentConfig`]. This module owns the full boundary contract —
//! strict validation (unknown fields and out-of-range values are errors,
//! not warnings, because the input is untrusted), resource limits
//! ([`MAX_TRACE_LEN`], [`MAX_JOBS`]) so a single request cannot pin the
//! daemon, and deterministic execution through the same [`Sweep`] runner
//! the CLI uses, so a served result is byte-identical to an in-process
//! run of the same spec (the `server_e2e` test asserts this).
//!
//! # Schema
//!
//! ```json
//! {
//!   "experiment": "bench",   // required; see EXPERIMENTS
//!   "trace_len": 60000,      // optional; 1..=MAX_TRACE_LEN, default 60000
//!                            // (machine sweeps may go to MAX_TRACE_LEN_OOC
//!                            //  when the daemon has a trace directory)
//!   "seed": 1998,            // optional; workload data seed
//!   "jobs": 1                // optional; 1..=MAX_JOBS sweep workers, default 1
//! }
//! ```
//!
//! `"bench"` runs the standard [`mod@bench`] suite and returns its counters
//! report; every other experiment name runs the corresponding
//! table/figure runner and returns `{"experiment", "csv"}` with the
//! table's CSV rendering.

use fetchvp_metrics::{Json, Registry};

use crate::{
    ablations, accuracy, bench, breakdown, fig3_1, fig3_3, fig3_4, fig3_5, fig5_1, fig5_2, fig5_3,
    table3_1, usefulness, ExperimentConfig, Sweep, Table,
};

/// Upper bound on a served job's `trace_len` when the job must hold its
/// traces in memory.
///
/// The default CLI configuration traces 1M instructions per benchmark;
/// 5M bounds a single request at a few suite-seconds of simulation while
/// still covering every configuration the committed experiments use.
pub const MAX_TRACE_LEN: u64 = 5_000_000;

/// Upper bound on a served job's `trace_len` when the experiment can
/// replay out-of-core ([`supports_out_of_core`]) *and* the server runs
/// with a trace directory — the paper's 100M-instruction scale.
pub const MAX_TRACE_LEN_OOC: u64 = 100_000_000;

/// Default `trace_len` when the spec omits it — the
/// [`ExperimentConfig::quick`] length, sized for interactive latency.
pub const DEFAULT_TRACE_LEN: u64 = 60_000;

/// Upper bound on a served job's inner sweep workers.
pub const MAX_JOBS: usize = 64;

/// The experiment names a job spec may request.
pub const EXPERIMENTS: &[&str] = &[
    "bench",
    "table3-1",
    "accuracy",
    "breakdown",
    "fig3-1",
    "fig3-3",
    "fig3-4",
    "fig3-5",
    "fig5-1",
    "fig5-2",
    "fig5-3",
    "ablation-predictors",
    "ablation-fetch",
    "usefulness",
];

/// Whether `experiment` runs exclusively through the machine-sweep path
/// (`Sweep::machines*`), which can replay chunk-by-chunk from an on-disk
/// store. Analysis runners (DID distances, histograms, accuracy tables)
/// walk whole traces and stay bounded by [`MAX_TRACE_LEN`].
pub fn supports_out_of_core(experiment: &str) -> bool {
    matches!(experiment, "bench" | "fig3-1" | "fig5-1" | "fig5-2" | "fig5-3" | "usefulness")
}

/// A validated request to run one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Experiment name; one of [`EXPERIMENTS`].
    pub experiment: String,
    /// Dynamic instructions traced per benchmark.
    pub trace_len: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Worker threads for the inner sweep (1 = serial, the determinism
    /// oracle).
    pub jobs: usize,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            experiment: "bench".to_string(),
            trace_len: DEFAULT_TRACE_LEN,
            seed: fetchvp_workloads::WorkloadParams::default().seed,
            jobs: 1,
        }
    }
}

/// What a finished job hands back to the server.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The result document returned by `GET /jobs/<id>`.
    pub result: Json,
    /// Simulator counters to merge into the daemon's live registry
    /// (`trace.*`, `sched.*`, `predictor.*`, … namespaces).
    pub metrics: Registry,
}

impl JobSpec {
    /// Validates a parsed JSON document into a spec.
    ///
    /// Strict by design: the input crosses a network boundary, so unknown
    /// fields, wrong types, unknown experiment names and out-of-range
    /// values are all rejected with a message naming the offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        JobSpec::from_json_with_limits(doc, false)
    }

    /// [`JobSpec::from_json`] with the server's capabilities made
    /// explicit: when `ooc_available` (the daemon has a trace directory),
    /// machine-sweep experiments ([`supports_out_of_core`]) may request up
    /// to [`MAX_TRACE_LEN_OOC`] instructions. The error messages
    /// distinguish "too big for memory" (a capability problem, naming the
    /// missing piece) from a plainly invalid value.
    pub fn from_json_with_limits(doc: &Json, ooc_available: bool) -> Result<JobSpec, String> {
        let pairs = doc.as_object().ok_or("job spec must be a JSON object")?;
        let mut spec = JobSpec::default();
        let mut experiment = None;
        let mut trace_len = None;
        for (key, value) in pairs {
            match key.as_str() {
                "experiment" => {
                    let name =
                        value.as_str().ok_or("field `experiment` must be a string")?.to_string();
                    if !EXPERIMENTS.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown experiment `{name}` (valid: {})",
                            EXPERIMENTS.join(", ")
                        ));
                    }
                    experiment = Some(name);
                }
                "trace_len" => {
                    trace_len = Some(
                        value.as_u64().ok_or("field `trace_len` must be an unsigned integer")?,
                    );
                }
                "seed" => {
                    spec.seed = value.as_u64().ok_or("field `seed` must be an unsigned integer")?;
                }
                "jobs" => {
                    let n = value.as_u64().ok_or("field `jobs` must be an unsigned integer")?;
                    if n == 0 || n > MAX_JOBS as u64 {
                        return Err(format!("field `jobs` must be in 1..={MAX_JOBS}, got {n}"));
                    }
                    spec.jobs = n as usize;
                }
                other => return Err(format!("unknown field `{other}` in job spec")),
            }
        }
        // `trace_len` is validated after the whole document is parsed: its
        // cap depends on which experiment was requested.
        spec.experiment = experiment.ok_or("job spec is missing the `experiment` field")?;
        if let Some(n) = trace_len {
            let ooc_capable = supports_out_of_core(&spec.experiment);
            let cap = if ooc_available && ooc_capable { MAX_TRACE_LEN_OOC } else { MAX_TRACE_LEN };
            if n == 0 || n > cap {
                return Err(if n > MAX_TRACE_LEN && n <= MAX_TRACE_LEN_OOC && !ooc_capable {
                    format!(
                        "field `trace_len` {n} exceeds the in-memory limit {MAX_TRACE_LEN}, and \
                         experiment `{}` cannot replay out-of-core (only machine sweeps can: \
                         bench, fig3-1, fig5-1, fig5-2, fig5-3, usefulness)",
                        spec.experiment
                    )
                } else if n > MAX_TRACE_LEN && n <= MAX_TRACE_LEN_OOC && !ooc_available {
                    format!(
                        "field `trace_len` {n} exceeds the in-memory limit {MAX_TRACE_LEN}; \
                         out-of-core replay (up to {MAX_TRACE_LEN_OOC}) needs the daemon started \
                         with a trace directory (--trace-dir)"
                    )
                } else {
                    format!("field `trace_len` must be in 1..={cap}, got {n}")
                });
            }
            spec.trace_len = n;
        }
        Ok(spec)
    }

    /// The spec as a JSON document (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("trace_len".to_string(), Json::UInt(self.trace_len)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("jobs".to_string(), Json::UInt(self.jobs as u64)),
        ])
    }

    /// The canonical text of the spec: the JSON rendering of
    /// [`JobSpec::to_json`], whose field order is fixed (`experiment`,
    /// `trace_len`, `seed`, `jobs`) and whose optional fields are always
    /// materialized with their defaults. Two requests that differ only in
    /// JSON formatting — whitespace, field order, an omitted default —
    /// canonicalize to the same text.
    pub fn canonical(&self) -> String {
        self.to_json().to_json()
    }

    /// FNV-1a hash of [`JobSpec::canonical`] — the content address of this
    /// spec's result. The server's result cache and its consistent-hash
    /// ring both key off this value, so every process in a fleet agrees on
    /// which member owns a spec and whether its result is already known.
    pub fn canonical_hash(&self) -> u64 {
        fetchvp_tracestore::fnv1a(self.canonical().as_bytes())
    }

    /// The experiment configuration this spec runs under. Specs with equal
    /// configs can share one trace cache, which is what keeps the daemon's
    /// traces warm across requests.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig { trace_len: self.trace_len, ..ExperimentConfig::default() };
        cfg.workloads.seed = self.seed;
        cfg
    }

    /// Executes the spec on a [`Sweep`] (which must have been built from
    /// [`JobSpec::config`] — the server's sweep pool guarantees this).
    ///
    /// The result document is a pure function of the spec, byte-identical
    /// to an in-process run, so the server may cache every result.
    pub fn run(&self, sweep: &Sweep) -> JobOutcome {
        if self.experiment == "bench" {
            let report = bench::run_with(sweep);
            let mut metrics = Registry::new();
            for workload in &report.workloads {
                metrics.merge(&workload.registry);
            }
            return JobOutcome { result: report.to_json(), metrics };
        }
        let table = self.table(sweep);
        let result = Json::object([
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("csv".to_string(), Json::Str(table.to_csv())),
        ]);
        JobOutcome { result, metrics: Registry::new() }
    }

    fn table(&self, sweep: &Sweep) -> Table {
        match self.experiment.as_str() {
            "table3-1" => table3_1::run_with(sweep).to_table(),
            "accuracy" => accuracy::run_with(sweep).to_table(),
            "breakdown" => breakdown::run_with(sweep).to_table(),
            "fig3-1" => fig3_1::run_with(sweep).to_table(),
            "fig3-3" => fig3_3::run_with(sweep).to_table(),
            "fig3-4" => fig3_4::run_with(sweep).to_table(),
            "fig3-5" => fig3_5::run_with(sweep).to_table(),
            "fig5-1" => fig5_1::run_with(sweep).to_table(),
            "fig5-2" => fig5_2::run_with(sweep).to_table(),
            "fig5-3" => fig5_3::run_with(sweep).to_table(),
            "ablation-predictors" => ablations::predictor_comparison_with(sweep).to_table(),
            "ablation-fetch" => ablations::fetch_mechanisms_with(sweep).to_table(),
            "usefulness" => usefulness::run_with(sweep).to_table(),
            other => unreachable!("validated experiment `{other}` has no runner"),
        }
    }

    // `table3-2` is excluded from EXPERIMENTS on purpose: it takes no
    // config, so serving it would bypass the sweep pool for no benefit.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(text: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = parse_spec(r#"{"experiment": "bench"}"#).unwrap();
        assert_eq!(spec.experiment, "bench");
        assert_eq!(spec.trace_len, DEFAULT_TRACE_LEN);
        assert_eq!(spec.jobs, 1);
    }

    #[test]
    fn full_spec_round_trips() {
        let text = r#"{"experiment": "fig3-1", "trace_len": 2000, "seed": 7, "jobs": 2}"#;
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.config().trace_len, 2000);
        assert_eq!(spec.config().workloads.seed, 7);
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn invalid_specs_are_rejected_with_field_names() {
        for (text, needle) in [
            (r#"[]"#, "object"),
            (r#"{}"#, "experiment"),
            (r#"{"experiment": "fig9-9"}"#, "unknown experiment"),
            (r#"{"experiment": 3}"#, "`experiment`"),
            (r#"{"experiment": "bench", "trace_len": 0}"#, "`trace_len`"),
            (r#"{"experiment": "bench", "trace_len": 99999999999}"#, "`trace_len`"),
            (r#"{"experiment": "bench", "jobs": 0}"#, "`jobs`"),
            (r#"{"experiment": "bench", "jobs": 1000}"#, "`jobs`"),
            (r#"{"experiment": "bench", "seed": -1}"#, "`seed`"),
            (r#"{"experiment": "bench", "wat": 1}"#, "unknown field `wat`"),
        ] {
            let err = parse_spec(text).expect_err(text);
            assert!(err.contains(needle), "{text}: error `{err}` should mention {needle}");
        }
    }

    #[test]
    fn canonical_hash_ignores_formatting_but_not_fields() {
        let spec = parse_spec(r#"{"experiment": "table3-1", "trace_len": 1000}"#).unwrap();
        // Same spec, noisy formatting + explicit defaults (the default
        // seed is 0x5EED_1998 = 1592596888) + reordered keys.
        let noisy = parse_spec(
            r#"{ "seed": 1592596888, "trace_len": 1000,
                 "experiment": "table3-1", "jobs": 1 }"#,
        )
        .unwrap();
        assert_eq!(spec.canonical(), noisy.canonical());
        assert_eq!(spec.canonical_hash(), noisy.canonical_hash());
        // Any canonical field changing must change the hash.
        for other in [
            JobSpec { trace_len: 1001, ..spec.clone() },
            JobSpec { seed: spec.seed + 1, ..spec.clone() },
            JobSpec { jobs: 2, ..spec.clone() },
            JobSpec { experiment: "accuracy".to_string(), ..spec.clone() },
        ] {
            assert_ne!(spec.canonical_hash(), other.canonical_hash(), "{other:?}");
        }
    }

    #[test]
    fn out_of_core_lengths_need_a_capable_experiment_and_a_trace_dir() {
        let big = MAX_TRACE_LEN + 1;
        let parse =
            |text: &str, ooc| JobSpec::from_json_with_limits(&Json::parse(text).unwrap(), ooc);

        // Capable experiment + trace dir: accepted up to the OOC cap.
        let text = format!(r#"{{"experiment": "fig3-1", "trace_len": {MAX_TRACE_LEN_OOC}}}"#);
        assert_eq!(parse(&text, true).unwrap().trace_len, MAX_TRACE_LEN_OOC);

        // Capable experiment, no trace dir: the error names the missing
        // capability, not just the range.
        let text = format!(r#"{{"experiment": "bench", "trace_len": {big}}}"#);
        let err = parse(&text, false).unwrap_err();
        assert!(err.contains("trace directory"), "error should name the fix: {err}");

        // Trace dir available, but an analysis experiment: the error says
        // the experiment itself cannot replay out-of-core.
        let text = format!(r#"{{"experiment": "fig3-3", "trace_len": {big}}}"#);
        let err = parse(&text, true).unwrap_err();
        assert!(err.contains("cannot replay out-of-core"), "error should blame fig3-3: {err}");

        // Beyond even the OOC cap: plain range error.
        let text = format!(r#"{{"experiment": "fig3-1", "trace_len": {}}}"#, MAX_TRACE_LEN_OOC + 1);
        let err = parse(&text, true).unwrap_err();
        assert!(err.contains(&MAX_TRACE_LEN_OOC.to_string()), "error should name the cap: {err}");

        // Field order must not matter: trace_len before experiment.
        let text = format!(r#"{{"trace_len": {big}, "experiment": "fig5-2"}}"#);
        assert_eq!(parse(&text, true).unwrap().trace_len, big);
    }

    #[test]
    fn bench_outcome_matches_direct_run_and_exports_metrics() {
        let spec = parse_spec(r#"{"experiment": "bench", "trace_len": 2000, "seed": 3}"#).unwrap();
        let sweep = Sweep::with_jobs(&spec.config(), 1);
        let outcome = spec.run(&sweep);
        let direct = bench::run_with(&Sweep::with_jobs(&spec.config(), 1));
        assert_eq!(
            outcome.result.to_json(),
            direct.to_json().to_json(),
            "served report differs from the direct run"
        );
        for namespace in ["trace", "sched", "predictor", "machine"] {
            assert!(
                outcome.metrics.namespaces().contains(&namespace),
                "outcome metrics missing `{namespace}.*`"
            );
        }
    }

    #[test]
    fn table_experiments_return_csv() {
        let spec = parse_spec(r#"{"experiment": "table3-1", "trace_len": 1000}"#).unwrap();
        let sweep = Sweep::with_jobs(&spec.config(), 1);
        let outcome = spec.run(&sweep);
        let csv = outcome.result.get("csv").and_then(Json::as_str).expect("csv field");
        assert!(csv.lines().count() > 1, "csv should have header + rows:\n{csv}");
        assert!(outcome.metrics.is_empty());
    }

    #[test]
    fn every_listed_experiment_is_runnable() {
        // Guards EXPERIMENTS and the `table` dispatch staying in sync; use
        // a tiny trace so the whole list stays fast.
        let cfg = ExperimentConfig { trace_len: 300, ..ExperimentConfig::default() };
        let sweep = Sweep::with_jobs(&cfg, 1);
        for name in EXPERIMENTS {
            let spec =
                JobSpec { experiment: name.to_string(), trace_len: 300, ..JobSpec::default() };
            let outcome = spec.run(&sweep);
            assert!(outcome.result.as_object().is_some(), "{name}: result must be an object");
        }
    }
}
