//! `fetchvp` — command-line driver for the paper's experiments.
//!
//! ```text
//! fetchvp <experiment> [--trace-len N] [--seed S] [--jobs N] [--csv] [--chart]
//!
//! experiments:
//!   table3-1   benchmark suite and trace characteristics
//!   accuracy   per-benchmark predictor coverage/accuracy
//!   breakdown  retire-slot attribution (event machine)
//!   fig3-1     ideal-machine VP speedup vs fetch rate
//!   table3-2   pipeline walk-through of the Figure 3.2 example
//!   fig3-3     average dynamic instruction distance
//!   fig3-4     DID distribution histograms
//!   fig3-5     predictability x DID distribution
//!   fig5-1     realistic machine, ideal BTB, taken-branch sweep
//!   fig5-2     realistic machine, 2-level BTB, taken-branch sweep
//!   fig5-3     realistic machine with trace cache
//!   usefulness correct predictions useful vs useless, fetch-4 vs fetch-40
//!   all        everything above, in paper order
//!
//! ablations (beyond the paper):
//!   ablation-banks        prediction-table bank sweep
//!   ablation-window       instruction-window sweep
//!   ablation-confidence   classification-threshold sweep
//!   ablation-predictors   last-value / stride / 2-delta / hybrid
//!   ablation-partial      trace-cache partial matching
//!   ablation-btb          branch-predictor quality sweep
//!   ablation-fetch        fetch-mechanism comparison (conventional/BAC/TC)
//!   ablation-penalty      branch/value misprediction penalty grid
//!   ablation-tc           trace-cache geometry sweep
//!   ablation-hints        dynamic vs profiling-based hybrid classification
//!   ablation-model        relaxing the ideal-model assumptions
//!   ablation-seeds        seed stability of the Figure 3.1 averages
//!   ablations             all of the above
//!
//! trace files (the Shade workflow):
//!   save-trace <benchmark> <file>   capture a trace to disk (chunked FVPS format,
//!                                   streamed — works at the paper's 100M scale)
//!   trace-gen <benchmark>           populate the content-addressed trace cache
//!                                   (--trace-dir DIR or $FETCHVP_TRACE_DIR)
//!   trace-info <file.fvps>          print a saved trace's statistics (streams
//!                                   the chunked store)
//!   run-asm <file.s>                assemble, trace and simulate a program
//!
//! out-of-core runs: every experiment accepts --trace-dir DIR (default
//! $FETCHVP_TRACE_DIR); machine sweeps (bench, fig3-1, fig5-1/2/3,
//! usefulness) then replay chunk-by-chunk from the cache and may exceed
//! the in-memory --trace-len limit, up to 100M instructions.
//!
//! observability:
//!   trace-viz <workload> [--cycles A..B] [--out FILE]
//!                                   export a cycle-accurate pipeline witness as
//!                                   Chrome trace-event JSON (Perfetto-loadable)
//!
//! counters report:
//!   bench                           run the workload suite over every counted
//!                                   subsystem and print its JSON counters report
//!                                   (byte-identical across --jobs and --trace-dir;
//!                                   timing lives in perfbench/)
//!
//! serving (simulation as a service):
//!   serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!         [--result-cache N] [--peers HOST:PORT,...]
//!                                   run the HTTP daemon (see fetchvp-server);
//!                                   --peers lists every fleet member (this
//!                                   process's --addr must appear in it) and
//!                                   shards jobs across them by spec hash
//!   loadgen [--addr HOST:PORT,...] [--rps N] [--duration SECONDS]
//!           [--spec-mix FILE] [--out FILE]
//!                                   open-loop load generator: offered-rate
//!                                   POST /run traffic, reports achieved RPS
//!                                   and p50/p95/p99 latency overall and per
//!                                   response class (2xx / 503 / proxied)
//!   top [--addr HOST:PORT] [--interval SECONDS] [--count N]
//!                                   live fleet dashboard over GET
//!                                   /fleet/metrics: per-member RPS, queue
//!                                   depth, cache hit rate, latency
//!                                   quantiles and running-job progress
//!                                   bars; any member answers for the fleet
//!
//! fuzzing (the standing invariant gate):
//!   fuzz [--cases N] [--seed S] [--max-len N] [--out FILE]
//!                                   differentially fuzz sampled workload-family
//!                                   points across the machine set; nonzero exit
//!                                   on any invariant violation, each printed as
//!                                   a replayable repro tuple
//!   fuzz --replay "TUPLE"           re-check one printed repro tuple
//!   atlas [family] [--trace-len N]  sweep a coarse knob grid and map where the
//!                                   fetch-bandwidth effect is largest
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::str::FromStr;

use std::sync::Arc;

mod top;

use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
use fetchvp_experiments::{
    ablations, atlas, bench, default_jobs, fig3_1, fig3_3, fig3_4, fig3_5, fig5_1, fig5_2, fig5_3,
    fuzz, jobspec, table3_1, table3_2, ExperimentConfig, Sweep, Table, MAX_IN_MEMORY_TRACE_LEN,
};
use fetchvp_isa::parse_program;
use fetchvp_metrics::Json;
use fetchvp_trace::trace_program;
use fetchvp_tracestore::{
    stream_program_to_store, stream_store_stats, TraceDir, TraceKey, TraceStore, DEFAULT_CHUNK_LEN,
};
use fetchvp_workloads::{by_name, WorkloadParams};

const USAGE: &str =
    "usage: fetchvp <experiment> [--trace-len N] [--seed S] [--jobs N] [--csv] [--chart]
                   [--trace-dir DIR]
experiments: table3-1 fig3-1 table3-2 fig3-3 fig3-4 fig3-5 fig5-1 fig5-2
             fig5-3 accuracy breakdown usefulness all
ablations:   ablation-banks ablation-window ablation-confidence \
             ablation-predictors ablation-partial ablation-btb \
             ablation-fetch ablation-penalty ablation-tc ablation-hints
             ablation-model ablation-seeds ablations
trace files: save-trace <benchmark> <file> / trace-gen <benchmark> \
             [--trace-dir DIR] / trace-info <file.fvps> / run-asm <file.s>
tracing:     trace-viz <workload> [--cycles A..B] [--out FILE]
counters:    bench [--trace-len N] [--seed S] [--jobs N] [--trace-dir DIR]
serving:     serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--trace-dir DIR]
             [--result-cache N] [--peers HOST:PORT,...] / loadgen \
             [--addr HOST:PORT,...] [--rps N] [--duration SECONDS] [--spec-mix FILE]
             top [--addr HOST:PORT] [--interval SECONDS] [--count N]
fuzzing:     fuzz [--cases N] [--seed S] [--max-len N] [--replay TUPLE] [--out FILE]
             atlas [family] [--trace-len N]
other:       --version / --help";

/// Every subcommand, for `did you mean …` suggestions on typos.
const COMMANDS: &[&str] = &[
    "table3-1",
    "accuracy",
    "breakdown",
    "fig3-1",
    "table3-2",
    "fig3-3",
    "fig3-4",
    "fig3-5",
    "fig5-1",
    "fig5-2",
    "fig5-3",
    "all",
    "ablation-banks",
    "ablation-window",
    "ablation-confidence",
    "ablation-predictors",
    "ablation-partial",
    "ablation-btb",
    "ablation-fetch",
    "ablation-penalty",
    "ablation-tc",
    "ablation-hints",
    "ablation-model",
    "ablation-seeds",
    "ablations",
    "usefulness",
    "save-trace",
    "trace-gen",
    "trace-info",
    "run-asm",
    "trace-viz",
    "bench",
    "serve",
    "loadgen",
    "top",
    "fuzz",
    "atlas",
];

/// Every flag the parser understands, for used-flag tracking.
const KNOWN_FLAGS: &[&str] = &[
    "--trace-len",
    "--seed",
    "--jobs",
    "--csv",
    "--chart",
    "--out",
    "--cycles",
    "--addr",
    "--workers",
    "--queue-depth",
    "--cases",
    "--max-len",
    "--replay",
    "--trace-dir",
    "--result-cache",
    "--peers",
    "--rps",
    "--duration",
    "--spec-mix",
    "--interval",
    "--count",
];

/// Flags shared by every figure/table/ablation experiment runner.
const EXPERIMENT_FLAGS: &[&str] =
    &["--trace-len", "--seed", "--jobs", "--csv", "--chart", "--trace-dir"];

/// What one subcommand accepts: its flags and its positional-argument cap.
struct CommandSpec {
    flags: &'static [&'static str],
    positionals: usize,
}

/// The accepted surface of each known subcommand. `None` for unknown
/// subcommands (those take the did-you-mean path in [`run_one`]).
fn command_spec(name: &str) -> Option<CommandSpec> {
    let spec = |flags, positionals| Some(CommandSpec { flags, positionals });
    match name {
        "save-trace" => spec(&["--trace-len", "--seed"], 2),
        "trace-gen" => spec(&["--trace-len", "--seed", "--trace-dir"], 1),
        "trace-info" => spec(&[], 1),
        "run-asm" => spec(&["--trace-len", "--seed"], 1),
        "trace-viz" => spec(&["--trace-len", "--seed", "--jobs", "--cycles", "--out"], 1),
        "bench" => spec(&["--trace-len", "--seed", "--jobs", "--trace-dir"], 0),
        "serve" => spec(
            &["--addr", "--workers", "--queue-depth", "--trace-dir", "--result-cache", "--peers"],
            0,
        ),
        "loadgen" => spec(&["--addr", "--rps", "--duration", "--spec-mix", "--out"], 0),
        "top" => spec(&["--addr", "--interval", "--count"], 0),
        "fuzz" => spec(&["--cases", "--seed", "--max-len", "--replay", "--out"], 0),
        "atlas" => spec(&["--trace-len", "--seed", "--csv"], 1),
        name if COMMANDS.contains(&name) => spec(EXPERIMENT_FLAGS, 0),
        _ => None,
    }
}

/// Rejects flags and stray positionals a known subcommand does not take
/// (unknown subcommands are reported with suggestions by [`run_one`]).
fn validate_invocation(opts: &Options) -> Result<(), String> {
    let Some(spec) = command_spec(&opts.experiment) else { return Ok(()) };
    for flag in &opts.used_flags {
        if !spec.flags.contains(flag) {
            let suggestion = spec
                .flags
                .iter()
                .map(|&known| (edit_distance(flag, known), known))
                .min()
                .filter(|&(distance, _)| distance <= 3)
                .map(|(_, known)| format!(" (did you mean `{known}`?)"))
                .unwrap_or_default();
            return Err(format!(
                "`{}` does not take the flag `{flag}`{suggestion}",
                opts.experiment
            ));
        }
    }
    if opts.positionals.len() > spec.positionals {
        return Err(format!(
            "`{}` takes at most {} positional argument(s), got {} (first extra: `{}`)",
            opts.experiment,
            spec.positionals,
            opts.positionals.len(),
            opts.positionals[spec.positionals]
        ));
    }
    Ok(())
}

/// Enforces the in-memory/out-of-core trace-length boundary before any
/// generation starts, distinguishing "too big for memory" (with the fix
/// named) from a plainly invalid value.
fn validate_scale(opts: &Options) -> Result<(), String> {
    let n = opts.config.trace_len;
    if n <= MAX_IN_MEMORY_TRACE_LEN {
        return Ok(());
    }
    if n > jobspec::MAX_TRACE_LEN_OOC {
        return Err(format!(
            "--trace-len {n} exceeds even the out-of-core cap of {} instructions",
            jobspec::MAX_TRACE_LEN_OOC
        ));
    }
    // save-trace and trace-gen stream straight to disk at any size.
    if matches!(opts.experiment.as_str(), "save-trace" | "trace-gen") {
        return Ok(());
    }
    if !jobspec::supports_out_of_core(&opts.experiment) {
        return Err(format!(
            "--trace-len {n} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} \
             instructions, and `{}` cannot replay out-of-core (machine sweeps can: bench, \
             fig3-1, fig5-1, fig5-2, fig5-3, usefulness; save-trace and trace-gen always \
             stream)",
            opts.experiment
        ));
    }
    if opts.resolved_trace_dir().is_none() {
        return Err(format!(
            "--trace-len {n} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} \
             instructions; out-of-core replay needs a trace directory: pass --trace-dir DIR \
             (or set FETCHVP_TRACE_DIR)"
        ));
    }
    Ok(())
}

/// Levenshtein edit distance — small inputs only (command names).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// The closest known subcommand within 3 edits, if any.
fn nearest_command(name: &str) -> Option<&'static str> {
    COMMANDS
        .iter()
        .map(|&cmd| (edit_distance(name, cmd), cmd))
        .min()
        .filter(|&(distance, _)| distance <= 3)
        .map(|(_, cmd)| cmd)
}

struct Options {
    experiment: String,
    /// Extra positional arguments (benchmark name, file paths).
    positionals: Vec<String>,
    config: ExperimentConfig,
    /// Worker threads for the figure sweeps (default: one per logical CPU;
    /// `--jobs 1` forces the serial path).
    jobs: usize,
    csv: bool,
    chart: bool,
    /// `trace-viz`, `loadgen`, `fuzz`: output path.
    out: Option<String>,
    /// `trace-viz`: restrict the export to events overlapping this
    /// inclusive cycle window.
    cycles: Option<(u64, u64)>,
    /// `serve`: listen address.
    addr: Option<String>,
    /// `serve`: pool worker threads.
    workers: Option<usize>,
    /// `serve`: bounded job-queue capacity.
    queue_depth: Option<usize>,
    /// `serve`: result-cache capacity in entries (0 disables).
    result_cache: Option<usize>,
    /// `serve`: the full fleet membership list, comma-separated.
    peers: Option<String>,
    /// `loadgen`: offered request rate.
    rps: Option<u64>,
    /// `loadgen`: how long to sustain the offered rate, seconds.
    duration: Option<u64>,
    /// `loadgen`: JSON file holding the spec mix (array of job specs).
    spec_mix: Option<String>,
    /// `top`: seconds between dashboard refreshes.
    interval: Option<u64>,
    /// `top`: stop after this many refreshes (default: run until ^C).
    count: Option<u64>,
    /// `fuzz`: cases to sample.
    cases: usize,
    /// `fuzz`: upper bound on each case's trace length.
    max_len: u64,
    /// `fuzz`: re-check one printed repro tuple instead of sampling.
    replay: Option<String>,
    /// Content-addressed trace cache directory (`--trace-dir`, falling
    /// back to `$FETCHVP_TRACE_DIR`).
    trace_dir: Option<String>,
    /// Flags seen on the command line, for per-subcommand validation.
    used_flags: Vec<&'static str>,
}

impl Options {
    /// The trace directory to use: the `--trace-dir` flag, else the
    /// `FETCHVP_TRACE_DIR` environment variable (empty means unset).
    fn resolved_trace_dir(&self) -> Option<std::path::PathBuf> {
        if let Some(dir) = &self.trace_dir {
            return Some(std::path::PathBuf::from(dir));
        }
        std::env::var_os("FETCHVP_TRACE_DIR")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut experiment = None;
    let mut positionals = Vec::new();
    let mut config = ExperimentConfig::default();
    let mut jobs = default_jobs();
    let mut csv = false;
    let mut chart = false;
    let mut out = None;
    let mut cycles = None;
    let mut addr = None;
    let mut workers = None;
    let mut queue_depth = None;
    let mut result_cache = None;
    let mut peers = None;
    let mut rps = None;
    let mut duration = None;
    let mut spec_mix = None;
    let mut interval = None;
    let mut count = None;
    let mut cases = fuzz::FuzzOptions::default().cases;
    let mut max_len = fuzz::FuzzOptions::default().max_len;
    let mut replay = None;
    let mut trace_dir = None;
    let mut used_flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = KNOWN_FLAGS.iter().find(|&&f| f == arg.as_str()) {
            used_flags.push(*flag);
        }
        match arg.as_str() {
            "--trace-len" => {
                let v = it.next().ok_or("--trace-len needs a value")?;
                config.trace_len = v.parse().map_err(|_| format!("bad trace length `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                config.workloads = WorkloadParams { seed, ..config.workloads };
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = positive(v, "job count")?;
            }
            "--csv" => csv = true,
            "--chart" => chart = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out = Some(v.clone());
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value (FIRST..LAST)")?;
                let window = v.split_once("..").and_then(|(a, b)| {
                    Some((a.parse().ok()?, b.parse().ok()?)).filter(|&(a, b): &(u64, u64)| a <= b)
                });
                cycles = Some(window.ok_or(format!("bad cycle window `{v}` (need FIRST..LAST)"))?);
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value (HOST:PORT)")?;
                addr = Some(v.clone());
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(positive(v, "worker count")?);
            }
            "--queue-depth" => {
                let v = it.next().ok_or("--queue-depth needs a value")?;
                queue_depth = Some(positive(v, "queue depth")?);
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a value")?;
                cases = positive(v, "case count")?;
            }
            "--max-len" => {
                let v = it.next().ok_or("--max-len needs a value")?;
                max_len = positive(v, "max length")?;
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a repro tuple")?;
                replay = Some(v.clone());
            }
            "--trace-dir" => {
                let v = it.next().ok_or("--trace-dir needs a directory path")?;
                trace_dir = Some(v.clone());
            }
            "--result-cache" => {
                let v = it.next().ok_or("--result-cache needs a value (entries; 0 disables)")?;
                result_cache =
                    Some(v.parse::<usize>().map_err(|_| format!("bad result-cache size `{v}`"))?);
            }
            "--peers" => {
                let v = it.next().ok_or("--peers needs a value (HOST:PORT,HOST:PORT,...)")?;
                peers = Some(v.clone());
            }
            "--rps" => {
                let v = it.next().ok_or("--rps needs a value")?;
                rps = Some(positive(v, "request rate")?);
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs a value (seconds)")?;
                duration = Some(positive(v, "duration")?);
            }
            "--spec-mix" => {
                let v = it.next().ok_or("--spec-mix needs a JSON file path")?;
                spec_mix = Some(v.clone());
            }
            "--interval" => {
                let v = it.next().ok_or("--interval needs a value (seconds)")?;
                interval = Some(positive(v, "interval")?);
            }
            "--count" => {
                let v = it.next().ok_or("--count needs a value")?;
                count = Some(positive(v, "refresh count")?);
            }
            other if !other.starts_with('-') => {
                if experiment.is_none() {
                    experiment = Some(other.to_string());
                } else {
                    positionals.push(other.to_string());
                }
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    let experiment = experiment.ok_or("no experiment named")?;
    Ok(Options {
        experiment,
        positionals,
        config,
        jobs,
        csv,
        chart,
        out,
        cycles,
        addr,
        workers,
        queue_depth,
        result_cache,
        peers,
        rps,
        duration,
        spec_mix,
        interval,
        count,
        cases,
        max_len,
        replay,
        trace_dir,
        used_flags,
    })
}

/// Parses a flag value that must be a whole number >= 1. `noun` names the
/// value in the error; the time flags (`duration`, `interval`) ask for
/// whole seconds.
fn positive<T: FromStr + PartialOrd + From<u8>>(value: &str, noun: &str) -> Result<T, String> {
    let unit = if matches!(noun, "duration" | "interval") { "whole seconds" } else { "an integer" };
    value
        .parse()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("bad {noun} `{value}` (need {unit} >= 1)"))
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}

fn save_trace(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let [bench, path] = args else {
        return Err("save-trace needs: <benchmark> <file>".into());
    };
    let workload =
        by_name(bench, &cfg.workloads).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    // Streamed generation: the trace goes to disk chunk by chunk, so this
    // works at the paper's 100M scale without materializing anything.
    let file = File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
    let summary = stream_program_to_store(
        workload.program(),
        bench,
        cfg.trace_len,
        DEFAULT_CHUNK_LEN,
        BufWriter::new(file),
    )
    .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} instructions of `{bench}` to {path} ({} chunk(s), {} bytes)",
        summary.instructions, summary.chunks, summary.bytes
    );
    Ok(())
}

fn trace_gen(cfg: &ExperimentConfig, opts: &Options) -> Result<(), String> {
    let [bench] = opts.positionals.as_slice() else {
        return Err("trace-gen needs: <benchmark> [--trace-dir DIR]".into());
    };
    let workload =
        by_name(bench, &cfg.workloads).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let root = opts.resolved_trace_dir().or_else(TraceDir::default_root).ok_or(
        "trace-gen needs a destination: --trace-dir DIR or $FETCHVP_TRACE_DIR (no home \
         directory found for the default ~/.cache/fetchvp); use save-trace for a plain file",
    )?;
    let dir = TraceDir::new(root);
    let key = TraceKey::benchmark(bench, cfg.workloads.seed, cfg.workloads.scale, cfg.trace_len);
    let store = dir
        .open_or_create(&key, |path| {
            let file = File::create(path)?;
            stream_program_to_store(
                workload.program(),
                bench,
                cfg.trace_len,
                DEFAULT_CHUNK_LEN,
                BufWriter::new(file),
            )
            .map(|_| ())
        })
        .map_err(|e| format!("cannot populate trace cache: {e}"))?;
    let counters = dir.counters();
    let state = if counters.hits > 0 { "already cached" } else { "generated" };
    println!(
        "{state}: {} instructions of `{bench}` at {} ({} chunk(s))",
        store.len(),
        store.path().display(),
        store.chunks().len()
    );
    Ok(())
}

fn trace_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("trace-info needs: <file.fvps>".into());
    };
    // Stats stream per chunk, so a 100M-instruction store is summarized
    // in bounded memory.
    let store = TraceStore::open(path)
        .map_err(|e| format!("`{path}` is not a readable .fvps trace store: {e}"))?;
    let stats = stream_store_stats(&store).map_err(|e| format!("read failed: {e}"))?;
    println!("trace `{}` ({:?})", store.name(), store.outcome());
    println!(
        "chunked store: {} chunk(s) of <= {} instructions",
        store.chunks().len(),
        store.chunk_target()
    );
    println!("{stats}");
    Ok(())
}

fn run_asm(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("run-asm needs: <file.s>".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program");
    let program = parse_program(name, &source).map_err(|e| format!("{path}: {e}"))?;
    let trace = trace_program(&program, cfg.trace_len);
    println!("program `{name}`: {} static instructions", program.len());
    println!(
        "{}
",
        trace.stats()
    );
    for (label, vp) in
        [("baseline (no VP)", VpConfig::None), ("stride VP", VpConfig::stride_infinite())]
    {
        let r = IdealMachine::new(IdealConfig { fetch_rate: 16, vp, ..IdealConfig::default() })
            .run(&trace);
        println!(
            "== ideal machine, fetch 16, {label}
{r}"
        );
    }
    Ok(())
}

fn run_trace_viz(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let [workload] = opts.positionals.as_slice() else {
        return Err("trace-viz needs: <workload> [--cycles FIRST..LAST] [--out FILE]".into());
    };
    let viz = fetchvp_experiments::traceviz::run_with(sweep, workload, opts.cycles)?;
    let path = opts.out.clone().unwrap_or_else(|| format!("trace_{workload}.json"));
    std::fs::write(&path, viz.json.clone() + "\n")
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "trace-viz: {} events ({} dropped) over {} cycles of `{}`",
        viz.events, viz.dropped, viz.result.cycles, viz.workload
    );
    println!("wrote {path} — load it in Perfetto (ui.perfetto.dev) or chrome://tracing");
    Ok(())
}

fn run_serve(opts: &Options) -> Result<(), String> {
    let mut config = fetchvp_server::ServerConfig::default();
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    if let Some(workers) = opts.workers {
        config.workers = workers;
    }
    if let Some(queue_depth) = opts.queue_depth {
        config.queue_depth = queue_depth;
    }
    if let Some(entries) = opts.result_cache {
        config.result_cache_entries = entries;
    }
    if let Some(peers) = &opts.peers {
        config.peers = peers.split(',').map(|p| p.trim().to_string()).collect();
    }
    config.trace_dir = opts.resolved_trace_dir();
    if let Some(dir) = &config.trace_dir {
        println!("trace cache: {} (out-of-core jobs enabled)", dir.display());
    }
    let fleet_size = config.peers.len();
    let server =
        fetchvp_server::Server::bind(config).map_err(|e| format!("cannot bind server: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("fetchvp-server listening on {addr}");
    if fleet_size > 0 {
        println!("fleet mode: {fleet_size} members, jobs sharded by spec hash");
    }
    println!(
        "endpoints: POST /run  GET /jobs/<id>  GET /jobs/<id>/events  GET /fleet/metrics  \
         GET /healthz  GET /metrics  POST /shutdown"
    );
    server.run().map_err(|e| format!("server failed: {e}"))?;
    println!("fetchvp-server shut down cleanly");
    Ok(())
}

/// Reads a `--spec-mix` file: a JSON array of job-spec objects (a single
/// object is accepted as a mix of one).
fn read_spec_mix(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let specs: Vec<String> = match &doc {
        Json::Array(items) => items.iter().map(Json::to_json).collect(),
        _ => vec![doc.to_json()],
    };
    if specs.is_empty() {
        return Err(format!("{path}: the spec mix is empty"));
    }
    Ok(specs)
}

fn run_loadgen(opts: &Options) -> Result<(), String> {
    let mut options = fetchvp_server::loadgen::LoadgenOptions::default();
    if let Some(addr) = &opts.addr {
        options.targets = addr.split(',').map(|t| t.trim().to_string()).collect();
    }
    if let Some(rps) = opts.rps {
        options.rps = rps;
    }
    if let Some(seconds) = opts.duration {
        options.duration = std::time::Duration::from_secs(seconds);
    }
    if let Some(path) = &opts.spec_mix {
        options.specs = read_spec_mix(path)?;
    }
    println!(
        "loadgen: {} rps for {:?} against {} (mix of {} spec(s))",
        options.rps,
        options.duration,
        options.targets.join(", "),
        options.specs.len()
    );
    let report = fetchvp_server::loadgen::run(&options)?;
    println!("{}", report.render());
    if let Some(path) = &opts.out {
        let text = report.to_json().to_json() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run_top(opts: &Options) -> Result<(), String> {
    let mut options = top::TopOptions::default();
    if let Some(addr) = &opts.addr {
        options.addr = addr.clone();
    }
    if let Some(seconds) = opts.interval {
        options.interval = std::time::Duration::from_secs(seconds);
    }
    options.count = opts.count;
    top::run(&options)
}

fn run_fuzz(opts: &Options) -> Result<(), String> {
    if let Some(tuple) = &opts.replay {
        let spec = fuzz::CaseSpec::parse(tuple)?;
        return match fuzz::replay(&spec) {
            None => {
                println!("replay: {spec}\nreplay: every invariant holds");
                Ok(())
            }
            Some(invariant) => {
                println!("replay: {spec}");
                Err(format!("replayed case still fails: {invariant}"))
            }
        };
    }
    if opts.max_len > MAX_IN_MEMORY_TRACE_LEN {
        return Err(format!(
            "--max-len {} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} instructions; \
             fuzzing replays every case in memory and cannot use a trace directory",
            opts.max_len
        ));
    }
    let options = fuzz::FuzzOptions {
        cases: opts.cases,
        seed: opts.config.workloads.seed,
        max_len: opts.max_len,
    };
    let report = fuzz::run(&options);
    print!("{}", report.render());
    if let Some(path) = &opts.out {
        std::fs::write(path, report.repro_lines())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {} repro tuple(s) to {path}", report.failures.len());
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant failure(s)", report.failures.len()))
    }
}

fn run_atlas(opts: &Options) -> Result<(), String> {
    let family = match opts.positionals.as_slice() {
        [] => "m88ksim",
        [family] => family.as_str(),
        _ => return Err("atlas takes at most one family name".into()),
    };
    // The default 1M-point grid would dominate a CI run; the atlas is a
    // map, not a measurement, so it defaults to the quick length (an
    // explicit --trace-len still wins).
    let trace_len = if opts.used_flags.contains(&"--trace-len") {
        opts.config.trace_len
    } else {
        ExperimentConfig::quick().trace_len
    };
    emit(&atlas::run(family, trace_len)?.to_table(), opts.csv);
    Ok(())
}

fn run_one(name: &str, sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let cfg = sweep.config();
    let (csv, chart, positionals) = (opts.csv, opts.chart, opts.positionals.as_slice());
    #[allow(clippy::match_like_matches_macro)]
    match name {
        "save-trace" => return save_trace(cfg, positionals),
        "trace-gen" => return trace_gen(cfg, opts),
        "trace-info" => return trace_info(positionals),
        "run-asm" => return run_asm(cfg, positionals),
        "bench" => println!("{}", bench::run_with(sweep).to_json().to_json()),
        "trace-viz" => return run_trace_viz(sweep, opts),
        "usefulness" => emit(&fetchvp_experiments::usefulness::run_with(sweep).to_table(), csv),
        "serve" => return run_serve(opts),
        "loadgen" => return run_loadgen(opts),
        "top" => return run_top(opts),
        "fuzz" => return run_fuzz(opts),
        "atlas" => return run_atlas(opts),
        "table3-1" => emit(&table3_1::run_with(sweep).to_table(), csv),
        "accuracy" => emit(&fetchvp_experiments::accuracy::run_with(sweep).to_table(), csv),
        "breakdown" => emit(&fetchvp_experiments::breakdown::run_with(sweep).to_table(), csv),
        "fig3-1" if chart => println!("{}", fig3_1::run_with(sweep).to_chart()),
        "fig5-1" if chart => println!("{}", fig5_1::run_with(sweep).to_chart()),
        "fig5-2" if chart => println!("{}", fig5_2::run_with(sweep).to_chart()),
        "fig5-3" if chart => println!("{}", fig5_3::run_with(sweep).to_chart()),
        "fig3-1" => emit(&fig3_1::run_with(sweep).to_table(), csv),
        "table3-2" => emit(&table3_2::run().to_table(), csv),
        "fig3-3" => emit(&fig3_3::run_with(sweep).to_table(), csv),
        "fig3-4" => emit(&fig3_4::run_with(sweep).to_table(), csv),
        "fig3-5" => emit(&fig3_5::run_with(sweep).to_table(), csv),
        "fig5-1" => emit(&fig5_1::run_with(sweep).to_table(), csv),
        "fig5-2" => emit(&fig5_2::run_with(sweep).to_table(), csv),
        "fig5-3" => emit(&fig5_3::run_with(sweep).to_table(), csv),
        "ablation-banks" => emit(&ablations::bank_sweep_with(sweep).to_table(), csv),
        "ablation-window" => emit(&ablations::window_sweep_with(sweep).to_table(), csv),
        "ablation-confidence" => emit(&ablations::confidence_sweep_with(sweep).to_table(), csv),
        "ablation-predictors" => emit(&ablations::predictor_comparison_with(sweep).to_table(), csv),
        "ablation-partial" => emit(&ablations::partial_matching_with(sweep).to_table(), csv),
        "ablation-btb" => emit(&ablations::btb_sensitivity_with(sweep).to_table(), csv),
        "ablation-fetch" => emit(&ablations::fetch_mechanisms_with(sweep).to_table(), csv),
        "ablation-penalty" => emit(&ablations::penalty_sweep_with(sweep).to_table(), csv),
        "ablation-tc" => emit(&ablations::tc_geometry_with(sweep).to_table(), csv),
        "ablation-hints" => emit(&ablations::hint_study_with(sweep).to_table(), csv),
        "ablation-model" => emit(&ablations::model_assumptions_with(sweep).to_table(), csv),
        "ablation-seeds" => emit(&ablations::seed_stability_with(sweep).to_table(), csv),
        "ablations" => {
            for exp in [
                "ablation-banks",
                "ablation-window",
                "ablation-confidence",
                "ablation-predictors",
                "ablation-partial",
                "ablation-btb",
                "ablation-fetch",
                "ablation-penalty",
                "ablation-tc",
                "ablation-hints",
                "ablation-model",
                "ablation-seeds",
            ] {
                run_one(exp, sweep, opts)?;
            }
        }
        "all" => {
            for exp in [
                "table3-1", "fig3-1", "table3-2", "fig3-3", "fig3-4", "fig3-5", "fig5-1", "fig5-2",
                "fig5-3",
            ] {
                run_one(exp, sweep, opts)?;
            }
        }
        other => {
            let suggestion = nearest_command(other)
                .map(|cmd| format!(" (did you mean `{cmd}`?)"))
                .unwrap_or_default();
            return Err(format!("unknown experiment `{other}`{suggestion}\n{USAGE}"));
        }
    }
    Ok(())
}

/// What `--version`/`-V` and `--help`/`-h`/`help` print in place of a
/// run; `None` for every other invocation.
fn informational(args: &[String]) -> Option<String> {
    if args.iter().any(|a| a == "--version" || a == "-V") {
        return Some(format!("fetchvp {}", env!("CARGO_PKG_VERSION")));
    }
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    (help || args.first().is_some_and(|a| a == "help")).then(|| USAGE.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(text) = informational(&args) {
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args)
        .and_then(|o| validate_invocation(&o).map(|()| o))
        .and_then(|o| validate_scale(&o).map(|()| o))
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // One sweep (and thus one trace cache) shared by everything this
    // invocation runs, including the `all`/`ablations` meta-experiments.
    let trace_dir = options.resolved_trace_dir().map(|root| Arc::new(TraceDir::new(root)));
    let sweep = Sweep::with_trace_dir(&options.config, trace_dir, options.jobs);
    match run_one(&options.experiment, &sweep, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_experiment_and_flags() {
        let o = opts(&["fig3-1", "--trace-len", "1000", "--seed", "7", "--csv"]).unwrap();
        assert_eq!(o.experiment, "fig3-1");
        assert_eq!(o.config.trace_len, 1000);
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.jobs, default_jobs());
        assert!(o.csv);
    }

    #[test]
    fn parses_jobs_flag() {
        let o = opts(&["fig3-1", "--jobs", "4"]).unwrap();
        assert_eq!(o.jobs, 4);
        assert!(opts(&["fig3-1", "--jobs", "0"]).is_err());
        assert!(opts(&["fig3-1", "--jobs", "many"]).is_err());
        assert!(opts(&["fig3-1", "--jobs"]).is_err());
    }

    #[test]
    fn rejects_missing_experiment() {
        assert!(opts(&["--csv"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(opts(&["fig3-1", "--wat"]).is_err());
    }

    #[test]
    fn rejects_unknown_experiment() {
        let o = opts(&["fig9-9"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        assert!(run_one(&o.experiment, &sweep, &o).is_err());
    }

    #[test]
    fn table3_2_runs_end_to_end() {
        let o = opts(&["table3-2", "--csv"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        run_one(&o.experiment, &sweep, &o).unwrap();
    }

    #[test]
    fn parses_bench_flags() {
        let o = opts(&["bench", "--trace-len", "2000", "--jobs", "2", "--trace-dir", "/tmp/x"])
            .unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!((o.config.trace_len, o.jobs), (2000, 2));
        // bench prints its report to stdout like every other experiment.
        let o = opts(&["bench", "--out", "report.json"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("does not take the flag `--out`"), "{err}");
    }

    #[test]
    fn parses_serve_flags() {
        let o = opts(&["serve", "--addr", "127.0.0.1:0", "--workers", "3", "--queue-depth", "5"])
            .unwrap();
        assert_eq!(o.experiment, "serve");
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.queue_depth, Some(5));
        assert!(opts(&["serve", "--workers", "0"]).is_err());
        assert!(opts(&["serve", "--queue-depth", "nope"]).is_err());
        assert!(opts(&["serve", "--addr"]).is_err());
    }

    #[test]
    fn usage_mentions_serve_and_version() {
        assert!(USAGE.contains("serve [--addr HOST:PORT]"));
        assert!(USAGE.contains("loadgen"));
        assert!(USAGE.contains("--peers"));
        assert!(USAGE.contains("--version"));
    }

    #[test]
    fn help_and_version_print_in_place_of_a_run() {
        let info =
            |args: &[&str]| informational(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        for help in [&["--help"][..], &["-h"], &["help"], &["fig3-1", "--help"]] {
            assert_eq!(info(help).as_deref(), Some(USAGE), "{help:?}");
        }
        let version = format!("fetchvp {}", env!("CARGO_PKG_VERSION"));
        assert_eq!(info(&["--version"]), Some(version.clone()));
        assert_eq!(info(&["-V", "--help"]), Some(version), "--version wins");
        // `help` is only a subcommand in first position: elsewhere it is
        // an ordinary positional (a file name, say).
        assert_eq!(info(&["trace-info", "help"]), None);
        assert_eq!(info(&["fig3-1"]), None);
        assert_eq!(info(&[]), None);
    }

    #[test]
    fn parses_fleet_serve_flags() {
        let o = opts(&[
            "serve",
            "--addr",
            "127.0.0.1:7001",
            "--peers",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--result-cache",
            "512",
        ])
        .unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!(o.peers.as_deref(), Some("127.0.0.1:7001, 127.0.0.1:7002"));
        assert_eq!(o.result_cache, Some(512));
        // 0 disables the cache and must parse.
        assert_eq!(opts(&["serve", "--result-cache", "0"]).unwrap().result_cache, Some(0));
        assert!(opts(&["serve", "--result-cache", "lots"]).is_err());
        assert!(opts(&["serve", "--peers"]).is_err());
        // --peers belongs to serve, not the experiments.
        let o = opts(&["fig3-1", "--peers", "127.0.0.1:7001"]).unwrap();
        assert!(validate_invocation(&o).is_err());
    }

    #[test]
    fn parses_loadgen_flags() {
        let o = opts(&[
            "loadgen",
            "--addr",
            "127.0.0.1:7001,127.0.0.1:7002",
            "--rps",
            "1500",
            "--duration",
            "3",
            "--spec-mix",
            "mix.json",
            "--out",
            "report.json",
        ])
        .unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!(o.rps, Some(1500));
        assert_eq!(o.duration, Some(3));
        assert_eq!(o.spec_mix.as_deref(), Some("mix.json"));
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert!(opts(&["loadgen", "--rps", "0"]).is_err());
        assert!(opts(&["loadgen", "--duration", "0.5"]).is_err());
        // loadgen is a client: it takes no server-side flags.
        let o = opts(&["loadgen", "--workers", "4"]).unwrap();
        assert!(validate_invocation(&o).is_err());
    }

    #[test]
    fn spec_mix_files_accept_arrays_and_single_objects() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-mix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mix.json");
        std::fs::write(&path, r#"[{"experiment": "table3-1"}, {"experiment": "accuracy"}]"#)
            .unwrap();
        let specs = read_spec_mix(path.to_str().unwrap()).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs[0].contains("table3-1"));
        std::fs::write(&path, r#"{"experiment": "breakdown"}"#).unwrap();
        assert_eq!(read_spec_mix(path.to_str().unwrap()).unwrap().len(), 1);
        std::fs::write(&path, "[]").unwrap();
        assert!(read_spec_mix(path.to_str().unwrap()).is_err());
        std::fs::write(&path, "not json").unwrap();
        assert!(read_spec_mix(path.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("serve", "serve"), 0);
        assert_eq!(edit_distance("serv", "serve"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn unknown_experiments_get_a_suggestion() {
        assert_eq!(nearest_command("serv"), Some("serve"));
        assert_eq!(nearest_command("ablation-bank"), Some("ablation-banks"));
        assert_eq!(nearest_command("fig51"), Some("fig5-1"));
        assert_eq!(nearest_command("zzzzzzzzzzzz"), None);
        let o = opts(&["benhc"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        let err = run_one(&o.experiment, &sweep, &o).unwrap_err();
        assert!(err.contains("did you mean `bench`?"), "{err}");
    }

    #[test]
    fn parses_cycles_window() {
        let o = opts(&["trace-viz", "gcc", "--cycles", "100..500"]).unwrap();
        assert_eq!(o.experiment, "trace-viz");
        assert_eq!(o.positionals, ["gcc"]);
        assert_eq!(o.cycles, Some((100, 500)));
        assert!(opts(&["trace-viz", "gcc", "--cycles", "500..100"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles", "abc"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles"]).is_err());
    }

    #[test]
    fn trace_viz_needs_a_workload() {
        let o = opts(&["trace-viz"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        assert!(run_one(&o.experiment, &sweep, &o).is_err());
    }

    #[test]
    fn rejects_inapplicable_known_flags() {
        // Regression: a known flag on a subcommand that does not take it
        // used to exit 0, silently ignoring the flag. Known flags must be
        // rejected on subcommands that do not take them.
        let o = opts(&["table3-1", "--workers", "2"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("does not take the flag `--workers`"), "{err}");

        // Near-miss flags get the did-you-mean path.
        let o = opts(&["fuzz", "--cycles", "0..9"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("did you mean `--cases`?"), "{err}");

        // Applicable flags still pass on every surface they belong to.
        for line in [
            vec!["fig3-1", "--trace-len", "500", "--jobs", "2", "--csv", "--chart"],
            vec!["bench", "--trace-len", "500", "--jobs", "2", "--trace-dir", "/tmp/x"],
            vec!["trace-viz", "gcc", "--cycles", "0..9", "--out", "t.json"],
            vec!["serve", "--addr", "127.0.0.1:0", "--workers", "2"],
            vec!["fuzz", "--cases", "8", "--seed", "7", "--max-len", "900"],
            vec!["atlas", "mgrid", "--trace-len", "800"],
        ] {
            let o = opts(&line).unwrap();
            validate_invocation(&o).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
    }

    #[test]
    fn rejects_stray_positionals() {
        // Regression: `fetchvp fig3-1 extra` used to exit 0 with the
        // stray word silently dropped.
        let o = opts(&["fig3-1", "extra"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("positional"), "{err}");
        assert!(err.contains("`extra`"), "{err}");
        validate_invocation(&opts(&["save-trace", "gcc", "f.bin"]).unwrap()).unwrap();
        assert!(validate_invocation(&opts(&["save-trace", "gcc", "f.bin", "x"]).unwrap()).is_err());
    }

    #[test]
    fn unknown_subcommands_still_take_the_suggestion_path() {
        // validate_invocation must not shadow run_one's did-you-mean
        // handling for unknown subcommands.
        let o = opts(&["benhc", "--csv"]).unwrap();
        validate_invocation(&o).unwrap();
    }

    #[test]
    fn parses_fuzz_flags() {
        let o = opts(&["fuzz", "--cases", "16", "--seed", "7", "--max-len", "9000"]).unwrap();
        assert_eq!(o.cases, 16);
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.max_len, 9000);
        assert!(o.replay.is_none());
        assert!(opts(&["fuzz", "--cases", "0"]).is_err());
        assert!(opts(&["fuzz", "--max-len", "wat"]).is_err());
        assert!(opts(&["fuzz", "--replay"]).is_err());
        let o = opts(&["fuzz", "--replay", "gcc did=1 len=600"]).unwrap();
        assert_eq!(o.replay.as_deref(), Some("gcc did=1 len=600"));
    }

    #[test]
    fn fuzz_replay_runs_end_to_end() {
        let o = opts(&["fuzz", "--replay", "m88ksim did=0.5 len=600"]).unwrap();
        run_fuzz(&o).unwrap();
        let o = opts(&["fuzz", "--replay", "nonesuch len=600"]).unwrap();
        assert!(run_fuzz(&o).is_err());
    }

    #[test]
    fn atlas_rejects_unknown_families() {
        let o = opts(&["atlas", "nonesuch"]).unwrap();
        assert!(run_atlas(&o).is_err());
    }

    #[test]
    fn parses_trace_dir_flag() {
        let o = opts(&["fig3-1", "--trace-dir", "/tmp/fetchvp-cache"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("/tmp/fetchvp-cache"));
        validate_invocation(&o).unwrap();
        assert!(opts(&["fig3-1", "--trace-dir"]).is_err());
        // Surfaces that never read traces from disk reject the flag.
        let o = opts(&["trace-info", "f.bin", "--trace-dir", "/tmp/x"]).unwrap();
        assert!(validate_invocation(&o).is_err());
        // serve and trace-gen accept it.
        validate_invocation(&opts(&["serve", "--trace-dir", "/tmp/x"]).unwrap()).unwrap();
        validate_invocation(&opts(&["trace-gen", "gcc", "--trace-dir", "/tmp/x"]).unwrap())
            .unwrap();
    }

    #[test]
    fn scale_gate_distinguishes_capability_from_invalid() {
        let big = (MAX_IN_MEMORY_TRACE_LEN + 1).to_string();
        // A machine sweep without a trace dir: the error names the fix.
        let o = opts(&["fig3-1", "--trace-len", &big]).unwrap();
        if o.resolved_trace_dir().is_none() {
            let err = validate_scale(&o).unwrap_err();
            assert!(err.contains("--trace-dir"), "{err}");
        }
        // The same length with a dir passes the gate.
        let o = opts(&["fig3-1", "--trace-len", &big, "--trace-dir", "/tmp/x"]).unwrap();
        validate_scale(&o).unwrap();
        // Analysis experiments are blamed even with a dir.
        let o = opts(&["fig3-4", "--trace-len", &big, "--trace-dir", "/tmp/x"]).unwrap();
        let err = validate_scale(&o).unwrap_err();
        assert!(err.contains("cannot replay out-of-core"), "{err}");
        // save-trace streams at any in-cap size.
        let o = opts(&["save-trace", "gcc", "f.fvps", "--trace-len", &big]).unwrap();
        validate_scale(&o).unwrap();
        // Beyond even the out-of-core cap: plainly invalid.
        let too_big = (jobspec::MAX_TRACE_LEN_OOC + 1).to_string();
        let o = opts(&["fig3-1", "--trace-len", &too_big, "--trace-dir", "/tmp/x"]).unwrap();
        let err = validate_scale(&o).unwrap_err();
        assert!(err.contains("out-of-core cap"), "{err}");
    }

    #[test]
    fn fuzz_rejects_out_of_core_max_len() {
        let big = (MAX_IN_MEMORY_TRACE_LEN + 1).to_string();
        let o = opts(&["fuzz", "--max-len", &big]).unwrap();
        let err = run_fuzz(&o).unwrap_err();
        assert!(err.contains("in memory"), "{err}");
        assert!(err.contains(&MAX_IN_MEMORY_TRACE_LEN.to_string()), "{err}");
    }

    #[test]
    fn save_trace_writes_chunked_stores_and_trace_info_rejects_other_formats() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("go.fvps");
        let o = opts(&["save-trace", "go", store_path.to_str().unwrap(), "--trace-len", "500"])
            .unwrap();
        save_trace(&o.config, &o.positionals).unwrap();
        let magic = &std::fs::read(&store_path).unwrap()[..4];
        assert_eq!(magic, fetchvp_tracestore::MAGIC, "save-trace must write the chunked format");
        trace_info(&[store_path.to_str().unwrap().to_string()]).unwrap();

        // Anything else is refused, naming the format trace-info expects.
        let other_path = dir.join("go.txt");
        std::fs::write(&other_path, "not a trace store").unwrap();
        let err = trace_info(&[other_path.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.contains("not a readable .fvps trace store"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_gen_populates_and_reuses_the_cache() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-gen-{}", std::process::id()));
        let o = opts(&[
            "trace-gen",
            "compress",
            "--trace-len",
            "400",
            "--trace-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        trace_gen(&o.config, &o).unwrap();
        let files = || {
            std::fs::read_dir(&dir)
                .map(|entries| entries.filter_map(Result::ok).count())
                .unwrap_or(0)
        };
        assert_eq!(files(), 1, "one store generated");
        trace_gen(&o.config, &o).unwrap();
        assert_eq!(files(), 1, "second run reuses the cached store");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
