//! `fetchvp-perfbench` — the repository benchmark.
//!
//! Runs one workload (`figures_inmem` or `serve_mix`) for a
//! fixed time, checks that its outputs are correct, writes a report that
//! records its environment, and prints one JSON result object as the last
//! line of standard output. Run it through `perfbench/run.py`, which
//! builds this package and the `fetchvp` CLI first; see
//! `perfbench/README.md`.

mod catalog;
mod figures;
mod probes;
mod replay;
mod serve;
mod spans;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use fetchvp_metrics::Json;

use spans::Spans;
use util::Metrics;

/// Version of the benchmark's definition; bump it when a workload's
/// inputs or a metric's meaning changes, so old reports stop comparing.
const BENCH_VERSION: u64 = 2;

/// What one workload run hands back to the reporter.
pub struct Outcome {
    /// Every metric the run measured (end-to-end and, when traced,
    /// per-layer).
    pub metrics: Metrics,
    /// Operations attempted (requests, experiment runs, output checks).
    pub attempted: u64,
    /// Operations that failed (errors, non-2xx, failed output checks).
    pub failed: u64,
    /// Digest of the simulated statistics the run produced: identical
    /// across runs and commits that simulate identically.
    pub sim_digest: u64,
    /// Input sizes and settings, recorded in the report's environment.
    pub params: Vec<(String, Json)>,
    /// Why the run cannot be scored, if it cannot (e.g. the open-loop
    /// generator fell behind its schedule).
    pub invalid: Option<String>,
    /// Human-readable remarks printed before the result line.
    pub notes: Vec<String>,
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds the timed phase measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Smoke size: tiny inputs, for the self-test.
    pub smoke: bool,
    /// Sweep workers (the host's CPU count).
    pub jobs: usize,
    /// Scratch directory for this run's stores and servers.
    pub work: PathBuf,
    /// The `fetchvp` CLI binary (`serve_mix` starts its server).
    pub cli: PathBuf,
    /// Span recorder (enabled only when traced).
    pub spans: Spans,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    work: PathBuf,
    cli: PathBuf,
    report: Option<PathBuf>,
    env: Vec<(String, String)>,
}

const USAGE: &str = "usage: fetchvp-perfbench --workload figures_inmem|serve_mix \
--seed N --seconds S --trace 0|1 --work DIR --cli PATH [--report FILE] [--smoke] \
[--env KEY=VALUE]...\n       fetchvp-perfbench --catalog";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        smoke: false,
        work: PathBuf::new(),
        cli: PathBuf::new(),
        report: None,
        env: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--work" => args.work = PathBuf::from(value()?),
            "--cli" => args.cli = PathBuf::from(value()?),
            "--report" => args.report = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--env" => {
                let pair = value()?;
                let (k, v) =
                    pair.split_once('=').ok_or(format!("--env wants KEY=VALUE, got `{pair}`"))?;
                args.env.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["figures_inmem", "serve_mix"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.work.as_os_str().is_empty() {
        return Err("--work is required".into());
    }
    Ok(args)
}

/// The catalog as JSON, for the self-test: `{"end_to_end": {name: unit},
/// "per_layer": {name: unit}}`.
fn catalog_json() -> Json {
    let section = |list: &[(&str, &str)]| {
        Json::object(list.iter().map(|&(n, u)| (n.to_string(), Json::Str(u.to_string()))))
    };
    Json::object([
        ("end_to_end".to_string(), section(catalog::END_TO_END)),
        ("per_layer".to_string(), section(catalog::PER_LAYER)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--catalog") {
        println!("{}", catalog_json().to_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        jobs: util::nproc(),
        work: args.work.join(format!(
            "{}-s{}-t{}",
            args.workload,
            args.seed,
            u8::from(args.traced)
        )),
        cli: args.cli.clone(),
        spans: Spans::new(args.traced),
    };
    // A fresh scratch directory per run: stores and result spills from an
    // earlier run must not turn this run's cold paths warm.
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
    let outcome = match args.workload.as_str() {
        "figures_inmem" => figures::run(&ctx),
        _ => serve::run(&ctx),
    }?;
    let mut metrics = outcome.metrics.clone();
    if ctx.traced {
        let wall = ctx.spans.elapsed_s();
        metrics.insert("trace.coverage_frac".into(), util::ratio(ctx.spans.top_level_s(), wall));
        for (layer, secs) in ctx.spans.self_times() {
            metrics.insert(format!("self.{layer}_s"), secs);
        }
    }
    let spans_path = ctx.work.with_extension("spans.json");
    if ctx.traced {
        ctx.spans
            .write_chrome(&spans_path)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    }
    // The stores and server spills are large and only this run reads them.
    let _ = std::fs::remove_dir_all(&ctx.work);

    let pick = |list: &[(&'static str, &'static str)]| -> Result<Vec<_>, String> {
        list.iter()
            .map(|&(name, unit)| {
                let value = *metrics.get(name).ok_or_else(|| {
                    format!("workload {} did not measure `{name}`", args.workload)
                })?;
                // A failed or refused request counts as missing every
                // latency limit; a percentile that lands on one reads as
                // this sentinel.
                Ok((name, unit, if value.is_finite() { value } else { 1e9 }))
            })
            .collect()
    };
    let emitted = pick(if ctx.traced { catalog::PER_LAYER } else { catalog::END_TO_END })?;
    let unscored = pick(if ctx.traced { &[] } else { catalog::UNSCORED })?;
    let correct = outcome.failed == 0 && outcome.invalid.is_none();
    let failed_frac = util::ratio(outcome.failed as f64, outcome.attempted as f64);

    let env = environment(args, &ctx, &outcome);
    println!("perfbench: workload {} seed {} traced {}", args.workload, args.seed, ctx.traced);
    for (k, v) in env.as_object().unwrap_or(&[]) {
        println!("env {k} = {}", one_line(v));
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(why) = &outcome.invalid {
        println!("INVALID run, not scored: {why}");
    }
    println!("sim_digest {:#018x}", outcome.sim_digest);
    println!(
        "failed_frac = {failed_frac} ratio ({} of {} operations failed)",
        outcome.failed, outcome.attempted
    );
    for (name, unit, value) in &emitted {
        println!("metric {name} = {value} {unit}");
    }
    for (name, unit, value) in &unscored {
        println!("unscored {name} = {value} {unit}");
    }
    if ctx.traced {
        println!("spans written to {}", spans_path.display());
    }

    let metric_json = |list: &[(&str, &str, f64)]| {
        Json::object(list.iter().map(|&(n, u, v)| {
            (
                n.to_string(),
                Json::object([
                    ("value".to_string(), Json::Float(v)),
                    ("unit".to_string(), Json::Str(u.to_string())),
                ]),
            )
        }))
    };
    if let Some(path) = &args.report {
        let report = Json::object([
            ("env".to_string(), env.clone()),
            ("correct".to_string(), Json::Bool(correct)),
            ("invalid".to_string(), outcome.invalid.clone().map_or(Json::Null, Json::Str)),
            ("attempted".to_string(), Json::UInt(outcome.attempted)),
            ("failed".to_string(), Json::UInt(outcome.failed)),
            ("failed_frac".to_string(), Json::Float(failed_frac)),
            ("sim_digest".to_string(), Json::Str(format!("{:#018x}", outcome.sim_digest))),
            (
                "notes".to_string(),
                Json::Array(outcome.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".to_string(), metric_json(&emitted)),
            ("unscored".to_string(), metric_json(&unscored)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    let result = Json::object([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(outcome.attempted)),
        ("failed".to_string(), Json::UInt(outcome.failed)),
        ("metrics".to_string(), metric_json(&emitted)),
    ]);
    println!("{}", one_line(&result));
    Ok(())
}

/// `doc` as JSON on a single line. The encoder pretty-prints, and escapes
/// every newline inside strings, so dropping each line break with the
/// indentation after it leaves the same document.
fn one_line(doc: &Json) -> String {
    doc.to_json().lines().map(str::trim_start).collect()
}

/// The environment record: everything that must match for two reports
/// to be comparable, plus the identity of the code measured
/// (`git_commit`, `source_digest`), which is what a comparison varies.
fn environment(args: &Args, ctx: &Ctx, outcome: &Outcome) -> Json {
    let mut pairs = vec![
        ("bench_version".to_string(), Json::UInt(BENCH_VERSION)),
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("traced".to_string(), Json::Bool(args.traced)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        ("nproc".to_string(), Json::UInt(util::nproc() as u64)),
        ("jobs".to_string(), Json::UInt(ctx.jobs as u64)),
        ("params".to_string(), Json::object(outcome.params.clone())),
    ];
    for (k, v) in &args.env {
        pairs.push((k.clone(), Json::Str(v.clone())));
    }
    Json::object(pairs)
}
