//! `figures_inmem`: the nine experiments of `fetchvp all` through one
//! `Sweep`, with every trace held in memory.
//!
//! Why this workload: it runs every kernel layer — the ideal and
//! realistic machines, the three fetch engines, `bpred`, the value
//! predictors, the banked router, the scheduler and `dfg` — and never
//! touches `tracestore` or `server` in its timed phase. Its traced run
//! also probes the out-of-core replay path (see [`replay`]).
//!
//! * set-up: fill a fresh `TraceCache` with all nine workloads' traces
//!   (repeated; the median is `setup_s`);
//! * timed phase: iterations of the nine experiments (`run_with` plus
//!   `to_table`) on the warm cache until `--seconds` have passed;
//!   `wall_s` is the median iteration. Each experiment run is a cold
//!   operation, simulated from scratch: an experiment's latency is its
//!   median over the iterations, and `cold_p50_ms`/`cold_p90_ms` are
//!   percentiles of those nine latencies. (Pooling every run instead puts
//!   the percentiles on the boundary between experiments of different
//!   sizes, where a few slow samples move them a long way.) Printing the
//!   nine finished figures again (`to_table` and its text) without
//!   simulating is a warm operation, timed after each iteration on every
//!   sweep worker at once; `warm_p50_ms` is the median over iterations
//!   of the workers' mean median;
//! * checks: every iteration's output equals the first one's, and the
//!   text at `--jobs 1` equals the text at the benchmark's jobs count on a
//!   short slice.

use std::sync::Arc;
use std::time::Instant;

use fetchvp_experiments::{
    fig3_1, fig3_3, fig3_4, fig3_5, fig5_1, fig5_2, fig5_3, table3_1, table3_2, ExperimentConfig,
    Sweep, Table,
};
use fetchvp_metrics::Json;
use fetchvp_workloads::{extended_suite, WorkloadParams};

use crate::probes::{self, Layers};
use crate::replay;
use crate::spans::{SpanId, Spans, UNTRACED};
use crate::util::{digest, median, peak_rss_mib, percentile, secs, warm_burst, Metrics};
use crate::{Ctx, Outcome};

/// The experiments of `fetchvp all`, in its order.
const EXPERIMENTS: [&str; 9] =
    ["table3-1", "fig3-1", "table3-2", "fig3-3", "fig3-4", "fig3-5", "fig5-1", "fig5-2", "fig5-3"];

/// Dynamic instructions per workload trace.
const TRACE_LEN: u64 = 300_000;
/// Trace length of the `--jobs 1` versus `--jobs N` check.
const CHECK_LEN: u64 = 20_000;
/// Cache fills per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 25;
/// Warm operations per iteration and sweep worker: each prints the nine
/// finished figures to text without simulating. Every operation does the
/// same work, so their median does not depend on which figure a sample
/// happened to render.
const WARM_OPS: usize = 250;

/// One finished experiment: how to render it, and its exact statistics.
struct Computed {
    render: Box<dyn Fn() -> Table + Send + Sync>,
    stats: Box<dyn Fn() -> String + Send + Sync>,
}

macro_rules! computed {
    ($result:expr) => {{
        let result = Arc::new($result);
        let same = Arc::clone(&result);
        Computed {
            render: Box::new(move || result.to_table()),
            stats: Box::new(move || format!("{same:?}")),
        }
    }};
}

fn compute(name: &str, sweep: &Sweep) -> Computed {
    match name {
        "table3-1" => computed!(table3_1::run_with(sweep)),
        "fig3-1" => computed!(fig3_1::run_with(sweep)),
        "table3-2" => computed!(table3_2::run()),
        "fig3-3" => computed!(fig3_3::run_with(sweep)),
        "fig3-4" => computed!(fig3_4::run_with(sweep)),
        "fig3-5" => computed!(fig3_5::run_with(sweep)),
        "fig5-1" => computed!(fig5_1::run_with(sweep)),
        "fig5-2" => computed!(fig5_2::run_with(sweep)),
        "fig5-3" => computed!(fig5_3::run_with(sweep)),
        other => unreachable!("`{other}` is not one of the nine experiments"),
    }
}

/// One pass over the nine experiments.
struct Iteration {
    /// Seconds of the nine runs and renders.
    wall: f64,
    /// Per experiment: seconds of `run_with`.
    run_s: Vec<f64>,
    /// Per experiment: seconds of `to_table`.
    render_s: Vec<f64>,
    /// The text `fetchvp all` prints.
    text: String,
    /// Per experiment: digest of its exact statistics and text.
    digests: Vec<u64>,
    computed: Vec<Computed>,
}

fn iterate(sweep: &Sweep, spans: &Spans, parent: SpanId) -> Iteration {
    let mut it = Iteration {
        wall: 0.0,
        run_s: Vec::new(),
        render_s: Vec::new(),
        text: String::new(),
        digests: Vec::new(),
        computed: Vec::new(),
    };
    let mut tables = Vec::new();
    let started = Instant::now();
    for name in EXPERIMENTS {
        let t = Instant::now();
        let c = spans.scope(&format!("experiments.{name}"), parent, |_| compute(name, sweep));
        it.run_s.push(secs(t));
        let t = Instant::now();
        let table = spans.scope("experiments.render", parent, |_| (c.render)());
        it.render_s.push(secs(t));
        it.text.push_str(&format!("{table}\n"));
        tables.push(table);
        it.computed.push(c);
    }
    it.wall = secs(started);
    for (c, table) in it.computed.iter().zip(&tables) {
        let stats = (c.stats)();
        it.digests.push(digest([stats.as_bytes(), table.to_string().as_bytes()]));
    }
    it
}

/// Fills a fresh sweep's trace cache with all nine traces.
fn fill(cfg: &ExperimentConfig, jobs: usize, spans: &Spans, parent: SpanId) -> (f64, Sweep) {
    let sweep = Sweep::with_jobs(cfg, jobs);
    let t = Instant::now();
    spans.scope("trace.fill", parent, |_| sweep.cells_extended(&[()], |_, trace, ()| trace.len()));
    (secs(t), sweep)
}

/// The timed phase: iterations until `seconds` have passed.
struct Timed {
    walls: Vec<f64>,
    /// Per experiment: milliseconds of each run plus render.
    cold_ms: Vec<Vec<f64>>,
    /// Every warm operation's milliseconds, and each burst's typical
    /// milliseconds (see [`warm_burst`]).
    warm_ms: Vec<f64>,
    warm_bursts: Vec<f64>,
    run_s: Vec<Vec<f64>>,
    render_s: Vec<f64>,
    digests: Vec<Vec<u64>>,
}

fn timed(sweep: &Sweep, seconds: f64, spans: &Spans, parent: SpanId) -> Timed {
    let mut out = Timed {
        walls: Vec::new(),
        cold_ms: vec![Vec::new(); EXPERIMENTS.len()],
        warm_ms: Vec::new(),
        warm_bursts: Vec::new(),
        run_s: vec![Vec::new(); EXPERIMENTS.len()],
        render_s: Vec::new(),
        digests: Vec::new(),
    };
    let started = Instant::now();
    while out.walls.is_empty() || secs(started) < seconds {
        let it = iterate(sweep, spans, parent);
        out.walls.push(it.wall);
        for (k, (&run, &render)) in it.run_s.iter().zip(&it.render_s).enumerate() {
            out.cold_ms[k].push((run + render) * 1e3);
            out.run_s[k].push(run);
        }
        out.render_s.push(it.render_s.iter().sum());
        let print_all = || {
            for c in &it.computed {
                std::hint::black_box((c.render)().to_string());
            }
        };
        let burst = spans.scope("experiments.render.warm", parent, |_| {
            warm_burst(sweep.jobs(), WARM_OPS, print_all, &mut out.warm_ms)
        });
        out.warm_bursts.push(burst);
        out.digests.push(it.digests);
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let trace_len = if ctx.smoke { 4_000 } else { TRACE_LEN };
    let check_len = if ctx.smoke { 2_000 } else { CHECK_LEN };
    let repeats = if ctx.smoke { 1 } else { SETUP_REPEATS };
    let cfg = ExperimentConfig {
        trace_len,
        workloads: WorkloadParams { seed: ctx.seed, ..WorkloadParams::default() },
    };
    let mut m = Metrics::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let (fill_s, sweep) = spans.scope("setup", None, |top| {
        let mut times = Vec::new();
        let mut sweep = None;
        for _ in 0..repeats {
            drop(sweep.take());
            let (t, s) = fill(&cfg, ctx.jobs, spans, top);
            times.push(t);
            sweep = Some(s);
        }
        (times, sweep.expect("at least one fill"))
    });
    let setup_s = median(&fill_s);

    let untraced_wall = if ctx.traced {
        let off = Spans::new(false);
        let t = spans.scope(UNTRACED, None, |_| timed(&sweep, ctx.seconds, &off, None));
        Some(median(&t.walls))
    } else {
        None
    };
    let t = spans.scope("timed", None, |top| timed(&sweep, ctx.seconds, spans, top));
    let peak = peak_rss_mib("self")?;

    // Output checks: every iteration simulated exactly what the first did.
    let first = t.digests[0].clone();
    for d in &t.digests {
        attempted += d.len() as u64;
        failed += d.iter().zip(&first).filter(|(a, b)| a != b).count() as u64;
    }
    let jobs_check = spans.scope("checks", None, |top| {
        let small = ExperimentConfig { trace_len: check_len, ..cfg };
        let serial = iterate(&Sweep::with_jobs(&small, 1), spans, top).text;
        let parallel = iterate(&Sweep::with_jobs(&small, ctx.jobs.max(2)), spans, top).text;
        serial == parallel
    });
    attempted += 1;
    let mut notes = Vec::new();
    if !jobs_check {
        failed += 1;
        notes.push("figure text differs between --jobs 1 and the benchmark's jobs count".into());
    }

    let wall = median(&t.walls);
    m.insert("wall_s".into(), wall);
    m.insert("setup_s".into(), setup_s);
    m.insert("peak_rss_mib".into(), peak);
    let latencies: Vec<f64> = t.cold_ms.iter().map(|v| median(v)).collect();
    m.insert("cold_p50_ms".into(), median(&latencies));
    m.insert("cold_p90_ms".into(), percentile(&latencies, 0.9));
    m.insert("warm_p50_ms".into(), median(&t.warm_bursts));
    m.insert("warm_p99_ms".into(), percentile(&t.warm_ms, 0.99));
    notes.push(format!(
        "{} iterations, {} cold and {} warm operations",
        t.walls.len(),
        t.walls.len() * EXPERIMENTS.len(),
        t.warm_ms.len()
    ));

    if ctx.traced {
        spans.scope("probes", None, |top| {
            let traces: Vec<_> = (0..EXPERIMENTS.len()).map(|i| sweep.cache().trace(i)).collect();
            let instructions: u64 = traces.iter().map(|t| t.len() as u64).sum();
            m.insert("trace.gen_s".into(), setup_s);
            m.insert("trace.gen_mips".into(), instructions as f64 / setup_s / 1e6);
            m.insert("trace.instructions".into(), instructions as f64);
            probes::kernel(spans, top, &traces, Layers { realistic: true, dfg: true }, &mut m);
        });
        let mismatches = spans
            .scope("probes.out_of_core", None, |top| replay::probe(ctx, spans, top, &mut m))?;
        attempted += extended_suite(&cfg.workloads).len() as u64;
        for name in mismatches {
            failed += 1;
            notes.push(format!(
                "{name}: store replay differs from in-memory run_batch on the prefix"
            ));
        }
        for (k, name) in EXPERIMENTS.iter().enumerate() {
            m.insert(format!("experiments.{name}_s"), median(&t.run_s[k]));
        }
        m.insert("experiments.render_s".into(), median(&t.render_s));
        if let Some(untraced) = untraced_wall {
            m.insert("trace.overhead_frac".into(), wall / untraced - 1.0);
        }
        probes::zero_missing(&mut m, &BYPASSED);
    }

    let bytes: Vec<[u8; 8]> = first.iter().map(|d| d.to_le_bytes()).collect();
    let sim_digest = digest(bytes.iter().map(|b| &b[..]));
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        sim_digest,
        params: vec![
            ("trace_len".to_string(), Json::UInt(trace_len)),
            ("check_len".to_string(), Json::UInt(check_len)),
            ("ooc_trace_len".to_string(), Json::UInt(replay::TRACE_LEN)),
            ("ooc_prefix_len".to_string(), Json::UInt(replay::PREFIX_LEN)),
            ("setup_repeats".to_string(), Json::UInt(repeats as u64)),
            ("warm_ops".to_string(), Json::UInt(WARM_OPS as u64)),
        ],
        invalid: None,
        notes,
    })
}

/// Layer metrics this workload bypasses: reported as 0.
const BYPASSED: [&str; 11] = [
    "server.accept_ms",
    "server.queue_wait_ms",
    "server.run_ms",
    "server.result_cache.hit_ratio",
    "server.rejected_503",
    "server.http.parse_us",
    "server.jobspec.validate_us",
    "server.result_cache.get_us",
    "loadgen.late_starts",
    "loadgen.max_lag_ms",
    "trace.overhead_frac",
];
