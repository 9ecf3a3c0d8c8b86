//! The out-of-core replay path, probed by the traced run of
//! `figures_inmem`: the `usefulness` sweep (ideal machines only) at a
//! trace length above `MAX_IN_MEMORY_TRACE_LEN`, replayed chunk by chunk
//! from a `TraceDir` through `run_batch_store`.
//!
//! This is the bounded-heap path users run at paper scale. No workload
//! times it end to end: as a workload of its own (`replay_ooc`) its
//! run-to-run spread on a small shared host stayed above the regression
//! bound (see `perfbench/README.md`). The probe still measures both sides
//! of `tracestore`: generating the stores cold (the write path) and
//! replaying them from the warm directory (the read path), so a change
//! that trades encode cost for decode cost shows in the layer metrics.
//!
//! * write: generate all nine stores into a fresh directory;
//! * read: one usefulness sweep from the warm directory, a decode-only
//!   pass over every chunk, and `run_batch_store` over every store;
//! * check: on a prefix that fits in memory, store replay equals
//!   in-memory `run_batch` for every workload.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fetchvp_core::{run_batch, IdealConfig, MachineConfig, VpConfig};
use fetchvp_experiments::usefulness::{self, NARROW_FETCH, WIDE_FETCH};
use fetchvp_experiments::{ExperimentConfig, Sweep, MAX_IN_MEMORY_TRACE_LEN};
use fetchvp_trace::trace_program;
use fetchvp_tracestore::{run_batch_store, stream_program_to_store, TraceDir, TraceStore};
use fetchvp_workloads::{extended_suite, WorkloadParams};

use crate::spans::{SpanId, Spans};
use crate::util::{secs, Metrics};
use crate::Ctx;

/// Dynamic instructions per workload: just past the in-memory limit, so
/// every workload replays out of core.
pub const TRACE_LEN: u64 = MAX_IN_MEMORY_TRACE_LEN + 400_000;
/// Prefix length of the store-versus-memory check, and its chunk length
/// (small, so the prefix spans several chunks).
pub const PREFIX_LEN: u64 = 300_000;
const PREFIX_CHUNK: usize = 100_000;

/// The usefulness sweep's machine configurations (ideal, stride VP).
fn configs() -> [MachineConfig; 2] {
    [NARROW_FETCH, WIDE_FETCH].map(|rate| {
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: rate,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
    })
}

/// Probes the out-of-core path on the workload seed's inputs, filling
/// the `tracestore.*`, `core.replay_s` and `experiments.usefulness_s`
/// metrics. Returns the workloads whose store replay differs from
/// in-memory `run_batch` on the prefix.
pub fn probe(
    ctx: &Ctx,
    spans: &Spans,
    parent: SpanId,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let cfg = ExperimentConfig {
        trace_len: TRACE_LEN,
        workloads: WorkloadParams { seed: ctx.seed, ..WorkloadParams::default() },
    };
    let dir = ctx.work.join("stores");
    let _ = std::fs::remove_dir_all(&dir);

    let trace_dir = Arc::new(TraceDir::new(&dir));
    let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&trace_dir)), ctx.jobs);
    let t = Instant::now();
    spans.scope("tracestore.generate", parent, |_| {
        sweep.per_workload_store_extended(|_, store| store.len())
    });
    let write_s = secs(t);
    let written = trace_dir.counters();
    let instructions = TRACE_LEN * extended_suite(&cfg.workloads).len() as u64;
    m.insert("tracestore.write_s".into(), write_s);
    m.insert("tracestore.bytes_per_instr".into(), written.bytes as f64 / instructions as f64);
    m.insert("tracestore.dir_misses".into(), written.misses as f64);

    let warm_dir = Arc::new(TraceDir::new(&dir));
    let warm = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&warm_dir)), ctx.jobs);
    let t = Instant::now();
    spans.scope("experiments.usefulness", parent, |_| usefulness::run_with(&warm));
    m.insert("experiments.usefulness_s".into(), secs(t));
    m.insert("tracestore.dir_hits".into(), warm_dir.counters().hits as f64);

    store_probes(&cfg, &dir, spans, parent, m)?;
    let mismatches = spans.scope("checks", parent, |_| prefix_check(ctx, &cfg));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(mismatches)
}

/// Decode-only and replay passes over the warm stores.
fn store_probes(
    cfg: &ExperimentConfig,
    dir: &Path,
    spans: &Spans,
    parent: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let trace_dir = TraceDir::new(dir);
    let sweep = Sweep::with_trace_dir(cfg, None, 1);
    let stores: Vec<TraceStore> = (0..sweep.cache().workloads(true).len())
        .map(|i| {
            TraceStore::open(trace_dir.path_for(&sweep.cache().key(i)))
                .map_err(|e| format!("cannot open a warm store: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let (mut decoded, mut chunks) = (0u64, 0u64);
    let t = Instant::now();
    spans.scope("tracestore.decode", parent, |_| -> Result<(), String> {
        for store in &stores {
            let mut cursor = store.cursor().map_err(|e| e.to_string())?;
            for (k, meta) in store.chunks().iter().enumerate() {
                cursor.load_window(k, meta.start + meta.len as u64).map_err(|e| e.to_string())?;
                decoded += meta.len as u64;
                chunks += 1;
            }
        }
        Ok(())
    })?;
    let decode_s = secs(t);
    m.insert("tracestore.decode_s".into(), decode_s);
    m.insert("tracestore.decode_mips".into(), decoded as f64 / decode_s / 1e6);
    m.insert("tracestore.chunks".into(), chunks as f64);
    let t = Instant::now();
    spans.scope("core.run_batch_store", parent, |_| -> Result<(), String> {
        for store in &stores {
            std::hint::black_box(run_batch_store(store, &configs()).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    m.insert("core.replay_s".into(), secs(t));
    Ok(())
}

/// Store replay versus in-memory `run_batch` on a prefix of every
/// workload; returns the workloads that differ.
fn prefix_check(ctx: &Ctx, cfg: &ExperimentConfig) -> Vec<String> {
    let configs = configs();
    let mut bad = Vec::new();
    for w in extended_suite(&cfg.workloads) {
        let in_memory = run_batch(&trace_program(w.program(), PREFIX_LEN), &configs);
        let path = ctx.work.join(format!("prefix-{}.fvps", w.name()));
        let replayed = File::create(&path)
            .and_then(|f| {
                stream_program_to_store(
                    w.program(),
                    w.name(),
                    PREFIX_LEN,
                    PREFIX_CHUNK,
                    BufWriter::new(f),
                )
            })
            .and_then(|_| TraceStore::open(&path))
            .and_then(|store| run_batch_store(&store, &configs));
        if replayed.ok().as_ref() != Some(&in_memory) {
            bad.push(w.name().to_string());
        }
        let _ = std::fs::remove_file(&path);
    }
    bad
}
