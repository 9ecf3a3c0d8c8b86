//! Per-layer probes of the traced run: timed calls into each crate's
//! public functions on the workload's own traces.
//!
//! The batch kernel is split by configuration class from outside: one
//! `run_batch` call per class, so subtracting one class's cost per slot
//! from another's gives a layer's in-kernel cost without copying loops.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fetchvp_bpred::{BranchPredictor, TwoLevelBtb};
use fetchvp_core::{
    run_batch, BtbKind, FrontEnd, IdealConfig, MachineConfig, MachineResult, RealisticConfig,
    VpConfig,
};
use fetchvp_dfg::DidAnalyzer;
use fetchvp_fetch::{
    BacConfig, BacFetch, ConventionalFetch, FetchEngine, TraceCacheConfig, TraceCacheFetch,
};
use fetchvp_metrics::Json;
use fetchvp_predictor::{BankedConfig, BankedFrontEnd, SlotGrant, StridePredictor, ValuePredictor};
use fetchvp_trace::Trace;

use crate::spans::{SpanId, Spans};
use crate::util::{median, ratio, Metrics};

/// Fetch width of the front-end probes (the paper's widest machine).
const FETCH_WIDTH: usize = 40;

/// Slots per fetch group presented to the banked router probe.
const BANK_GROUP: usize = 16;

/// Repetitions of the microsecond-scale probes (metrics snapshot and
/// JSON); the median is reported.
const MICRO_REPS: usize = 200;

/// Which layers a workload exercises, so bypassed layers stay at 0.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// Realistic machines: front ends, branch prediction, banked router.
    pub realistic: bool,
    /// Dataflow-graph analysis (the DID figures).
    pub dfg: bool,
}

/// The kernel configuration classes: `(metric infix, config, realistic)`.
fn classes() -> Vec<(&'static str, MachineConfig, bool)> {
    let vp = VpConfig::stride_infinite();
    let conv = FrontEnd::Conventional {
        width: FETCH_WIDTH,
        max_taken: Some(4),
        btb: BtbKind::two_level_paper(),
    };
    let bac = FrontEnd::BranchAddressCache {
        config: BacConfig::classic(),
        btb: BtbKind::two_level_paper(),
    };
    let tc =
        FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::two_level_paper() };
    let ideal = |vp| {
        MachineConfig::Ideal(IdealConfig { fetch_rate: FETCH_WIDTH, vp, ..IdealConfig::default() })
    };
    vec![
        ("ideal_novp", ideal(VpConfig::None), false),
        ("ideal_vp", ideal(vp), false),
        ("conv", MachineConfig::Realistic(RealisticConfig::paper(conv, vp)), true),
        (
            "conv_banked",
            MachineConfig::Realistic(
                RealisticConfig::paper(conv, vp).with_banked(BankedConfig::default()),
            ),
            true,
        ),
        ("bac", MachineConfig::Realistic(RealisticConfig::paper(bac, vp)), true),
        ("tc", MachineConfig::Realistic(RealisticConfig::paper(tc, vp)), true),
    ]
}

/// Runs every kernel-side probe over `traces` and records the `core.*`,
/// `fetch.*`, `bpred.*`, `predictor.*`, `dfg.*` and `metrics.*` metrics.
pub fn kernel(
    spans: &Spans,
    parent: SpanId,
    traces: &[Arc<Trace>],
    layers: Layers,
    m: &mut Metrics,
) {
    let slots_per_config: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut total_slots = 0u64;
    let mut vp_result: Option<MachineResult> = None;
    let mut useful = (0u64, 0u64);
    for (class, config, realistic) in classes() {
        let key = format!("core.{class}.ns_per_slot");
        if realistic && !layers.realistic {
            m.insert(key, 0.0);
            continue;
        }
        let t = Instant::now();
        let results: Vec<MachineResult> =
            spans.scope(&format!("core.run_batch.{class}"), parent, |_| {
                traces.iter().map(|trace| run_batch(trace, &[config]).remove(0)).collect()
            });
        m.insert(key, t.elapsed().as_secs_f64() * 1e9 / slots_per_config.max(1) as f64);
        total_slots += slots_per_config;
        if class == "ideal_vp" {
            for r in &results {
                useful.0 += r.usefulness.useful;
                useful.1 += r.vp_stats.as_ref().map_or(0, |s| s.correct);
            }
            vp_result = results.into_iter().next();
        }
    }
    m.insert("core.slots".into(), total_slots as f64);
    m.insert("predictor.useful_ratio".into(), ratio(useful.0 as f64, useful.1 as f64));

    if layers.realistic {
        fetch(spans, parent, traces, m);
        bpred(spans, parent, traces, m);
        banked(spans, parent, traces, m);
    } else {
        for key in [
            "fetch.conv.ns_per_group",
            "fetch.bac.ns_per_group",
            "fetch.tc.ns_per_group",
            "fetch.instrs_per_group",
            "fetch.trace_cache.hit_ratio",
            "bpred.two_level.ns_per_branch",
            "bpred.accuracy",
            "predictor.banked.ns_per_group",
            "predictor.banked.grant_ratio",
        ] {
            m.insert(key.into(), 0.0);
        }
    }
    stride(spans, parent, traces, m);
    let dfg_s = if layers.dfg {
        let t = Instant::now();
        spans.scope("dfg.analyze", parent, |_| {
            for trace in traces {
                let mut analyzer = DidAnalyzer::new();
                for slot in trace.view().slots() {
                    analyzer.feed(slot);
                }
                black_box(analyzer.finish());
            }
        });
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    m.insert("dfg.analyze_s".into(), dfg_s);
    if let Some(result) = vp_result {
        metrics_json(spans, parent, &result, m);
    }
}

/// Times `FetchEngine::fetch` walks of every trace at width 40.
fn fetch(spans: &Spans, parent: SpanId, traces: &[Arc<Trace>], m: &mut Metrics) {
    type Build = fn() -> Box<dyn FetchEngine>;
    let engines: [(&str, Build); 3] = [
        ("conv", || Box::new(ConventionalFetch::new(FETCH_WIDTH, Some(4), TwoLevelBtb::paper()))),
        ("bac", || Box::new(BacFetch::new(BacConfig::classic(), TwoLevelBtb::paper()))),
        ("tc", || Box::new(TraceCacheFetch::new(TraceCacheConfig::paper(), TwoLevelBtb::paper()))),
    ];
    for (name, build) in engines {
        let (mut secs, mut groups, mut instrs) = (0.0, 0u64, 0u64);
        let (mut hits, mut accesses) = (0u64, 0u64);
        spans.scope(&format!("fetch.walk.{name}"), parent, |_| {
            for trace in traces {
                let mut engine = build();
                let view = trace.view();
                let t = Instant::now();
                let mut pos = 0;
                while pos < view.len() {
                    let group = engine.fetch(view, pos, FETCH_WIDTH);
                    pos += group.len.max(1);
                    groups += 1;
                }
                secs += t.elapsed().as_secs_f64();
                instrs += view.len() as u64;
                if let Some(stats) = engine.trace_cache_stats() {
                    hits += stats.hits;
                    accesses += stats.accesses;
                }
            }
        });
        m.insert(format!("fetch.{name}.ns_per_group"), secs * 1e9 / groups.max(1) as f64);
        if name == "conv" {
            m.insert("fetch.instrs_per_group".into(), ratio(instrs as f64, groups as f64));
        }
        if name == "tc" {
            m.insert("fetch.trace_cache.hit_ratio".into(), ratio(hits as f64, accesses as f64));
        }
    }
}

/// Times the 2-level BTB's `predict` plus `update` on every control slot.
fn bpred(spans: &Spans, parent: SpanId, traces: &[Arc<Trace>], m: &mut Metrics) {
    let (mut secs, mut branches, mut correct) = (0.0, 0u64, 0u64);
    spans.scope("bpred.two_level", parent, |_| {
        for trace in traces {
            let mut btb = TwoLevelBtb::paper();
            let t = Instant::now();
            for slot in trace.view().slots() {
                if slot.is_control() {
                    black_box(btb.predict(slot));
                    btb.update(slot);
                }
            }
            secs += t.elapsed().as_secs_f64();
            let stats = btb.stats();
            branches += stats.predictions;
            correct += stats.correct;
        }
    });
    m.insert("bpred.two_level.ns_per_branch".into(), secs * 1e9 / branches.max(1) as f64);
    m.insert("bpred.accuracy".into(), ratio(correct as f64, branches as f64));
}

/// Times the §3 stride predictor's `lookup` plus `commit` on every
/// value-producing slot.
fn stride(spans: &Spans, parent: SpanId, traces: &[Arc<Trace>], m: &mut Metrics) {
    let (mut secs, mut lookups) = (0.0, 0u64);
    spans.scope("predictor.stride", parent, |_| {
        for trace in traces {
            let mut predictor = StridePredictor::infinite();
            let t = Instant::now();
            for slot in trace.view().slots() {
                if slot.produces_value() {
                    let predicted = predictor.lookup(slot.pc());
                    predictor.commit(slot.pc(), slot.result(), predicted);
                    lookups += 1;
                }
            }
            secs += t.elapsed().as_secs_f64();
        }
    });
    m.insert("predictor.stride.ns_per_lookup".into(), secs * 1e9 / lookups.max(1) as f64);
}

/// Times `BankedFrontEnd::predict_group` (plus the per-slot commits) on
/// the value-producing PCs of consecutive 16-slot groups.
fn banked(spans: &Spans, parent: SpanId, traces: &[Arc<Trace>], m: &mut Metrics) {
    let (mut secs, mut groups) = (0.0, 0u64);
    let (mut granted, mut slots) = (0u64, 0u64);
    spans.scope("predictor.banked", parent, |_| {
        for trace in traces {
            let view = trace.view();
            let mut front =
                BankedFrontEnd::new(BankedConfig::default(), StridePredictor::infinite());
            let mut pcs = Vec::with_capacity(BANK_GROUP);
            let mut values = Vec::with_capacity(BANK_GROUP);
            let mut start = 0;
            while start < view.len() {
                let end = (start + BANK_GROUP).min(view.len());
                pcs.clear();
                values.clear();
                for slot in view.slots_in(start..end) {
                    if slot.produces_value() {
                        pcs.push(slot.pc());
                        values.push(slot.result());
                    }
                }
                start = end;
                if pcs.is_empty() {
                    continue;
                }
                let t = Instant::now();
                let outcomes = front.predict_group(&pcs);
                for (outcome, &actual) in outcomes.iter().zip(&values) {
                    front.commit(outcome.pc, actual, outcome.prediction);
                }
                secs += t.elapsed().as_secs_f64();
                groups += 1;
                slots += outcomes.len() as u64;
                granted += outcomes.iter().filter(|o| o.grant == SlotGrant::Granted).count() as u64;
            }
        }
    });
    m.insert("predictor.banked.ns_per_group".into(), secs * 1e9 / groups.max(1) as f64);
    m.insert("predictor.banked.grant_ratio".into(), ratio(granted as f64, slots as f64));
}

/// Times `MachineResult::metrics`, `Json::to_json` and `Json::parse` on a
/// real result snapshot.
fn metrics_json(spans: &Spans, parent: SpanId, result: &MachineResult, m: &mut Metrics) {
    spans.scope("metrics.json", parent, |_| {
        let snap = micro(|| result.metrics());
        let doc = result.metrics().to_json();
        let enc = micro(|| doc.to_json());
        let text = doc.to_json();
        let dec = micro(|| Json::parse(&text).expect("a snapshot the encoder wrote parses back"));
        m.insert("metrics.snapshot_us".into(), snap);
        m.insert("metrics.json_encode_us".into(), enc);
        m.insert("metrics.json_parse_us".into(), dec);
    });
}

/// Median microseconds of `f` over [`MICRO_REPS`] calls.
pub fn micro<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut times = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Records 0 for every metric in `names` that is not yet set.
pub fn zero_missing(m: &mut Metrics, names: &[&str]) {
    for name in names {
        m.entry((*name).to_string()).or_insert(0.0);
    }
}
