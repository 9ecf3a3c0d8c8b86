//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer: a name (`<crate>.<what>`), a start
//! and end offset from the run's origin, the span that caused it, and an
//! optional request id shared by every span of one served request. Spans
//! are kept in memory while the run executes and written out once, as
//! Chrome trace-event JSON (loadable in Perfetto), when it ends.
//!
//! Untraced runs construct a disabled recorder: every call is a single
//! branch, so the end-to-end metrics are measured without it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fetchvp_metrics::Json;

/// Identifies a recorded span; the root (no parent) is `None`.
pub type SpanId = Option<u64>;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: SpanId,
    name: String,
    start_ns: u64,
    end_ns: u64,
    request: Option<u64>,
}

/// The recorder. Shared by reference across the run's threads.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// The layers whose self time the traced run reports: a span named
/// `<layer>.<what>` belongs to `<layer>`; every other span (the
/// benchmark's own phases) belongs to `harness`.
pub const LAYERS: &[&str] = &[
    "harness",
    "trace",
    "tracestore",
    "core",
    "fetch",
    "bpred",
    "predictor",
    "dfg",
    "experiments",
    "metrics",
    "server",
];

/// The top-level span around the traced run's untraced pass over the
/// timed phase (the reference for `trace.overhead_frac`). It has no
/// children, so it counts towards coverage but not towards any layer's
/// self time.
pub const UNTRACED: &str = "timed.untraced";

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn scope<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.push(Span { id, parent, name: name.to_string(), start_ns, end_ns, request: None });
        out
    }

    /// Records a span whose interval was measured by the caller (e.g. a
    /// request observed from its due time).
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            request,
        });
    }

    fn push(&self, span: Span) {
        self.done.lock().expect("span recorder poisoned by a panicking thread").push(span);
    }

    fn snapshot(&self) -> Vec<Span> {
        self.done.lock().expect("span recorder poisoned by a panicking thread").clone()
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of its interval its children cover, summed by layer. Every
    /// layer of [`LAYERS`] is present (0 when it recorded nothing).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.snapshot();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in spans.iter().filter(|s| s.name != UNTRACED) {
            let covered = children.get(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.get_mut(layer_of(&s.name)).expect("every layer is pre-seeded") +=
                own as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by the union of top-level (parentless) spans.
    pub fn top_level_s(&self) -> f64 {
        let spans = self.snapshot();
        let top: Vec<(u64, u64)> =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_ns, s.end_ns)).collect();
        union_within(&top, 0, u64::MAX) as f64 * 1e-9
    }

    /// Writes every span as Chrome trace-event JSON. Spans of one request
    /// share a track (`tid` = request id); the rest sit on track 0.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let events: Vec<Json> = spans
            .iter()
            .map(|s| {
                let mut args = vec![("id".to_string(), Json::UInt(s.id))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::UInt(p)));
                }
                if let Some(r) = s.request {
                    args.push(("request".to_string(), Json::UInt(r)));
                }
                Json::object([
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), Json::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Json::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Json::UInt(1)),
                    ("tid".to_string(), Json::UInt(s.request.unwrap_or(0))),
                    ("args".to_string(), Json::object(args)),
                ])
            })
            .collect();
        let doc = Json::object([("traceEvents".to_string(), Json::Array(events))]);
        std::fs::write(path, doc.to_json() + "\n")
    }
}

/// The layer a span name belongs to (see [`LAYERS`]).
fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or("");
    LAYERS.iter().find(|&&l| l == head && l != "harness").copied().unwrap_or("harness")
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(union_within(&[(0, 10), (5, 20)], 8, 12), 4);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::new(true);
        spans.scope("timed", None, |top| {
            spans.scope("experiments.fig3-1", top, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = spans.self_times();
        assert!(st["experiments"] >= 0.019, "{st:?}");
        assert!(st["harness"] < st["experiments"], "{st:?}");
        assert!(spans.top_level_s() >= 0.019);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        spans.scope("core.x", None, |id| assert_eq!(id, None));
        assert_eq!(spans.top_level_s(), 0.0);
    }
}
