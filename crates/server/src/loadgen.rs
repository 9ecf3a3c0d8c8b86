//! `fetchvp loadgen` — an open-loop load generator for a serving fleet.
//!
//! The generator fires `rps × duration` POST `/run` requests, paced on a
//! fixed schedule (request *k* is due at `start + k/rps`) that does
//! **not** slow down when the server does — open-loop load, so a
//! saturated fleet shows up as climbing latency and `503`s instead of a
//! silently reduced request rate. A shared atomic ticket counter hands
//! out schedule slots to a small pool of sender threads; per-thread
//! latency histograms ([`fetchvp_metrics::Histogram`], the same log2
//! buckets and exact quantile ranks the daemon itself uses) are merged
//! into one report at the end.
//!
//! The open-loop guarantee is only as strong as the sender pool: each
//! sender blocks on its in-flight request, so if a stalled server ties
//! up every sender the fixed schedule slips. Rather than pretend that
//! can't happen, the generator *measures* it — every request records
//! how late it started relative to its slot's due time, and the report
//! carries `late_starts` (requests that began more than 1 ms late) and
//! `max_start_lag_us`. A report with materially non-zero slip means the
//! offered rate was lower than configured and the run should be read
//! accordingly.
//!
//! Requests round-robin across `targets` and across the spec mix, so a
//! two-process fleet driven with the default mix exercises cache misses
//! (first occurrence of each spec), cache hits (every repeat) and
//! cross-member routing in one run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fetchvp_experiments::JobSpec;
use fetchvp_metrics::{Histogram, Json};

use crate::http::client::{self, Timeouts};

/// The default spec mix: small deterministic table experiments, distinct
/// enough to spread across a fleet's hash ring, repeated enough that a
/// warm run is dominated by result-cache hits.
pub const DEFAULT_SPEC_MIX: &[&str] = &[
    r#"{"experiment": "table3-1", "trace_len": 1000}"#,
    r#"{"experiment": "accuracy", "trace_len": 1000}"#,
    r#"{"experiment": "table3-1", "trace_len": 2000}"#,
    r#"{"experiment": "breakdown", "trace_len": 1000}"#,
];

/// What to drive and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// `host:port` targets, round-robined per request.
    pub targets: Vec<String>,
    /// Offered request rate across all targets.
    pub rps: u64,
    /// How long to sustain it.
    pub duration: Duration,
    /// JSON job-spec bodies, round-robined per request.
    pub specs: Vec<String>,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            targets: vec!["127.0.0.1:7998".to_string()],
            rps: 1000,
            duration: Duration::from_secs(5),
            specs: DEFAULT_SPEC_MIX.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// What a finished run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests attempted (the full schedule).
    pub sent: u64,
    /// `2xx` responses.
    pub ok: u64,
    /// Transport failures (connect/read/write errors).
    pub errors: u64,
    /// Wall-clock of the whole run.
    pub wall: Duration,
    /// Per-request latency in microseconds, connect to last byte.
    pub latency_us: Histogram,
    /// Response counts by HTTP status.
    pub statuses: BTreeMap<u16, u64>,
    /// Requests that started more than 1 ms after their schedule slot
    /// was due — the senders could not keep the open-loop pace.
    pub late_starts: u64,
    /// The worst observed start lag in microseconds.
    pub max_start_lag_us: u64,
    /// Latency histograms per response class (see [`status_class`]):
    /// `proxied` hops carry an extra fleet round-trip, `2xx` is the
    /// local fast path, `503` the backpressure path — mixing them into
    /// one quantile hides exactly the differences a fleet operator is
    /// looking for.
    pub by_class: BTreeMap<String, Histogram>,
}

/// The report class of one response. Proxied responses (the
/// `X-Fetchvp-Proxied` relay header) class first regardless of status —
/// their latency includes the extra hop — then `2xx`, the `503`
/// backpressure path, and `other`.
pub fn status_class(status: u16, proxied: bool) -> &'static str {
    if proxied {
        "proxied"
    } else if (200..300).contains(&status) {
        "2xx"
    } else if status == 503 {
        "503"
    } else {
        "other"
    }
}

/// A latency histogram as the JSON quantile object the report embeds.
fn histogram_json(h: &Histogram) -> Json {
    Json::object([
        ("count".to_string(), Json::UInt(h.count())),
        ("mean".to_string(), Json::Float(h.mean())),
        ("p50".to_string(), Json::UInt(h.p50())),
        ("p95".to_string(), Json::UInt(h.p95())),
        ("p99".to_string(), Json::UInt(h.p99())),
    ])
}

impl LoadgenReport {
    /// Completed-OK requests per wall-clock second.
    pub fn achieved_rps(&self) -> f64 {
        if self.wall.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / self.wall.as_secs_f64()
    }

    /// The report as JSON — what `--out` writes and the smoke gate
    /// parses.
    pub fn to_json(&self) -> Json {
        let statuses = self
            .statuses
            .iter()
            .map(|(status, count)| (status.to_string(), Json::UInt(*count)))
            .collect::<Vec<_>>();
        Json::object([
            ("sent".to_string(), Json::UInt(self.sent)),
            ("ok".to_string(), Json::UInt(self.ok)),
            ("errors".to_string(), Json::UInt(self.errors)),
            ("wall_seconds".to_string(), Json::Float(self.wall.as_secs_f64())),
            ("achieved_rps".to_string(), Json::Float(self.achieved_rps())),
            ("latency_us".to_string(), histogram_json(&self.latency_us)),
            (
                "by_class".to_string(),
                Json::object(
                    self.by_class
                        .iter()
                        .map(|(class, h)| (class.clone(), histogram_json(h)))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("statuses".to_string(), Json::object(statuses)),
            ("late_starts".to_string(), Json::UInt(self.late_starts)),
            ("max_start_lag_us".to_string(), Json::UInt(self.max_start_lag_us)),
        ])
    }

    /// A human-readable summary for the terminal.
    pub fn render(&self) -> String {
        let statuses = self
            .statuses
            .iter()
            .map(|(status, count)| format!("{status}x{count}"))
            .collect::<Vec<_>>()
            .join(" ");
        let mut text = format!(
            "loadgen: {}/{} ok ({} transport errors) in {:.2}s -> {:.1} rps\n\
             latency_us: p50={} p95={} p99={} mean={:.0}\n\
             statuses: {}\n\
             schedule: {} late starts, max start lag {} us",
            self.ok,
            self.sent,
            self.errors,
            self.wall.as_secs_f64(),
            self.achieved_rps(),
            self.latency_us.p50(),
            self.latency_us.p95(),
            self.latency_us.p99(),
            self.latency_us.mean(),
            if statuses.is_empty() { "none".to_string() } else { statuses },
            self.late_starts,
            self.max_start_lag_us,
        );
        for (class, h) in &self.by_class {
            text.push_str(&format!(
                "\n  {class}: n={} p50={} p95={} p99={}",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        text
    }
}

/// One sender thread's tallies, merged after join.
#[derive(Default)]
struct ThreadTally {
    sent: u64,
    ok: u64,
    errors: u64,
    latency_us: Histogram,
    statuses: BTreeMap<u16, u64>,
    late_starts: u64,
    max_start_lag_us: u64,
    by_class: BTreeMap<&'static str, Histogram>,
}

/// Drives the configured load and blocks until the schedule is spent.
///
/// # Errors
///
/// Errors on an empty target/spec list, a zero rate or duration, or a
/// spec that fails [`JobSpec`] validation — a load test full of `400`s
/// measures the error path, which is never what was asked for.
pub fn run(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if opts.targets.is_empty() {
        return Err("loadgen needs at least one target address".to_string());
    }
    if opts.specs.is_empty() {
        return Err("loadgen needs at least one job spec".to_string());
    }
    if opts.rps == 0 {
        return Err("--rps must be at least 1".to_string());
    }
    if opts.duration.is_zero() {
        return Err("--duration must be at least 1 second".to_string());
    }
    for spec in &opts.specs {
        let doc = Json::parse(spec).map_err(|e| format!("spec `{spec}`: {e}"))?;
        JobSpec::from_json_with_limits(&doc, true).map_err(|e| format!("spec `{spec}`: {e}"))?;
    }
    let total = ((opts.rps as u128 * opts.duration.as_millis()) / 1000).max(1) as u64;
    // One sender covers ~50 rps of healthy traffic with plenty of
    // headroom; the cap keeps a huge --rps from spawning an unbounded
    // thread herd. If the server stalls hard enough to tie up the whole
    // pool anyway, the slip shows up as `late_starts` in the report
    // rather than silently shrinking the offered rate.
    let senders = (opts.rps / 50).clamp(2, 32) as usize;
    let ticket = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..senders)
        .map(|i| {
            let ticket = Arc::clone(&ticket);
            let opts = opts.clone();
            std::thread::Builder::new()
                .name(format!("fetchvp-loadgen-{i}"))
                .spawn(move || sender_loop(&opts, &ticket, start, total))
                .map_err(|e| format!("spawn loadgen sender: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut report = LoadgenReport {
        sent: 0,
        ok: 0,
        errors: 0,
        wall: Duration::ZERO,
        latency_us: Histogram::new(),
        statuses: BTreeMap::new(),
        late_starts: 0,
        max_start_lag_us: 0,
        by_class: BTreeMap::new(),
    };
    for thread in threads {
        let tally = thread.join().map_err(|_| "loadgen sender panicked".to_string())?;
        report.sent += tally.sent;
        report.ok += tally.ok;
        report.errors += tally.errors;
        report.latency_us.merge(&tally.latency_us);
        for (status, count) in tally.statuses {
            *report.statuses.entry(status).or_insert(0) += count;
        }
        report.late_starts += tally.late_starts;
        report.max_start_lag_us = report.max_start_lag_us.max(tally.max_start_lag_us);
        for (class, h) in tally.by_class {
            report.by_class.entry(class.to_string()).or_default().merge(&h);
        }
    }
    report.wall = start.elapsed();
    Ok(report)
}

/// Claims schedule slots until the run is over, pacing each request to
/// its due time.
fn sender_loop(
    opts: &LoadgenOptions,
    ticket: &AtomicU64,
    start: Instant,
    total: u64,
) -> ThreadTally {
    let mut tally = ThreadTally::default();
    loop {
        let slot = ticket.fetch_add(1, Ordering::Relaxed);
        if slot >= total {
            return tally;
        }
        let due = start + Duration::from_micros(slot.saturating_mul(1_000_000) / opts.rps);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let target = &opts.targets[(slot % opts.targets.len() as u64) as usize];
        let spec = &opts.specs[(slot % opts.specs.len() as u64) as usize];
        tally.sent += 1;
        let sent_at = Instant::now();
        let lag = sent_at.saturating_duration_since(due);
        if lag > Duration::from_millis(1) {
            tally.late_starts += 1;
        }
        tally.max_start_lag_us = tally.max_start_lag_us.max(lag.as_micros() as u64);
        match post_run(target, spec) {
            Ok((status, proxied)) => {
                let latency = sent_at.elapsed().as_micros() as u64;
                tally.latency_us.record(latency);
                tally.by_class.entry(status_class(status, proxied)).or_default().record(latency);
                *tally.statuses.entry(status).or_insert(0) += 1;
                if (200..300).contains(&status) {
                    tally.ok += 1;
                }
            }
            Err(_) => tally.errors += 1,
        }
    }
}

/// Per-request timeouts: a 1 s connect, then 5 s for each read or write.
const TIMEOUTS: Timeouts = Timeouts { connect: Duration::from_secs(1), io: Duration::from_secs(5) };

/// One `POST /run`, returning the response status and whether the
/// answer was relayed from another fleet member (the
/// `X-Fetchvp-Proxied` header).
fn post_run(target: &str, spec: &str) -> Result<(u16, bool), client::Error> {
    let headers = [("Content-Type", "application/json")];
    let reply = client::exchange(target, "POST", "/run", &headers, spec.as_bytes(), TIMEOUTS)?;
    Ok((reply.status, reply.header("x-fetchvp-proxied").is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_validated_before_any_socket_is_touched() {
        let no_targets = LoadgenOptions { targets: Vec::new(), ..LoadgenOptions::default() };
        assert!(run(&no_targets).unwrap_err().contains("target"));
        let no_specs = LoadgenOptions { specs: Vec::new(), ..LoadgenOptions::default() };
        assert!(run(&no_specs).unwrap_err().contains("spec"));
        let zero_rps = LoadgenOptions { rps: 0, ..LoadgenOptions::default() };
        assert!(run(&zero_rps).unwrap_err().contains("--rps"));
        let bad_spec = LoadgenOptions {
            specs: vec![r#"{"experiment": "fig9-9"}"#.to_string()],
            ..LoadgenOptions::default()
        };
        assert!(run(&bad_spec).unwrap_err().contains("unknown experiment"));
    }

    #[test]
    fn default_mix_passes_spec_validation() {
        for spec in DEFAULT_SPEC_MIX {
            let doc = Json::parse(spec).expect(spec);
            JobSpec::from_json(&doc).expect(spec);
        }
    }

    #[test]
    fn report_json_carries_the_gate_fields() {
        let mut report = LoadgenReport {
            sent: 10,
            ok: 9,
            errors: 1,
            wall: Duration::from_secs(2),
            latency_us: Histogram::new(),
            statuses: BTreeMap::from([(200, 9)]),
            late_starts: 3,
            max_start_lag_us: 2500,
            by_class: BTreeMap::new(),
        };
        report.latency_us.record(500);
        let mut fast = Histogram::new();
        fast.record(400);
        fast.record(600);
        report.by_class.insert("2xx".to_string(), fast);
        let mut slow = Histogram::new();
        slow.record(9000);
        report.by_class.insert("proxied".to_string(), slow);
        let doc = report.to_json();
        assert_eq!(doc.get("ok").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get_path("statuses.200").and_then(Json::as_u64), Some(9));
        assert!(doc.get_path("latency_us.p99").and_then(Json::as_u64).is_some());
        let rps = doc.get("achieved_rps").and_then(Json::as_f64).unwrap();
        assert!((rps - 4.5).abs() < 1e-9, "{rps}");
        assert_eq!(doc.get("late_starts").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("max_start_lag_us").and_then(Json::as_u64), Some(2500));
        assert_eq!(doc.get_path("by_class.2xx.count").and_then(Json::as_u64), Some(2));
        assert!(doc.get_path("by_class.proxied.p99").and_then(Json::as_u64).is_some());
        assert!(report.render().contains("p99="));
        assert!(report.render().contains("3 late starts"));
        assert!(report.render().contains("proxied: n=1"));
    }

    #[test]
    fn response_classes_keep_the_interesting_paths_apart() {
        assert_eq!(status_class(200, false), "2xx");
        assert_eq!(status_class(202, false), "2xx");
        assert_eq!(status_class(503, false), "503");
        assert_eq!(status_class(404, false), "other");
        // The relay hop dominates the latency, whatever the status was.
        assert_eq!(status_class(200, true), "proxied");
        assert_eq!(status_class(503, true), "proxied");
    }
}
