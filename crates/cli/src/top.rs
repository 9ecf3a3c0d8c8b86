//! `fetchvp top` — a terminal dashboard over `GET /fleet/metrics`.
//!
//! One request per refresh: the target member fans the scrape out to its
//! peers and returns the merged snapshot (see `fetchvp-server`), so the
//! dashboard sees every member — including dead ones, which the merge
//! marks `down` — without knowing the fleet topology itself. Rendering
//! is a pure function of the merged document ([`render`]), which is what
//! the snapshot test pins; the fetch/clear/sleep loop around it is the
//! only impure part.
//!
//! Per member: request rate (served requests over uptime), job-queue
//! depth, result-cache hit rate and request-latency quantiles. Below
//! the member table, every live (non-terminal) job in the fleet with a
//! progress bar fed by the same totals that `GET /jobs/<id>/events`
//! streams.

use std::io::Write;
use std::time::Duration;

use fetchvp_metrics::Json;
use fetchvp_server::http::client::{self, Timeouts};

/// ANSI: clear the screen and home the cursor — the redraw between
/// refreshes.
const CLEAR: &str = "\x1b[2J\x1b[H";

/// How one `fetchvp top` invocation behaves.
pub struct TopOptions {
    /// The member to scrape (any member answers for the whole fleet).
    pub addr: String,
    /// Delay between refreshes.
    pub interval: Duration,
    /// Refresh count; `None` runs until interrupted.
    pub count: Option<u64>,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            addr: "127.0.0.1:7998".to_string(),
            interval: Duration::from_secs(2),
            count: None,
        }
    }
}

/// One blocking `GET /fleet/metrics` against `addr`, parsed.
fn fetch(addr: &str) -> Result<Json, String> {
    let timeouts = Timeouts { connect: Duration::from_secs(2), io: Duration::from_secs(5) };
    let reply = client::exchange(addr, "GET", "/fleet/metrics", &[], b"", timeouts)
        .map_err(|e| format!("{addr}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("{addr}: /fleet/metrics answered {}", reply.status));
    }
    Json::parse(&reply.body).map_err(|e| format!("{addr}: bad fleet snapshot: {e}"))
}

/// Sum of every counter under `prefix.` in a member document (e.g.
/// `server.requests` counts every endpoint/status cell).
fn counter_sum(member: &Json, prefix: &str) -> u64 {
    let Some(pairs) = member.get_path("metrics.counters").and_then(Json::as_object) else {
        return 0;
    };
    let dotted = format!("{prefix}.");
    pairs
        .iter()
        .filter(|(key, _)| key.starts_with(&dotted))
        .filter_map(|(_, value)| value.as_u64())
        .sum()
}

/// A named gauge from a member document.
fn gauge(member: &Json, key: &str) -> Option<f64> {
    member.get_path("metrics.gauges").and_then(|g| g.get(key)).and_then(Json::as_f64)
}

/// A request-latency quantile (`p50`/`p95`/`p99`) from a member
/// document, rendered as text (`-` when the member never served).
fn latency(member: &Json, quantile: &str) -> String {
    member
        .get_path("metrics.histograms")
        .and_then(|h| h.get("server.request_latency_us"))
        .and_then(|h| h.get(quantile))
        .and_then(Json::as_u64)
        .map(|v| v.to_string())
        .unwrap_or_else(|| "-".to_string())
}

/// A 20-cell progress bar for an integer percentage.
fn bar(percent: u64) -> String {
    let filled = (percent.min(100) / 5) as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(20 - filled))
}

/// One member's table row.
fn member_row(addr: &str, member: &Json) -> String {
    let status = member.get("status").and_then(Json::as_str).unwrap_or("?");
    if status == "down" {
        return format!(
            "{addr:<22} {status:<5} {:>7} {:>8} {:>6} {:>5} {:>7} {:>7} {:>7}",
            "-", "-", "-", "-", "-", "-", "-"
        );
    }
    let uptime = member.get("uptime_seconds").and_then(Json::as_u64).unwrap_or(0);
    let served = counter_sum(member, "server.requests");
    let rps = if uptime > 0 { served as f64 / uptime as f64 } else { 0.0 };
    let queue = gauge(member, "server.queue.depth").map(|d| d as u64).unwrap_or(0);
    let hit = {
        let hits = gauge(member, "server.result_cache.hits").unwrap_or(0.0)
            + gauge(member, "server.result_cache.disk_hits").unwrap_or(0.0);
        let misses = gauge(member, "server.result_cache.misses").unwrap_or(0.0);
        if hits + misses > 0.0 {
            format!("{:.0}", 100.0 * hits / (hits + misses))
        } else {
            "-".to_string()
        }
    };
    format!(
        "{addr:<22} {status:<5} {uptime:>6}s {rps:>8.1} {queue:>6} {hit:>5} {:>7} {:>7} {:>7}",
        latency(member, "p50"),
        latency(member, "p95"),
        latency(member, "p99"),
    )
}

/// One live job's line under the member table.
fn job_row(addr: &str, job: &Json) -> String {
    let id = job.get("job").and_then(Json::as_u64).unwrap_or(0);
    let status = job.get("status").and_then(Json::as_str).unwrap_or("?");
    let progress = job.get("progress");
    let phase = progress.and_then(|p| p.get("phase")).and_then(Json::as_str).unwrap_or(status);
    let percent = progress.and_then(|p| p.get("percent")).and_then(Json::as_u64).unwrap_or(0);
    let done =
        progress.and_then(|p| p.get("instructions_done")).and_then(Json::as_u64).unwrap_or(0);
    let total =
        progress.and_then(|p| p.get("instructions_total")).and_then(Json::as_u64).unwrap_or(0);
    let cells_done = progress.and_then(|p| p.get("cells_done")).and_then(Json::as_u64).unwrap_or(0);
    let cells_total =
        progress.and_then(|p| p.get("cells_total")).and_then(Json::as_u64).unwrap_or(0);
    format!(
        "  {addr} job {id} {phase:<8} {percent:>3}% {} {done}/{total} instr, \
         cells {cells_done}/{cells_total}",
        bar(percent)
    )
}

/// Renders one merged `/fleet/metrics` document as the dashboard text.
/// Pure and deterministic — the snapshot test feeds a fixed document and
/// pins the exact output.
pub fn render(doc: &Json) -> String {
    let fleet_size = doc.get("fleet_size").and_then(Json::as_u64).unwrap_or(0);
    let reporting = doc.get("reporting").and_then(Json::as_u64).unwrap_or(0);
    let mut out = format!("fetchvp top — {reporting}/{fleet_size} member(s) reporting\n");
    out.push_str(&format!(
        "{:<22} {:<5} {:>7} {:>8} {:>6} {:>5} {:>7} {:>7} {:>7}\n",
        "MEMBER", "STATE", "UPTIME", "RPS", "QUEUE", "HIT%", "P50", "P95", "P99"
    ));
    let members = doc.get("members").and_then(Json::as_object);
    let mut jobs = Vec::new();
    if let Some(members) = members {
        for (addr, member) in members {
            out.push_str(&member_row(addr, member));
            out.push('\n');
            if let Some(Json::Array(live)) = member.get("live_jobs") {
                for job in live {
                    jobs.push(job_row(addr, job));
                }
            }
        }
    }
    out.push_str("\nlive jobs:\n");
    if jobs.is_empty() {
        out.push_str("  (none)\n");
    } else {
        for line in jobs {
            out.push_str(&line);
            out.push('\n');
        }
    }
    let requests = doc
        .get_path("summed.counters")
        .and_then(Json::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter(|(key, _)| key.starts_with("server.requests."))
                .filter_map(|(_, v)| v.as_u64())
                .sum::<u64>()
        })
        .unwrap_or(0);
    let completed = doc
        .get_path("summed.counters")
        .and_then(|c| c.get("server.jobs.completed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    out.push_str(&format!(
        "\nfleet totals: {requests} request(s) served, {completed} job(s) completed\n"
    ));
    out
}

/// The fetch/render/sleep loop behind the `top` subcommand.
///
/// # Errors
///
/// Errors when the very first scrape fails (a bad address should fail
/// fast); later scrape failures draw an error frame and keep going, the
/// way an operator expects a dashboard to ride out a restart.
pub fn run(opts: &TopOptions) -> Result<(), String> {
    let mut frame = 0u64;
    loop {
        match fetch(&opts.addr) {
            Ok(doc) => {
                print!("{CLEAR}{}", render(&doc));
                let _ = std::io::stdout().flush();
            }
            Err(e) if frame == 0 => return Err(e),
            Err(e) => {
                println!("{CLEAR}fetchvp top — scrape of {} failed: {e}", opts.addr);
                let _ = std::io::stdout().flush();
            }
        }
        frame += 1;
        if opts.count.is_some_and(|count| frame >= count) {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed two-member merged snapshot: one self member with a live
    /// job and traffic, one dead member.
    fn fixed_doc() -> Json {
        Json::parse(
            r#"{
              "fleet_size": 2,
              "reporting": 1,
              "members": {
                "127.0.0.1:7001": {
                  "status": "self",
                  "addr": "127.0.0.1:7001",
                  "version": "0.1.0",
                  "uptime_seconds": 120,
                  "live_jobs": [
                    {
                      "job": 12,
                      "status": "running",
                      "progress": {
                        "phase": "running",
                        "instructions_done": 10400000,
                        "instructions_total": 20000000,
                        "percent": 52,
                        "cells_done": 1,
                        "cells_total": 2
                      }
                    }
                  ],
                  "metrics": {
                    "counters": {
                      "server.requests.run.202": 4800,
                      "server.requests.jobs.200": 240,
                      "server.jobs.completed": 4700
                    },
                    "gauges": {
                      "server.queue.depth": 3,
                      "server.result_cache.hits": 4000,
                      "server.result_cache.disk_hits": 250,
                      "server.result_cache.misses": 750
                    },
                    "histograms": {
                      "server.request_latency_us": {
                        "count": 5040, "sum": 1000000,
                        "p50": 180, "p95": 420, "p99": 900
                      }
                    }
                  }
                },
                "127.0.0.1:7002": {
                  "status": "down"
                }
              },
              "summed": {
                "counters": {
                  "server.requests.run.202": 4800,
                  "server.requests.jobs.200": 240,
                  "server.jobs.completed": 4700
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn render_snapshot_is_pinned() {
        let expected = "\
fetchvp top — 1/2 member(s) reporting
MEMBER                 STATE  UPTIME      RPS  QUEUE  HIT%     P50     P95     P99
127.0.0.1:7001         self     120s     42.0      3    85     180     420     900
127.0.0.1:7002         down        -        -      -     -       -       -       -

live jobs:
  127.0.0.1:7001 job 12 running   52% [##########----------] 10400000/20000000 instr, cells 1/2

fleet totals: 5040 request(s) served, 4700 job(s) completed
";
        assert_eq!(render(&fixed_doc()), expected);
    }

    #[test]
    fn render_survives_an_empty_or_alien_document() {
        let empty = Json::parse("{}").unwrap();
        let text = render(&empty);
        assert!(text.contains("0/0 member(s) reporting"));
        assert!(text.contains("(none)"));
        assert!(text.contains("0 request(s) served"));
    }

    #[test]
    fn bars_fill_proportionally_and_clamp() {
        assert_eq!(bar(0), "[--------------------]");
        assert_eq!(bar(50), "[##########----------]");
        assert_eq!(bar(100), "[####################]");
        assert_eq!(bar(900), "[####################]");
    }

    #[test]
    fn members_without_traffic_render_dashes() {
        let doc = Json::parse(
            r#"{"fleet_size": 1, "reporting": 1, "members": {
                 "127.0.0.1:9": {"status": "self", "uptime_seconds": 0,
                                  "live_jobs": [], "metrics": {}}},
                 "summed": {"counters": {}}}"#,
        )
        .unwrap();
        let text = render(&doc);
        assert!(text.contains("127.0.0.1:9"), "{text}");
        assert!(text.contains(" 0.0"), "no traffic -> zero rps:\n{text}");
        assert!(text.split('\n').nth(2).unwrap().contains(" - "), "dash quantiles:\n{text}");
    }
}
