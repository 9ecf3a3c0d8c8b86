//! `serve_mix`: one `fetchvp serve` with a trace directory, driven by an
//! open-loop mix of warm and cold requests from this process.
//!
//! Why this workload: it is the only one where `server`, the JSON path of
//! `metrics` and queueing matter. Warm requests repeat a fixed spec set
//! that the result cache answers (they bypass the kernel); cold requests
//! carry fresh seeds, so they generate traces, queue, run and serialize.
//!
//! * set-up: start the server and run every warm spec once, so the result
//!   cache holds it (repeated against a fresh directory; the median is
//!   `setup_s`);
//! * timed phase: `WARM_RPS` warm and `COLD_RPS` cold requests per second
//!   on a fixed schedule for `--seconds`, sent by at most `nproc` sender
//!   threads holding one connection each. Every request is timed from its
//!   due time: a warm one until the last byte of its cached `200`, a cold
//!   one until polling `GET /jobs/<id>` first shows a terminal state.
//!   Failed and refused requests count as missing every latency limit;
//! * checks: served results equal in-process `JobSpec::run` for every warm
//!   spec and every `CHECK_EVERY`-th cold spec, and the server shuts down
//!   cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fetchvp_experiments::{ExperimentConfig, JobSpec, Sweep};
use fetchvp_metrics::Json;
use fetchvp_server::cache::ResultCache;
use fetchvp_server::http::try_parse;
use fetchvp_trace::trace_program;
use fetchvp_tracestore::{stream_program_to_store, TraceStore};
use fetchvp_workloads::extended_suite;

use crate::probes::{self, micro, Layers};
use crate::spans::{SpanId, Spans, UNTRACED};
use crate::util::{median, peak_rss_mib, percentile, ratio, secs, Metrics};
use crate::{Ctx, Outcome};

/// The warm spec set: the result cache answers these after set-up.
const WARM_EXPERIMENTS: [&str; 6] =
    ["table3-1", "fig3-1", "fig3-3", "fig5-2", "usefulness", "fig5-3"];
/// Every cold request is this small machine sweep, with a fresh seed. One
/// kind only: with two kinds of different cost in equal numbers, the
/// median would sit on the boundary between them and jump with a few
/// slow samples. The usefulness sweep (ideal machines) is the lighter
/// one, which keeps the server's cores free enough for the warm p99
/// limit.
const COLD_EXPERIMENT: &str = "usefulness";
/// Trace length of every served spec.
const SPEC_LEN: u64 = 20_000;
/// Offered rates, requests per second.
const WARM_RPS: f64 = 200.0;
const COLD_RPS: f64 = 4.0;
/// Latency limits the seed code meets with headroom.
const COLD_P90_LIMIT_MS: f64 = 500.0;
const WARM_P99_LIMIT_MS: f64 = 10.0;
/// A scored run needs this many cold requests (ten beyond p90).
const MIN_COLD: usize = 100;
/// A run whose generator started a request later than this after its due
/// time is invalid.
const LAG_LIMIT_MS: f64 = 250.0;
/// A start more than this late counts in `loadgen.late_starts`.
const LATE_MS: f64 = 1.0;
/// How often a pending cold job is polled; the resolution of `cold_*`.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// A poll is only started when the next send is at least this far off.
const POLL_SLACK: Duration = Duration::from_millis(1);
/// How long pending jobs may take to finish after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Every `CHECK_EVERY`-th cold result is compared with an in-process run.
const CHECK_EVERY: usize = 10;
/// Server starts per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Scheduling niceness of the server process (see `ServerProc::start`).
const SERVER_NICE: u32 = 10;

fn spec_text(experiment: &str, seed: u64) -> String {
    format!(r#"{{"experiment": "{experiment}", "trace_len": {SPEC_LEN}, "seed": {seed}}}"#)
}

fn request_bytes(addr: &str, method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// One request on a fresh connection; returns the status and body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .write_all(request_bytes(addr, method, path, body).as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("{method} {path}: {e}"))?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: response is not UTF-8"))?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or(format!("{method} {path}: truncated response"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A running `fetchvp serve` child process.
struct ServerProc {
    child: Child,
    /// Held open so the server's final log line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProc {
    fn start(cli: &Path, dir: &Path) -> Result<ServerProc, String> {
        // The server runs at a lower priority than this process, so the
        // load generator's senders are never starved by the system they
        // measure (in a deployment, clients run on other hosts).
        let mut child = Command::new("nice")
            .args(["-n", &SERVER_NICE.to_string()])
            .arg(cli)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--trace-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("fetchvp-server listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        Ok(ServerProc { child, _stdout: stdout, addr })
    }

    /// Asks for a graceful shutdown and waits for the exit; `Ok(true)`
    /// when the server drained and exited 0.
    fn stop(mut self) -> bool {
        let asked = http(&self.addr, "POST", "/shutdown", "").is_ok_and(|(s, _)| s == 200);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Submits `spec` and polls until the job is terminal; returns the result
/// document's JSON text.
fn run_to_done(addr: &str, spec: &str) -> Result<String, String> {
    let (status, body) = http(addr, "POST", "/run", spec)?;
    let doc = Json::parse(&body).map_err(|e| e.to_string())?;
    if status == 200 {
        return doc.get("result").map(Json::to_json).ok_or("cached reply without a result".into());
    }
    let job = match (status, doc.get("job").and_then(Json::as_u64)) {
        (202, Some(job)) => job,
        _ => return Err(format!("POST /run answered {status}: {body}")),
    };
    loop {
        std::thread::sleep(Duration::from_millis(2));
        let (status, body) = http(addr, "GET", &format!("/jobs/{job}"), "")?;
        let doc = Json::parse(&body).map_err(|e| e.to_string())?;
        match (status, doc.get("status").and_then(Json::as_str)) {
            (200, Some("done")) => {
                return doc.get("result").map(Json::to_json).ok_or("done without a result".into())
            }
            (200, Some("queued" | "running")) => {}
            _ => return Err(format!("job {job}: {status} {body}")),
        }
    }
}

/// Whether a `POST /run` reply body is a result-cache hit.
fn is_cached(body: &str) -> bool {
    Json::parse(body).is_ok_and(|doc| doc.get("cached") == Some(&Json::Bool(true)))
}

/// Runs every warm spec to completion, then checks that a repeat is a
/// cached `200`. Returns each spec's result text.
fn warm_up(addr: &str, specs: &[String]) -> Result<Vec<String>, String> {
    let mut results = Vec::new();
    for spec in specs {
        let first = run_to_done(addr, spec)?;
        let (status, body) = http(addr, "POST", "/run", spec)?;
        if status != 200 || !is_cached(&body) {
            return Err(format!("warm spec {spec} was not served from the result cache"));
        }
        results.push(first);
    }
    Ok(results)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Warm(usize),
    Cold(usize),
}

struct Ticket {
    due: Duration,
    kind: Kind,
}

/// The merged schedule of both request streams over `seconds`.
fn schedule(seconds: f64, warm_specs: usize) -> Vec<Ticket> {
    let mut tickets = Vec::new();
    for i in 0..(seconds * WARM_RPS) as usize {
        tickets.push(Ticket {
            due: Duration::from_secs_f64(i as f64 / WARM_RPS),
            kind: Kind::Warm(i % warm_specs),
        });
    }
    for j in 0..(seconds * COLD_RPS) as usize {
        tickets.push(Ticket {
            due: Duration::from_secs_f64((j as f64 + 0.5) / COLD_RPS),
            kind: Kind::Cold(j),
        });
    }
    tickets.sort_by_key(|t| t.due);
    tickets
}

struct Pending {
    request: u64,
    cold: usize,
    job: u64,
    due: Instant,
    accepted: Instant,
    running: Option<Instant>,
    next_poll: Instant,
    polling: bool,
}

struct Board {
    next: usize,
    pending: Vec<Pending>,
}

/// What the open loop measured.
#[derive(Default)]
struct Tally {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    accept_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    late: u64,
    max_lag_ms: f64,
    /// `(cold index, result text)` of the cold results to check.
    served: Vec<(usize, String)>,
    errors: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.warm_ms.extend(other.warm_ms);
        self.cold_ms.extend(other.cold_ms);
        self.accept_ms.extend(other.accept_ms);
        self.queue_ms.extend(other.queue_ms);
        self.run_ms.extend(other.run_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late += other.late;
        self.max_lag_ms = self.max_lag_ms.max(other.max_lag_ms);
        self.served.extend(other.served);
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The open loop.
struct OpenLoop<'a> {
    addr: &'a str,
    warm_specs: &'a [String],
    cold_specs: &'a [String],
    tickets: Vec<Ticket>,
    start: Instant,
    board: Mutex<Board>,
    spans: &'a Spans,
    parent: SpanId,
}

enum Step {
    Send(usize),
    Poll(u64),
    Sleep(Duration),
    Done,
}

impl OpenLoop<'_> {
    fn board(&self) -> std::sync::MutexGuard<'_, Board> {
        self.board.lock().expect("open-loop board poisoned by a panicking sender")
    }

    fn next_step(&self, tally: &mut Tally) -> Step {
        let mut b = self.board();
        let now = Instant::now();
        let next_due = self.tickets.get(b.next).map(|t| self.start + t.due);
        if let Some(due) = next_due {
            if due <= now + Duration::from_micros(500) {
                b.next += 1;
                return Step::Send(b.next - 1);
            }
        }
        let drain_deadline =
            self.start + self.tickets.last().map_or(Duration::ZERO, |t| t.due) + DRAIN_LIMIT;
        if next_due.is_none() && now > drain_deadline {
            for p in b.pending.drain(..) {
                tally.cold_ms.push(f64::INFINITY);
                tally.fail(format!("job {} did not finish within the drain limit", p.job));
            }
            return Step::Done;
        }
        let slack = next_due.is_none_or(|d| d > now + POLL_SLACK);
        if slack {
            if let Some(p) = b
                .pending
                .iter_mut()
                .filter(|p| !p.polling && p.next_poll <= now)
                .min_by_key(|p| p.next_poll)
            {
                p.polling = true;
                return Step::Poll(p.job);
            }
        }
        if next_due.is_none() && b.pending.is_empty() {
            return Step::Done;
        }
        let mut wake = next_due.unwrap_or(now + POLL_INTERVAL);
        for p in b.pending.iter().filter(|p| !p.polling) {
            wake = wake.min(p.next_poll);
        }
        Step::Sleep(wake.saturating_duration_since(now).min(Duration::from_millis(1)))
    }

    fn sender(&self) -> Tally {
        let mut tally = Tally::default();
        loop {
            match self.next_step(&mut tally) {
                Step::Send(k) => self.send(k, &mut tally),
                Step::Poll(job) => self.poll(job, &mut tally),
                Step::Sleep(d) => std::thread::sleep(d),
                Step::Done => return tally,
            }
        }
    }

    fn send(&self, k: usize, tally: &mut Tally) {
        let ticket = &self.tickets[k];
        let due = self.start + ticket.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        let lag = ms(began.saturating_duration_since(due));
        if lag > LATE_MS {
            tally.late += 1;
        }
        tally.max_lag_ms = tally.max_lag_ms.max(lag);
        tally.attempted += 1;
        let request = k as u64 + 1;
        match ticket.kind {
            Kind::Warm(i) => {
                let reply = http(self.addr, "POST", "/run", &self.warm_specs[i]);
                let end = Instant::now();
                self.spans.record("server.warm", self.parent, Some(request), began, end);
                match reply {
                    Ok((200, body)) if is_cached(&body) => tally.warm_ms.push(ms(end - due)),
                    other => {
                        tally.warm_ms.push(f64::INFINITY);
                        tally.fail(format!("warm request: {}", describe(&other)));
                    }
                }
            }
            Kind::Cold(j) => {
                let reply = http(self.addr, "POST", "/run", &self.cold_specs[j]);
                let end = Instant::now();
                self.spans.record("server.submit", self.parent, Some(request), began, end);
                let job = reply.as_ref().ok().and_then(|(status, body)| {
                    (*status == 202).then(|| Json::parse(body).ok()?.get("job")?.as_u64()).flatten()
                });
                match job {
                    Some(job) => {
                        tally.accept_ms.push(ms(end - began));
                        self.board().pending.push(Pending {
                            request,
                            cold: j,
                            job,
                            due,
                            accepted: end,
                            running: None,
                            next_poll: end + POLL_INTERVAL,
                            polling: false,
                        });
                    }
                    None => {
                        tally.cold_ms.push(f64::INFINITY);
                        tally.fail(format!("cold request: {}", describe(&reply)));
                    }
                }
            }
        }
    }

    fn poll(&self, job: u64, tally: &mut Tally) {
        let began = Instant::now();
        let reply = http(self.addr, "GET", &format!("/jobs/{job}"), "");
        let end = Instant::now();
        let doc = match &reply {
            Ok((200, body)) => Json::parse(body).ok(),
            _ => None,
        };
        let mut b = self.board();
        let Some(at) = b.pending.iter().position(|p| p.job == job) else { return };
        self.spans.record("server.poll", self.parent, Some(b.pending[at].request), began, end);
        let status = doc.as_ref().and_then(|d| d.get("status")).and_then(Json::as_str);
        match status {
            Some("queued") | Some("running") => {
                let p = &mut b.pending[at];
                if status == Some("running") && p.running.is_none() {
                    p.running = Some(end);
                }
                p.polling = false;
                p.next_poll = end + POLL_INTERVAL;
            }
            Some("done") => {
                let p = b.pending.swap_remove(at);
                drop(b);
                tally.cold_ms.push(ms(end - p.due));
                if let Some(running) = p.running {
                    tally.queue_ms.push(ms(running - p.accepted));
                    tally.run_ms.push(ms(end - running));
                }
                if p.cold.is_multiple_of(CHECK_EVERY) {
                    if let Some(result) = doc.as_ref().and_then(|d| d.get("result")) {
                        tally.served.push((p.cold, result.to_json()));
                    }
                }
            }
            _ => {
                let p = b.pending.swap_remove(at);
                drop(b);
                tally.cold_ms.push(f64::INFINITY);
                tally.fail(format!("job {}: {}", p.job, describe(&reply)));
            }
        }
    }
}

fn describe(reply: &Result<(u16, String), String>) -> String {
    match reply {
        Ok((status, body)) => format!("{status} {}", body.chars().take(120).collect::<String>()),
        Err(e) => e.clone(),
    }
}

/// Runs one open-loop pass; returns the tally and its wall seconds.
fn open_loop(
    ctx: &Ctx,
    addr: &str,
    warm: &[String],
    cold: &[String],
    spans: &Spans,
    parent: SpanId,
) -> (Tally, f64) {
    let lp = OpenLoop {
        addr,
        warm_specs: warm,
        cold_specs: cold,
        tickets: schedule(ctx.seconds, warm.len()),
        start: Instant::now() + Duration::from_millis(20),
        board: Mutex::new(Board { next: 0, pending: Vec::new() }),
        spans,
        parent,
    };
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..ctx.jobs).map(|_| scope.spawn(|| lp.sender())).collect();
        for s in senders {
            tally.merge(s.join().expect("open-loop sender panicked"));
        }
    });
    (tally, secs(lp.start))
}

fn cold_specs(seed: u64, pass: u64, n: usize) -> Vec<String> {
    let base = seed.wrapping_add(1 + pass * 1_000_000);
    (0..n).map(|j| spec_text(COLD_EXPERIMENT, base.wrapping_add(j as u64))).collect()
}

/// In-process `JobSpec::run` of `spec`; returns its result text and
/// seconds.
fn in_process(spec: &str, spans: &Spans, parent: SpanId) -> Result<(String, String, f64), String> {
    let doc = Json::parse(spec).map_err(|e| e.to_string())?;
    let spec = JobSpec::from_json(&doc)?;
    let sweep = Sweep::with_jobs(&spec.config(), spec.jobs);
    let t = Instant::now();
    let outcome =
        spans.scope(&format!("experiments.{}", spec.experiment), parent, |_| spec.run(&sweep));
    Ok((spec.experiment.clone(), outcome.result.to_json(), secs(t)))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let repeats = if ctx.smoke { 1 } else { SETUP_REPEATS };
    let warm: Vec<String> = WARM_EXPERIMENTS.iter().map(|e| spec_text(e, ctx.seed)).collect();
    let n_cold = (ctx.seconds * COLD_RPS) as usize;
    let mut m = Metrics::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();

    let (setup_times, server, warm_results) =
        spans.scope("setup", None, |top| -> Result<_, String> {
            let mut times = Vec::new();
            let mut last = None;
            for k in 0..repeats {
                let dir = ctx.work.join(format!("serve-{k}"));
                let t = Instant::now();
                let server =
                    spans.scope("server.start", top, |_| ServerProc::start(&ctx.cli, &dir))?;
                let results =
                    spans.scope("server.warm_up", top, |_| warm_up(&server.addr, &warm))?;
                times.push(secs(t));
                if k + 1 < repeats {
                    attempted += 1;
                    if !server.stop() {
                        failed += 1;
                        notes.push("a set-up server did not shut down cleanly".into());
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                } else {
                    last = Some((server, results));
                }
            }
            let (server, results) = last.expect("at least one set-up");
            Ok((times, server, results))
        })?;
    let setup_s = median(&setup_times);

    let untraced = if ctx.traced {
        let off = Spans::new(false);
        let cold = cold_specs(ctx.seed, 1, n_cold);
        Some(
            spans.scope(UNTRACED, None, |_| open_loop(ctx, &server.addr, &warm, &cold, &off, None)),
        )
    } else {
        None
    };
    let cold = cold_specs(ctx.seed, 0, n_cold);
    let (tally, wall) =
        spans.scope("timed", None, |top| open_loop(ctx, &server.addr, &warm, &cold, spans, top));

    let scraped = spans.scope("server.scrape", None, |_| http(&server.addr, "GET", "/metrics", ""));
    let peak = peak_rss_mib(&server.child.id().to_string())?;
    let stopped = spans.scope("server.shutdown", None, |_| server.stop());
    attempted += 1;
    if !stopped {
        failed += 1;
        notes.push("the server did not shut down cleanly".into());
    }
    attempted += tally.attempted;
    failed += tally.failed;
    for e in &tally.errors {
        notes.push(format!("failed: {e}"));
    }

    // Served results equal in-process runs of the same specs.
    let mut experiment_s: Vec<(String, f64)> = Vec::new();
    spans.scope("checks", None, |top| -> Result<(), String> {
        let mut checks: Vec<(&str, &str)> =
            warm.iter().zip(&warm_results).map(|(s, r)| (s.as_str(), r.as_str())).collect();
        checks.extend(tally.served.iter().map(|(j, r)| (cold[*j].as_str(), r.as_str())));
        for (spec, served) in checks {
            let (experiment, expected, t) = in_process(spec, spans, top)?;
            experiment_s.push((experiment, t));
            attempted += 1;
            if expected != served {
                failed += 1;
                notes.push(format!("served result differs from JobSpec::run for {spec}"));
            }
        }
        Ok(())
    })?;

    let cold_p90 = percentile(&tally.cold_ms, 0.9);
    let warm_p99 = percentile(&tally.warm_ms, 0.99);
    m.insert("wall_s".into(), wall);
    m.insert("setup_s".into(), setup_s);
    m.insert("peak_rss_mib".into(), peak);
    m.insert("cold_p50_ms".into(), median(&tally.cold_ms));
    m.insert("cold_p90_ms".into(), cold_p90);
    m.insert("warm_p50_ms".into(), median(&tally.warm_ms));
    m.insert("warm_p99_ms".into(), warm_p99);
    let verdict = |v: f64, limit: f64| if v <= limit { "met" } else { "MISSED" };
    notes.push(format!(
        "offered {WARM_RPS} warm + {COLD_RPS} cold req/s; {} cold and {} warm requests; \
         cold p90 {cold_p90:.1} ms vs limit {COLD_P90_LIMIT_MS} ms: {}; \
         warm p99 {warm_p99:.3} ms vs limit {WARM_P99_LIMIT_MS} ms: {}",
        tally.cold_ms.len(),
        tally.warm_ms.len(),
        verdict(cold_p90, COLD_P90_LIMIT_MS),
        verdict(warm_p99, WARM_P99_LIMIT_MS)
    ));
    notes
        .push(format!("generator: {} late starts, max lag {:.3} ms", tally.late, tally.max_lag_ms));
    let invalid = if tally.max_lag_ms > LAG_LIMIT_MS {
        Some(format!(
            "the generator fell {:.1} ms behind its schedule (limit {LAG_LIMIT_MS} ms)",
            tally.max_lag_ms
        ))
    } else if !ctx.smoke && tally.cold_ms.len() < MIN_COLD {
        Some(format!("{} cold requests; a scored run needs {MIN_COLD}", tally.cold_ms.len()))
    } else {
        None
    };

    if ctx.traced {
        let gauges =
            scraped.ok().and_then(|(_, body)| Json::parse(&body).ok()).unwrap_or(Json::Null);
        let read = |section: &str, key: &str| {
            gauges.get(section).and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let (hits, misses) = (
            read("gauges", "server.result_cache.hits"),
            read("gauges", "server.result_cache.misses"),
        );
        m.insert("server.result_cache.hit_ratio".into(), ratio(hits, hits + misses));
        m.insert("server.rejected_503".into(), read("counters", "server.queue.rejected"));
        m.insert("tracestore.dir_hits".into(), read("gauges", "server.trace_cache.hits"));
        m.insert("tracestore.dir_misses".into(), read("gauges", "server.trace_cache.misses"));
        m.insert("server.accept_ms".into(), median(&tally.accept_ms));
        m.insert("server.queue_wait_ms".into(), median(&tally.queue_ms));
        m.insert("server.run_ms".into(), median(&tally.run_ms));
        m.insert("loadgen.late_starts".into(), tally.late as f64);
        m.insert("loadgen.max_lag_ms".into(), tally.max_lag_ms);
        if let Some((_, untraced_wall)) = &untraced {
            m.insert("trace.overhead_frac".into(), wall / untraced_wall - 1.0);
        }
        // Timed by the in-process checks (the warm specs include both).
        for experiment in ["fig5-2", "usefulness"] {
            let times: Vec<f64> =
                experiment_s.iter().filter(|(e, _)| e == experiment).map(|(_, t)| *t).collect();
            m.insert(format!("experiments.{experiment}_s"), median(&times));
        }
        spans.scope("probes", None, |top| {
            in_process_probes(ctx, &cold[0], &warm, &warm_results, spans, top, &mut m)
        })?;
        probes::zero_missing(&mut m, &BYPASSED);
    }

    let sim_digest = crate::util::digest(warm_results.iter().map(String::as_bytes));
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        sim_digest,
        params: vec![
            ("spec_trace_len".to_string(), Json::UInt(SPEC_LEN)),
            ("warm_rps".to_string(), Json::Float(WARM_RPS)),
            ("cold_rps".to_string(), Json::Float(COLD_RPS)),
            ("cold_p90_limit_ms".to_string(), Json::Float(COLD_P90_LIMIT_MS)),
            ("warm_p99_limit_ms".to_string(), Json::Float(WARM_P99_LIMIT_MS)),
            ("senders".to_string(), Json::UInt(ctx.jobs as u64)),
            (
                "server_command".to_string(),
                Json::Str(format!(
                    "nice -n {SERVER_NICE} fetchvp serve --addr 127.0.0.1:0 --trace-dir DIR"
                )),
            ),
            ("setup_repeats".to_string(), Json::UInt(repeats as u64)),
        ],
        invalid,
        notes,
    })
}

/// The traced run's in-process probes on the mix's own inputs: trace
/// generation and store round trip of a cold spec's workloads, the kernel,
/// and the server's parse / validate / cache-lookup steps.
fn in_process_probes(
    ctx: &Ctx,
    cold_spec: &str,
    warm: &[String],
    warm_results: &[String],
    spans: &Spans,
    parent: SpanId,
    m: &mut Metrics,
) -> Result<(), String> {
    let spec = JobSpec::from_json(&Json::parse(cold_spec).map_err(|e| e.to_string())?)?;
    let cfg: ExperimentConfig = spec.config();
    let workloads = extended_suite(&cfg.workloads);
    let t = Instant::now();
    let traces: Vec<_> = spans.scope("trace.generate", parent, |_| {
        workloads
            .iter()
            .map(|w| std::sync::Arc::new(trace_program(w.program(), cfg.trace_len)))
            .collect()
    });
    let gen_s = secs(t);
    let instructions: u64 =
        traces.iter().map(|t: &std::sync::Arc<fetchvp_trace::Trace>| t.len() as u64).sum();
    m.insert("trace.gen_s".into(), gen_s);
    m.insert("trace.gen_mips".into(), instructions as f64 / gen_s / 1e6);
    m.insert("trace.instructions".into(), instructions as f64);

    // The server stores each cold spec's traces and decodes them back.
    let (mut write_s, mut decode_s, mut bytes, mut chunks) = (0.0, 0.0, 0u64, 0u64);
    spans.scope("tracestore.round_trip", parent, |_| -> Result<(), String> {
        for w in &workloads {
            let path = ctx.work.join(format!("probe-{}.fvps", w.name()));
            let t = Instant::now();
            let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            let summary = stream_program_to_store(
                w.program(),
                w.name(),
                cfg.trace_len,
                fetchvp_tracestore::DEFAULT_CHUNK_LEN,
                std::io::BufWriter::new(file),
            )
            .map_err(|e| e.to_string())?;
            write_s += secs(t);
            bytes += summary.bytes;
            chunks += summary.chunks as u64;
            let t = Instant::now();
            let store = TraceStore::open(&path).map_err(|e| e.to_string())?;
            std::hint::black_box(store.to_trace().map_err(|e| e.to_string())?);
            decode_s += secs(t);
            let _ = std::fs::remove_file(&path);
        }
        Ok(())
    })?;
    m.insert("tracestore.write_s".into(), write_s);
    m.insert("tracestore.bytes_per_instr".into(), bytes as f64 / instructions as f64);
    m.insert("tracestore.decode_s".into(), decode_s);
    m.insert("tracestore.decode_mips".into(), instructions as f64 / decode_s / 1e6);
    m.insert("tracestore.chunks".into(), chunks as f64);

    probes::kernel(spans, parent, &traces, Layers { realistic: true, dfg: false }, m);

    spans.scope("server.in_process", parent, |_| -> Result<(), String> {
        let bytes = request_bytes("127.0.0.1:0", "POST", "/run", &warm[0]);
        m.insert(
            "server.http.parse_us".into(),
            micro(|| {
                try_parse(bytes.as_bytes(), 256 * 1024)
                    .ok()
                    .flatten()
                    .expect("a well-formed request parses")
            }),
        );
        let doc = Json::parse(&warm[0]).map_err(|e| e.to_string())?;
        m.insert(
            "server.jobspec.validate_us".into(),
            micro(|| {
                JobSpec::from_json(&doc)
                    .map(|s| s.canonical_hash())
                    .expect("the warm spec validates")
            }),
        );
        let cache = ResultCache::new(256, None);
        let specs: Vec<JobSpec> = warm
            .iter()
            .map(|s| JobSpec::from_json(&Json::parse(s).map_err(|e| e.to_string())?))
            .collect::<Result<_, String>>()?;
        for (spec, result) in specs.iter().zip(warm_results) {
            cache.insert(
                spec.canonical_hash(),
                spec.canonical(),
                &Json::parse(result).map_err(|e| e.to_string())?,
            );
        }
        let (hash, canonical) = (specs[0].canonical_hash(), specs[0].canonical());
        m.insert(
            "server.result_cache.get_us".into(),
            micro(|| cache.get(hash, &canonical).expect("a cached spec hits")),
        );
        Ok(())
    })
}

/// Layer metrics this workload bypasses: reported as 0.
const BYPASSED: [&str; 10] = [
    "core.replay_s",
    "experiments.render_s",
    "experiments.table3-1_s",
    "experiments.fig3-1_s",
    "experiments.table3-2_s",
    "experiments.fig3-3_s",
    "experiments.fig3-4_s",
    "experiments.fig3-5_s",
    "experiments.fig5-1_s",
    "experiments.fig5-3_s",
];
