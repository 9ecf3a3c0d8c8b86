//! `fetchvp-server` — a zero-dependency simulation-as-a-service daemon.
//!
//! `fetchvp serve` turns the one-shot experiment CLI into a long-lived
//! service: clients `POST /run` a JSON job spec (see
//! [`fetchvp_experiments::jobspec`]), the daemon queues it with admission
//! control, a worker pool executes it through the shared [`Sweep`] runner,
//! and `GET /jobs/<id>` returns the result — with workload traces staying
//! **warm across requests**, so the second job against the same
//! configuration skips tracing entirely, and **results
//! cached by content** ([`cache`]), so a repeated spec skips simulation
//! entirely.
//!
//! Everything is built on `std` only: [`std::net::TcpListener`] driven by
//! a `poll(2)` readiness event loop (one thread multiplexing every
//! connection), a hand-rolled HTTP/1.1 subset with the one blocking
//! client every outgoing request uses ([`http`]), a condvar-based bounded MPMC
//! queue ([`queue`]) and a mutex-guarded job table ([`jobs`]). Several
//! daemons started with `--peers` form a fleet ([`peers`]): jobs shard
//! across members by consistent hashing on the spec's canonical hash,
//! with single-hop proxying and per-peer health checks. [`loadgen`]
//! drives such a fleet and reports achieved RPS and latency quantiles.
//!
//! The crate is Unix-only: the event loop calls `poll(2)` and shutdown
//! listens for `SIGTERM`/`SIGINT` through `signal(2)`.
//!
//! # Endpoints
//!
//! | method & path | behaviour |
//! |---|---|
//! | `POST /run` | validate a job spec; `202` + job id (or `200` with the inlined result on a cache hit), `400` on a bad spec, `503` + `Retry-After` when the queue is full |
//! | `GET /jobs/<id>` | the job's status/result document (with a live `progress` snapshot); `404` for unknown ids; proxied to the owning fleet member when the id belongs elsewhere |
//! | `GET /jobs/<id>/events` | **live NDJSON progress stream** over HTTP/1.1 chunked transfer: one [`fetchvp_tracing::ProgressEvent`] line per chunk until the terminal `done`/`failed` event, relayed 1 hop from the owning fleet member when the id belongs elsewhere |
//! | `GET /fleet/metrics` | fleet-wide observability: any member fans the request out to its peers and returns the merged per-member snapshots (version, uptime, live jobs with progress, metrics) plus fleet-summed counters, with dead members marked |
//! | `GET /healthz` | liveness + queue/worker summary (+ per-peer liveness in a fleet) |
//! | `GET /metrics` | live [`fetchvp_metrics::Registry`] snapshot: `server.*` counters alongside accumulated simulator counters (`trace.*`, `sched.*`, …) |
//! | `POST /shutdown` | graceful shutdown (also triggered by `SIGTERM`/`SIGINT`): stop accepting, drain admitted jobs, exit |
//!
//! # Operational guarantees
//!
//! * **Backpressure, not buffering** — the queue is bounded
//!   ([`ServerConfig::queue_depth`]); when full, `/run` answers `503`
//!   immediately with a `Retry-After` derived from the observed drain
//!   rate, and never blocks the event loop.
//! * **The event loop never blocks on a peer** — fleet proxy hops are
//!   blocking network I/O, so they run on a dedicated helper pool while
//!   the proxied connection parks; a slow or dead peer stalls at most
//!   its own requests, never every connection on the member.
//! * **Isolation** — a panicking job marks itself `failed` and the worker
//!   lives on; a panicking worker can never take `GET /metrics` down
//!   (the registry lock is poison-proof).
//! * **Bounded connections** — at most [`ServerConfig::max_connections`]
//!   sockets multiplexed at once (excess clients wait in the kernel's
//!   accept backlog), each with per-phase read/write deadlines and capped
//!   request sizes.
//! * **No dropped jobs** — shutdown drains everything that was `202`ed.

#![deny(missing_docs)]

pub mod cache;
mod eventloop;
pub mod http;
pub mod jobs;
pub mod loadgen;
pub mod peers;
pub mod progress;
pub mod queue;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fetchvp_experiments::{ExperimentConfig, JobSpec, Sweep};
use fetchvp_metrics::{Json, SharedRegistry};
use fetchvp_tracestore::TraceDir;
use fetchvp_tracing::{log_with, Level};

use cache::ResultCache;
use http::{error_body, Request, Response};
use jobs::JobTable;
use peers::Fleet;
use progress::JobProgress;
use queue::BoundedQueue;

/// How the daemon is sized and where it listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Pool workers executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it get `503`.
    pub queue_depth: usize,
    /// Maximum sockets multiplexed by the event loop at once; excess
    /// clients wait in the kernel's accept backlog.
    pub max_connections: usize,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
    /// Per-request socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted `POST` body, bytes.
    pub max_body_bytes: usize,
    /// Content-addressed trace directory. When set, benchmark traces are
    /// generated once to disk and replayed chunk-by-chunk, which lifts the
    /// `trace_len` cap for machine-sweep experiments to
    /// [`fetchvp_experiments::jobspec::MAX_TRACE_LEN_OOC`].
    pub trace_dir: Option<PathBuf>,
    /// In-memory result-cache capacity (finished result documents); 0
    /// disables result caching. When [`ServerConfig::trace_dir`] is also
    /// set, results spill to `<trace_dir>/results-v1/` and survive
    /// restarts.
    pub result_cache_entries: usize,
    /// Full fleet member list (`host:port`, including this process's own
    /// address) for `--peers` mode; empty means standalone.
    pub peers: Vec<String>,
    /// How many progress events each job's ring retains for
    /// `GET /jobs/<id>/events` readers; a slower reader loses the oldest
    /// events (drop-oldest), never the terminal one.
    pub progress_ring_events: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7998".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_depth: 32,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 256 * 1024,
            trace_dir: None,
            result_cache_entries: 256,
            peers: Vec::new(),
            progress_ring_events: jobs::DEFAULT_PROGRESS_EVENTS,
        }
    }
}

/// How many distinct experiment configurations keep their traces cached.
///
/// Each slot holds one [`Sweep`] (≈ one generated trace set, a few MB at
/// served trace lengths); least-recently-used configurations are evicted.
const SWEEP_POOL_SLOTS: usize = 8;

/// An MRU pool of [`Sweep`]s keyed by [`ExperimentConfig`] — the
/// cross-request trace cache. Served experiments run through the pooled
/// sweep's batch API (`Sweep::machines` → `fetchvp_core::run_batch`), so
/// a job's `jobs` worker count composes with per-cell config batching
/// exactly as it does on the CLI.
struct SweepPool {
    slots: Mutex<Vec<(ExperimentConfig, Sweep)>>,
    /// One on-disk trace cache shared by every pooled sweep, so evicting a
    /// slot never discards generated trace files.
    trace_dir: Option<Arc<TraceDir>>,
}

impl SweepPool {
    fn new(trace_dir: Option<Arc<TraceDir>>) -> SweepPool {
        SweepPool { slots: Mutex::new(Vec::new()), trace_dir }
    }

    /// The pooled sweep for `spec`'s configuration (built on miss),
    /// reconfigured to the spec's worker count. The bool reports a hit.
    fn sweep_for(&self, spec: &JobSpec) -> (Sweep, bool) {
        let cfg = spec.config();
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = slots.iter().position(|(c, _)| *c == cfg) {
            let entry = slots.remove(at);
            let sweep = entry.1.clone();
            slots.insert(0, entry);
            return (sweep.reconfigured(spec.jobs), true);
        }
        let sweep = Sweep::with_trace_dir(&cfg, self.trace_dir.clone(), 1);
        slots.insert(0, (cfg, sweep.clone()));
        slots.truncate(SWEEP_POOL_SLOTS);
        (sweep.reconfigured(spec.jobs), false)
    }
}

/// How many helper threads run blocking proxy hops in fleet mode. Each
/// hop is one loopback/rack round-trip, so a handful of threads covers
/// thousands of hops per second; a saturated pool degrades to local
/// execution, never to blocking the event loop.
const PROXY_WORKERS: usize = 4;

/// How many proxy hops may be parked waiting for a helper; beyond it,
/// requests fall back to local handling immediately.
const PROXY_QUEUE_DEPTH: usize = 64;

/// What a proxy helper produced for the parked connection.
enum ProxyOutcome {
    /// A complete buffered response, ready to write.
    Response(Response),
    /// An open nonblocking socket to the owning member, whose bytes the
    /// event loop relays verbatim — the streaming hop of
    /// `GET /jobs/<id>/events`.
    Upstream(TcpStream),
}

/// The slot a proxy helper fills once its hop completes; the owning
/// connection polls it from the event loop.
type ProxySlot = Mutex<Option<ProxyOutcome>>;

/// Which flavor of blocking work a [`ProxyTask`] parks off the event
/// loop.
enum ProxyKind {
    /// Buffered single-hop forward to the owning member.
    Hop {
        /// The owning member's index in the fleet list.
        member: usize,
    },
    /// Connect a streaming relay to the owning member.
    StreamConnect {
        /// The owning member's index in the fleet list.
        member: usize,
    },
    /// Fan `GET /fleet/metrics` out to every member and merge.
    FleetMetrics,
}

/// One blocking hop parked off the event loop.
struct ProxyTask {
    kind: ProxyKind,
    request: Request,
    started: Instant,
    slot: Arc<ProxySlot>,
}

/// State shared by the event loop, connection handlers and pool workers.
struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<(u64, JobSpec)>,
    jobs: JobTable,
    metrics: SharedRegistry,
    sweeps: SweepPool,
    results: ResultCache,
    fleet: Fleet,
    proxies: BoundedQueue<ProxyTask>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    /// When the daemon bound its socket — the `server.uptime_seconds`
    /// gauge and the per-member RPS denominator in `/fleet/metrics`.
    started: Instant,
}

impl Shared {
    fn should_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::terminated()
    }

    /// Parks a blocking hop on the helper pool. `Err` carries the
    /// response when the hop could not be parked (saturated pool): the
    /// request is completed locally instead — computed without blocking
    /// I/O, and already metered.
    fn dispatch_proxy(
        &self,
        kind: ProxyKind,
        request: Request,
        started: Instant,
    ) -> Result<Arc<ProxySlot>, Response> {
        let slot = Arc::new(Mutex::new(None));
        let task = ProxyTask { kind, request, started, slot: Arc::clone(&slot) };
        match self.proxies.try_push(task) {
            Ok(_) => Ok(slot),
            Err(task) => {
                self.metrics.counter("server.peers", "proxy_overflow", 1);
                let response = match task.kind {
                    // A saturated helper pool cannot fan out or stream;
                    // the aggregation client retries, the stream client
                    // falls back to polling.
                    ProxyKind::FleetMetrics | ProxyKind::StreamConnect { .. } => {
                        Response::retry_after(503, error_body("proxy helpers saturated"), 1)
                    }
                    ProxyKind::Hop { .. } => proxy_fallback(self, &task.request),
                };
                finish_request(self, &task.request, &response, task.started);
                Err(response)
            }
        }
    }
}

/// The daemon: bind with [`Server::bind`], then block in [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket and builds the shared state. Nothing
    /// runs until [`Server::run`].
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = SharedRegistry::new();
        metrics.counter("server", "started", 1);
        // Build identity, for version-skew detection across a fleet:
        // `fetchvp_build_info 1` plus the crate and on-disk format
        // versions as their own series (this exposition has no labels).
        metrics.counter("build", "info", 1);
        for (name, text) in [
            ("version_major", env!("CARGO_PKG_VERSION_MAJOR")),
            ("version_minor", env!("CARGO_PKG_VERSION_MINOR")),
            ("version_patch", env!("CARGO_PKG_VERSION_PATCH")),
        ] {
            metrics.counter("build", name, text.parse().unwrap_or(0));
        }
        metrics.counter("build", "trace_format_version", fetchvp_tracestore::FORMAT_VERSION as u64);
        let trace_dir = config.trace_dir.as_ref().map(|root| Arc::new(TraceDir::new(root)));
        let fleet = if config.peers.is_empty() {
            Fleet::standalone()
        } else {
            Fleet::from_members(&config.peers, listener.local_addr()?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
        };
        let results = ResultCache::new(config.result_cache_entries, config.trace_dir.as_deref());
        let state = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            jobs: JobTable::sharded(fleet.stride(), fleet.self_index() as u64)
                .with_progress_capacity(config.progress_ring_events),
            metrics,
            sweeps: SweepPool::new(trace_dir),
            results,
            fleet,
            proxies: BoundedQueue::new(PROXY_QUEUE_DEPTH),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown` or `SIGTERM`/`SIGINT`, then drains
    /// admitted jobs and in-flight connections before returning.
    pub fn run(self) -> io::Result<()> {
        signals::install();
        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("fetchvp-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();
        let health_checker = self.state.fleet.is_fleet().then(|| {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("fetchvp-health".to_string())
                .spawn(move || health_loop(&state))
                .expect("spawn health checker")
        });
        // Proxy hops are blocking network I/O; in fleet mode they run on
        // this pool so they can never stall the event loop.
        let proxy_helpers: Vec<_> = if self.state.fleet.is_fleet() {
            (0..PROXY_WORKERS)
                .map(|i| {
                    let state = Arc::clone(&self.state);
                    std::thread::Builder::new()
                        .name(format!("fetchvp-proxy-{i}"))
                        .spawn(move || proxy_loop(&state))
                        .expect("spawn proxy helper")
                })
                .collect()
        } else {
            Vec::new()
        };

        let served = eventloop::serve(&self.listener, &self.state);

        // Graceful shutdown: reject new work, drain everything admitted.
        self.state.queue.close();
        self.state.proxies.close();
        for worker in workers {
            let _ = worker.join();
        }
        for helper in proxy_helpers {
            let _ = helper.join();
        }
        if let Some(checker) = health_checker {
            let _ = checker.join();
        }
        served
    }
}

/// Probes every peer on a fixed interval, flipping liveness flags and
/// counting transitions so a flapping peer is visible in `/metrics`.
fn health_loop(state: &Shared) {
    while !state.should_shutdown() {
        for member in 0..state.fleet.members().len() {
            if member == state.fleet.self_index() {
                continue;
            }
            let alive = state.fleet.probe(member);
            if state.fleet.set_alive(member, alive) {
                state.metrics.counter("server.peers", "health_flips", 1);
                let label = state.fleet.metric_label(member);
                log_with("server.peers", Level::Info, || {
                    format!("peer {label} is now {}", if alive { "up" } else { "down" })
                });
            }
        }
        // Sleep in small steps so shutdown is honored promptly.
        let deadline = Instant::now() + peers::HEALTH_INTERVAL;
        while Instant::now() < deadline && !state.should_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One pool worker: pull, run (panic-isolated), publish.
fn worker_loop(state: &Shared) {
    while let Some((id, spec)) = state.queue.pop() {
        state.jobs.set_running(id);
        let (sweep, pool_hit) = state.sweeps.sweep_for(&spec);
        // Attach the job's progress ring so every machine sweep the spec
        // runs feeds `GET /jobs/<id>/events`; observers never change
        // results (the sweep determinism tests assert this).
        let sweep = match state.jobs.progress(id) {
            Some(progress) => sweep.with_progress(progress),
            None => sweep,
        };
        state.metrics.counter("server.sweep_pool", if pool_hit { "hits" } else { "misses" }, 1);
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| spec.run(&sweep))) {
            Ok(outcome) => {
                state.metrics.merge(&outcome.metrics);
                state.metrics.counter("server.jobs", "completed", 1);
                state.metrics.observe(
                    "server",
                    "job_latency_ms",
                    started.elapsed().as_millis() as u64,
                );
                // Results are cached by content so the next identical spec
                // is a lookup; failures are never cached.
                state.results.insert(spec.canonical_hash(), spec.canonical(), &outcome.result);
                state.jobs.finish(id, outcome.result);
            }
            Err(_) => {
                state.metrics.counter("server.jobs", "failed", 1);
                state.jobs.fail(id, "job panicked; see server logs".to_string());
            }
        }
    }
}

/// Monotone id shared by every connection, for correlating access log
/// lines (`FETCHVP_LOG=server=info`) across requests.
static REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// What routing decided: most requests complete inline on the calling
/// thread, but a fleet proxy hop is blocking network I/O that must never
/// run on the event-loop thread, so it is handed back to the caller.
enum Routed {
    /// The response is ready to write.
    Ready(Response),
    /// Forward one hop to fleet member `member` (off the event loop),
    /// falling back to [`proxy_fallback`] when the hop fails.
    Proxy {
        /// The owning member's index in the fleet list.
        member: usize,
    },
    /// Stream the job's progress ring as chunked NDJSON until its
    /// terminal event — served incrementally by the event loop (unit
    /// tests degrade to a snapshot).
    Stream {
        /// The job's progress handle; the connection keeps its own
        /// cursor into the ring.
        progress: Arc<JobProgress>,
    },
    /// Open a streaming relay hop to fleet member `member`, who owns the
    /// requested job's events.
    StreamProxy {
        /// The owning member's index in the fleet list.
        member: usize,
    },
    /// Fan `GET /fleet/metrics` out to every peer and merge — blocking
    /// network I/O, parked on the proxy helper pool.
    FleetMetrics,
}

/// Records the per-request metrics and access log line once a response
/// is ready — the completion half of every routing path. `started` is
/// when the connection began reading, so `server.request_latency_us`
/// includes request-receive (and any proxy-hop) time.
fn finish_request(state: &Shared, request: &Request, response: &Response, started: Instant) {
    let id = REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1;
    state.metrics.counter(
        "server.requests",
        &format!("{}.{}", endpoint_label(&request.path), response.status),
        1,
    );
    let micros = started.elapsed().as_micros() as u64;
    state.metrics.observe("server", "request_latency_us", micros);
    log_with("server.http", Level::Info, || {
        format!("req={id} {} {} -> {} in {micros}us", request.method, request.path, response.status)
    });
}

/// Routes one parsed request on the event-loop thread. Requests that
/// complete without blocking I/O come back [`Routed::Ready`], already
/// metered; proxy hops come back [`Routed::Proxy`] for
/// [`Shared::dispatch_proxy`].
fn respond_or_proxy(state: &Shared, request: &Request, started: Instant) -> Routed {
    match route(state, request, false) {
        Routed::Ready(response) => {
            finish_request(state, request, &response, started);
            Routed::Ready(response)
        }
        Routed::Stream { progress } => {
            // Streams are metered when they are accepted (the 200 and the
            // head go out now); their lifetime is the job's, not a
            // request-latency sample's.
            let accepted = Response::text(200, String::new(), STREAM_CONTENT_TYPE);
            finish_request(state, request, &accepted, started);
            Routed::Stream { progress }
        }
        proxy => proxy,
    }
}

/// The content type of the `GET /jobs/<id>/events` stream: newline-
/// delimited JSON, one [`fetchvp_tracing::ProgressEvent`] line per chunk.
pub const STREAM_CONTENT_TYPE: &str = "application/x-ndjson";

/// Routes one parsed request to a finished response, running any proxy
/// hop inline — the blocking entry point of the unit tests. The event
/// loop uses [`respond_or_proxy`] + the proxy helper pool instead.
#[cfg(test)]
fn respond(state: &Shared, request: &Request, started: Instant) -> Response {
    let response = match route(state, request, false) {
        Routed::Ready(response) => response,
        Routed::Proxy { member } | Routed::StreamProxy { member } => {
            complete_proxy(state, member, request)
        }
        // Without the event loop there is no incremental write path, so
        // the stream degrades to a self-contained snapshot of the ring.
        Routed::Stream { progress } => stream_snapshot(&progress),
        Routed::FleetMetrics => fleet_metrics_merged(state),
    };
    finish_request(state, request, &response, started);
    response
}

/// The ring's retained events as one buffered NDJSON body — what a
/// proxyless local route (and the unit tests) serves where the event
/// loop would stream live.
fn stream_snapshot(progress: &JobProgress) -> Response {
    let batch = progress.since(0);
    let mut body = String::new();
    for event in &batch.events {
        body.push_str(&event.to_line());
        body.push('\n');
    }
    Response::text(200, body, STREAM_CONTENT_TYPE)
}

/// One proxy helper: runs the blocking hops the event loop parked.
fn proxy_loop(state: &Shared) {
    while let Some(task) = state.proxies.pop() {
        let outcome = match task.kind {
            ProxyKind::Hop { member } => {
                let response = complete_proxy(state, member, &task.request);
                finish_request(state, &task.request, &response, task.started);
                ProxyOutcome::Response(response)
            }
            ProxyKind::StreamConnect { member } => match open_stream_hop(state, member, &task) {
                Ok(upstream) => ProxyOutcome::Upstream(upstream),
                Err(response) => ProxyOutcome::Response(response),
            },
            ProxyKind::FleetMetrics => {
                let response = fleet_metrics_merged(state);
                finish_request(state, &task.request, &response, task.started);
                ProxyOutcome::Response(response)
            }
        };
        *task.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
    }
}

/// Opens the streaming relay for a [`ProxyKind::StreamConnect`] hop,
/// metering either the accepted relay (as a proxied 200) or the failure
/// response. An unreachable owner answers 502 — the record (and its
/// ring) lives only there, so there is no local fallback to stream.
fn open_stream_hop(state: &Shared, member: usize, task: &ProxyTask) -> Result<TcpStream, Response> {
    let upstream = if state.fleet.is_alive(member) {
        state.fleet.open_stream(member, &task.request)
    } else {
        None
    };
    match upstream {
        Some(upstream) => {
            state.metrics.counter("server.peers", "proxied_streams", 1);
            let mut accepted = Response::text(200, String::new(), STREAM_CONTENT_TYPE);
            accepted.proxied = true;
            finish_request(state, &task.request, &accepted, task.started);
            Ok(upstream)
        }
        None => {
            state.metrics.counter("server.peers", "proxy_errors", 1);
            if state.fleet.set_alive(member, false) {
                state.metrics.counter("server.peers", "health_flips", 1);
            }
            let response = proxy_fallback(state, &task.request);
            finish_request(state, &task.request, &response, task.started);
            Err(response)
        }
    }
}

/// Runs the blocking single-hop proxy for a [`Routed::Proxy`] decision —
/// never on the event-loop thread. A peer that is already marked dead
/// (the health checker or an earlier hop beat us to it) short-circuits
/// straight to the fallback instead of burning a connect timeout.
fn complete_proxy(state: &Shared, member: usize, request: &Request) -> Response {
    if state.fleet.is_alive(member) {
        if let Some(response) = proxy_or_mark_dead(state, member, request) {
            return response;
        }
    }
    proxy_fallback(state, request)
}

/// Handles a request whose proxy hop could not run (dead peer, saturated
/// helper pool): `POST /run` degrades to running the job locally —
/// availability over cache locality — while `GET /jobs/<id>` answers
/// `502`, because the record lives only on the unreachable owner.
fn proxy_fallback(state: &Shared, request: &Request) -> Response {
    if request.path.starts_with("/jobs/") {
        let tail = &request.path["/jobs/".len()..];
        let id_text = tail.strip_suffix("/events").unwrap_or(tail);
        let owner = id_text
            .parse::<u64>()
            .map(|id| JobTable::owner_of(id, state.fleet.stride()) as usize)
            .unwrap_or_default();
        return Response::json(
            502,
            error_body(&format!(
                "job {id_text} belongs to unreachable fleet member {}",
                state.fleet.members().get(owner).map(String::as_str).unwrap_or("?")
            )),
        );
    }
    route_local(state, request)
}

/// Routes a request with fleet forwarding disabled — the handling a
/// request gets after its proxy hop failed (or when it arrived already
/// forwarded).
fn route_local(state: &Shared, request: &Request) -> Response {
    match route(state, request, true) {
        Routed::Ready(response) => response,
        // A locally-owned events stream degrades to a buffered snapshot
        // of the ring — proxyless paths have no incremental writer.
        Routed::Stream { progress } => stream_snapshot(&progress),
        Routed::Proxy { .. } | Routed::StreamProxy { .. } | Routed::FleetMetrics => {
            unreachable!("local-only routing cannot proxy")
        }
    }
}

/// The metric label for a request path (`/jobs/7` → `jobs`,
/// `/jobs/7/events` → `events`).
fn endpoint_label(path: &str) -> &'static str {
    if path == "/healthz" {
        "healthz"
    } else if path == "/metrics" {
        "metrics"
    } else if path == "/run" {
        "run"
    } else if path == "/shutdown" {
        "shutdown"
    } else if path == "/fleet/metrics" {
        "fleet"
    } else if path.starts_with("/jobs/") && path.ends_with("/events") {
        "events"
    } else if path.starts_with("/jobs/") {
        "jobs"
    } else {
        "other"
    }
}

/// Routes a request. With `local_only` set, fleet forwarding is
/// disabled and the result is always [`Routed::Ready`]; otherwise
/// `POST /run` and `GET /jobs/<id>` may decide on a proxy hop.
fn route(state: &Shared, request: &Request, local_only: bool) -> Routed {
    Routed::Ready(match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics_snapshot(state, request),
        ("GET", "/fleet/metrics") => {
            // A forwarded (or local-only) request is one peer answering
            // the aggregator: it reports just its own member document.
            // Fresh requests on a fleet member fan out on the helper
            // pool; a standalone daemon merges itself inline.
            if local_only || is_forwarded(request) {
                Response::json(200, fleet_member_json(state).to_json())
            } else if state.fleet.is_fleet() {
                return Routed::FleetMetrics;
            } else {
                fleet_metrics_merged(state)
            }
        }
        ("POST", "/run") => return submit(state, request, local_only),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, Json::object([status_pair("shutting down")]).to_json())
        }
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/events") => {
            return job_events(state, request, path, local_only)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            return job_status(state, request, path, local_only)
        }
        (_, "/healthz" | "/metrics" | "/run" | "/shutdown" | "/fleet/metrics") => {
            Response::json(405, error_body("method not allowed"))
        }
        (_, path) if path.starts_with("/jobs/") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("no such endpoint")),
    })
}

fn status_pair(status: &str) -> (String, Json) {
    ("status".to_string(), Json::Str(status.to_string()))
}

fn healthz(state: &Shared) -> Response {
    let (queued, running, done, failed) = state.jobs.counts();
    let mut pairs = vec![
        status_pair("ok"),
        ("workers".to_string(), Json::UInt(state.config.workers as u64)),
        ("queue_depth".to_string(), Json::UInt(state.queue.len() as u64)),
        ("queue_capacity".to_string(), Json::UInt(state.queue.capacity() as u64)),
        (
            "jobs".to_string(),
            Json::object([
                ("queued".to_string(), Json::UInt(queued)),
                ("running".to_string(), Json::UInt(running)),
                ("done".to_string(), Json::UInt(done)),
                ("failed".to_string(), Json::UInt(failed)),
            ]),
        ),
    ];
    if state.fleet.is_fleet() {
        let members = state
            .fleet
            .members()
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let status = if i == state.fleet.self_index() {
                    "self"
                } else if state.fleet.is_alive(i) {
                    "up"
                } else {
                    "down"
                };
                (addr.clone(), Json::Str(status.to_string()))
            })
            .collect::<Vec<_>>();
        pairs.push(("peers".to_string(), Json::object(members)));
    }
    Response::json(200, Json::object(pairs).to_json())
}

/// Whether the request's `Accept` header asks for Prometheus text
/// exposition rather than the default JSON snapshot.
fn wants_prometheus(request: &Request) -> bool {
    request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain") || accept.contains("openmetrics"))
}

/// Refreshes the point-in-time gauges Prometheus-collector style, right
/// before a snapshot is taken (`/metrics` scrape or a `/fleet/metrics`
/// member report); counters accumulate across the daemon's lifetime.
fn refresh_gauges(state: &Shared) {
    state.metrics.gauge("server", "uptime_seconds", state.started.elapsed().as_secs_f64());
    state.metrics.gauge("server.queue", "depth", state.queue.len() as f64);
    state.metrics.gauge(
        "server.connections",
        "active",
        state.active_connections.load(Ordering::SeqCst) as f64,
    );
    if let Some(dir) = &state.sweeps.trace_dir {
        let counters = dir.counters();
        state.metrics.gauge("server.trace_cache", "hits", counters.hits as f64);
        state.metrics.gauge("server.trace_cache", "misses", counters.misses as f64);
        state.metrics.gauge("server.trace_cache", "bytes", counters.bytes as f64);
    }
    if state.results.enabled() {
        let counters = state.results.counters();
        state.metrics.gauge("server.result_cache", "hits", counters.hits as f64);
        state.metrics.gauge("server.result_cache", "disk_hits", counters.disk_hits as f64);
        state.metrics.gauge("server.result_cache", "misses", counters.misses as f64);
        state.metrics.gauge("server.result_cache", "bytes", counters.bytes as f64);
    }
    for member in 0..state.fleet.members().len() {
        let up = if state.fleet.is_alive(member) { 1.0 } else { 0.0 };
        state.metrics.gauge(
            &format!("server.peers.{}", state.fleet.metric_label(member)),
            "up",
            up,
        );
    }
}

fn metrics_snapshot(state: &Shared, request: &Request) -> Response {
    refresh_gauges(state);
    // `server.started` (recorded at bind) guarantees the `server.*`
    // namespace is present even in the very first scrape; this request's
    // own counter lands in the *next* snapshot via finish_request.
    let snapshot = state.metrics.snapshot();
    if wants_prometheus(request) {
        return Response::text(
            200,
            fetchvp_tracing::prom::render(&snapshot),
            fetchvp_tracing::prom::CONTENT_TYPE,
        );
    }
    Response::json(200, snapshot.to_json().to_json())
}

/// One member's contribution to `/fleet/metrics`: who it is (address,
/// crate version, uptime), what it is doing (live jobs with progress
/// snapshots) and its full metrics snapshot.
fn fleet_member_json(state: &Shared) -> Json {
    refresh_gauges(state);
    let addr = state
        .fleet
        .members()
        .get(state.fleet.self_index())
        .cloned()
        .unwrap_or_else(|| state.config.addr.clone());
    Json::object([
        ("addr".to_string(), Json::Str(addr)),
        ("version".to_string(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("uptime_seconds".to_string(), Json::UInt(state.started.elapsed().as_secs())),
        ("live_jobs".to_string(), state.jobs.live_json()),
        ("metrics".to_string(), state.metrics.snapshot().to_json()),
    ])
}

/// Builds the merged `/fleet/metrics` document: this member's own report
/// plus one forwarded fetch per peer (blocking — never run on the event
/// loop in fleet mode). Unreachable peers are marked `"down"` (and their
/// liveness flag flipped) instead of failing the whole aggregation, and
/// counters of every reporting member are summed into a fleet-wide
/// `summed.counters` section.
fn fleet_metrics_merged(state: &Shared) -> Response {
    let mut members: Vec<(String, Json)> = Vec::new();
    let mut summed: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut reporting = 0u64;
    let mut sum_counters = |doc: &Json| {
        if let Some(counters) = doc.get_path("metrics.counters").and_then(Json::as_object) {
            for (key, value) in counters {
                if let Some(n) = value.as_u64() {
                    *summed.entry(key.clone()).or_insert(0) += n;
                }
            }
        }
    };
    if state.fleet.is_fleet() {
        let probe = Request {
            method: "GET".to_string(),
            path: "/fleet/metrics".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        for (member, addr) in state.fleet.members().iter().enumerate() {
            let (status, doc) = if member == state.fleet.self_index() {
                ("self", Some(fleet_member_json(state)))
            } else {
                let fetched = state
                    .fleet
                    .is_alive(member)
                    .then(|| proxy_or_mark_dead(state, member, &probe))
                    .flatten()
                    .filter(|response| response.status == 200)
                    .and_then(|response| Json::parse(&response.body).ok());
                match fetched {
                    Some(doc) => ("up", Some(doc)),
                    None => ("down", None),
                }
            };
            let mut pairs = vec![("status".to_string(), Json::Str(status.to_string()))];
            if let Some(doc) = doc {
                reporting += 1;
                sum_counters(&doc);
                if let Some(fields) = doc.as_object() {
                    pairs.extend(fields.iter().cloned());
                }
            }
            members.push((addr.clone(), Json::object(pairs)));
        }
    } else {
        let doc = fleet_member_json(state);
        reporting = 1;
        sum_counters(&doc);
        let mut pairs = vec![("status".to_string(), Json::Str("self".to_string()))];
        pairs.extend(doc.as_object().into_iter().flatten().cloned());
        members.push((state.config.addr.clone(), Json::object(pairs)));
    }
    let summed_counters =
        summed.into_iter().map(|(key, value)| (key, Json::UInt(value))).collect::<Vec<_>>();
    let doc = Json::object([
        ("fleet_size".to_string(), Json::UInt(state.fleet.members().len().max(1) as u64)),
        ("reporting".to_string(), Json::UInt(reporting)),
        ("members".to_string(), Json::object(members)),
        (
            "summed".to_string(),
            Json::object([("counters".to_string(), Json::object(summed_counters))]),
        ),
    ]);
    Response::json(200, doc.to_json())
}

/// Seconds a rejected client should wait before retrying, derived from
/// the live drain rate: `ceil(queued × mean job latency / workers)`,
/// clamped to `1..=60`. Before any job has finished (no latency history)
/// each queued job is assumed to take one second.
fn retry_after_hint(state: &Shared) -> u64 {
    // +1 for the job that was just bounced: the client retries behind
    // everything currently queued.
    let queued = state.queue.len() as u64 + 1;
    let mean_ms = state
        .metrics
        .get_histogram("server.job_latency_ms")
        .map(|h| h.mean())
        .filter(|&mean| mean > 0.0)
        .unwrap_or(1000.0);
    let workers = state.config.workers.max(1) as f64;
    let seconds = (queued as f64 * mean_ms / workers / 1000.0).ceil() as u64;
    seconds.clamp(1, 60)
}

/// Whether this request already made its one proxy hop — such requests
/// are always handled locally, which is what bounds a stale ring view at
/// one extra hop instead of a forwarding loop.
fn is_forwarded(request: &Request) -> bool {
    request.header(peers::FORWARDED_HEADER).is_some()
}

/// Proxies `request` to `member`, falling back to `None` (and marking
/// the peer dead) when the hop fails, so the caller degrades to local
/// handling instead of surfacing a peer's failure to the client.
fn proxy_or_mark_dead(state: &Shared, member: usize, request: &Request) -> Option<Response> {
    match state.fleet.proxy(member, request) {
        Some(mut response) => {
            state.metrics.counter("server.peers", "proxied", 1);
            // Stamp the relay (`X-Fetchvp-Proxied: 1`) so clients can
            // attribute the extra hop's latency.
            response.proxied = true;
            Some(response)
        }
        None => {
            state.metrics.counter("server.peers", "proxy_errors", 1);
            if state.fleet.set_alive(member, false) {
                state.metrics.counter("server.peers", "health_flips", 1);
            }
            None
        }
    }
}

fn submit(state: &Shared, request: &Request, local_only: bool) -> Routed {
    if state.should_shutdown() {
        return Routed::Ready(Response::retry_after(503, error_body("server is shutting down"), 1));
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Routed::Ready(Response::json(400, error_body("body is not UTF-8"))),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Routed::Ready(Response::json(400, error_body(&e.to_string()))),
    };
    let spec = match JobSpec::from_json_with_limits(&doc, state.sweeps.trace_dir.is_some()) {
        Ok(spec) => spec,
        Err(e) => return Routed::Ready(Response::json(400, error_body(&e))),
    };

    // Fleet routing: the spec's canonical hash names exactly one owner;
    // everyone else proxies a single hop (off the event loop). A failed
    // hop degrades to running the job locally.
    let hash = spec.canonical_hash();
    if !local_only && state.fleet.is_fleet() && !is_forwarded(request) {
        let owner = state.fleet.owner_of(hash);
        if owner != state.fleet.self_index() {
            return Routed::Proxy { member: owner };
        }
    }

    // Result cache: a spec answered before is a dictionary lookup — the
    // result is inlined and the response is self-contained (nothing to
    // poll), so no job record is minted and a flood of warm cache hits
    // cannot grow the job table.
    if let Some(result) = state.results.get(hash, &spec.canonical()) {
        state.metrics.counter("server.jobs", "cached", 1);
        let body = Json::object([
            status_pair("done"),
            ("cached".to_string(), Json::Bool(true)),
            ("result".to_string(), result),
        ]);
        return Routed::Ready(Response::json(200, body.to_json()));
    }

    let id = state.jobs.create(spec.clone());
    Routed::Ready(match state.queue.try_push((id, spec)) {
        Ok(depth) => {
            state.metrics.counter("server.queue", "admitted", 1);
            let body = Json::object([
                ("job".to_string(), Json::UInt(id)),
                status_pair("queued"),
                ("queue_depth".to_string(), Json::UInt(depth as u64)),
            ]);
            Response::json(202, body.to_json())
        }
        Err(_) => {
            state.jobs.remove(id);
            state.metrics.counter("server.queue", "rejected", 1);
            Response::retry_after(503, error_body("queue full"), retry_after_hint(state))
        }
    })
}

fn job_status(state: &Shared, request: &Request, path: &str, local_only: bool) -> Routed {
    let id_text = &path["/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return Routed::Ready(Response::json(400, error_body("job id must be an integer")));
    };
    // In a fleet the id encodes its owner; ids minted elsewhere are
    // proxied one hop to the member that holds the record.
    let owner = JobTable::owner_of(id, state.fleet.stride()) as usize;
    if !local_only
        && state.fleet.is_fleet()
        && owner != state.fleet.self_index()
        && !is_forwarded(request)
    {
        return Routed::Proxy { member: owner };
    }
    Routed::Ready(match state.jobs.get_json(id) {
        Some(doc) => Response::json(200, doc.to_json()),
        None => Response::json(404, error_body(&format!("no job {id}"))),
    })
}

/// `GET /jobs/<id>/events` — routes to a live stream of the job's
/// progress ring, a streaming relay hop when another fleet member owns
/// the id, or `404` when no record exists (ids never minted, evicted
/// terminal records, and cache-hit submissions, which are answered
/// inline without a record).
fn job_events(state: &Shared, request: &Request, path: &str, local_only: bool) -> Routed {
    let tail = &path["/jobs/".len()..];
    let id_text = tail.strip_suffix("/events").unwrap_or(tail);
    let Ok(id) = id_text.parse::<u64>() else {
        return Routed::Ready(Response::json(400, error_body("job id must be an integer")));
    };
    let owner = JobTable::owner_of(id, state.fleet.stride()) as usize;
    if !local_only
        && state.fleet.is_fleet()
        && owner != state.fleet.self_index()
        && !is_forwarded(request)
    {
        return Routed::StreamProxy { member: owner };
    }
    match state.jobs.progress(id) {
        Some(progress) => Routed::Stream { progress },
        None => Routed::Ready(Response::json(404, error_body(&format!("no job {id}")))),
    }
}

/// Process-wide termination flag set from `SIGTERM`/`SIGINT`.
///
/// `std` exposes no signal API and the workspace links no crates, but
/// `std` itself links libc, so declaring `signal(2)` directly keeps the
/// daemon zero-dependency. The handler only stores to an atomic —
/// async-signal-safe — and the event loop checks the flag every tick.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the `SIGTERM`/`SIGINT` handlers (idempotent).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(queue_depth: usize) -> Shared {
        Shared {
            // Pin workers so tests that exercise the Retry-After math are
            // independent of the host's core count.
            config: ServerConfig { queue_depth, workers: 4, ..ServerConfig::default() },
            queue: BoundedQueue::new(queue_depth),
            jobs: JobTable::new(),
            metrics: SharedRegistry::new(),
            sweeps: SweepPool::new(None),
            results: ResultCache::new(8, None),
            fleet: Fleet::standalone(),
            proxies: BoundedQueue::new(PROXY_QUEUE_DEPTH),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    fn get(state: &Shared, path: &str) -> Response {
        respond(
            state,
            &Request {
                method: "GET".to_string(),
                path: path.to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            Instant::now(),
        )
    }

    fn post(state: &Shared, path: &str, body: &str) -> Response {
        respond(
            state,
            &Request {
                method: "POST".to_string(),
                path: path.to_string(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            },
            Instant::now(),
        )
    }

    #[test]
    fn healthz_reports_ok() {
        let state = test_state(4);
        let response = get(&state, "/healthz");
        assert_eq!(response.status, 200);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn submit_validates_then_queues() {
        let state = test_state(4);
        assert_eq!(post(&state, "/run", "not json").status, 400);
        assert_eq!(post(&state, "/run", r#"{"experiment": "fig9-9"}"#).status, 400);
        let ok = post(&state, "/run", r#"{"experiment": "bench", "trace_len": 1000}"#);
        assert_eq!(ok.status, 202);
        let doc = Json::parse(&ok.body).unwrap();
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(1));
        assert_eq!(state.queue.len(), 1);
        assert_eq!(get(&state, "/jobs/1").status, 200);
        assert_eq!(get(&state, "/jobs/99").status, 404);
        assert_eq!(get(&state, "/jobs/xyz").status, 400);
    }

    #[test]
    fn full_queue_answers_503_with_retry_after() {
        let state = test_state(1);
        assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        let rejected = post(&state, "/run", r#"{"experiment": "bench"}"#);
        assert_eq!(rejected.status, 503);
        // No latency history yet: 2 outstanding × 1s assumed / 4 workers,
        // ceiled — the minimum hint.
        assert_eq!(rejected.retry_after, Some(1));
        // The rejected job's record was rolled back.
        assert_eq!(get(&state, "/jobs/2").status, 404);
        assert_eq!(state.jobs.counts(), (1, 0, 0, 0));
    }

    #[test]
    fn retry_after_tracks_queue_depth_and_drain_rate() {
        let state = test_state(32);
        // 9 queued + the bounced one = 10 outstanding; no history yet →
        // assume 1s each over 4 workers: ceil(10/4) = 3.
        for _ in 0..9 {
            assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        }
        assert_eq!(retry_after_hint(&state), 3);
        // Jobs observed to finish in ~2s each: ceil(10 × 2 / 4) = 5.
        state.metrics.observe("server", "job_latency_ms", 2000);
        assert_eq!(retry_after_hint(&state), 5);
        // Fast drain (40ms jobs): clamps up to the 1-second floor.
        let state = test_state(32);
        state.metrics.observe("server", "job_latency_ms", 40);
        assert_eq!(retry_after_hint(&state), 1);
        // Pathological backlog: capped at 60 so clients do retry.
        let state = test_state(512);
        for _ in 0..500 {
            assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        }
        state.metrics.observe("server", "job_latency_ms", 10_000);
        assert_eq!(retry_after_hint(&state), 60);
    }

    #[test]
    fn repeated_deterministic_specs_hit_the_result_cache() {
        let state = test_state(4);
        let spec = r#"{"experiment": "table3-1", "trace_len": 300}"#;
        let first = post(&state, "/run", spec);
        assert_eq!(first.status, 202, "cold cache: the job must queue");
        state.queue.close();
        worker_loop(&state);
        let done = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        let uncached_result = done.get("result").unwrap().to_json();

        // Same spec, noisy formatting: answered inline from the cache.
        let second = post(&state, "/run", r#"{ "trace_len": 300, "experiment": "table3-1" }"#);
        assert_eq!(second.status, 200);
        let doc = Json::parse(&second.body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("result").unwrap().to_json(),
            uncached_result,
            "cached result must be byte-identical to the uncached run"
        );
        // A cache hit is self-contained: no job record is minted, so the
        // table stays bounded no matter how much warm traffic repeats.
        assert!(doc.get("job").is_none(), "cache hits must not mint a job id");
        assert_eq!(state.jobs.counts(), (0, 0, 1, 0), "only the cold run has a record");
        assert_eq!(state.results.counters().hits, 1);
        let snapshot = state.metrics.snapshot();
        assert_eq!(snapshot.get_counter("server.jobs.cached"), Some(1));
        assert_eq!(
            snapshot.get_counter("server.sweep_pool.misses"),
            Some(1),
            "the cache hit must not touch the sweep pool"
        );

        // A spec differing in any canonical field misses: it falls
        // through to the queue path (503 here only because this test
        // already closed the queue) instead of being answered inline.
        let miss = post(&state, "/run", r#"{"experiment": "table3-1", "trace_len": 301}"#);
        assert_ne!(miss.status, 200, "different trace_len must be a cache miss");
        assert_eq!(state.results.counters().misses, 2, "cold lookup + changed-field lookup");
    }

    #[test]
    fn repeated_bench_specs_hit_the_result_cache() {
        let state = test_state(4);
        let spec = r#"{"experiment": "bench", "trace_len": 300}"#;
        assert_eq!(post(&state, "/run", spec).status, 202, "cold cache: the job must queue");
        state.queue.close();
        worker_loop(&state);
        let done = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
        let uncached_result = done.get("result").unwrap().to_json();

        // The bench report is a pure function of its spec, so the repeat
        // is answered inline from the cache, byte-identical to the run.
        let second = post(&state, "/run", spec);
        assert_eq!(second.status, 200);
        let doc = Json::parse(&second.body).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("result").unwrap().to_json(), uncached_result);
        assert_eq!(state.results.counters().hits, 1);
    }

    #[test]
    fn unknown_paths_and_methods() {
        let state = test_state(4);
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(post(&state, "/healthz", "").status, 405);
        assert_eq!(post(&state, "/jobs/1", "").status, 405);
        assert_eq!(get(&state, "/run").status, 405);
    }

    #[test]
    fn shutdown_flag_rejects_new_submissions() {
        let state = test_state(4);
        assert_eq!(post(&state, "/shutdown", "").status, 200);
        assert!(state.should_shutdown());
        assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 503);
    }

    #[test]
    fn worker_executes_a_tiny_job_end_to_end() {
        let state = test_state(4);
        let ok = post(&state, "/run", r#"{"experiment": "table3-1", "trace_len": 300}"#);
        assert_eq!(ok.status, 202);
        state.queue.close(); // worker drains the one job, then exits
        worker_loop(&state);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert!(doc.get_path("result.csv").is_some());
        let snapshot = state.metrics.snapshot();
        assert_eq!(snapshot.get_counter("server.jobs.completed"), Some(1));
        assert_eq!(snapshot.get_counter("server.sweep_pool.misses"), Some(1));
    }

    #[test]
    fn metrics_negotiates_prometheus_exposition() {
        let state = test_state(4);
        state.metrics.counter("server", "started", 1); // recorded by bind()
        let json = get(&state, "/metrics");
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        Json::parse(&json.body).expect("default /metrics body stays JSON");

        let prom = respond(
            &state,
            &Request {
                method: "GET".to_string(),
                path: "/metrics".to_string(),
                headers: vec![("accept".to_string(), "text/plain".to_string())],
                body: Vec::new(),
            },
            Instant::now(),
        );
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, fetchvp_tracing::prom::CONTENT_TYPE);
        assert!(
            prom.body.lines().any(|l| l == "fetchvp_server_started 1"),
            "exposition must carry the started counter:\n{}",
            prom.body
        );
        assert!(prom.body.contains("# TYPE fetchvp_server_started counter"), "{}", prom.body);
    }

    #[test]
    fn out_of_core_specs_are_admitted_only_with_a_trace_dir() {
        let big_spec = r#"{"experiment": "fig3-1", "trace_len": 50000000}"#;

        let state = test_state(4);
        let rejected = post(&state, "/run", big_spec);
        assert_eq!(rejected.status, 400);
        assert!(
            rejected.body.contains("trace directory"),
            "rejection must name the missing capability: {}",
            rejected.body
        );

        // Same spec with a trace directory configured: admitted. The job
        // only queues here (no worker), so nothing touches the disk yet
        // and the lazily-created directory never materialises.
        let dir = std::env::temp_dir().join("fetchvp-server-ooc-admission-test");
        let state =
            Shared { sweeps: SweepPool::new(Some(Arc::new(TraceDir::new(&dir)))), ..test_state(4) };
        assert_eq!(post(&state, "/run", big_spec).status, 202);

        // Analysis experiments stay memory-bound even with the directory.
        let analysis = r#"{"experiment": "fig3-3", "trace_len": 50000000}"#;
        let rejected = post(&state, "/run", analysis);
        assert_eq!(rejected.status, 400);
        assert!(rejected.body.contains("cannot replay out-of-core"), "{}", rejected.body);
    }

    #[test]
    fn job_documents_carry_live_progress_snapshots() {
        let state = test_state(4);
        let ok = post(&state, "/run", r#"{"experiment": "fig3-1", "trace_len": 400}"#);
        assert_eq!(ok.status, 202);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some("queued"));
        assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(0));
        state.queue.close();
        worker_loop(&state);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(100));
        let done = doc.get_path("progress.instructions_done").and_then(Json::as_u64).unwrap();
        let total = doc.get_path("progress.instructions_total").and_then(Json::as_u64).unwrap();
        assert!(total > 0 && done >= total, "sweep must have walked every instruction");
    }

    #[test]
    fn events_endpoint_replays_the_ring_and_404s_unknown_jobs() {
        let state = test_state(4);
        assert_eq!(get(&state, "/jobs/1/events").status, 404, "no record yet");
        assert_eq!(get(&state, "/jobs/x/events").status, 400);
        let ok = post(&state, "/run", r#"{"experiment": "fig3-1", "trace_len": 400}"#);
        assert_eq!(ok.status, 202);
        state.queue.close();
        worker_loop(&state);
        // The threaded/test fallback serves the ring as one NDJSON body.
        let stream = get(&state, "/jobs/1/events");
        assert_eq!(stream.status, 200);
        assert_eq!(stream.content_type, STREAM_CONTENT_TYPE);
        let lines: Vec<&str> = stream.body.lines().collect();
        assert!(lines.len() >= 3, "expect queued + running + progress + done:\n{}", stream.body);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("phase").and_then(Json::as_str), Some("queued"));
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("phase").and_then(Json::as_str), Some("done"));
        // instructions_done is monotone across the whole stream.
        let done: Vec<u64> = lines
            .iter()
            .map(|l| {
                Json::parse(l).unwrap().get("instructions_done").and_then(Json::as_u64).unwrap()
            })
            .collect();
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "{done:?}");
    }

    #[test]
    fn cached_result_submissions_have_no_stream() {
        let state = test_state(4);
        let spec = r#"{"experiment": "table3-1", "trace_len": 300}"#;
        assert_eq!(post(&state, "/run", spec).status, 202);
        state.queue.close();
        worker_loop(&state);
        let hit = post(&state, "/run", spec);
        assert_eq!(hit.status, 200, "second submission must be a cache hit");
        assert!(hit.body.contains("\"cached\""));
        // The hit minted no job record, so there is nothing to stream.
        assert_eq!(get(&state, "/jobs/2/events").status, 404);
    }

    #[test]
    fn standalone_fleet_metrics_reports_a_single_member() {
        let state = test_state(4);
        state.metrics.counter("server", "started", 1);
        let response = get(&state, "/fleet/metrics");
        assert_eq!(response.status, 200);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(1));
        let members = doc.get("members").and_then(Json::as_object).unwrap();
        assert_eq!(members.len(), 1);
        let (_, member) = &members[0];
        assert_eq!(member.get("status").and_then(Json::as_str), Some("self"));
        assert_eq!(member.get("version").and_then(Json::as_str), Some(env!("CARGO_PKG_VERSION")));
        assert!(member.get("live_jobs").is_some());
        assert_eq!(
            doc.get_path("summed.counters")
                .and_then(|c| c.get("server.started"))
                .and_then(Json::as_u64),
            Some(1),
            "summed counters must include the member's own:\n{}",
            response.body
        );
        // Method guard matches the other endpoints.
        assert_eq!(post(&state, "/fleet/metrics", "").status, 405);
    }

    /// A fleet peer that answers one proxy hop with hostile bytes: the
    /// hop must fail (nothing relayed), count as a proxy error and mark
    /// the peer dead, whatever the flavor of garbage.
    #[test]
    fn hostile_peer_replies_are_dropped_and_the_peer_marked_dead() {
        use http::client::tests::{reply_with_body, serve_once};
        use http::client::MAX_RESPONSE_BYTES;
        let cases = [
            ("a body one byte past the cap", reply_with_body(MAX_RESPONSE_BYTES + 1)),
            ("a garbage status line", b"HTTP/1.1 OK maybe\r\n\r\n{}".to_vec()),
            (
                "a Content-Length longer than what arrives",
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}".to_vec(),
            ),
        ];
        for (what, reply) in cases {
            let (peer, served) = serve_once(reply);
            // Self is a placeholder address: it only has to resolve.
            let members = vec!["127.0.0.1:1".to_string(), peer];
            let fleet = Fleet::from_members(&members, "127.0.0.1:1".parse().unwrap()).unwrap();
            let state = Shared { fleet, ..test_state(4) };
            let request = Request {
                method: "GET".to_string(),
                path: "/jobs/1".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            };
            assert!(proxy_or_mark_dead(&state, 1, &request).is_none(), "{what} was relayed");
            assert!(
                served.join().unwrap().header(peers::FORWARDED_HEADER).is_some(),
                "the hop must be marked forwarded"
            );
            assert_eq!(
                state.metrics.snapshot().get_counter("server.peers.proxy_errors"),
                Some(1),
                "{what}"
            );
            assert!(!state.fleet.is_alive(1), "{what} must mark the peer dead");
        }
    }

    #[test]
    fn sweep_pool_shares_traces_between_equal_configs() {
        let pool = SweepPool::new(None);
        let spec = JobSpec { trace_len: 500, ..JobSpec::default() };
        let (first, hit_first) = pool.sweep_for(&spec);
        first.cache().trace(0);
        let (second, hit_second) = pool.sweep_for(&spec);
        assert!(!hit_first && hit_second);
        assert_eq!(second.cache().generated(), 1, "trace must already be warm");
        let other = JobSpec { trace_len: 600, ..JobSpec::default() };
        let (third, hit_third) = pool.sweep_for(&other);
        assert!(!hit_third);
        assert_eq!(third.cache().generated(), 0);
    }
}
