//! End-to-end tests for `fetchvp serve`: a real daemon on an ephemeral
//! port, driven through `http::client` exactly like an external client.
//!
//! The two contracts under test:
//!
//! 1. **Served determinism** — a job submitted over HTTP returns counter
//!    sections byte-identical to running the same spec in-process with a
//!    serial sweep, no matter how many client threads submit concurrently
//!    or how many pool workers execute.
//! 2. **Backpressure** — a full queue answers `503` + `Retry-After`
//!    immediately (never blocks, never panics), and every job the server
//!    `202`-accepted still runs to completion.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fetchvp_experiments::{bench, JobSpec, Sweep};
use fetchvp_metrics::Json;
use fetchvp_server::http::client::{self, Reply, Timeouts};
use fetchvp_server::{Server, ServerConfig};

const TIMEOUTS: Timeouts =
    Timeouts { connect: Duration::from_secs(5), io: Duration::from_secs(30) };

/// A reply body as JSON, panicking with the body when it is not.
trait JsonBody {
    fn json(&self) -> Json;
}

impl JsonBody for Reply {
    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body: {e}\n{}", self.body))
    }
}

/// One HTTP/1.1 exchange over a fresh connection (the server's model:
/// one request per connection, `Connection: close`).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let body = body.unwrap_or("").as_bytes();
    client::exchange(&addr.to_string(), method, path, &[], body, TIMEOUTS)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal status.
fn wait_for_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(reply.status, 200, "job {id} lookup failed: {}", reply.body);
        let doc = reply.json();
        let status = doc.get("status").and_then(Json::as_str).expect("status field").to_string();
        if status == "done" || status == "failed" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{status}`");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Binds a server on an ephemeral loopback port and runs it on a thread.
fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_string(), ..config })
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = request(addr, "POST", "/shutdown", None);
    assert_eq!(reply.status, 200, "shutdown refused: {}", reply.body);
    handle.join().expect("server thread").expect("server run() returned an error");
}

#[test]
fn served_jobs_are_byte_identical_to_in_process_runs() {
    let (addr, handle) =
        start(ServerConfig { workers: 3, queue_depth: 32, ..ServerConfig::default() });

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.json().get("status").and_then(Json::as_str), Some("ok"));

    // 8 jobs from 8 client threads: two sweep configurations (seeds 7 and
    // 11), each submitted at four inner-sweep widths. Every spec is
    // distinct, so none is answered from the result cache, while the two
    // configurations make the sweep pool serve both hits and misses as
    // workers execute concurrently.
    let seeds = [7, 11];
    let specs: Vec<String> = (0..8)
        .map(|i| {
            let (seed, jobs) = (seeds[i % 2], 1 + i / 2);
            format!(
                r#"{{"experiment": "bench", "trace_len": 2000, "seed": {seed}, "jobs": {jobs}}}"#
            )
        })
        .collect();
    let ids: Vec<(usize, u64)> = std::thread::scope(|s| {
        let submitters: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                s.spawn(move || {
                    let reply = request(addr, "POST", "/run", Some(spec));
                    assert_eq!(reply.status, 202, "submit {i} rejected: {}", reply.body);
                    let doc = reply.json();
                    assert_eq!(doc.get("status").and_then(Json::as_str), Some("queued"));
                    (i % seeds.len(), doc.get("job").and_then(Json::as_u64).expect("job id"))
                })
            })
            .collect();
        submitters.into_iter().map(|t| t.join().expect("submitter thread")).collect()
    });
    assert_eq!(ids.len(), 8);

    // The oracle: each configuration run in-process on a serial sweep.
    let oracles: Vec<_> = specs[..seeds.len()]
        .iter()
        .map(|text| {
            let spec = JobSpec::from_json(&Json::parse(text).unwrap()).unwrap();
            let report = bench::run_with(&Sweep::with_jobs(&spec.config(), 1));
            (spec, report)
        })
        .collect();

    for (which, id) in &ids {
        let doc = wait_for_job(addr, *id);
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("done"),
            "job {id} failed: {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("<no error>")
        );
        let (spec, report) = &oracles[*which];
        assert_eq!(
            doc.get_path("spec.seed").and_then(Json::as_u64),
            Some(spec.seed),
            "job {id} echoed the wrong spec"
        );
        let result = doc.get("result").expect("done job has a result");
        assert_eq!(
            result.to_json(),
            report.to_json().to_json(),
            "job {id}: served report differs from the serial run"
        );
        for w in &report.workloads {
            let served = result
                .get_path("workloads")
                .and_then(|all| all.get(w.name))
                .unwrap_or_else(|| panic!("job {id} result is missing workload {}", w.name));
            assert_eq!(
                served.get("instructions").and_then(Json::as_u64),
                Some(w.instructions),
                "job {id} {}: instruction counts differ from the serial run",
                w.name
            );
            assert_eq!(
                served.get("counters").map(Json::to_json),
                Some(w.registry.counters_json().to_json()),
                "job {id} {}: served counters differ from the serial run",
                w.name
            );
        }
    }

    // Error paths, still over the wire.
    let bad = request(addr, "POST", "/run", Some(r#"{"experiment": "fig9-9"}"#));
    assert_eq!(bad.status, 400);
    assert!(bad.json().get("error").and_then(Json::as_str).unwrap().contains("fig9-9"));
    assert_eq!(request(addr, "GET", "/jobs/999999", None).status, 404);
    assert_eq!(request(addr, "GET", "/jobs/not-a-number", None).status, 400);
    assert_eq!(request(addr, "PUT", "/run", Some("{}")).status, 405);
    assert_eq!(request(addr, "GET", "/nope", None).status, 404);

    // The live registry: server counters plus the simulator namespaces
    // merged from completed bench jobs, parseable by our own Json.
    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let doc = metrics.json();
    let counters = doc.get("counters").and_then(Json::as_object).expect("counters section");
    for namespace in ["server.", "sched.", "trace."] {
        assert!(
            counters.iter().any(|(k, _)| k.starts_with(namespace)),
            "metrics missing `{namespace}*` counters (got {:?})",
            counters.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        doc.get_path("counters")
            .and_then(|c| c.get("server.jobs.completed"))
            .and_then(Json::as_u64),
        Some(8),
        "all eight jobs should be counted as completed"
    );
    assert!(
        doc.get("histograms").and_then(|h| h.get("server.job_latency_ms")).is_some(),
        "metrics missing the job latency histogram"
    );
    assert!(
        doc.get("gauges").and_then(|g| g.get("server.queue.depth")).is_some(),
        "metrics missing the queue depth gauge"
    );

    shutdown(addr, handle);
}

#[test]
fn full_queue_answers_503_and_accepted_jobs_still_finish() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });

    // A single worker and a one-slot queue: a burst of slow-ish jobs must
    // overflow. Submissions happen from twelve threads at once so rejection
    // is exercised under contention, not just sequentially. Each spec is
    // distinct, so a job finishing mid-burst cannot turn a later
    // submission into a result-cache hit.
    let replies: Vec<(u16, Option<String>, Option<u64>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..12)
            .map(|seed| {
                s.spawn(move || {
                    let spec = format!(
                        r#"{{"experiment": "bench", "trace_len": 20000, "seed": {}}}"#,
                        5 + seed
                    );
                    let reply = request(addr, "POST", "/run", Some(&spec));
                    let retry = reply.header("Retry-After").map(str::to_string);
                    let id = reply.json().get("job").and_then(Json::as_u64);
                    (reply.status, retry, id)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });

    let accepted: Vec<u64> =
        replies.iter().filter(|(s, _, _)| *s == 202).filter_map(|(_, _, id)| *id).collect();
    let rejected: Vec<_> = replies.iter().filter(|(s, _, _)| *s == 503).collect();
    assert!(
        !accepted.is_empty(),
        "at least one job must be admitted (statuses: {:?})",
        replies.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
    );
    assert!(
        !rejected.is_empty(),
        "a one-slot queue must reject part of a 12-job burst (statuses: {:?})",
        replies.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
    );
    for (_, retry, _) in &rejected {
        assert!(retry.is_some(), "503 must carry Retry-After");
    }

    // The 202 contract: everything admitted completes.
    for id in &accepted {
        let doc = wait_for_job(addr, *id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"), "job {id}");
    }

    let metrics = request(addr, "GET", "/metrics", None).json();
    let counter = |name: &str| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("server.queue.admitted"), accepted.len() as u64);
    assert_eq!(counter("server.queue.rejected"), rejected.len() as u64);
    assert_eq!(counter("server.jobs.completed"), accepted.len() as u64);

    shutdown(addr, handle);
}

/// The result cache makes a repeated deterministic spec a dictionary
/// lookup: the second POST of an identical spec (even reformatted) is
/// answered inline with a byte-identical result, without any new
/// sweep-pool or worker activity; changing any canonical field misses.
#[test]
fn identical_specs_hit_the_result_cache() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let spec = r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9}"#;

    // Cold: the job queues and a worker simulates it.
    let cold = request(addr, "POST", "/run", Some(spec));
    assert_eq!(cold.status, 202, "{}", cold.body);
    let id = cold.json().get("job").and_then(Json::as_u64).unwrap();
    let uncached = wait_for_job(addr, id);
    assert_eq!(uncached.get("status").and_then(Json::as_str), Some("done"));
    let uncached_result = uncached.get("result").expect("result document").to_json();

    let counters_before = request(addr, "GET", "/metrics", None).json();
    let pool_work = |doc: &Json| {
        let counter = |name: &str| {
            doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
        };
        counter("server.sweep_pool.hits") + counter("server.sweep_pool.misses")
    };

    // Warm: same spec with different formatting and explicit defaults —
    // answered inline, result byte-identical, no new pool work.
    let reformatted = r#"{ "seed": 9, "experiment": "table3-1", "trace_len": 1000, "jobs": 1 }"#;
    let warm = request(addr, "POST", "/run", Some(reformatted));
    assert_eq!(warm.status, 200, "cache hit answers inline: {}", warm.body);
    let doc = warm.json();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(doc.get("cached").map(Json::to_json), Some("true".to_string()));
    assert_eq!(
        doc.get("result").expect("inlined result").to_json(),
        uncached_result,
        "cached result must be byte-identical to the uncached run"
    );
    // A cache hit is self-contained: no job record is minted, so warm
    // traffic cannot grow the job table.
    assert!(doc.get("job").is_none(), "cache hits must not mint a job id: {}", warm.body);

    let metrics = request(addr, "GET", "/metrics", None).json();
    assert_eq!(
        pool_work(&metrics),
        pool_work(&counters_before),
        "a cache hit must not create sweep-pool work"
    );
    let counter = |name: &str| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("server.jobs.cached"), 1);
    assert_eq!(counter("server.jobs.completed"), 1, "only the cold job ran");
    let gauge = |name: &str| {
        metrics.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_f64).unwrap_or(-1.0)
    };
    assert_eq!(gauge("server.result_cache.hits"), 1.0);
    assert!(gauge("server.result_cache.misses") >= 1.0, "the cold lookup was a miss");

    // Any canonical field changing is a miss: the job queues again.
    for changed in [
        r#"{"experiment": "table3-1", "trace_len": 1001, "seed": 9}"#,
        r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 10}"#,
        r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9, "jobs": 2}"#,
        r#"{"experiment": "accuracy", "trace_len": 1000, "seed": 9}"#,
    ] {
        let miss = request(addr, "POST", "/run", Some(changed));
        assert_eq!(miss.status, 202, "changed field must miss: {changed}");
        let id = miss.json().get("job").and_then(Json::as_u64).unwrap();
        wait_for_job(addr, id);
    }

    shutdown(addr, handle);
}

/// Keep-alive audit: the daemon serves exactly one request per
/// connection, so every response — success *and* every error path — must
/// carry `Connection: close`, and `503`s must carry a `Retry-After`
/// derived from the live queue state (at least 1 second).
#[test]
fn every_path_closes_the_connection_and_503_hints_a_retry() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });

    let paths: &[(&str, &str, Option<&str>, u16)] = &[
        ("GET", "/healthz", None, 200),
        ("POST", "/run", Some(r#"{"experiment": "fig9-9"}"#), 400),
        ("GET", "/jobs/424242", None, 404),
        ("PUT", "/run", Some("{}"), 405),
        ("GET", "/nope", None, 404),
    ];
    for (method, path, body, expected) in paths {
        let reply = request(addr, method, path, *body);
        assert_eq!(reply.status, *expected, "{method} {path}");
        assert_eq!(
            reply.header("Connection"),
            Some("close"),
            "{method} {path} ({expected}) must tell keep-alive clients to hang up"
        );
    }
    // An oversized declared body is rejected while reading — with the
    // close header intact on the 413.
    let huge = request_with_declared_length(addr, 10 * 1024 * 1024);
    assert_eq!(huge.status, 413);
    assert_eq!(huge.header("Connection"), Some("close"));

    shutdown(addr, handle);
}

/// A POST /run whose `Content-Length` declares `declared` bytes but only
/// sends a few — exercises the header-time body-size rejection. The
/// client always states its true body length, so this request is
/// written by hand.
fn request_with_declared_length(addr: SocketAddr, declared: usize) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let lying = format!("POST /run HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n{{}}");
    stream.write_all(lying.as_bytes()).expect("write request");
    client::read_reply(stream).expect("read response")
}

/// A client that hangs up mid-body gets no response and creates no job:
/// the event loop counts an I/O error and closes the connection.
#[test]
fn a_request_cut_off_mid_body_is_dropped_without_a_job() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });

    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(b"POST /run HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"experiment\":").unwrap();
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut byte = [0u8; 1];
    let n = stream.read(&mut byte).expect("the server closes cleanly");
    assert_eq!(n, 0, "a truncated request must get no response");

    let metrics = request(addr, "GET", "/metrics", None).json();
    let counter = |name: &str| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("server.requests.io_error"), 1, "the cut-off request is counted");
    assert_eq!(counter("server.queue.admitted"), 0, "no job may be created");
    let health = request(addr, "GET", "/healthz", None).json();
    for phase in ["queued", "running", "done", "failed"] {
        let count = health.get("jobs").and_then(|j| j.get(phase)).and_then(Json::as_u64);
        assert_eq!(count, Some(0), "jobs.{phase}");
    }

    shutdown(addr, handle);
}

/// The on-disk trace cache survives daemon restarts: a second server
/// pointed at the same `--trace-dir` must replay every trace from disk
/// without generating anything (all hits, zero misses and zero bytes
/// written on the `server.trace_cache.*` gauges of `/metrics`).
#[test]
fn warm_trace_dir_serves_a_restarted_daemon_without_regenerating() {
    let dir = std::env::temp_dir().join(format!("fetchvp-server-e2e-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The restart submits the same traces at a different inner-sweep width:
    // a distinct spec, so the result cache (which spills next to the trace
    // directory) cannot answer it and the job must replay every trace.
    let cold_spec = r#"{"experiment": "bench", "trace_len": 2000, "seed": 13}"#;
    let warm_spec = r#"{"experiment": "bench", "trace_len": 2000, "seed": 13, "jobs": 2}"#;

    let trace_cache_gauges = |addr: SocketAddr| -> (u64, u64, u64) {
        let doc = request(addr, "GET", "/metrics", None).json();
        let gauge = |name: &str| {
            doc.get("gauges")
                .and_then(|g| g.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("metrics missing gauge {name}")) as u64
        };
        (
            gauge("server.trace_cache.hits"),
            gauge("server.trace_cache.misses"),
            gauge("server.trace_cache.bytes"),
        )
    };
    let run = |addr: SocketAddr, spec: &str| -> Json {
        let reply = request(addr, "POST", "/run", Some(spec));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json().get("job").and_then(Json::as_u64).unwrap();
        let doc = wait_for_job(addr, id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        doc.get("result").expect("done job has a result").clone()
    };

    // Cold daemon: every benchmark trace is generated to disk once.
    let (addr, handle) =
        start(ServerConfig { workers: 1, trace_dir: Some(dir.clone()), ..ServerConfig::default() });
    let cold = run(addr, cold_spec);
    let (hits, cold_misses, bytes) = trace_cache_gauges(addr);
    assert_eq!(hits, 0, "cold cache cannot hit");
    assert!(cold_misses > 0, "cold run must generate every trace");
    assert!(bytes > 0, "cold run writes the traces");
    shutdown(addr, handle);

    // Restarted daemon, same directory: zero generation, all hits.
    let (addr, handle) =
        start(ServerConfig { workers: 1, trace_dir: Some(dir.clone()), ..ServerConfig::default() });
    let warm = run(addr, warm_spec);
    assert_eq!(
        trace_cache_gauges(addr),
        (cold_misses, 0, 0),
        "warm trace dir must not regenerate anything (hits, misses, bytes)"
    );
    assert_eq!(warm.to_json(), cold.to_json(), "replayed traces change the report");
    shutdown(addr, handle);

    std::fs::remove_dir_all(&dir).expect("remove scratch trace dir");
}

/// The sweep pool keeps traces warm across requests: two identical specs
/// must hit the pool the second time (visible in the hit/miss counters).
/// The result cache is disabled here so the second job actually reaches a
/// worker — with caching on it would be answered inline and never touch
/// the pool (covered by `identical_specs_hit_the_result_cache`).
#[test]
fn repeated_specs_hit_the_sweep_pool() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        result_cache_entries: 0,
        ..ServerConfig::default()
    });
    let spec = r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9}"#;
    for _ in 0..2 {
        let reply = request(addr, "POST", "/run", Some(spec));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json().get("job").and_then(Json::as_u64).unwrap();
        let doc = wait_for_job(addr, id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert!(
            doc.get_path("result.csv").and_then(Json::as_str).is_some(),
            "table experiments return CSV"
        );
    }
    let metrics = request(addr, "GET", "/metrics", None).json();
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("server.sweep_pool.misses"))
            .and_then(Json::as_u64),
        Some(1),
        "first job builds the sweep"
    );
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("server.sweep_pool.hits"))
            .and_then(Json::as_u64),
        Some(1),
        "second identical spec reuses it"
    );
    shutdown(addr, handle);
}
