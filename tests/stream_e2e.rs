//! End-to-end tests for `GET /jobs/<id>/events`: a real daemon on an
//! ephemeral port, streamed through `http::client` and the HTTP/1.1
//! chunked-transfer wire format — including the adversarial clients a
//! public endpoint meets in practice.
//!
//! The contracts under test:
//!
//! 1. **Live monotonicity** — a streamed job's `instructions_done`
//!    values never decrease in seq order, and the stream ends with the
//!    terminal event matching the polled job document.
//! 2. **Slow readers** — a reader that falls behind a tiny ring loses
//!    the *oldest* events, is told how many via a `{"dropped": n}`
//!    notice, and still receives the terminal event.
//! 3. **Mid-stream disconnects** — a client hanging up mid-stream leaves
//!    the daemon healthy: the job still completes and new work runs.
//! 4. **Terminal replay** — streaming an already-finished job replays
//!    the retained ring and closes immediately.
//! 5. **Cache hits and bad ids** — a result-cache hit mints no job, so
//!    there is nothing to stream: unknown ids answer a plain `404`,
//!    malformed ids a `400` (never a hung chunked response).
//! 6. *(`--ignored`, release-only)* **Out-of-core streaming** — a
//!    20M-instruction machine sweep replayed chunk-by-chunk from disk
//!    streams `store_chunk` progress and returns a result byte-identical
//!    to the same spec run in-process.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fetchvp_experiments::{JobSpec, Sweep};
use fetchvp_metrics::Json;
use fetchvp_server::http::client::{self, Reply, Timeouts};
use fetchvp_server::{Server, ServerConfig};
use fetchvp_tracestore::TraceDir;

const TIMEOUTS: Timeouts =
    Timeouts { connect: Duration::from_secs(5), io: Duration::from_secs(60) };

/// A reply body as JSON, panicking with the body when it is not.
trait JsonBody {
    fn json(&self) -> Json;
}

impl JsonBody for Reply {
    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body: {e}\n{}", self.body))
    }
}

/// One HTTP/1.1 exchange over a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let body = body.unwrap_or("").as_bytes();
    client::exchange(&addr.to_string(), method, path, &[], body, TIMEOUTS)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

/// Opens `GET /jobs/<id>/events` and returns the socket, reply unread.
fn open_events(addr: SocketAddr, id: u64, io_timeout: Duration) -> TcpStream {
    let path = format!("/jobs/{id}/events");
    let timeouts = Timeouts { io: io_timeout, ..TIMEOUTS };
    client::send(&addr.to_string(), "GET", &path, &[], b"", timeouts).expect("open the stream")
}

/// What a full read of one `GET /jobs/<id>/events` stream produced.
struct StreamedEvents {
    /// Progress events (lines carrying a `seq` field), oldest first.
    events: Vec<Json>,
    /// Total events lost to drop-oldest, summed over `{"dropped": n}`
    /// notices.
    dropped: u64,
    /// Heartbeat lines seen (`{"heartbeat": true}`).
    heartbeats: u64,
}

/// Streams a job's events to EOF, dechunking the HTTP/1.1 chunked
/// transfer. `pause` inserts a client-side stall between reads (the
/// slow-reader simulation); `read_buf` caps how much is pulled per read.
fn stream_events(
    addr: SocketAddr,
    id: u64,
    pause: Option<Duration>,
    read_buf: usize,
) -> StreamedEvents {
    let mut stream = open_events(addr, id, Duration::from_secs(120));
    let mut raw = Vec::new();
    let mut buf = vec![0u8; read_buf.max(1)];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) => panic!("stream read failed after {} bytes: {e}", raw.len()),
        }
        if let Some(pause) = pause {
            std::thread::sleep(pause);
        }
    }
    // No Content-Length: the parsed body is the raw chunked stream.
    let reply = client::parse_reply(&raw).expect("stream has a header block");
    assert_eq!(reply.status, 200, "stream must answer 200: {:?}", reply.headers);
    assert_eq!(
        reply.header("transfer-encoding"),
        Some("chunked"),
        "stream must use chunked transfer: {:?}",
        reply.headers
    );
    assert_eq!(
        reply.header("content-type"),
        Some("application/x-ndjson"),
        "stream must be NDJSON: {:?}",
        reply.headers
    );
    parse_ndjson(&dechunk(&reply.body))
}

/// Reassembles an HTTP/1.1 chunked body (`<hexlen>\r\n<payload>\r\n`...
/// `0\r\n\r\n`) into the payload bytes. Panics on framing errors — a
/// malformed stream is exactly what these tests exist to catch.
fn dechunk(mut body: &str) -> String {
    let mut out = String::new();
    loop {
        let (len_line, rest) = body.split_once("\r\n").expect("chunk length line");
        let len = usize::from_str_radix(len_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk length line: {len_line:?}"));
        if len == 0 {
            return out;
        }
        assert!(rest.len() >= len + 2, "truncated chunk: want {len} bytes, have {}", rest.len());
        out.push_str(&rest[..len]);
        assert_eq!(&rest[len..len + 2], "\r\n", "chunk payload must end with CRLF");
        body = &rest[len + 2..];
    }
}

/// Splits a dechunked NDJSON payload into events, drop notices and
/// heartbeats, asserting every line parses with our own `Json`.
fn parse_ndjson(payload: &str) -> StreamedEvents {
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut heartbeats = 0;
    for line in payload.lines().filter(|l| !l.is_empty()) {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line: {e}\n{line}"));
        if let Some(n) = doc.get("dropped").and_then(Json::as_u64) {
            dropped += n;
        } else if doc.get("heartbeat").is_some() {
            heartbeats += 1;
        } else {
            assert!(doc.get("seq").is_some(), "unknown stream line shape: {line}");
            events.push(doc);
        }
    }
    StreamedEvents { events, dropped, heartbeats }
}

/// Asserts the invariants every completed event stream must satisfy:
/// seqs strictly increase, `instructions_done` never decreases, and the
/// final event is the `done` terminal.
fn assert_stream_invariants(streamed: &StreamedEvents) {
    assert!(!streamed.events.is_empty(), "a completed job streams at least its terminal event");
    let seqs: Vec<u64> =
        streamed.events.iter().map(|e| e.get("seq").and_then(Json::as_u64).unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs must strictly increase: {seqs:?}");
    let done: Vec<u64> = streamed
        .events
        .iter()
        .map(|e| e.get("instructions_done").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(
        done.windows(2).all(|w| w[0] <= w[1]),
        "instructions_done must be monotone in seq order: {done:?}"
    );
    let last = streamed.events.last().unwrap();
    assert_eq!(
        last.get("phase").and_then(Json::as_str),
        Some("done"),
        "stream must end with the terminal event"
    );
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal status.
fn wait_for_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
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

fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let reply = request(addr, "POST", "/run", Some(spec));
    assert_eq!(reply.status, 202, "submit rejected: {}", reply.body);
    reply.json().get("job").and_then(Json::as_u64).expect("job id")
}

#[test]
fn streamed_progress_is_monotone_and_ends_with_the_polled_result() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let id = submit(addr, r#"{"experiment": "bench", "trace_len": 60000, "seed": 3}"#);

    // Attach while the job runs (or replays if it finished first — the
    // invariants hold either way) and follow it to the terminal event.
    let streamed = stream_events(addr, id, None, 4096);
    assert_stream_invariants(&streamed);

    // The terminal event agrees with the polled document: same job, done,
    // 100% of the instructions the server reports.
    let last = streamed.events.last().unwrap();
    assert_eq!(last.get("job").and_then(Json::as_u64), Some(id));
    let doc = wait_for_job(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some("done"));
    assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(100));
    assert_eq!(
        last.get("instructions_total").and_then(Json::as_u64),
        doc.get_path("progress.instructions_total").and_then(Json::as_u64),
        "stream and poll views disagree about the job's size"
    );

    shutdown(addr, handle);
}

#[test]
fn slow_readers_lose_oldest_events_but_keep_the_terminal_one() {
    // A two-event ring: any job that emits more than two events between
    // stream pumps overflows it, so a (deliberately slow) reader must see
    // a drop notice — and still the terminal event, which drop-oldest
    // never evicts.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        progress_ring_events: 2,
        ..ServerConfig::default()
    });
    let id = submit(addr, r#"{"experiment": "bench", "trace_len": 2000, "seed": 5}"#);
    wait_for_job(addr, id);

    let streamed = stream_events(addr, id, Some(Duration::from_millis(25)), 256);
    assert!(
        streamed.dropped > 0,
        "a 2-event ring must drop events from a multi-sweep job \
         (got {} events, 0 dropped)",
        streamed.events.len()
    );
    assert!(streamed.events.len() <= 2, "the ring retains at most its capacity");
    assert_eq!(
        streamed.events.last().unwrap().get("phase").and_then(Json::as_str),
        Some("done"),
        "the terminal event survives any overflow"
    );

    shutdown(addr, handle);
}

#[test]
fn mid_stream_disconnects_leave_the_daemon_healthy() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let id = submit(addr, r#"{"experiment": "bench", "trace_len": 200000, "seed": 7}"#);

    // Connect, read a handful of bytes, hang up mid-stream.
    {
        let mut stream = open_events(addr, id, Duration::from_secs(60));
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("read the start of the stream");
        assert!(n > 0, "server must start answering before we hang up");
        // Dropping the TcpStream closes the socket with the stream live.
    }

    // The abandoned job still completes, and the daemon serves new work.
    let doc = wait_for_job(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);
    let id2 = submit(addr, r#"{"experiment": "bench", "trace_len": 2000, "seed": 8}"#);
    let streamed = stream_events(addr, id2, None, 4096);
    assert_stream_invariants(&streamed);

    shutdown(addr, handle);
}

#[test]
fn terminal_jobs_replay_their_ring_and_close_immediately() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let id = submit(addr, r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9}"#);
    wait_for_job(addr, id);

    // The job is long done: the stream replays the (default, ample) ring
    // from the beginning and EOFs without waiting on heartbeats.
    let started = Instant::now();
    let streamed = stream_events(addr, id, None, 4096);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a terminal job's stream must replay and close, not linger ({:?})",
        started.elapsed()
    );
    assert_stream_invariants(&streamed);
    assert_eq!(streamed.dropped, 0, "the default ring retains a small job's whole history");
    assert_eq!(streamed.heartbeats, 0, "no heartbeats in an immediate replay");
    assert_eq!(
        streamed.events.first().unwrap().get("phase").and_then(Json::as_str),
        Some("queued"),
        "the replay starts from the job's first lifecycle event"
    );

    shutdown(addr, handle);
}

#[test]
fn cache_hits_mint_no_job_and_bad_ids_answer_plain_errors() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let spec = r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 11}"#;
    let id = submit(addr, spec);
    wait_for_job(addr, id);

    // The second identical POST is a result-cache hit: answered inline,
    // no job record — so there is no id to stream.
    let warm = request(addr, "POST", "/run", Some(spec));
    assert_eq!(warm.status, 200, "cache hit answers inline: {}", warm.body);
    assert!(warm.json().get("job").is_none(), "cache hits must not mint a job id");

    // Ids that were never minted 404; malformed ids 400. Both are plain
    // framed responses (Content-Length + Connection: close), never a
    // chunked stream a client would wait on.
    for (path, expected) in [
        (format!("/jobs/{}/events", id + 1000), 404),
        ("/jobs/not-a-number/events".to_string(), 400),
    ] {
        let reply = request(addr, "GET", &path, None);
        assert_eq!(reply.status, expected, "{path}");
        assert_eq!(reply.header("Connection"), Some("close"), "{path}");
        assert!(reply.header("Content-Length").is_some(), "{path} must be length-framed");
        assert!(reply.header("Transfer-Encoding").is_none(), "{path} must not chunk");
    }

    shutdown(addr, handle);
}

/// The flagship e2e from the issue: a 20M-instruction machine sweep —
/// strictly out-of-core (20M > the 8M in-memory ceiling) — streamed
/// live. `instructions_done` climbs monotonically, on-disk chunk indices
/// appear in the events, the terminal event matches the polled result,
/// and the served result is byte-identical to the same spec run
/// in-process against the same trace directory.
///
/// Ignored by default: it needs release-build speed and ~1 GiB of trace
/// data. CI runs it explicitly (see `scripts/ci.sh`), reusing the warm
/// trace directory of the out-of-core smoke via `FETCHVP_E2E_TRACE_DIR`.
#[test]
#[ignore = "release-scale: run via scripts/ci.sh or with --ignored and FETCHVP_E2E_TRACE_DIR"]
fn out_of_core_sweep_streams_store_chunks_and_matches_in_process() {
    let (dir, scratch) = match std::env::var_os("FETCHVP_E2E_TRACE_DIR") {
        Some(dir) => (std::path::PathBuf::from(dir), false),
        None => {
            let dir =
                std::env::temp_dir().join(format!("fetchvp-stream-e2e-{}", std::process::id()));
            (dir, true)
        }
    };
    let spec_text = r#"{"experiment": "usefulness", "trace_len": 20000000}"#;

    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let id = submit(addr, spec_text);
    let streamed = stream_events(addr, id, None, 16 * 1024);
    assert_stream_invariants(&streamed);

    // Live progress, not just a terminal blip: distinct intermediate
    // instruction counts, and out-of-core replay visible as nonzero
    // on-disk chunk indices.
    let distinct: std::collections::BTreeSet<u64> = streamed
        .events
        .iter()
        .map(|e| e.get("instructions_done").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(
        distinct.len() >= 3,
        "a 20M-instruction sweep must stream intermediate progress (saw {distinct:?})"
    );
    assert!(
        streamed
            .events
            .iter()
            .any(|e| e.get("store_chunk").and_then(Json::as_u64).unwrap_or(0) > 0),
        "out-of-core replay must report on-disk chunk indices"
    );

    // The terminal event agrees with the polled document...
    let doc = wait_for_job(addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    let last = streamed.events.last().unwrap();
    assert_eq!(
        last.get("instructions_done").and_then(Json::as_u64),
        doc.get_path("progress.instructions_done").and_then(Json::as_u64)
    );
    assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(100));
    let served = doc.get("result").expect("done job has a result").to_json();
    shutdown(addr, handle);

    // ...and the served result is byte-identical to an in-process run
    // against the same (now warm) trace directory.
    let spec = JobSpec::from_json_with_limits(&Json::parse(spec_text).unwrap(), true).unwrap();
    let sweep =
        Sweep::with_trace_dir(&spec.config(), Some(Arc::new(TraceDir::new(dir.clone()))), 1);
    let oracle = spec.run(&sweep).result.to_json();
    assert_eq!(served, oracle, "served result must be byte-identical to the in-process run");

    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
