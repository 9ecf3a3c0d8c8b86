//! Drive the `fetchvp serve` daemon end to end through its blocking
//! HTTP client (`fetchvp_server::http::client`): boot a server in-process on an ephemeral port, check its health,
//! submit a quick bench job, poll it to completion, scrape the metrics
//! registry, and shut the daemon down gracefully.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_client
//! ```
//!
//! Against an already-running daemon (`fetchvp serve`), the same five
//! requests work verbatim with `curl` — see the README's Serving section.

use std::time::{Duration, Instant};

use fetchvp_metrics::Json;
use fetchvp_server::http::client::{self, Timeouts};
use fetchvp_server::{Server, ServerConfig};

/// One `Connection: close` HTTP exchange through the daemon's own
/// client; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let timeouts = Timeouts { connect: Duration::from_secs(5), io: Duration::from_secs(30) };
    let reply = client::exchange(addr, method, path, &[], body.as_bytes(), timeouts)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (reply.status, reply.body)
}

fn main() {
    // 1. Boot the daemon on an ephemeral loopback port, as `fetchvp serve
    //    --addr 127.0.0.1:0` would.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let daemon = std::thread::spawn(move || server.run());
    println!("daemon    : listening on {addr}");

    // 2. Health check.
    let (status, body) = http(&addr, "GET", "/healthz", "");
    println!("healthz   : {status} {body}");

    // 3. Submit a quick bench job; the daemon answers 202 + a job id.
    let spec = r#"{"experiment": "bench", "trace_len": 2000, "seed": 7}"#;
    let (status, body) = http(&addr, "POST", "/run", spec);
    println!("run       : {status} {body}");
    assert_eq!(status, 202, "submission failed");
    let id = Json::parse(&body).unwrap().get("job").and_then(Json::as_u64).expect("job id");

    // 4. Poll the job until it reaches a terminal state.
    let deadline = Instant::now() + Duration::from_secs(60);
    let record = loop {
        let (_, body) = http(&addr, "GET", &format!("/jobs/{id}"), "");
        let doc = Json::parse(&body).expect("job record");
        match doc.get("status").and_then(Json::as_str) {
            Some("done") | Some("failed") => break doc,
            _ if Instant::now() > deadline => panic!("job {id} never finished"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    println!("job {id}     : {}", record.get("status").and_then(Json::as_str).unwrap());
    if let Some(workloads) = record.get_path("result.workloads").and_then(Json::as_object) {
        for (name, w) in workloads {
            let ipc = w
                .get("gauges")
                .and_then(|g| g.get("machine.ipc"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            println!(
                "  {name:<10} {} instructions, ipc {ipc:.2}",
                w.get("instructions").and_then(Json::as_u64).unwrap_or(0)
            );
        }
    }

    // 5. Scrape the live registry: server counters plus the simulator
    //    namespaces merged from the completed job.
    let (_, body) = http(&addr, "GET", "/metrics", "");
    let metrics = Json::parse(&body).expect("metrics parse with our own Json");
    let counters = metrics.get("counters").and_then(Json::as_object).expect("counters");
    println!("metrics   : {} counters, e.g.", counters.len());
    for key in ["server.jobs.completed", "server.queue.admitted", "server.started"] {
        let value = counters.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_u64());
        println!("  {key:<24} {}", value.unwrap_or(0));
    }

    // 6. Graceful shutdown: drains in-flight work, then `run()` returns.
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    println!("shutdown  : {status}");
    daemon.join().expect("daemon thread").expect("daemon exited with an error");
    println!("daemon    : exited cleanly");
}
