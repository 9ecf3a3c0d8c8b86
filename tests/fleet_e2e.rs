//! End-to-end tests for `--peers` fleet mode: two real daemons on
//! ephemeral loopback ports, sharding jobs by consistent hashing with
//! single-hop proxying — driven entirely through `http::client`.
//!
//! The contracts under test:
//!
//! 1. **Shard routing** — every member agrees who owns a spec; a request
//!    landing on the wrong member is proxied to the owner, visible in the
//!    returned job id (`id % members == owner index`).
//! 2. **Fleet-wide result cache** — a spec answered by its owner is a
//!    cache hit no matter which member the repeat lands on.
//! 3. **Graceful degradation** — killing a member flips its health flag
//!    on the survivor and its share of the ring rehashes to the
//!    survivors; submissions keep succeeding throughout.
//! 4. **Fleet-wide observability** — `GET /fleet/metrics` asked of
//!    *either* member returns a merged document carrying both members'
//!    snapshots plus fleet-summed counters, and a killed member shows up
//!    as `"down"` instead of failing the aggregation.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

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

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let body = body.unwrap_or("").as_bytes();
    client::exchange(&addr.to_string(), method, path, &[], body, TIMEOUTS)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

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

/// Reserves two distinct ephemeral loopback ports by binding and
/// immediately dropping listeners. The tiny bind race this leaves is
/// acceptable in a test (nothing else on the host grabs loopback ports
/// in the microseconds before the daemons re-bind them).
fn reserve_ports() -> (SocketAddr, SocketAddr) {
    let a = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let b = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    (a, b)
}

type Running = (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>);

/// Starts a two-member fleet; member 0 is `fleet.0`, member 1 is
/// `fleet.1` (job-id parity matches those indices).
fn start_fleet() -> (Running, Running) {
    let (addr_a, addr_b) = reserve_ports();
    let peers = vec![addr_a.to_string(), addr_b.to_string()];
    let mut servers = Vec::new();
    for addr in [addr_a, addr_b] {
        let config = ServerConfig {
            addr: addr.to_string(),
            workers: 1,
            queue_depth: 8,
            peers: peers.clone(),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).expect("bind fleet member");
        servers.push(std::thread::spawn(move || server.run()));
    }
    let mut handles = servers.into_iter();
    let fleet = ((addr_a, handles.next().unwrap()), (addr_b, handles.next().unwrap()));
    // `Server::bind` already bound both listeners, so connects queue in
    // the kernel backlog until each event loop starts — one blocking
    // health check per member proves both are serving. Then wait for the
    // health checkers to converge on "up": a checker that probed its
    // peer before that peer's event loop started has it briefly down,
    // and a down peer would skew shard routing (jobs run locally).
    for addr in [addr_a, addr_b] {
        let reply = request(addr, "GET", "/healthz", None);
        assert_eq!(reply.status, 200, "member {addr} never became healthy: {}", reply.body);
    }
    for (addr, peer) in [(addr_a, addr_b), (addr_b, addr_a)] {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let health = request(addr, "GET", "/healthz", None).json();
            let status = health
                .get("peers")
                .and_then(|p| p.get(&peer.to_string()))
                .and_then(Json::as_str)
                .expect("healthz must list the peer")
                .to_string();
            if status == "up" {
                break;
            }
            assert!(Instant::now() < deadline, "{addr} has {peer} stuck `{status}`");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    fleet
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let reply = request(addr, "POST", "/shutdown", None);
    assert_eq!(reply.status, 200, "shutdown refused: {}", reply.body);
    handle.join().expect("server thread").expect("server run() returned an error");
}

/// Submits specs (varying the seed) to `submit_to` until one is owned by
/// the member with id parity `owner_parity`; returns `(spec, job_id)`.
/// With 64 vnodes per member the ring splits close to evenly, so a
/// handful of seeds always suffices.
fn find_spec_owned_by(submit_to: SocketAddr, owner_parity: u64) -> (String, u64) {
    for seed in 0..64u64 {
        let spec = format!(r#"{{"experiment": "table3-1", "trace_len": 600, "seed": {seed}}}"#);
        let deadline = Instant::now() + Duration::from_secs(120);
        let reply = loop {
            let reply = request(submit_to, "POST", "/run", Some(&spec));
            // 503 is honest backpressure (the bounded queue is full);
            // wait for the single worker to drain and try again.
            if reply.status != 503 {
                break reply;
            }
            assert!(Instant::now() < deadline, "queue never drained for seed {seed}");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(
            reply.status == 200 || reply.status == 202,
            "submit failed ({}): {}",
            reply.status,
            reply.body
        );
        // A 200 with no job id is a result-cache hit (a seed an earlier
        // search already ran) — no record to check parity on; move on.
        let Some(id) = reply.json().get("job").and_then(Json::as_u64) else { continue };
        if id % 2 == owner_parity {
            return (spec, id);
        }
    }
    panic!("no spec hashed to member parity {owner_parity} in 64 seeds — ring is degenerate");
}

#[test]
fn fleet_shards_jobs_and_proxies_lookups() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = start_fleet();

    // start_fleet already proved both members list each other "up".

    // Everything is submitted to A, but job ids prove both members mint
    // records: odd ids were created by B after a proxy hop.
    let (spec_b, id_b) = find_spec_owned_by(addr_a, 1);
    assert_eq!(id_b % 2, 1, "B-owned spec must come back with a B-minted id");
    let (_, id_a) = find_spec_owned_by(addr_a, 0);
    assert_eq!(id_a % 2, 0);

    // GET /jobs for a B-owned id works from either member: A proxies the
    // lookup to B transparently.
    let via_a = wait_for_job(addr_a, id_b);
    let via_b = wait_for_job(addr_b, id_b);
    assert_eq!(via_a.to_json(), via_b.to_json(), "proxied lookup must relay B's record");
    assert_eq!(via_a.get("status").and_then(Json::as_str), Some("done"));

    // Fleet-wide cache: the repeat of a B-owned spec submitted to A is
    // routed to B and answered from B's result cache.
    let repeat = request(addr_a, "POST", "/run", Some(&spec_b));
    assert_eq!(repeat.status, 200, "repeat must be a cache hit: {}", repeat.body);
    let doc = repeat.json();
    assert_eq!(doc.get("cached").map(Json::to_json), Some("true".to_string()));
    assert_eq!(
        doc.get("result").map(Json::to_json),
        via_a.get("result").map(Json::to_json),
        "cached result must be byte-identical to the original run"
    );

    // The proxy hop is visible in A's metrics.
    let metrics = request(addr_a, "GET", "/metrics", None).json();
    let proxied = metrics
        .get("counters")
        .and_then(|c| c.get("server.peers.proxied"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(proxied >= 2, "expected at least 2 proxied requests, saw {proxied}");

    shutdown(addr_a, handle_a);
    shutdown(addr_b, handle_b);
}

#[test]
fn fleet_metrics_merge_from_either_member_and_mark_the_dead() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = start_fleet();

    // Some traffic first, so the merged counters have something to sum.
    let (_, id) = find_spec_owned_by(addr_a, 0);
    wait_for_job(addr_a, id);

    // Asked of either member, the merged document reports both: the
    // asked member as "self", the other fetched over one forwarded hop
    // as "up", each carrying its full member snapshot.
    for (asked, other) in [(addr_a, addr_b), (addr_b, addr_a)] {
        let reply = request(asked, "GET", "/fleet/metrics", None);
        assert_eq!(reply.status, 200, "{asked}: {}", reply.body);
        let doc = reply.json();
        assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(2), "{asked}");
        assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(2), "{asked}");
        for (addr, status) in [(asked, "self"), (other, "up")] {
            let member = doc
                .get("members")
                .and_then(|m| m.get(&addr.to_string()))
                .unwrap_or_else(|| panic!("{asked}'s merge is missing member {addr}"));
            assert_eq!(member.get("status").and_then(Json::as_str), Some(status), "{addr}");
            assert_eq!(
                member.get("addr").and_then(Json::as_str),
                Some(addr.to_string().as_str()),
                "member snapshots carry their own address"
            );
            assert!(member.get("uptime_seconds").and_then(Json::as_u64).is_some(), "{addr}");
            assert!(member.get("live_jobs").is_some(), "{addr} must report its live jobs");
            assert!(
                member.get_path("metrics.counters").and_then(|c| c.get("server.started")).is_some(),
                "{addr} must embed a full metrics snapshot"
            );
        }
        // Counters are fleet-summed: both members started exactly once.
        assert_eq!(
            doc.get_path("summed.counters")
                .and_then(|c| c.get("server.started"))
                .and_then(Json::as_u64),
            Some(2),
            "{asked}: summed counters must cover both members"
        );
    }

    // Kill B: A's merge degrades instead of failing — B is marked
    // "down" (no snapshot), A still reports, the endpoint stays 200.
    shutdown(addr_b, handle_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = request(addr_a, "GET", "/fleet/metrics", None).json();
        let status = doc
            .get("members")
            .and_then(|m| m.get(&addr_b.to_string()))
            .and_then(|m| m.get("status"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        if status == "down" {
            assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(2));
            assert!(
                doc.get("members")
                    .and_then(|m| m.get(&addr_b.to_string()))
                    .and_then(|m| m.get("metrics"))
                    .is_none(),
                "a dead member contributes no snapshot"
            );
            break;
        }
        assert!(Instant::now() < deadline, "B never marked down in the merge (`{status}`)");
        std::thread::sleep(Duration::from_millis(50));
    }

    shutdown(addr_a, handle_a);
}

#[test]
fn killing_a_member_degrades_gracefully() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = start_fleet();

    // Pin down a spec owned by B, then take B away.
    let (spec_b, id_b) = find_spec_owned_by(addr_a, 1);
    wait_for_job(addr_a, id_b);
    shutdown(addr_b, handle_b);

    // A's health checker notices within a few probe intervals.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = request(addr_a, "GET", "/healthz", None).json();
        let status = health
            .get("peers")
            .and_then(|p| p.get(&addr_b.to_string()))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        if status == "down" {
            break;
        }
        assert!(Instant::now() < deadline, "peer never marked down (stuck at `{status}`)");
        std::thread::sleep(Duration::from_millis(50));
    }

    // B's share of the ring rehashes onto A: the same spec now runs
    // locally (A-minted even id) and still completes. A fresh job record
    // is minted because B's cache died with it.
    let rerouted = request(addr_a, "POST", "/run", Some(&spec_b));
    assert!(
        rerouted.status == 200 || rerouted.status == 202,
        "submission must survive the peer's death: {} {}",
        rerouted.status,
        rerouted.body
    );
    let id = rerouted.json().get("job").and_then(Json::as_u64).expect("job id");
    assert_eq!(id % 2, 0, "with B dead, A must mint the record itself");
    let doc = wait_for_job(addr_a, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

    // The flip is counted.
    let metrics = request(addr_a, "GET", "/metrics", None).json();
    let flips = metrics
        .get("counters")
        .and_then(|c| c.get("server.peers.health_flips"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(flips >= 1, "the death of B must be recorded as a health flip");

    shutdown(addr_a, handle_a);
}
