//! The readiness-based connection multiplexer behind `fetchvp serve`.
//!
//! One thread drives every connection through `poll(2)` — `std` exposes
//! no polling API and the workspace links no crates, but `std` itself
//! links libc, so declaring `poll(2)` directly keeps the daemon
//! zero-dependency (the same trick the [`crate`]'s signal handling
//! uses). Accepted sockets are non-blocking; each one is a tiny state
//! machine:
//!
//! ```text
//!            accept()                  POLLIN / read()
//!   Listener ────────▶ Reading ──────────────────────────┐
//!                        │  ▲                            │
//!                        │  └── try_parse ⇒ incomplete ──┘
//!                        │
//!                        │ try_parse ⇒ Request ─▶ route()
//!                        │                          │
//!                        │        fleet proxy hop ──┤
//!                        ▼                          ▼
//!                 AwaitingProxy ── helper ──▶   Writing ──▶ close
//!                 (parked; hop runs on the        │
//!                  proxy helper pool)             │ /jobs/<id>/events
//!                        │                        ▼
//!                        │                     Streaming ──▶ close
//!                        │                 (chunked NDJSON pump,
//!                        │                  one frame per ring event)
//!                        └── deadline exceeded ──▶ 502 ─▶ Writing
//! ```
//!
//! Reads accumulate into a per-connection buffer fed to
//! [`http::try_parse`] until a full request materializes; buffered
//! responses are rendered to bytes up front ([`Response::to_bytes`])
//! and flushed as `POLLOUT` allows. A `GET /jobs/<id>/events` request
//! instead enters the *Streaming* phase: every poll tick the connection
//! pulls fresh events from the job's [`ProgressRing`] at its own
//! cursor, frames each as one `Transfer-Encoding: chunked` NDJSON line,
//! and flushes opportunistically. A reader too slow to keep up never
//! blocks the job — the ring drops its oldest events and the stream
//! carries a `{"dropped": n}` notice instead; a reader that stalls with
//! unflushed bytes for the write timeout is dropped. When the job's
//! owner is another fleet member, the helper pool opens one upstream
//! socket ([`Streaming::Relay`]) whose bytes — the owner's own chunked
//! framing — are relayed verbatim.
//!
//! Each phase has a deadline (the configured read/write timeouts),
//! enforced every poll tick, so a stalled client costs one pollfd
//! entry — not a parked thread, which is what limited the
//! thread-per-connection daemon to `max_connections` concurrent
//! clients. Route handlers run inline on the loop thread only because
//! they never block: queue pushes and table lookups (simulation happens
//! on the worker pool), while fleet proxy hops — blocking network I/O —
//! are parked on the proxy helper pool and the connection waits in
//! `AwaitingProxy` until the upstream response (or streaming socket)
//! lands, so a slow or dead peer stalls its own request, never the
//! loop.
//!
//! [`ProgressRing`]: fetchvp_tracing::ProgressRing

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use crate::http::{self, error_body, RequestError, Response};
use crate::progress::JobProgress;
use crate::{ProxyKind, ProxyOutcome, Routed, Shared};

/// Readable readiness (and `POLLHUP`-with-pending-data on Linux).
const POLLIN: i16 = 0x001;
/// Writable readiness.
const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
const POLLERR: i16 = 0x008;
/// Peer hung up.
const POLLHUP: i16 = 0x010;
/// Invalid fd (always reported, never requested).
const POLLNVAL: i16 = 0x020;

/// Poll timeout: the loop wakes at least this often to check the
/// shutdown flag, connection deadlines, parked proxy responses and
/// streaming rings.
const POLL_TICK_MS: i32 = 50;

/// How long a connection may wait in `AwaitingProxy` before it is
/// answered `502`. Covers the helper pool's worst case — queue wait plus
/// connect (500 ms) and I/O (2 s) timeouts — with margin; a hop slower
/// than this has already been failed over by the helper.
const PROXY_WAIT: Duration = Duration::from_secs(8);

/// How long shutdown waits for in-flight response bytes to flush.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A quiet stream emits a `{"heartbeat": true}` frame this often, so
/// clients (and intermediaries) can tell an idle job from a dead
/// connection.
const STREAM_HEARTBEAT: Duration = Duration::from_secs(1);

/// Pending-byte ceiling per streaming connection. A client with this
/// much unflushed output stops pulling from the ring (or the upstream
/// relay socket); the drop-oldest ring absorbs the lag and reports it
/// via `dropped` when the reader catches up.
const STREAM_BACKLOG: usize = 64 * 1024;

/// `struct pollfd` from `poll(2)`, laid out exactly as libc declares it.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    /// `poll(2)`; `nfds_t` is `unsigned long` on every Linux ABI.
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// The source feeding a connection in the Streaming phase.
enum Streaming {
    /// A locally-owned job: frames are cut from the job's progress ring
    /// at this connection's private cursor.
    Ring {
        /// The job's progress handle (ring + totals).
        progress: Arc<JobProgress>,
        /// This reader's position in the ring; each connection advances
        /// independently.
        cursor: u64,
        /// When a frame (event, drop notice or heartbeat) was last
        /// queued — the heartbeat clock.
        last_emit: Instant,
        /// The terminal event (and closing chunk) has been queued; the
        /// connection closes once it flushes.
        ended: bool,
    },
    /// A job owned by another fleet member: the owner's response bytes
    /// — status line, headers and its own chunked framing — are relayed
    /// verbatim.
    Relay {
        /// The nonblocking socket to the owning member, opened by a
        /// proxy helper.
        upstream: TcpStream,
        /// The upstream closed (EOF or error); the connection closes
        /// once the relayed bytes flush.
        ended: bool,
    },
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read so far, fed to the incremental parser each tick.
    buf: Vec<u8>,
    /// Rendered-but-unflushed output. Buffered responses render here
    /// once; streams append frames as they are cut.
    out: Vec<u8>,
    /// How much of `out` has been written.
    written: usize,
    /// `false` = Reading phase, `true` = Writing or Streaming phase.
    writing: bool,
    /// `AwaitingProxy`: a helper thread fills this slot with the hop's
    /// outcome; until then the connection is parked (no read interest).
    pending: Option<Arc<crate::ProxySlot>>,
    /// Set once the connection enters the Streaming phase.
    streaming: Option<Streaming>,
    /// When the current phase times out.
    deadline: Instant,
    /// When the connection was accepted — the request-latency clock.
    started: Instant,
    /// Terminal: the fd is dropped at the end of the tick.
    done: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Duration) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            buf: Vec::with_capacity(1024),
            out: Vec::new(),
            written: 0,
            writing: false,
            pending: None,
            streaming: None,
            deadline: now + read_timeout,
            started: now,
            done: false,
        }
    }

    /// The events this connection waits for. A parked connection asks
    /// for nothing — errors and hangups are reported regardless — and a
    /// streaming connection only wants `POLLOUT` while it has unflushed
    /// frames (new frames arrive on the tick, not on readiness).
    fn interest(&self) -> i16 {
        if self.pending.is_some() {
            0
        } else if self.streaming.is_some() {
            if self.written < self.out.len() {
                POLLOUT
            } else {
                0
            }
        } else if self.writing {
            POLLOUT
        } else {
            POLLIN
        }
    }

    /// Advances the state machine one tick.
    fn drive(&mut self, revents: i16, state: &Shared, now: Instant) {
        if self.done {
            return;
        }
        if revents & (POLLERR | POLLNVAL) != 0 {
            state.metrics.counter("server.requests", "io_error", 1);
            self.done = true;
            return;
        }
        if let Some(slot) = &self.pending {
            let arrived = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            match arrived {
                Some(ProxyOutcome::Response(response)) => {
                    self.pending = None;
                    self.start_write(response, state);
                }
                Some(ProxyOutcome::Upstream(upstream)) => {
                    self.pending = None;
                    self.start_relay(upstream, state, now);
                }
                None if now >= self.deadline => {
                    // The hop outlived even the helper pool's worst
                    // case; answer rather than leave the client
                    // hanging. The helper's eventual outcome fills a
                    // slot nobody reads.
                    state.metrics.counter("server.peers", "proxy_timeouts", 1);
                    self.pending = None;
                    self.start_write(
                        Response::json(502, error_body("fleet proxy timed out")),
                        state,
                    );
                }
                None => {}
            }
            return;
        }
        if self.streaming.is_some() {
            // Streams pump every tick: POLLHUP here means the client
            // went away mid-stream, which only this write path notices.
            if revents & POLLHUP != 0 {
                self.done = true;
                return;
            }
            self.pump_stream(state, now);
            return;
        }
        if self.writing {
            if revents & (POLLOUT | POLLHUP) != 0 {
                self.flush(state);
            }
        } else if revents & (POLLIN | POLLHUP) != 0 {
            self.fill(state);
        }
        if !self.done && now >= self.deadline {
            // Same accounting as the blocking daemon's socket timeouts:
            // a client too slow to send or receive is an io_error.
            state.metrics.counter("server.requests", "io_error", 1);
            self.done = true;
        }
    }

    /// Reads until `WouldBlock`, then offers the buffer to the parser.
    fn fill(&mut self, state: &Shared) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF before a complete request.
                    state.metrics.counter("server.requests", "io_error", 1);
                    self.done = true;
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    state.metrics.counter("server.requests", "io_error", 1);
                    self.done = true;
                    return;
                }
            }
        }
        let response = match http::try_parse(&self.buf, state.config.max_body_bytes) {
            Ok(None) => return, // keep reading
            Ok(Some(request)) => match crate::respond_or_proxy(state, &request, self.started) {
                Routed::Ready(response) => response,
                // The job's events stream from the local ring — switch
                // this connection into the Streaming phase.
                Routed::Stream { progress } => {
                    self.start_stream(progress, state);
                    return;
                }
                // Blocking I/O that must not run on this thread. Park
                // the connection; a helper completes the hop and
                // drive() picks the outcome up next tick.
                Routed::Proxy { member } => {
                    match self.park_proxy(ProxyKind::Hop { member }, request, state) {
                        Some(response) => response,
                        None => return,
                    }
                }
                Routed::StreamProxy { member } => {
                    match self.park_proxy(ProxyKind::StreamConnect { member }, request, state) {
                        Some(response) => response,
                        None => return,
                    }
                }
                Routed::FleetMetrics => {
                    match self.park_proxy(ProxyKind::FleetMetrics, request, state) {
                        Some(response) => response,
                        None => return,
                    }
                }
            },
            Err(RequestError::TooLarge(what)) => {
                state.metrics.counter("server.requests", "too_large.413", 1);
                Response::json(413, error_body(&format!("{what} too large")))
            }
            Err(RequestError::Malformed(why)) => {
                state.metrics.counter("server.requests", "malformed.400", 1);
                Response::json(400, error_body(why))
            }
        };
        self.start_write(response, state);
    }

    /// Hands a blocking hop to the helper pool and parks the
    /// connection, or returns the fallback response when the pool is
    /// saturated.
    fn park_proxy(
        &mut self,
        kind: ProxyKind,
        request: http::Request,
        state: &Shared,
    ) -> Option<Response> {
        match state.dispatch_proxy(kind, request, self.started) {
            Ok(slot) => {
                self.pending = Some(slot);
                self.deadline = Instant::now() + PROXY_WAIT;
                None
            }
            Err(response) => Some(response),
        }
    }

    /// Enters the Streaming phase over the local ring: queue the
    /// chunked-transfer head, then pump immediately — a job that is
    /// already terminal replays its retained ring (ending with the
    /// terminal event) and closes in this same tick's flush.
    fn start_stream(&mut self, progress: Arc<JobProgress>, state: &Shared) {
        let now = Instant::now();
        self.out = http::stream_head(200, crate::STREAM_CONTENT_TYPE);
        self.written = 0;
        self.writing = true;
        self.deadline = now + state.config.write_timeout;
        self.streaming =
            Some(Streaming::Ring { progress, cursor: 0, last_emit: now, ended: false });
        self.pump_stream(state, now);
    }

    /// Enters the Streaming phase as a relay: the upstream owner's
    /// bytes (head and chunked framing included) pass through verbatim.
    fn start_relay(&mut self, upstream: TcpStream, state: &Shared, now: Instant) {
        self.out = Vec::new();
        self.written = 0;
        self.writing = true;
        self.deadline = now + state.config.write_timeout;
        self.streaming = Some(Streaming::Relay { upstream, ended: false });
        self.pump_stream(state, now);
    }

    /// One Streaming-phase tick: cut fresh frames (ring events, drop
    /// notices, heartbeats — or relayed upstream bytes), then flush as
    /// much as the socket accepts. The connection closes when the
    /// stream has ended and every byte is out, or when the client sits
    /// on unflushed bytes past the write timeout.
    fn pump_stream(&mut self, state: &Shared, now: Instant) {
        let Some(mut streaming) = self.streaming.take() else { return };
        if self.out.len() - self.written < STREAM_BACKLOG {
            match &mut streaming {
                Streaming::Ring { progress, cursor, last_emit, ended } if !*ended => {
                    let batch = progress.since(*cursor);
                    let mut emitted = false;
                    if batch.dropped > 0 {
                        // The ring evicted events this reader never saw
                        // (slow client): say so instead of silently
                        // skipping sequence numbers.
                        let notice = format!("{{\"dropped\": {}}}\n", batch.dropped);
                        self.out.extend_from_slice(&http::chunk(notice.as_bytes()));
                        emitted = true;
                    }
                    for event in &batch.events {
                        let mut line = event.to_line();
                        line.push('\n');
                        self.out.extend_from_slice(&http::chunk(line.as_bytes()));
                        emitted = true;
                        if matches!(event.phase, "done" | "failed") {
                            // Terminal events are always the ring's
                            // newest; close the chunked stream after
                            // relaying one.
                            self.out.extend_from_slice(http::chunk_end());
                            *ended = true;
                            break;
                        }
                    }
                    *cursor = batch.next_cursor;
                    if emitted {
                        *last_emit = now;
                    } else if now.duration_since(*last_emit) >= STREAM_HEARTBEAT {
                        self.out.extend_from_slice(&http::chunk(b"{\"heartbeat\": true}\n"));
                        *last_emit = now;
                    }
                }
                Streaming::Relay { upstream, ended } if !*ended => {
                    let mut chunk = [0u8; 4096];
                    loop {
                        match upstream.read(&mut chunk) {
                            Ok(0) => {
                                *ended = true;
                                break;
                            }
                            Ok(n) => self.out.extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                // The owner died mid-stream; the client
                                // sees a truncated chunked body and
                                // knows the stream did not end cleanly.
                                *ended = true;
                                break;
                            }
                        }
                        if self.out.len() - self.written >= STREAM_BACKLOG {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        let ended = match &streaming {
            Streaming::Ring { ended, .. } | Streaming::Relay { ended, .. } => *ended,
        };
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.done = true;
                    break;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.done = true;
                    break;
                }
            }
        }
        if !self.done {
            if self.written == self.out.len() {
                // Fully flushed: recycle the buffer and push the stall
                // deadline out — only a client with pending bytes can
                // time out.
                self.out.clear();
                self.written = 0;
                self.deadline = now + state.config.write_timeout;
                if ended {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    self.done = true;
                }
            } else if now >= self.deadline {
                state.metrics.counter("server.requests", "io_error", 1);
                self.done = true;
            }
        }
        self.streaming = Some(streaming);
    }

    /// Switches to the Writing phase and optimistically flushes — most
    /// responses fit the socket buffer, finishing in the same tick.
    fn start_write(&mut self, response: Response, state: &Shared) {
        self.out = response.to_bytes();
        self.written = 0;
        self.writing = true;
        self.deadline = Instant::now() + state.config.write_timeout;
        self.flush(state);
    }

    /// Writes as much of `out` as the socket accepts; closes on
    /// completion.
    fn flush(&mut self, _state: &Shared) {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.done = true;
                    return;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.done = true;
                    return;
                }
            }
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.done = true;
    }
}

/// Accepts everything the backlog holds, up to the connection cap.
fn accept_ready(listener: &TcpListener, conns: &mut Vec<Conn>, state: &Shared) -> io::Result<()> {
    while conns.len() < state.config.max_connections {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn::new(stream, state.config.read_timeout));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient per-connection accept failures (e.g. the peer
            // aborted between readiness and accept) must not kill the
            // daemon.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            // EMFILE (24) / ENFILE (23): fd exhaustion under a
            // connection flood is transient — closing connections free
            // descriptors within a tick or two. Pause accepting instead
            // of exiting serve() and killing the daemon.
            Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => {
                state.metrics.counter("server.connections", "accept_throttled", 1);
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs the event loop until shutdown, then drains in-flight writes.
///
/// At the connection cap the listener's `POLLIN` interest is masked, so
/// excess clients queue in the kernel's accept backlog instead of being
/// answered with an error — admission control happens at the bounded job
/// queue (`503` + `Retry-After`), not at the socket.
pub(crate) fn serve(listener: &TcpListener, state: &Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    while !state.should_shutdown() {
        let accepting = conns.len() < state.config.max_connections;
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: if accepting { POLLIN } else { 0 },
            revents: 0,
        });
        for conn in &conns {
            fds.push(PollFd { fd: conn.stream.as_raw_fd(), events: conn.interest(), revents: 0 });
        }
        let ready =
            unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, POLL_TICK_MS) };
        if ready < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue; // a signal landed; the loop re-checks the flag
            }
            return Err(err);
        }
        if fds[0].revents & POLLIN != 0 {
            accept_ready(listener, &mut conns, state)?;
        }
        let now = Instant::now();
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            conn.drive(fd.revents, state, now);
        }
        conns.retain(|c| !c.done);
        state.active_connections.store(conns.len(), Ordering::SeqCst);
    }

    // Graceful drain: stop reading new requests, flush what is already
    // rendered. Readers are abandoned (their request will never be
    // answered anyway) and streams are cut — their job keeps running;
    // the client re-polls or reconnects after the restart — while
    // buffered writers get up to DRAIN_TIMEOUT.
    conns.retain(|c| c.writing && c.streaming.is_none());
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !conns.is_empty() && Instant::now() < deadline {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd { fd: c.stream.as_raw_fd(), events: POLLOUT, revents: 0 })
            .collect();
        let ready =
            unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, POLL_TICK_MS) };
        if ready < 0 {
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break; // give up on the drain, not on the shutdown
        }
        if ready == 0 {
            continue;
        }
        let now = Instant::now();
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            conn.drive(fd.revents, state, now);
        }
        conns.retain(|c| !c.done);
    }
    state.active_connections.store(0, Ordering::SeqCst);
    Ok(())
}
