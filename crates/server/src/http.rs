//! The daemon's HTTP/1.1 subset: the incremental request parser the
//! event loop feeds, the response and chunked-stream encoders, and
//! [`client`], the one blocking client every outgoing request goes
//! through (fleet hops, health probes, `loadgen`, `fetchvp top`).
//!
//! The daemon speaks just enough HTTP for `curl`, browsers and [`client`]:
//! one request per connection (`Connection: close` is always sent back),
//! `Content-Length` bodies only (no chunked request bodies), and hard caps
//! on header-block and body sizes so an adversarial peer cannot balloon
//! memory.

/// Maximum bytes of request line + headers accepted before `431`-style
/// rejection (we answer `413` — close enough for a five-endpoint API).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target, e.g. `/jobs/3` (query strings are not split
    /// off; no endpoint takes one).
    pub path: String,
    /// Request headers as `(name, value)` with names lowercased; values
    /// are trimmed. Duplicate headers keep every occurrence.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The head or body exceeded its size cap → `413`.
    TooLarge(&'static str),
    /// The bytes were not parseable HTTP → `400`.
    Malformed(&'static str),
}

/// Attempts to parse one complete request from an accumulating buffer —
/// the incremental entry point the nonblocking event loop calls after
/// every read.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// head + body (read more and call again), `Ok(Some(request))` once it
/// does, and an error as soon as the bytes are hopeless: an oversized
/// head or body is rejected *before* the peer finishes sending it, so a
/// slow adversary cannot balloon memory while staying under the radar.
/// Bytes past `Content-Length` (pipelined follow-ups, keep-alive
/// chatter) are ignored: this daemon answers one request per connection.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<Request>, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge("request head"));
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("bad request line"));
    }

    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_string());
        if name == "content-length" {
            let parsed =
                value.parse().map_err(|_| RequestError::Malformed("bad Content-Length"))?;
            // RFC 9110 §8.6: repeated Content-Length headers are a request
            // smuggling vector unless every occurrence agrees.
            if content_length.is_some_and(|seen| seen != parsed) {
                return Err(RequestError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(parsed);
        }
        headers.push((name, value));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::TooLarge("request body"));
    }

    let after_head = &buf[head_end + 4..];
    if after_head.len() < content_length {
        return Ok(None);
    }
    let body = after_head[..content_length].to_vec();
    Ok(Some(Request { method: method.to_string(), path: path.to_string(), headers, body }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An outgoing response: a status code, a body with its content type and
/// an optional `Retry-After` hint (the backpressure signal on `503`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Seconds for a `Retry-After` header, when set.
    pub retry_after: Option<u64>,
    /// Whether this response was relayed from another fleet member; sent
    /// as `X-Fetchvp-Proxied: 1` so clients (and the load generator's
    /// per-status-class histograms) can tell a 1-hop answer from a local
    /// one.
    pub proxied: bool,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            content_type: "application/json".to_string(),
            retry_after: None,
            proxied: false,
        }
    }

    /// A response with an explicit content type (e.g. Prometheus text
    /// exposition on `/metrics`).
    pub fn text(status: u16, body: String, content_type: &str) -> Response {
        Response { content_type: content_type.to_string(), ..Response::json(status, body) }
    }

    /// A `Retry-After` variant of [`Response::json`].
    pub fn retry_after(status: u16, body: String, seconds: u64) -> Response {
        Response { retry_after: Some(seconds), ..Response::json(status, body) }
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        reason_phrase(self.status)
    }

    /// The full wire form of the response, ready for buffered writes from
    /// the event loop.
    ///
    /// Every response carries `Connection: close` — success *and* error
    /// paths alike — because the daemon answers exactly one request per
    /// connection and must tell keep-alive clients (curl defaults to
    /// `Connection: keep-alive`) not to wait for a second response on the
    /// same socket.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        if self.proxied {
            head.push_str("X-Fetchvp-Proxied: 1\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// The standard reason phrase for a status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The head of a streaming response: `Transfer-Encoding: chunked`, no
/// `Content-Length` (the length is unknown while the job runs), still
/// `Connection: close`. Follow with [`chunk`]-framed payloads and finish
/// with [`chunk_end`].
pub fn stream_head(status: u16, content_type: &str) -> Vec<u8> {
    let reason = reason_phrase(status);
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// One HTTP/1.1 chunk frame: hex length, CRLF, payload, CRLF. Empty
/// payloads return no bytes (a zero-length chunk would terminate the
/// stream).
pub fn chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut bytes = format!("{:x}\r\n", payload.len()).into_bytes();
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(b"\r\n");
    bytes
}

/// The terminating zero-length chunk of a chunked response.
pub fn chunk_end() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// A `{"error": …}` body for error responses.
pub fn error_body(message: &str) -> String {
    fetchvp_metrics::Json::object([(
        "error".to_string(),
        fetchvp_metrics::Json::Str(message.to_string()),
    )])
    .to_json()
}

pub mod client {
    //! The one blocking HTTP/1.1 client: fleet proxy hops and health
    //! probes, `loadgen`, `fetchvp top`, the examples and the end-to-end
    //! tests all send their requests through it.
    //!
    //! Every request is one `Connection: close` exchange on a fresh
    //! socket. The reply is read to EOF, capped at [`MAX_RESPONSE_BYTES`],
    //! and parsed by [`parse_reply`]. Timeouts stay with the caller,
    //! because a health probe and a load generator want very different
    //! patience.

    use std::fmt;
    use std::io::{self, Read, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    use std::time::Duration;

    /// The most bytes [`read_reply`] accepts for one reply, head included.
    ///
    /// Sized from measured bodies of `fetchvp serve` at the default trace
    /// length: the largest single document is a finished `bench` job's
    /// `GET /jobs/<id>` (25.6 KB); one member's share of `/fleet/metrics`
    /// with a full default queue (32 live jobs) is 17 KB. 4 MiB is over
    /// 150× the former and covers a merge across some 240 such members.
    pub const MAX_RESPONSE_BYTES: usize = 4 << 20;

    /// How long to wait for the connection, then for each read or write.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Timeouts {
        /// Connect timeout.
        pub connect: Duration,
        /// Read and write timeout on the established socket.
        pub io: Duration,
    }

    /// Why an exchange failed.
    #[derive(Debug)]
    pub enum Error {
        /// Resolving, connecting, reading or writing failed (timeouts
        /// included).
        Io(io::Error),
        /// The reply ran past [`MAX_RESPONSE_BYTES`].
        TooLarge,
        /// The reply was not the HTTP/1.1 this client understands.
        Malformed(&'static str),
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Error::Io(e) => write!(f, "{e}"),
                Error::TooLarge => write!(f, "reply exceeds {MAX_RESPONSE_BYTES} bytes"),
                Error::Malformed(why) => write!(f, "malformed reply: {why}"),
            }
        }
    }

    impl std::error::Error for Error {}

    impl From<io::Error> for Error {
        fn from(e: io::Error) -> Error {
            Error::Io(e)
        }
    }

    /// One parsed reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Reply {
        /// HTTP status code.
        pub status: u16,
        /// Headers in wire order as `(name, value)`, values trimmed.
        pub headers: Vec<(String, String)>,
        /// The body: `Content-Length` bytes when the header is present,
        /// otherwise everything up to EOF.
        pub body: String,
    }

    impl Reply {
        /// The first value of a header, looked up case-insensitively.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
        }
    }

    /// Connects to `addr` (`host:port`), sets the timeouts and `nodelay`,
    /// and writes one `Connection: close` request carrying `headers` and
    /// `body`. Returns the socket for the caller to read the reply from —
    /// with [`read_reply`], or incrementally for a streamed response.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when `addr` does not resolve, the connect times out
    /// or the write fails.
    pub fn send(
        addr: &str,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        timeouts: Timeouts,
    ) -> Result<TcpStream, Error> {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("`{addr}` resolves to no address"))
        })?;
        let mut stream = TcpStream::connect_timeout(&target, timeouts.connect)?;
        stream.set_read_timeout(Some(timeouts.io))?;
        stream.set_write_timeout(Some(timeouts.io))?;
        stream.set_nodelay(true)?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", body.len()));
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body);
        stream.write_all(&bytes)?;
        Ok(stream)
    }

    /// [`send`] followed by [`read_reply`]: one whole request/reply
    /// exchange.
    ///
    /// # Errors
    ///
    /// As [`send`] and [`read_reply`].
    pub fn exchange(
        addr: &str,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        timeouts: Timeouts,
    ) -> Result<Reply, Error> {
        read_reply(send(addr, method, path, headers, body, timeouts)?)
    }

    /// Reads a reply to EOF and parses it, stopping with
    /// [`Error::TooLarge`] as soon as it runs past [`MAX_RESPONSE_BYTES`].
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on a read failure or timeout, [`Error::TooLarge`]
    /// past the cap, and [`parse_reply`]'s errors.
    pub fn read_reply(stream: TcpStream) -> Result<Reply, Error> {
        let mut raw = Vec::new();
        stream.take(MAX_RESPONSE_BYTES as u64 + 1).read_to_end(&mut raw)?;
        if raw.len() > MAX_RESPONSE_BYTES {
            return Err(Error::TooLarge);
        }
        parse_reply(&raw)
    }

    /// Parses one complete reply: the status line, the headers, and a body
    /// delimited by `Content-Length` (or by EOF when there is none).
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] for a missing head terminator, a bad status
    /// line or `Content-Length`, a body shorter than its `Content-Length`,
    /// or non-UTF-8 text.
    pub fn parse_reply(raw: &[u8]) -> Result<Reply, Error> {
        let head_end = super::find_head_end(raw).ok_or(Error::Malformed("no end of head"))?;
        let head = std::str::from_utf8(&raw[..head_end])
            .map_err(|_| Error::Malformed("head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let mut status_line = lines.next().unwrap_or("").split(' ');
        let status = match (status_line.next(), status_line.next()) {
            (Some(version), Some(code))
                if version.starts_with("HTTP/1.")
                    && code.len() == 3
                    && code.bytes().all(|b| b.is_ascii_digit()) =>
            {
                code.parse().map_err(|_| Error::Malformed("bad status line"))?
            }
            _ => return Err(Error::Malformed("bad status line")),
        };
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim().to_string(), value.trim().to_string()))
            .collect();
        let rest = &raw[head_end + 4..];
        let body = match headers.iter().find(|(n, _)| n.eq_ignore_ascii_case("content-length")) {
            Some((_, len)) => {
                let len: usize = len.parse().map_err(|_| Error::Malformed("bad Content-Length"))?;
                rest.get(..len).ok_or(Error::Malformed("body shorter than Content-Length"))?
            }
            None => rest,
        };
        let body =
            String::from_utf8(body.to_vec()).map_err(|_| Error::Malformed("body is not UTF-8"))?;
        Ok(Reply { status, headers, body })
    }

    #[cfg(test)]
    pub(crate) mod tests {
        use super::*;
        use crate::http::{error_body, try_parse, Request, Response};
        use std::net::TcpListener;
        use std::thread::JoinHandle;

        /// Test timeouts: generous, so a loaded machine never flakes.
        pub(crate) const TIMEOUTS: Timeouts =
            Timeouts { connect: Duration::from_secs(5), io: Duration::from_secs(30) };

        /// A scripted loopback peer: accepts one connection, reads one
        /// whole request, answers `reply` verbatim and hangs up. The
        /// handle yields the request it read.
        pub(crate) fn serve_once(reply: Vec<u8>) -> (String, JoinHandle<Request>) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let handle = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                let request = loop {
                    if let Some(request) = try_parse(&buf, 1 << 20).unwrap() {
                        break request;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up mid-request");
                    buf.extend_from_slice(&chunk[..n]);
                };
                // The client may hang up early (the cap test); that is
                // the point, not an error.
                let _ = stream.write_all(&reply);
                request
            });
            (addr, handle)
        }

        /// A `200` whose body is `body_len` bytes of `x`.
        pub(crate) fn reply_with_body(body_len: usize) -> Vec<u8> {
            let mut reply = format!("HTTP/1.1 200 OK\r\nContent-Length: {body_len}\r\n\r\n");
            reply.push_str(&"x".repeat(body_len));
            reply.into_bytes()
        }

        #[test]
        fn exchange_speaks_the_servers_dialect() {
            let answer = Response::retry_after(503, error_body("queue full"), 3);
            let (addr, peer) = serve_once(answer.to_bytes());
            let reply =
                exchange(&addr, "POST", "/run", &[("X-Thing", "1")], b"{\"a\": 1}", TIMEOUTS)
                    .unwrap();
            // The server's own parser accepts what the client sent…
            let request = peer.join().unwrap();
            assert_eq!((request.method.as_str(), request.path.as_str()), ("POST", "/run"));
            assert_eq!(request.body, b"{\"a\": 1}");
            assert_eq!(request.header("x-thing"), Some("1"));
            assert_eq!(request.header("host"), Some(addr.as_str()));
            assert_eq!(request.header("connection"), Some("close"));
            // …and the client reads back what the server encodes.
            assert_eq!(reply.status, 503);
            assert_eq!(reply.header("retry-after"), Some("3"));
            assert_eq!(reply.header("CONTENT-TYPE"), Some("application/json"));
            assert_eq!(reply.body, answer.body);
        }

        #[test]
        fn replies_past_the_cap_are_too_large() {
            // Exactly at the cap (head included) still parses…
            let head_len = reply_with_body(MAX_RESPONSE_BYTES).len() - MAX_RESPONSE_BYTES;
            let at_cap = reply_with_body(MAX_RESPONSE_BYTES - head_len);
            assert_eq!(at_cap.len(), MAX_RESPONSE_BYTES);
            let (addr, peer) = serve_once(at_cap);
            let reply = exchange(&addr, "GET", "/big", &[], b"", TIMEOUTS).unwrap();
            assert_eq!(reply.body.len(), MAX_RESPONSE_BYTES - head_len);
            peer.join().unwrap();
            // …one byte past it is a typed error, not a bigger buffer.
            let (addr, peer) = serve_once(reply_with_body(MAX_RESPONSE_BYTES + 1));
            let err = exchange(&addr, "GET", "/big", &[], b"", TIMEOUTS).unwrap_err();
            assert!(matches!(err, Error::TooLarge), "{err}");
            peer.join().unwrap();
        }

        #[test]
        fn parse_reply_rejects_what_it_cannot_frame() {
            let cases: [(&[u8], &str); 7] = [
                (b"HTTP/1.1 200 OK\r\n", "no end of head"),
                (b"SSH-2.0-OpenSSH\r\n\r\n", "bad status line"),
                (b"HTTP/1.1 +20 OK\r\n\r\n", "bad status line"),
                (b"HTTP/1.1 200 OK\r\nContent-Length: nine\r\n\r\n", "bad Content-Length"),
                (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort", "body shorter"),
                (b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xff", "not UTF-8"),
                (b"HTTP/1.1 200 OK\xff\r\n\r\n", "not UTF-8"),
            ];
            for (raw, why) in cases {
                let err = parse_reply(raw).unwrap_err();
                assert!(err.to_string().contains(why), "{:?}: {err}", String::from_utf8_lossy(raw));
            }
            // Without Content-Length the body runs to EOF; past it, extra
            // bytes are ignored.
            let reply = parse_reply(b"HTTP/1.0 404 Not Found\r\nX: y\r\n\r\nrest").unwrap();
            assert_eq!((reply.status, reply.body.as_str()), (404, "rest"));
            let reply =
                parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA").unwrap();
            assert_eq!(reply.body, "ok");
        }

        #[test]
        fn unreachable_peers_are_io_errors() {
            // Bind then drop: nothing listens on the port any more.
            let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
            let err = exchange(&addr, "GET", "/healthz", &[], b"", TIMEOUTS).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{err}");
            let err = exchange("no-port", "GET", "/", &[], b"", TIMEOUTS).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "{err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses bytes that hold one complete request.
    fn parse_bytes(bytes: &[u8]) -> Result<Request, RequestError> {
        try_parse(bytes, 1024).map(|request| request.expect("a complete request"))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/healthz"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn headers_are_collected_case_insensitively() {
        let req = parse_bytes(b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\nX-Thing: A\r\n\r\n")
            .unwrap();
        assert_eq!(req.header("accept"), Some("text/plain"));
        assert_eq!(req.header("ACCEPT"), Some("text/plain"));
        assert_eq!(req.header("x-thing"), Some("A"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(parse_bytes(b"nonsense\r\n\r\n"), Err(RequestError::Malformed(_))));
        assert!(matches!(
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(RequestError::TooLarge(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        let huge = vec![b'x'; MAX_HEAD_BYTES + 16];
        assert!(matches!(parse_bytes(&huge), Err(RequestError::TooLarge(_))));
    }

    #[test]
    fn trailing_bytes_after_the_body_are_not_an_error() {
        // Regression: the reader used to reject any bytes beyond
        // Content-Length that arrived in the same segment as the head —
        // e.g. a pipelined follow-up request — as "body longer than
        // Content-Length".
        let req = parse_bytes(
            b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"GET /healthz HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn body_read_stops_exactly_at_content_length() {
        // Same regression across reads: the head arrives in one segment,
        // the body plus trailing bytes in a later one. The buffer the
        // event loop accumulates grows exactly like this.
        let mut buf = b"POST /run HTTP/1.1\r\nContent-Length: 6\r\n\r\n".to_vec();
        assert!(matches!(try_parse(&buf, 1024), Ok(None)), "head alone is incomplete");
        buf.extend_from_slice(b"abcdefTRAILING-JUNK");
        let req = try_parse(&buf, 1024).unwrap().expect("complete request");
        assert_eq!(req.body, b"abcdef");
    }

    #[test]
    fn duplicate_content_length_must_agree() {
        // Agreeing duplicates are tolerated (RFC 9110 §8.6)…
        let req =
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        assert_eq!(req.body, b"ok");
        // …conflicting ones are rejected rather than last-one-wins.
        let err =
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 90\r\n\r\nok");
        assert!(matches!(err, Err(RequestError::Malformed("conflicting Content-Length"))));
    }

    #[test]
    fn truncated_body_is_incomplete_not_malformed() {
        // A body shorter than its Content-Length is "read more", never a
        // parse error; what happens when the peer then hangs up is the
        // event loop's business (tests/server_e2e.rs covers it).
        let truncated = b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(try_parse(truncated, 1024), Ok(None)));
    }

    #[test]
    fn try_parse_is_incremental() {
        let full = b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"";
        // Every strict prefix is "not yet", never an error.
        for cut in 0..full.len() {
            assert!(
                matches!(try_parse(&full[..cut], 1024), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let req = try_parse(full, 1024).unwrap().expect("complete request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
        // Trailing pipelined bytes after the body do not confuse it.
        let mut with_trailer = full.to_vec();
        with_trailer.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(try_parse(&with_trailer, 1024).unwrap().unwrap().body, b"{\"a\"");
    }

    #[test]
    fn try_parse_rejects_oversize_before_completion() {
        // A head that exceeds the cap without ever completing must error
        // immediately, not wait for the attacker to finish.
        let huge = vec![b'x'; MAX_HEAD_BYTES + 1];
        assert!(matches!(try_parse(&huge, 1024), Err(RequestError::TooLarge("request head"))));
        // An oversized declared body is rejected at head-parse time, before
        // any body bytes arrive.
        let greedy = b"POST /run HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert!(matches!(try_parse(greedy, 1024), Err(RequestError::TooLarge("request body"))));
    }

    #[test]
    fn every_response_closes_the_connection() {
        // Regression guard for the keep-alive audit: error paths (400, 413,
        // 503) must answer `Connection: close` exactly like success paths,
        // or a keep-alive client hangs waiting to reuse the socket.
        for response in [
            Response::json(200, "{}".to_string()),
            Response::json(400, error_body("bad request")),
            Response::json(413, error_body("too large")),
            Response::retry_after(503, error_body("queue full"), 2),
            Response::text(200, "ok".to_string(), "text/plain"),
        ] {
            let text = String::from_utf8(response.to_bytes()).unwrap();
            assert!(
                text.contains("Connection: close\r\n"),
                "{} response must close the connection:\n{text}",
                response.status
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let bytes = Response::retry_after(503, error_body("queue full"), 1).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\n  \"error\": \"queue full\"\n}"), "{text}");
    }

    #[test]
    fn stream_frames_are_valid_chunked_encoding() {
        let head = String::from_utf8(stream_head(200, "application/x-ndjson")).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(!head.contains("Content-Length"), "streams have no length:\n{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");

        assert_eq!(chunk(b"hello\n"), b"6\r\nhello\n\r\n");
        // 26 bytes frames as hex 1a.
        assert_eq!(chunk(&[b'x'; 26])[..4], *b"1a\r\n");
        assert!(chunk(b"").is_empty(), "empty payloads must not terminate the stream");
        assert_eq!(chunk_end(), b"0\r\n\r\n");
    }

    #[test]
    fn proxied_responses_carry_the_relay_header() {
        let mut response = Response::json(200, "{}".to_string());
        let plain = String::from_utf8(response.to_bytes()).unwrap();
        assert!(!plain.contains("X-Fetchvp-Proxied"), "{plain}");
        response.proxied = true;
        let relayed = String::from_utf8(response.to_bytes()).unwrap();
        assert!(relayed.contains("X-Fetchvp-Proxied: 1\r\n"), "{relayed}");
        assert!(relayed.contains("Connection: close\r\n"), "{relayed}");
    }

    #[test]
    fn text_responses_carry_their_content_type() {
        let response =
            Response::text(200, "fetchvp_up 1\n".to_string(), "text/plain; version=0.0.4");
        let text = String::from_utf8(response.to_bytes()).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{text}");
        assert!(text.ends_with("fetchvp_up 1\n"), "{text}");
    }
}
