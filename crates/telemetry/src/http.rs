//! A minimal hand-rolled HTTP/1.1 server for the live export plane.
//!
//! The build environment forbids new dependencies, so this is a small,
//! std-only server: one accept thread on a [`std::net::TcpListener`],
//! one thread per connection up to [`MAX_CONNECTIONS`] (an event-stream
//! follower counts while connected; past the cap, 503 and close),
//! `Connection: close` semantics.
//! It exists to serve the monitor's read-only endpoints (`/metrics`,
//! `/healthz`, `/snapshot`) — it is deliberately not a general web
//! server: GET/HEAD only, no keep-alive, no chunked encoding, request
//! bodies ignored, and a request head bounded in size ([`MAX_HEAD`]) and
//! in time (one [`READ_TIMEOUT`] for all of it), so a client can neither
//! grow a buffer without limit nor pin a thread by dripping bytes.
//!
//! Routing is a caller-supplied closure from [`HttpRequest`] (path,
//! query string, `Accept` header) to [`HttpRoute`]; `None` becomes a
//! 404. A route is either a buffered [`HttpResponse`] or an
//! [`EventSource`] served as a server-sent-event stream (`Content-Type:
//! text/event-stream`, one `data:` event per published tick) so
//! dashboards can follow `/snapshot` without polling. The server itself
//! answers 405 for non-GET methods and 400 for unparseable, oversized or
//! late request heads.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection may take to deliver its whole request head.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// The most bytes a request head (request line and headers) may take.
const MAX_HEAD: u64 = 8 * 1024;

/// How long an event-stream connection waits on its client between
/// source polls.
const STREAM_POLL: Duration = Duration::from_millis(20);

/// The most connections served at once.
const MAX_CONNECTIONS: usize = 64;

/// A response the router hands back: status, content type, body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A 200 response with `text/plain; version=0.0.4` (the Prometheus
    /// exposition content type).
    pub fn prometheus(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }
}

/// A parsed request head, as much of it as routing needs.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// `GET` or `HEAD` (anything else is rejected before routing).
    pub method: String,
    /// Request path with the query string stripped (`/snapshot`).
    pub path: String,
    /// The query string after `?`, empty when absent (`follow=1`).
    pub query: String,
    /// The raw `Accept` header value, empty when absent.
    pub accept: String,
}

impl HttpRequest {
    /// Whether the client asked to follow the resource as a server-sent
    /// event stream: `Accept: text/event-stream` or `?follow=1`.
    pub fn wants_event_stream(&self) -> bool {
        self.accept
            .to_ascii_lowercase()
            .contains("text/event-stream")
            || self.query.split('&').any(|kv| kv == "follow=1")
    }

    /// The first value of query parameter `key`, percent-decoded (`+`
    /// reads as a space). `None` when the key is absent; a bare `?key`
    /// yields an empty string.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == key).then(|| percent_decode(v))
        })
    }
}

/// Decodes `%XX` escapes and `+` spaces; malformed escapes pass through
/// verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match s
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A cursor-driven stream of events for SSE endpoints. The connection
/// thread polls [`EventSource::next_after`] with the last cursor it
/// delivered; the source returns the next `(cursor, payload)` pair when
/// one exists. [`EventSource::finished`] ends the stream cleanly.
pub trait EventSource: Send + Sync {
    /// The next event strictly after `cursor`, or `None` if nothing new
    /// has been published yet.
    fn next_after(&self, cursor: u64) -> Option<(u64, String)>;

    /// Whether the producer has finished: after draining, the stream
    /// closes instead of waiting for more events.
    fn finished(&self) -> bool {
        false
    }
}

/// What a router returns for a request: a buffered response or a
/// server-sent-event stream.
pub enum HttpRoute {
    /// An ordinary buffered response.
    Response(HttpResponse),
    /// A `text/event-stream` fed from the source until it finishes, the
    /// client disconnects, or the server stops.
    EventStream(Arc<dyn EventSource>),
}

impl From<HttpResponse> for HttpRoute {
    fn from(resp: HttpResponse) -> Self {
        HttpRoute::Response(resp)
    }
}

/// Maps a request to a route; `None` means 404.
pub type Router = dyn Fn(&HttpRequest) -> Option<HttpRoute> + Send + Sync;

/// A running HTTP server. Dropping (or calling [`HttpServer::stop`])
/// shuts the accept loop down and joins it.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// serves `router` until stopped.
    pub fn serve<A: ToSocketAddrs>(addr: A, router: Arc<Router>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let accept_stop = stop.clone();
        let accept_requests = requests.clone();
        // Every connection thread holds a clone: the count past this one
        // is the connections open. Only the accept thread clones it.
        let slots = Arc::new(());
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                if Arc::strong_count(&slots) > MAX_CONNECTIONS {
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let body = "{\"error\":\"too many connections\"}".into();
                    write_response(&mut stream, false, &HttpResponse::json(503, body));
                    continue;
                }
                let slot = slots.clone();
                let router = router.clone();
                let requests = accept_requests.clone();
                let stop = accept_stop.clone();
                // One thread per connection: buffered endpoints render
                // in microseconds; event streams watch the stop flag so
                // shutdown is never blocked on them.
                std::thread::spawn(move || {
                    let _slot = slot;
                    requests.fetch_add(1, Ordering::Relaxed);
                    handle_connection(stream, &*router, &stop);
                });
            }
        });
        Ok(HttpServer {
            addr,
            stop,
            requests,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop is blocked in `incoming()`; poke it awake with
        // a throwaway connection so it observes the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

fn write_response(stream: &mut TcpStream, head_only: bool, resp: &HttpResponse) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    if !head_only {
        let _ = stream.write_all(resp.body.as_bytes());
    }
    let _ = stream.flush();
}

/// Serves an SSE stream: headers, then one `id:`/`data:` event per
/// source publication until the source finishes, the client goes away
/// (hangs up, or a write fails), or the server stops.
fn stream_events(
    stream: &mut TcpStream,
    head_only: bool,
    source: &dyn EventSource,
    stop: &AtomicBool,
) {
    use ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    if head_only {
        let _ = stream.flush();
        return;
    }
    // An opening comment flushes the headers through proxies and lets
    // clients detect the stream before the first tick lands.
    if stream.write_all(b": netqos event stream\n\n").is_err() {
        return;
    }
    let _ = stream.flush();
    let _ = stream.set_read_timeout(Some(STREAM_POLL));
    let mut cursor = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match source.next_after(cursor) {
            Some((next, payload)) => {
                cursor = next;
                let mut event = format!("id: {next}\n");
                // SSE payloads are line-framed: multi-line payloads
                // become consecutive `data:` lines of one event.
                for line in payload.lines() {
                    event.push_str("data: ");
                    event.push_str(line);
                    event.push('\n');
                }
                event.push('\n');
                if stream.write_all(event.as_bytes()).is_err() {
                    return;
                }
                let _ = stream.flush();
            }
            None if source.finished() => return,
            // Waiting on the client between polls notices a hang-up
            // while the source is quiet, which frees the slot.
            None => match stream.read(&mut [0u8; 256]) {
                Ok(0) => return,
                Err(e) if !matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => return,
                _ => {}
            },
        }
    }
}

/// Reads a request head off `stream`: up to [`MAX_HEAD`] bytes, all
/// within one [`READ_TIMEOUT`], ending at the blank line (or at end of
/// input). `None` when the head runs past either limit.
fn read_head(stream: &TcpStream) -> Option<Vec<u8>> {
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut input = stream.take(MAX_HEAD);
    let (mut head, mut buf) = (Vec::new(), [0u8; 1024]);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return None;
        }
        match input.read(&mut buf) {
            Ok(0) => return (input.limit() > 0).then_some(head),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
        // A blank line, `\r` or not, ends the head.
        if head.windows(2).any(|w| w == b"\n\n") || head.windows(3).any(|w| w == b"\n\r\n") {
            return Some(head);
        }
    }
}

/// Parses a request head: the request line's method and target, and the
/// `Accept` header (the last one given). What follows the blank line
/// that ends the head is not read. `None` when the request line lacks a
/// method or a target.
fn parse_head(head: &[u8]) -> Option<HttpRequest> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let mut parts = lines.next()?.split_whitespace();
    let (method, target) = (parts.next()?, parts.next()?);
    let mut accept = String::new();
    for line in lines.take_while(|l| !l.is_empty()) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("accept") {
                accept = value.trim().to_string();
            }
        }
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Some(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        accept,
    })
}

fn handle_connection(mut stream: TcpStream, router: &Router, stop: &AtomicBool) {
    let Some(request) = read_head(&stream).as_deref().and_then(parse_head) else {
        let resp = HttpResponse::json(400, "{\"error\":\"bad request\"}".into());
        write_response(&mut stream, false, &resp);
        return;
    };
    let method = request.method.as_str();
    if method != "GET" && method != "HEAD" {
        let resp = HttpResponse::json(405, "{\"error\":\"method not allowed\"}".into());
        write_response(&mut stream, false, &resp);
        return;
    }
    let head_only = method == "HEAD";
    match router(&request) {
        Some(HttpRoute::Response(resp)) => write_response(&mut stream, head_only, &resp),
        Some(HttpRoute::EventStream(source)) => {
            stream_events(&mut stream, head_only, &*source, stop)
        }
        None => {
            let resp = HttpResponse::json(
                404,
                format!("{{\"error\":\"no such endpoint {:?}\"}}", request.path),
            );
            write_response(&mut stream, head_only, &resp);
        }
    }
}

/// A minimal plaintext HTTP/1.1 GET client, the read-side twin of this
/// server: one request, `Connection: close`, whole body buffered.
/// Serves the CLI's online query mode (`netqos query --url`). Returns
/// `(status, body)`.
pub fn http_get(host: &str, port: u16, path_and_query: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect((host, port)).map_err(|e| format!("connect {host}:{port}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(10))))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(
            format!(
                "GET {path_and_query} HTTP/1.1\r\nHost: {host}:{port}\r\n\
                 Accept: application/json\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read response: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read headers: {e}"))?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body).map_err(|e| format!("read body: {e}"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        let status: u16 = head
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, head.to_string(), body.to_string())
    }

    fn test_server() -> HttpServer {
        let router: Arc<Router> = Arc::new(|req| match req.path.as_str() {
            "/metrics" => Some(HttpResponse::prometheus("metric_a 1\n".into()).into()),
            "/healthz" => Some(HttpResponse::json(200, "{\"status\":\"ok\"}".into()).into()),
            "/query" => {
                Some(HttpResponse::json(200, format!("{{\"query\":{:?}}}", req.query)).into())
            }
            _ => None,
        });
        HttpServer::serve("127.0.0.1:0", router).unwrap()
    }

    #[test]
    fn serves_routes_with_content_type_and_length() {
        let server = test_server();
        let (status, head, body) = get(server.local_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, "metric_a 1\n");

        let (status, head, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(head.contains("application/json"));
        assert_eq!(body, "{\"status\":\"ok\"}");
        assert!(server.requests_served() >= 2);
        server.stop();
    }

    #[test]
    fn unknown_path_is_404_and_query_strings_reach_the_router() {
        let server = test_server();
        let (status, _, body) = get(server.local_addr(), "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("no such endpoint"));
        let (status, _, _) = get(server.local_addr(), "/metrics?scrape=1");
        assert_eq!(status, 200);
        let (status, _, body) = get(server.local_addr(), "/query?a=1&b=2");
        assert_eq!(status, 200);
        assert!(body.contains("\"a=1&b=2\""), "{body}");
        server.stop();
    }

    #[test]
    fn non_get_methods_are_405() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.stop();
    }

    /// A fixed script of events, finishing after the last one.
    struct ScriptedSource {
        events: Vec<String>,
    }

    impl EventSource for ScriptedSource {
        fn next_after(&self, cursor: u64) -> Option<(u64, String)> {
            self.events
                .get(cursor as usize)
                .map(|e| (cursor + 1, e.clone()))
        }

        fn finished(&self) -> bool {
            true
        }
    }

    #[test]
    fn event_stream_delivers_scripted_events_and_closes() {
        let source = Arc::new(ScriptedSource {
            events: vec!["{\"tick\":1}".into(), "line1\nline2".into()],
        });
        let router: Arc<Router> = Arc::new(move |req| {
            (req.path == "/snapshot" && req.wants_event_stream())
                .then(|| HttpRoute::EventStream(source.clone()))
        });
        let server = HttpServer::serve("127.0.0.1:0", router).unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            stream,
            "GET /snapshot?follow=1 HTTP/1.1\r\nHost: t\r\nAccept: text/event-stream\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap(); // returns when the stream closes
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("Content-Type: text/event-stream"), "{raw}");
        assert!(raw.contains("id: 1\ndata: {\"tick\":1}\n\n"), "{raw}");
        // Multi-line payloads become consecutive data: lines of one event.
        assert!(raw.contains("id: 2\ndata: line1\ndata: line2\n\n"), "{raw}");
        server.stop();
    }

    #[test]
    fn wants_event_stream_detection() {
        let base = HttpRequest {
            method: "GET".into(),
            path: "/snapshot".into(),
            query: String::new(),
            accept: String::new(),
        };
        assert!(!base.wants_event_stream());
        let mut follow = base.clone();
        follow.query = "follow=1".into();
        assert!(follow.wants_event_stream());
        let mut accept = base.clone();
        accept.accept = "text/Event-Stream; q=0.9".into();
        assert!(accept.wants_event_stream());
        let mut other = base;
        other.query = "follower=1".into();
        assert!(!other.wants_event_stream());
    }

    /// Reads what the server sends until it closes (or resets) the
    /// connection.
    fn read_until_closed(stream: &mut TcpStream) -> String {
        let (mut raw, mut buf) = (Vec::new(), [0u8; 1024]);
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            raw.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&raw).into_owned()
    }

    #[test]
    fn an_endless_request_line_is_refused_and_the_server_carries_on() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // 64 KiB and no newline; the server stops reading long before.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'a'; 64 * 1024]);
        });
        stream.set_read_timeout(Some(READ_TIMEOUT * 2)).unwrap();
        let raw = read_until_closed(&mut stream);
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw:?}");
        sender.join().unwrap();
        let (status, _, body) = get(server.local_addr(), "/healthz");
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
        server.stop();
    }

    #[test]
    fn a_dripping_head_is_closed_at_the_deadline() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let started = Instant::now();
        let mut writer = stream.try_clone().unwrap();
        // One header line every 300 ms: each read is quick, the head never
        // ends.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(b"GET /healthz HTTP/1.1\r\n");
            while writer.write_all(b"X-Drip: 1\r\n").is_ok() {
                std::thread::sleep(Duration::from_millis(300));
                if started.elapsed() > READ_TIMEOUT * 3 {
                    break;
                }
            }
        });
        stream.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        let raw = read_until_closed(&mut stream);
        let waited = started.elapsed();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw:?}");
        assert!(
            waited >= READ_TIMEOUT && waited < READ_TIMEOUT * 2,
            "closed after {waited:?}"
        );
        drop(stream);
        sender.join().unwrap();
        server.stop();
    }

    /// A request head from its parts, `extra` further headers in front of
    /// the `Accept` one.
    fn head_bytes(method: &str, target: &str, accept: &str, extra: usize) -> Vec<u8> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
        for i in 0..extra {
            head.push_str(&format!("X-{i}: {i}\n"));
        }
        head.push_str(&format!("Accept: {accept}\r\n\r\n"));
        head.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No damage to a request head panics the parser: cut at every
        /// byte, each byte flipped (all its bits, and one), content after
        /// the head. Undamaged, it parses to its parts, whatever follows.
        #[test]
        fn parse_head_survives_damage(
            method in "[A-Z]{1,7}",
            path in "/[a-z0-9/]{0,12}",
            query in "[a-z0-9=&]{0,8}",
            accept in "[a-z/;=.*]{0,16}",
            extra in 0usize..4,
            bit in 0u32..8,
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let head = head_bytes(&method, &format!("{path}?{query}"), &accept, extra);
            let parsed = parse_head(&head).expect("an undamaged head parses");
            prop_assert_eq!(
                (&*parsed.method, &*parsed.path, &*parsed.query, &*parsed.accept),
                (&*method, &*path, &*query, &*accept)
            );
            let long = [&head[..], &tail[..]].concat();
            prop_assert_eq!(format!("{:?}", parse_head(&long)), format!("{:?}", Some(parsed)));
            for cut in 0..head.len() {
                let _ = parse_head(&head[..cut]);
            }
            for at in 0..head.len() {
                for mask in [0xff, 1 << bit] {
                    let mut damaged = head.clone();
                    damaged[at] ^= mask;
                    let _ = parse_head(&damaged);
                }
            }
        }
    }

    /// A source that never publishes and never finishes.
    struct QuietSource;

    impl EventSource for QuietSource {
        fn next_after(&self, _: u64) -> Option<(u64, String)> {
            None
        }
    }

    /// The status a GET of `target` is answered with, read to the close.
    fn status_of(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        let raw = read_until_closed(&mut stream);
        raw.split_whitespace()
            .nth(1)
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn past_the_connection_cap_a_request_is_refused_with_503() {
        let router: Arc<Router> = Arc::new(|req| match req.path.as_str() {
            "/snapshot" => Some(HttpRoute::EventStream(Arc::new(QuietSource))),
            "/healthz" => Some(HttpResponse::json(200, "{}".into()).into()),
            _ => None,
        });
        let server = HttpServer::serve("127.0.0.1:0", router).unwrap();
        let addr = server.local_addr();
        // Followers hold their slots while connected, events or not.
        let mut followers: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                write!(stream, "GET /snapshot?follow=1 HTTP/1.1\r\n\r\n").unwrap();
                let mut status_line = [0u8; 12];
                stream.read_exact(&mut status_line).unwrap();
                assert_eq!(&status_line, b"HTTP/1.1 200");
                stream
            })
            .collect();
        assert_eq!(status_of(addr, "/healthz"), "503");
        // One follower hangs up: its slot comes back within a poll or so.
        drop(followers.pop());
        let deadline = Instant::now() + READ_TIMEOUT;
        while status_of(addr, "/healthz") != "200" {
            assert!(Instant::now() < deadline, "the slot never came back");
            std::thread::sleep(STREAM_POLL);
        }
        drop(followers);
        server.stop();
    }

    #[test]
    fn stop_joins_the_accept_loop() {
        let server = test_server();
        let addr = server.local_addr();
        server.stop();
        // The listener is gone: either the connect or the read fails.
        let alive = TcpStream::connect_timeout(&addr, Duration::from_millis(200))
            .map(|mut s| {
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                s.read_to_string(&mut buf)
                    .map(|_| !buf.is_empty())
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        assert!(!alive, "server still answering after stop()");
    }
}
