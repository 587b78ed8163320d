//! Push-based OTLP delivery: a std-only background worker that POSTs
//! flight snapshots to a collector.
//!
//! Scrape-based export (`/metrics`) loses the traces of a monitor that
//! dies between scrapes; pushing the flight snapshot at violation time
//! closes that gap. The pusher is deliberately boring: a bounded
//! queue in front of one worker thread doing blocking HTTP/1.1 POSTs
//! with capped exponential backoff. The tick loop only ever pays the
//! cost of an `mpsc` try-send — when the collector is down the queue
//! fills and [`OtlpPusher::enqueue`] drops on the floor, counting every
//! drop so the loss is visible in `/metrics` rather than silent.

use crate::metrics::Counter;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Where pushes go: host, port, and URL path, parsed from an
/// `http://host:port/path` URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushTarget {
    pub host: String,
    pub port: u16,
    pub path: String,
}

impl PushTarget {
    fn addr(&self) -> (String, u16) {
        (self.host.clone(), self.port)
    }
}

/// Parses an `http://` push URL. `https://` is rejected explicitly —
/// there is no TLS stack in this tree; terminate TLS in a local
/// collector or sidecar.
pub fn parse_push_url(url: &str) -> Result<PushTarget, String> {
    parse_http_url(url, "--otlp-push", 4318, "/v1/traces")
}

/// Parses an `http://` alert-webhook URL (default port 80, default
/// path `/`). Same plaintext-only rule as [`parse_push_url`].
pub fn parse_webhook_url(url: &str) -> Result<PushTarget, String> {
    parse_http_url(url, "--alert-webhook", 80, "/")
}

fn parse_http_url(
    url: &str,
    flag: &str,
    default_port: u16,
    default_path: &str,
) -> Result<PushTarget, String> {
    if let Some(rest) = url.strip_prefix("https://") {
        return Err(format!(
            "https push targets are not supported (got https://{rest}); \
             point {flag} at a plaintext listener"
        ));
    }
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("push URL must start with http:// (got {url:?})"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, default_path),
    };
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) => (
            h,
            p.parse::<u16>()
                .map_err(|_| format!("bad port in push URL {url:?}"))?,
        ),
        None => (authority, default_port),
    };
    if host.is_empty() {
        return Err(format!("empty host in push URL {url:?}"));
    }
    Ok(PushTarget {
        host: host.to_string(),
        port,
        path: path.to_string(),
    })
}

/// Delivery policy for the push worker.
#[derive(Debug, Clone)]
pub struct PushConfig {
    pub target: PushTarget,
    /// Attempts per snapshot before it is counted as dropped.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Snapshots queued ahead of the worker before `enqueue` drops.
    pub queue_capacity: usize,
    /// Per-connection read/write timeout.
    pub timeout_ms: u64,
}

impl PushConfig {
    /// Defaults tuned for a local collector: 4 attempts backing off
    /// 50ms → 400ms, 32 queued snapshots, 2s socket timeout.
    pub fn new(target: PushTarget) -> Self {
        PushConfig {
            target,
            max_attempts: 4,
            backoff_ms: 50,
            backoff_cap_ms: 400,
            queue_capacity: 32,
            timeout_ms: 2_000,
        }
    }
}

/// Delivery counters, shared with a metrics registry so drops show up
/// on `/metrics`.
#[derive(Clone, Default)]
pub struct PushCounters {
    /// Snapshots acknowledged 2xx by the collector.
    pub pushed: Counter,
    /// Individual retry attempts (connection refused or non-2xx).
    pub retries: Counter,
    /// Snapshots abandoned: queue full at enqueue, or retries
    /// exhausted.
    pub dropped: Counter,
}

/// The background pusher. Create with [`OtlpPusher::start`], feed with
/// [`enqueue`](OtlpPusher::enqueue), and [`shutdown`](OtlpPusher::shutdown)
/// to drain.
pub struct OtlpPusher {
    sender: Mutex<Option<SyncSender<String>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    counters: PushCounters,
    target: PushTarget,
}

impl OtlpPusher {
    /// Spawns the worker thread and returns the queue handle.
    pub fn start(config: PushConfig, counters: PushCounters) -> OtlpPusher {
        let (tx, rx) = sync_channel::<String>(config.queue_capacity.max(1));
        let target = config.target.clone();
        let worker_counters = counters.clone();
        let worker = thread::Builder::new()
            .name("netqos-otlp-push".into())
            .spawn(move || push_worker(rx, config, worker_counters))
            .expect("spawn otlp push worker");
        OtlpPusher {
            sender: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            counters,
            target,
        }
    }

    /// Queues one snapshot body. Returns `false` (and counts a drop)
    /// when the queue is full or the pusher is already shut down —
    /// never blocks the caller.
    pub fn enqueue(&self, body: String) -> bool {
        let guard = self.sender.lock();
        let Some(tx) = guard.as_ref() else {
            self.counters.dropped.inc();
            return false;
        };
        match tx.try_send(body) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.counters.dropped.inc();
                false
            }
        }
    }

    /// Delivery counters (shared handles, live).
    pub fn counters(&self) -> &PushCounters {
        &self.counters
    }

    /// The configured collector endpoint.
    pub fn target(&self) -> &PushTarget {
        &self.target
    }

    /// Closes the queue, lets the worker drain what was already
    /// accepted, and joins it.
    pub fn shutdown(&self) {
        // Dropping the sender disconnects the channel; the worker exits
        // after draining buffered snapshots.
        drop(self.sender.lock().take());
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for OtlpPusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn push_worker(rx: Receiver<String>, config: PushConfig, counters: PushCounters) {
    while let Ok(body) = rx.recv() {
        let mut backoff = config.backoff_ms.max(1);
        let mut delivered = false;
        for attempt in 0..config.max_attempts.max(1) {
            if attempt > 0 {
                thread::sleep(Duration::from_millis(backoff));
                backoff = (backoff * 2).min(config.backoff_cap_ms.max(1));
                counters.retries.inc();
            }
            if post_once(&config, &body).is_ok() {
                counters.pushed.inc();
                delivered = true;
                break;
            }
        }
        if !delivered {
            counters.dropped.inc();
        }
    }
}

/// One blocking POST. `Ok` only on a 2xx status line; connection
/// errors, timeouts, and non-2xx all report `Err` so the caller
/// retries uniformly.
fn post_once(config: &PushConfig, body: &str) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(config.target.addr()).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_millis(config.timeout_ms.max(1)));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let request = format!(
        "POST {} HTTP/1.1\r\nHost: {}:{}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        config.target.path,
        config.target.host,
        config.target.port,
        body.len(),
        body
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    // Read until close; only the status line matters.
    let _ = stream.read_to_end(&mut response);
    let status_line = response
        .split(|&b| b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default();
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    if (200..300).contains(&code) {
        Ok(())
    } else {
        Err(format!("collector returned {code}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn read_request(stream: &mut TcpStream) -> (String, String) {
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut head = String::new();
        let mut content_len = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_len = v.trim().parse().unwrap();
            }
            head.push_str(&line);
        }
        let mut body = vec![0u8; content_len];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    fn respond(stream: &mut TcpStream, status: &str) {
        let _ = stream.write_all(
            format!("HTTP/1.1 {status}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        );
    }

    #[test]
    fn parse_push_url_variants() {
        assert_eq!(
            parse_push_url("http://127.0.0.1:4318/v1/traces").unwrap(),
            PushTarget {
                host: "127.0.0.1".into(),
                port: 4318,
                path: "/v1/traces".into()
            }
        );
        // Default port and default path.
        assert_eq!(parse_push_url("http://collector").unwrap().port, 4318);
        assert_eq!(
            parse_push_url("http://collector:9999").unwrap().path,
            "/v1/traces"
        );
        assert!(parse_push_url("https://collector:4318/x").is_err());
        assert!(parse_push_url("collector:4318").is_err());
        assert!(parse_push_url("http://:4318/x").is_err());
        assert!(parse_push_url("http://h:notaport/x").is_err());
    }

    #[test]
    fn parse_webhook_url_defaults() {
        let t = parse_webhook_url("http://hooks.local").unwrap();
        assert_eq!((t.port, t.path.as_str()), (80, "/"));
        let t = parse_webhook_url("http://hooks.local:9009/notify").unwrap();
        assert_eq!((t.port, t.path.as_str()), (9009, "/notify"));
        let err = parse_webhook_url("https://hooks.local/x").unwrap_err();
        assert!(err.contains("--alert-webhook"), "{err}");
    }

    #[test]
    fn delivers_body_to_sink() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let sink = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (head, body) = read_request(&mut stream);
            respond(&mut stream, "200 OK");
            (head, body)
        });
        let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
        let pusher = OtlpPusher::start(PushConfig::new(target), PushCounters::default());
        assert!(pusher.enqueue("{\"resourceSpans\":[]}".into()));
        pusher.shutdown();
        let (head, body) = sink.join().unwrap();
        assert!(head.starts_with("POST /v1/traces HTTP/1.1"), "{head}");
        assert_eq!(body, "{\"resourceSpans\":[]}");
        assert_eq!(pusher.counters().pushed.get(), 1);
        assert_eq!(pusher.counters().dropped.get(), 0);
    }

    #[test]
    fn retries_after_rejection_then_succeeds() {
        // One listener that 503s the first POST and 200s the second:
        // exercises the retry path without racing on a restarted port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let sink = thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let _ = read_request(&mut first);
            respond(&mut first, "503 Service Unavailable");
            let (mut second, _) = listener.accept().unwrap();
            let (_, body) = read_request(&mut second);
            respond(&mut second, "200 OK");
            body
        });
        let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
        let mut config = PushConfig::new(target);
        config.backoff_ms = 5;
        config.backoff_cap_ms = 10;
        let pusher = OtlpPusher::start(config, PushCounters::default());
        assert!(pusher.enqueue("{\"try\":2}".into()));
        pusher.shutdown();
        assert_eq!(sink.join().unwrap(), "{\"try\":2}");
        assert_eq!(pusher.counters().pushed.get(), 1);
        assert_eq!(pusher.counters().retries.get(), 1);
        assert_eq!(pusher.counters().dropped.get(), 0);
    }

    #[test]
    fn exhausted_retries_count_a_drop() {
        // Bind then drop the listener so the port refuses connections.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
        let mut config = PushConfig::new(target);
        config.max_attempts = 3;
        config.backoff_ms = 2;
        config.backoff_cap_ms = 4;
        let pusher = OtlpPusher::start(config, PushCounters::default());
        assert!(pusher.enqueue("{}".into()));
        pusher.shutdown();
        assert_eq!(pusher.counters().pushed.get(), 0);
        assert_eq!(
            pusher.counters().retries.get(),
            2,
            "attempts 2 and 3 retried"
        );
        assert_eq!(pusher.counters().dropped.get(), 1);
    }

    #[test]
    fn full_queue_drops_without_blocking() {
        // Hold the worker hostage on a sink that accepts but never
        // responds, so the queue backs up deterministically.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let sink = thread::spawn(move || {
            let mut held = Vec::new();
            // Accept connections until released; never respond.
            listener.set_nonblocking(true).unwrap();
            loop {
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream);
                }
                if release_rx.try_recv().is_ok() {
                    break;
                }
                thread::sleep(Duration::from_millis(2));
            }
            drop(held);
        });
        let target = parse_push_url(&format!("http://127.0.0.1:{port}/v1/traces")).unwrap();
        let mut config = PushConfig::new(target);
        config.queue_capacity = 1;
        config.max_attempts = 1;
        config.timeout_ms = 10_000;
        let pusher = OtlpPusher::start(config, PushCounters::default());
        // First body goes to the worker, second fills the queue of 1;
        // keep enqueuing until one is rejected.
        let mut saw_drop = false;
        for i in 0..50 {
            if !pusher.enqueue(format!("{{\"n\":{i}}}")) {
                saw_drop = true;
                break;
            }
        }
        assert!(saw_drop, "bounded queue never reported full");
        assert!(pusher.counters().dropped.get() >= 1);
        release_tx.send(()).unwrap();
        sink.join().unwrap();
        pusher.shutdown();
    }

    #[test]
    fn enqueue_after_shutdown_is_a_counted_drop() {
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let target = parse_push_url(&format!("http://127.0.0.1:{port}/")).unwrap();
        let mut config = PushConfig::new(target);
        config.max_attempts = 1;
        config.backoff_ms = 1;
        let pusher = OtlpPusher::start(config, PushCounters::default());
        pusher.shutdown();
        let before = pusher.counters().dropped.get();
        assert!(!pusher.enqueue("{}".into()));
        assert_eq!(pusher.counters().dropped.get(), before + 1);
    }
}
