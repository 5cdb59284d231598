//! A minimal std-only HTTP/1.0 endpoint for Prometheus scrapes and debug
//! pages.
//!
//! One accept-loop thread; each connection gets its request line read,
//! its headers skipped, and a single `text/plain; version=0.0.4` response
//! rendered by the matching route's closure. Connections close after one
//! exchange (`Connection: close`), which every Prometheus scraper
//! handles.
//!
//! The endpoint is hardened against hostile or broken peers: the request
//! head (request line + headers) is bounded by [`MAX_HEAD`] and an
//! over-long request line gets a structured `400`; the whole head must
//! arrive within one timeout and writes carry the same timeout, so neither
//! a stalled nor a drip-feeding client can wedge the accept loop; unknown
//! paths and non-GET methods get structured `404`/`405` responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Renders a page on each request.
pub type RenderFn = dyn Fn() -> String + Send + Sync;

/// A registered path → renderer pair.
type Routes = Vec<(String, Arc<RenderFn>)>;

/// A running metrics endpoint. Dropping the handle shuts it down.
pub struct MetricsServer {
    local_addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Binds `addr` and serves `GET /metrics` with `render`'s output.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start(addr: &str, render: Arc<RenderFn>) -> io::Result<MetricsServer> {
        MetricsServer::start_with_routes(addr, vec![("/metrics".to_string(), render)])
    }

    /// Binds `addr` and serves each `(path, render)` route (exact path
    /// match, query strings ignored). Use this to expose debug pages —
    /// e.g. `/debug/flight` — next to `/metrics`. Unless the caller
    /// registers `/` itself, a plain-text discovery index listing every
    /// route is served there.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start_with_routes(addr: &str, routes: Routes) -> io::Result<MetricsServer> {
        MetricsServer::start_inner(addr, routes, Duration::from_secs(5))
    }

    fn start_inner(addr: &str, mut routes: Routes, timeout: Duration) -> io::Result<MetricsServer> {
        if !routes.iter().any(|(p, _)| p == "/") {
            let mut paths: Vec<String> = routes.iter().map(|(p, _)| p.clone()).collect();
            paths.sort();
            let index = format!("copred debug endpoints:\n{}\n", paths.join("\n"));
            routes.push((
                "/".to_string(),
                Arc::new(move || index.clone()) as Arc<RenderFn>,
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let handle = {
            let stopping = Arc::clone(&stopping);
            std::thread::Builder::new()
                .name("copred-metrics-http".to_string())
                .spawn(move || accept_loop(&listener, &routes, &stopping, timeout))
                .expect("spawn metrics endpoint")
        };
        Ok(MetricsServer {
            local_addr,
            stopping,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    routes: &Routes,
    stopping: &Arc<AtomicBool>,
    timeout: Duration,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stopping.load(Ordering::Acquire) {
                    return;
                }
                // Scrapes are tiny; serve inline so a slow renderer can't
                // pile up threads. A hung peer is bounded by the head
                // deadline and the write timeout.
                let _ = serve_one(stream, routes, timeout);
            }
            Err(_) if stopping.load(Ordering::Acquire) => return,
            Err(_) => continue,
        }
    }
}

/// Longest request head (request line + headers) accepted.
const MAX_HEAD: usize = 8 * 1024;

/// Reads from a socket until a deadline: each read waits at most the time
/// left, so a peer sending one byte at a time cannot stretch the total.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn serve_one(mut stream: TcpStream, routes: &Routes, timeout: Duration) -> io::Result<()> {
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        deadline: Instant::now() + timeout,
    });
    let mut request_line = String::new();
    reader
        .by_ref()
        .take(MAX_HEAD as u64)
        .read_line(&mut request_line)?;
    let line_overflow = !request_line.ends_with('\n') && request_line.len() >= MAX_HEAD;
    // Drain headers until the blank line so well-behaved clients don't see
    // a reset, bounded by MAX_HEAD total.
    let mut seen = request_line.len();
    if !line_overflow {
        loop {
            let mut line = String::new();
            let n = reader
                .by_ref()
                .take((MAX_HEAD - seen.min(MAX_HEAD)) as u64)
                .read_line(&mut line)?;
            seen += n;
            if n == 0 || line == "\r\n" || line == "\n" || seen >= MAX_HEAD {
                break;
            }
        }
    }
    if seen >= MAX_HEAD {
        // The peer overran the head bound; whatever it already sent is
        // still queued, and closing with unread data resets the
        // connection before our response arrives. Drain a bounded amount
        // under a short deadline, then answer.
        reader.get_mut().deadline = Instant::now() + Duration::from_millis(100);
        let mut sink = [0u8; 4096];
        let mut budget: usize = 1 << 20;
        while budget > 0 {
            match reader.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => budget -= n.min(budget),
            }
        }
    }
    let mut fields = request_line.split_whitespace();
    let (method, path) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
    let path = path.split('?').next().unwrap_or("");
    let mut allow = "";
    let (status, body) = if line_overflow {
        (
            "400 Bad Request",
            format!("request head exceeds {MAX_HEAD} bytes\n"),
        )
    } else if method != "GET" {
        allow = "Allow: GET\r\n";
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if let Some((_, render)) = routes.iter().find(|(p, _)| p == path) {
        ("200 OK", render())
    } else {
        let known: Vec<&str> = routes.iter().map(|(p, _)| p.as_str()).collect();
        ("404 Not Found", format!("try {}\n", known.join(" or ")))
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\n{allow}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot HTTP GET returning the response body — the scrape
/// half used by tests and the conformance harness.
///
/// # Errors
///
/// Connect/IO failures, or [`io::ErrorKind::InvalidData`] for non-200
/// responses and unparseable heads.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: copred\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-200 response: {status}"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MetricsServer {
        MetricsServer::start("127.0.0.1:0", Arc::new(|| "copred_up 1\n".to_string())).expect("bind")
    }

    #[test]
    fn serves_metrics_page() {
        let s = server();
        let body = http_get(s.local_addr(), "/metrics").expect("scrape");
        assert_eq!(body, "copred_up 1\n");
    }

    #[test]
    fn metrics_with_query_string_ok() {
        let s = server();
        let body = http_get(s.local_addr(), "/metrics?format=prometheus").expect("scrape");
        assert_eq!(body, "copred_up 1\n");
    }

    #[test]
    fn extra_routes_are_served_and_listed_in_404() {
        let s = MetricsServer::start_with_routes(
            "127.0.0.1:0",
            vec![
                (
                    "/metrics".to_string(),
                    Arc::new(|| "copred_up 1\n".to_string()) as Arc<RenderFn>,
                ),
                (
                    "/debug/flight".to_string(),
                    Arc::new(|| "[]".to_string()) as Arc<RenderFn>,
                ),
            ],
        )
        .expect("bind");
        assert_eq!(
            http_get(s.local_addr(), "/metrics").unwrap(),
            "copred_up 1\n"
        );
        assert_eq!(http_get(s.local_addr(), "/debug/flight").unwrap(), "[]");
        assert_eq!(http_get(s.local_addr(), "/debug/flight?x=1").unwrap(), "[]");
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        write!(stream, "GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 404"), "{resp}");
        assert!(resp.contains("/metrics or /debug/flight"), "{resp}");
    }

    #[test]
    fn other_paths_are_404() {
        let s = server();
        let err = http_get(s.local_addr(), "/nope").expect_err("404");
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn root_serves_a_discovery_index() {
        let s = MetricsServer::start_with_routes(
            "127.0.0.1:0",
            vec![
                (
                    "/metrics".to_string(),
                    Arc::new(|| "copred_up 1\n".to_string()) as Arc<RenderFn>,
                ),
                (
                    "/debug/flight".to_string(),
                    Arc::new(|| "[]".to_string()) as Arc<RenderFn>,
                ),
            ],
        )
        .expect("bind");
        let body = http_get(s.local_addr(), "/").expect("index");
        assert!(body.starts_with("copred debug endpoints:\n"), "{body}");
        assert!(body.contains("/metrics"), "{body}");
        assert!(body.contains("/debug/flight"), "{body}");
    }

    #[test]
    fn caller_registered_root_wins_over_the_index() {
        let s = MetricsServer::start_with_routes(
            "127.0.0.1:0",
            vec![(
                "/".to_string(),
                Arc::new(|| "custom root\n".to_string()) as Arc<RenderFn>,
            )],
        )
        .expect("bind");
        assert_eq!(http_get(s.local_addr(), "/").unwrap(), "custom root\n");
    }

    #[test]
    fn non_get_is_405_with_allow_header() {
        let s = server();
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 405"), "{resp}");
        assert!(resp.contains("Allow: GET"), "{resp}");
    }

    #[test]
    fn oversized_request_line_is_400() {
        let s = server();
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        // Exactly MAX_HEAD bytes with no newline: the endpoint reads the
        // whole head, sees an unterminated request line at the bound, and
        // answers with a structured 400.
        let mut long = b"GET /".to_vec();
        long.resize(MAX_HEAD, b'a');
        stream.write_all(&long).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 400"), "{resp}");
        assert!(resp.contains("request head exceeds"), "{resp}");
        // And the endpoint keeps serving.
        assert_eq!(
            http_get(s.local_addr(), "/metrics").unwrap(),
            "copred_up 1\n"
        );
    }

    #[test]
    fn oversized_headers_are_bounded() {
        let s = server();
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        let mut req = String::from("GET /metrics HTTP/1.0\r\n");
        for i in 0..2000 {
            req.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(64)));
        }
        req.push_str("\r\n");
        // The endpoint stops reading at MAX_HEAD and still answers.
        stream.write_all(req.as_bytes()).ok();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
    }

    #[test]
    fn stalled_client_cannot_wedge_the_accept_loop() {
        // Short read timeout so the test doesn't sit for the default 5s.
        let s = MetricsServer::start_inner(
            "127.0.0.1:0",
            vec![(
                "/metrics".to_string(),
                Arc::new(|| "copred_up 1\n".to_string()) as Arc<RenderFn>,
            )],
            Duration::from_millis(200),
        )
        .expect("bind");
        // Connect and send nothing: the accept loop blocks on this peer
        // for at most the read timeout, then serves the next scrape.
        let stalled = TcpStream::connect(s.local_addr()).unwrap();
        let start = std::time::Instant::now();
        let body = http_get(s.local_addr(), "/metrics").expect("served after stall");
        assert_eq!(body, "copred_up 1\n");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "stalled peer held the loop {:?}",
            start.elapsed()
        );
        drop(stalled);
    }

    #[test]
    fn drip_feeding_client_cannot_pin_the_accept_loop() {
        let s = MetricsServer::start_inner(
            "127.0.0.1:0",
            vec![(
                "/metrics".to_string(),
                Arc::new(|| "copred_up 1\n".to_string()) as Arc<RenderFn>,
            )],
            Duration::from_millis(200),
        )
        .expect("bind");
        // One byte every 150 ms lands inside every per-read timeout; only
        // a deadline on the whole head cuts this peer off.
        let mut drip = TcpStream::connect(s.local_addr()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let dripper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if drip.write_all(b"G").is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(150));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let scraped = http_get(s.local_addr(), "/metrics");
        let waited = start.elapsed();
        // Stop the dripper before asserting, so a failure cannot leave the
        // accept loop pinned while the server's drop joins it.
        stop.store(true, Ordering::Release);
        dripper.join().unwrap();
        assert_eq!(scraped.expect("served despite drip"), "copred_up 1\n");
        assert!(
            waited < Duration::from_secs(1),
            "drip-feeding peer held the loop {waited:?}"
        );
    }

    #[test]
    fn garbage_request_does_not_wedge_the_endpoint() {
        let s = server();
        {
            let mut stream = TcpStream::connect(s.local_addr()).unwrap();
            stream.write_all(&[0xff; 64]).unwrap();
            // Drop without reading; the endpoint must keep serving.
        }
        let body = http_get(s.local_addr(), "/metrics").expect("still up");
        assert_eq!(body, "copred_up 1\n");
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let mut s = server();
        s.shutdown();
        s.shutdown(); // idempotent
        assert!(http_get(s.local_addr(), "/metrics").is_err());
    }
}
