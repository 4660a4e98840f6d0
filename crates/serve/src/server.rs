//! The listener: a std-only, thread-per-connection HTTP server with a
//! bounded connection budget, read timeouts, and graceful shutdown.
//!
//! No async runtime, no dependencies: a blocking `TcpListener` accept
//! loop on one thread, one short-lived worker thread per accepted
//! connection (scrape requests are single-round-trip and
//! `Connection: close`, so threads live milliseconds). The accept
//! thread sleeps in `accept` until a client arrives, so a scrape is
//! picked up the moment it connects; [`ServerHandle::shutdown`] wakes it
//! with one loopback connect. The connection budget sheds load with an
//! immediate 503 instead of queueing — a stalled dashboard must never
//! back-pressure into the data plane — and per-socket read timeouts
//! bound how long a slow-loris client can pin a thread.

use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{parse_request, HttpError, Response};
use crate::router::Endpoints;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently before new ones get 503.
    pub max_connections: usize,
    /// Per-socket read timeout (bounds a stalled request).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A running server; dropping without [`shutdown`] detaches the
/// accept thread (it keeps serving until the process exits).
///
/// [`shutdown`]: ServerHandle::shutdown
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0 for ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wait (bounded) for in-flight connections to
    /// drain, and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread blocked in `accept`: it sees `stop` on
        // the next connection and exits. An unspecified bind address is
        // reachable over loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // In-flight workers hold the socket; give them a bounded drain
        // window (read timeouts cap how long any one can take).
        let deadline = std::time::Instant::now() + Duration::from_secs(6);
        while self.active.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// `endpoints` until [`ServerHandle::shutdown`].
pub fn serve<A: ToSocketAddrs>(
    endpoints: Endpoints,
    addr: A,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));

    let accept_stop = Arc::clone(&stop);
    let accept_active = Arc::clone(&active);
    let accept_thread = std::thread::Builder::new()
        .name("oda-serve-accept".into())
        .spawn(move || {
            accept_loop(listener, endpoints, config, accept_stop, accept_active);
        })?;

    Ok(ServerHandle {
        addr,
        stop,
        active,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    endpoints: Endpoints,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Transient accept errors (e.g. an aborted handshake): keep
        // serving.
        let Ok(stream) = stream else { continue };
        if active.load(Ordering::SeqCst) >= config.max_connections {
            // Shed immediately: a busy operator plane answers "try
            // later", it never queues into the data plane.
            shed(stream);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let endpoints = endpoints.clone();
        let worker_active = Arc::clone(&active);
        let read_timeout = config.read_timeout;
        let spawned = std::thread::Builder::new()
            .name("oda-serve-conn".into())
            .spawn(move || {
                handle_connection(stream, &endpoints, read_timeout);
                worker_active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// 503 and close — the over-budget path.
///
/// Drains the request headers (briefly, bounded) before answering:
/// closing a socket with unread inbound data sends RST on Linux, and
/// the client would see a reset instead of the 503.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let _ = parse_request(&mut reader);
    let _ = Response::error(503, "connection budget exhausted").write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Serve exactly one request on `stream`.
fn handle_connection(stream: TcpStream, endpoints: &Endpoints, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let response = match parse_request(&mut reader) {
        Ok(req) => endpoints.route(&req),
        Err(HttpError::TooLarge) => Response::error(431, "request too large"),
        Err(HttpError::BadRequest(msg)) => Response::error(400, msg),
        Err(HttpError::Io(_)) => return, // timeout/hangup: nothing owed
    };
    let mut writer = stream;
    let _ = response.write_to(&mut writer);
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn fetch(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status line");
        let content_type = raw
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, content_type, body)
    }

    #[test]
    fn serves_metrics_over_a_real_socket() {
        let reg = oda_obs::Registry::new();
        reg.counter("socket_total", "via socket", &[]).add(9);
        let endpoints = Endpoints::new().with_registry(&reg);
        let handle =
            serve(endpoints, "127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
        let (status, ct, body) = fetch(handle.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain"));
        assert!(body.contains("socket_total"));
        let (status, _, _) = fetch(handle.addr(), "/definitely-not-here");
        assert_eq!(status, 404);
        handle.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let handle = serve(Endpoints::new(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.addr();
        handle.shutdown();
        // Allow for TIME_WAIT quirks: either refused outright or the
        // connection opens but nobody answers.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = write!(s, "GET / HTTP/1.1\r\n\r\n");
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1];
                assert_ne!(s.read(&mut buf).ok(), Some(1), "accept loop still alive");
            }
        }
    }

    #[test]
    fn idle_shutdown_is_prompt_and_first_scrape_is_served() {
        let reg = oda_obs::Registry::new();
        reg.counter("first_total", "first scrape", &[]).inc();
        let handle = serve(
            Endpoints::new().with_registry(&reg),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        // A scrape sent the moment `serve` returns is accepted and
        // answered: the listener is bound before the handle exists.
        let (status, _, body) = fetch(handle.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("first_total"));
        // An idle server blocked in `accept` is woken, not polled.
        let idle = serve(Endpoints::new(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let start = std::time::Instant::now();
        idle.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "idle shutdown took {:?}",
            start.elapsed()
        );
        handle.shutdown();
    }

    #[test]
    fn connection_budget_sheds_with_503() {
        let endpoints = Endpoints::new();
        let config = ServerConfig {
            max_connections: 0, // everything sheds
            ..ServerConfig::default()
        };
        let handle = serve(endpoints, "127.0.0.1:0", config).unwrap();
        let (status, _, body) = fetch(handle.addr(), "/");
        assert_eq!(status, 503);
        assert!(body.contains("budget"));
        handle.shutdown();
    }
}
