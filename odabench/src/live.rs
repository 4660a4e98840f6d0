//! `live_ops`: reads beside writes, open loop.
//!
//! One thread paces telemetry ticks on a fixed schedule through the
//! ingest job (`workers = 1`) with the full operator plane attached —
//! metrics registry, health engine observed once per committed epoch,
//! `oda-serve` on an ephemeral loopback port. A second thread issues, on
//! its own fixed schedule, `/metrics` and `/healthz` scrapes over real
//! sockets (one connection at a time) and a dashboard query every
//! `QUERY_EVERY`th slot. Every latency is timed from the instant the
//! operation was due, so a stall is charged to everything it delays; how
//! late the generators themselves ran is reported beside them.

use crate::ingest::{Inputs, Job, Shape};
use crate::query::dashboard_bytes;
use crate::trace::{span, Tracer};
use crate::Tally;
use oda_obs::{HealthEngine, Registry};
use oda_serve::{serve, Endpoints, Request, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load, fixed here and never derived at run time: about 40 % of
/// what the same job sustains closed-loop on the 2-core reference box at
/// the commit that defined the benchmark.
pub const TICKS_PER_S: f64 = 80.0;
/// Operator-plane requests per second (scrapes and dashboard queries).
pub const REQUESTS_PER_S: f64 = 100.0;
/// Every this many request slots the client asks the dashboard question
/// instead of scraping.
pub const QUERY_EVERY: usize = 8;

pub fn shape(smoke: bool) -> Shape {
    Shape {
        chunk_ticks: 1,
        // One tick in ten closes a window, so p95 is the median of the
        // emitting ticks and not the cliff below them.
        window_ms: 10_000,
        ticks: if smoke { 60 } else { 240 },
        ..Shape::steady(smoke)
    }
}

/// Latencies of one pass, ms, each from its due time.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub observations: usize,
    pub freshness_ms: Vec<f64>,
    pub tick_lateness_ms: Vec<f64>,
    pub backlog_end: u64,
    pub stored_bytes: u64,
    pub epochs: u64,
    pub client: ClientLog,
}

/// Wait for `due`; on a traced pass the wait is its own span, so idle
/// time is told apart from harness glue.
fn sleep_until(due: Instant, tracer: &Option<Arc<Tracer>>) {
    let now = Instant::now();
    if due > now {
        let _g = span(tracer, "bench.idle");
        std::thread::sleep(due - now);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One raw GET, `Connection: close`; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: odabench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("no status line")?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// Every sample line of a Prometheus exposition is `name{labels} value`
/// with a numeric value; at least one family is declared.
fn valid_exposition(body: &str) -> bool {
    body.contains("# TYPE")
        && body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .all(|l| {
                l.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok())
            })
}

fn valid_health(body: &str) -> bool {
    serde_json::value_from_slice(body.as_bytes())
        .ok()
        .is_some_and(|v| serde::obj_get(&v, "overall").is_some())
}

struct Client<'a> {
    addr: SocketAddr,
    inputs: &'a Inputs,
    lake: Arc<oda_storage::Lake>,
    registry: &'a Registry,
    endpoints: Endpoints,
    tracer: Option<Arc<Tracer>>,
    stop: &'a AtomicBool,
}

/// What the client thread saw, ms from each request's due time.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub scrape_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub shed_503: u64,
    tally: Tally,
    /// Direct calls made only on a traced pass, ns.
    pub route_ns: Vec<f64>,
    pub render_ns: Vec<f64>,
    pub render_bytes: usize,
    pub snapshot_ns: Vec<f64>,
}

impl Client<'_> {
    fn run(&self, start: Instant) -> ClientLog {
        let mut log = ClientLog::default();
        // A root of its own: the client's spans must not be adopted by
        // whichever epoch the ingest thread has fanned out.
        let _root = span(&self.tracer, "bench.client");
        let t_end_ms = self.inputs.shape.ticks as i64 * 1_000;
        for slot in 0.. {
            let due = start + Duration::from_secs_f64(slot as f64 / REQUESTS_PER_S);
            sleep_until(due, &self.tracer);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            log.lateness_ms.push(ms(due.elapsed()));
            log.tally.attempted += 1;
            if slot % QUERY_EVERY == QUERY_EVERY - 1 {
                let _g = span(&self.tracer, "analytics.dashboard_compile");
                let answer = dashboard_bytes(
                    &self.inputs.telemetry.jobs,
                    &self.inputs.telemetry.events,
                    Arc::clone(&self.lake),
                    slot,
                    t_end_ms,
                );
                std::hint::black_box(answer);
                log.query_ms.push(ms(due.elapsed()));
                continue;
            }
            let path = if slot % 2 == 0 {
                "/metrics"
            } else {
                "/healthz"
            };
            let got = {
                let _g = span(&self.tracer, "serve.scrape");
                http_get(self.addr, path)
            };
            let took = ms(due.elapsed());
            match got {
                Ok((200, body)) => {
                    let valid = if path == "/metrics" {
                        valid_exposition(&body)
                    } else {
                        valid_health(&body)
                    };
                    if valid {
                        log.scrape_ms.push(took);
                    } else {
                        log.tally.fail(format!("{path}: body does not parse"));
                    }
                }
                Ok((status, _)) => {
                    log.shed_503 += u64::from(status == 503);
                    log.tally.fail(format!("{path}: HTTP {status}"));
                }
                Err(e) => log.tally.fail(format!("{path}: {e}")),
            }
            if self.tracer.is_some() && slot % QUERY_EVERY == 0 {
                self.direct_calls(path, &mut log);
            }
        }
        log
    }

    /// The same work without the socket, and the registry reads a scrape
    /// is made of — traced passes only, so the layer table can split a
    /// scrape into routing, rendering and HTTP overhead.
    fn direct_calls(&self, path: &str, log: &mut ClientLog) {
        let request = Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
        };
        let t = Instant::now();
        {
            let _g = span(&self.tracer, "serve.route");
            std::hint::black_box(self.endpoints.route(&request));
        }
        log.route_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let rendered = {
            let _g = span(&self.tracer, "obs.render");
            self.registry.render_prometheus()
        };
        log.render_ns.push(t.elapsed().as_nanos() as f64);
        log.render_bytes = rendered.len();
        let t = Instant::now();
        {
            let _g = span(&self.tracer, "obs.snapshot");
            std::hint::black_box(self.registry.snapshot());
        }
        log.snapshot_ns.push(t.elapsed().as_nanos() as f64);
    }
}

/// One paced pass: a fresh job, registry, health engine and server.
pub fn run_pass(
    inputs: &Inputs,
    tracer: Option<Arc<Tracer>>,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let registry = Registry::new();
    let health = Arc::new(Mutex::new(HealthEngine::with_defaults()));
    let endpoints = Endpoints::new()
        .with_registry(&registry)
        .with_health(Arc::clone(&health));
    let server = serve(endpoints.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut job = Job::assemble(inputs, 1, tracer.clone(), Some(&registry))?;
    let stop = AtomicBool::new(false);
    let client = Client {
        addr: server.addr(),
        inputs,
        lake: Arc::clone(&job.lake),
        registry: &registry,
        endpoints,
        tracer: tracer.clone(),
        stop: &stop,
    };

    let mut pass = Pass::default();
    let cpu0 = crate::stats::cpu_seconds();
    let start = Instant::now();
    let (ingest, log) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| client.run(start));
        let ingest = (|| -> Result<(), String> {
            let _pass = span(&tracer, "bench.pass");
            for (k, chunk) in inputs.feed.iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / TICKS_PER_S);
                sleep_until(due, &tracer);
                pass.tick_lateness_ms.push(ms(due.elapsed()));
                tally.attempted += 1;
                job.publish(chunk)?;
                job.drain_with(|_| {
                    let _g = span(&tracer, "obs.health_observe");
                    health
                        .lock()
                        .expect("health engine lock is never poisoned: observe does not panic")
                        .observe(&registry);
                })?;
                pass.freshness_ms.push(ms(due.elapsed()));
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        (ingest, reader.join().expect("client thread does not panic"))
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = crate::stats::cpu_seconds() - cpu0;
    server.shutdown();
    if let Err(e) = ingest {
        tally.fail(format!("live ingest: {e}"));
        return Err(e);
    }
    pass.observations = inputs.observations;
    tally.absorb(&log.tally);
    pass.client = log;
    pass.backlog_end = job.backlog();
    pass.stored_bytes = crate::ingest::read_back(&job.ocean)?.bytes;
    pass.epochs = job.sums.epochs;
    Ok(pass)
}
