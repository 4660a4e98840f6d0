//! The operator plane, live: `oda-serve` over a chaos-seeded pipeline.
//!
//! Boots the full observability stack — metrics registry, tracer +
//! lineage, online-detector alerts, frame-buffer copy accounting, and
//! the SLO health engine — wires it into an `oda-serve` HTTP server on
//! an ephemeral port, then races two workloads against each other:
//!
//! * an 8-worker chaos-seeded medallion pipeline (the data plane),
//!   advancing the health engine one logical tick per committed epoch;
//! * eight concurrent scrape clients (the operator plane), hammering
//!   `/metrics`, `/healthz`, `/trace/spans`, `/alerts`, and `/` the
//!   whole time.
//!
//! After the stream drains, a fault storm with an exhausted retry
//! budget drives `retry_exhausted_total` up and the `/healthz` verdict
//! flips from `healthy` to `degraded` — the burn-rate math doing its
//! job on live counters.
//!
//! Run with: `cargo run --release --example serve_dashboard`

use bytes::Bytes;
use oda::analytics::online::{alerts_jsonl, Alert, AlertingSink, OnlineAnalytics, OnlineConfig};
use oda::faults::{FaultClass, FaultPlan, FaultPoint, FaultSpec, Retry, Retryable};
use oda::obs::{HealthEngine, Registry, Tracer, Verdict};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda::pipeline::streaming::MemorySink;
use oda::pipeline::StreamingQuery;
use oda::serve::{serve, Endpoints, ServerConfig};
use oda::storage::BufferMetrics;
use oda::stream::{Broker, Consumer, Producer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::system::SystemModel;
use oda::telemetry::TelemetryGenerator;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const TOPIC: &str = "bronze";
const BATCHES: usize = 60;
const SCRAPERS: usize = 8;

/// One raw-socket GET; returns the status code (scrapers don't need a
/// full client, and this keeps the example dependency-free too).
fn fetch_status(addr: SocketAddr, path: &str) -> Option<u16> {
    let mut s = TcpStream::connect(addr).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: dash\r\n\r\n").ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    raw.split_whitespace().nth(1)?.parse().ok()
}

/// GET returning the body, for the one-shot endpoint tour at the end.
fn fetch_body(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: dash\r\n\r\n").ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    let status = raw.split_whitespace().nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n")?.1.to_string();
    Some((status, body))
}

fn main() {
    let tracer = Tracer::new();
    let registry = Registry::new().with_tracer(&tracer);
    let engine = Arc::new(Mutex::new(HealthEngine::with_defaults()));
    let live_alerts: Arc<Mutex<Vec<Alert>>> = Arc::new(Mutex::new(Vec::new()));

    // --- Telemetry → STREAM under a seeded chaos plan. ---
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    let broker = Broker::new();
    broker.attach_metrics(&registry);
    broker
        .create_topic(TOPIC, 2, RetentionPolicy::unbounded())
        .unwrap();
    for _ in 0..BATCHES {
        let batch = generator.next_batch();
        let payload = Observation::encode_batch(&batch.observations);
        broker
            .produce(
                TOPIC,
                batch.ts_ms,
                Some(Bytes::from("all")),
                Bytes::from(payload),
            )
            .unwrap();
    }
    let catalog = generator.catalog().clone();
    let plan = Arc::new(FaultPlan::chaos(11));
    plan.attach_metrics(&registry);
    broker.arm_faults(plan.clone() as Arc<dyn FaultPoint>);

    // --- The operator plane: every surface on one ephemeral port. ---
    let alerts_view = Arc::clone(&live_alerts);
    let endpoints = Endpoints::new()
        .with_registry(&registry)
        .with_health(Arc::clone(&engine))
        .with_alerts(Arc::new(move || alerts_jsonl(&alerts_view.lock().unwrap())))
        .with_bench(Arc::new(|| {
            std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|_| "{}\n".into())
        }));
    let server = serve(endpoints, "127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
    let addr = server.addr();
    println!("oda-serve listening on http://{addr}");
    for path in [
        "/",
        "/metrics",
        "/healthz",
        "/trace/spans",
        "/alerts",
        "/bench",
    ] {
        println!("  curl http://{addr}{path}");
    }

    // --- Eight scrapers, racing the pipeline for its whole run. ---
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..SCRAPERS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let paths = ["/metrics", "/healthz", "/trace/spans", "/alerts", "/"];
                let (mut ok, mut total) = (0usize, 0usize);
                while !stop.load(Ordering::Relaxed) {
                    let path = paths[(i + total) % paths.len()];
                    // 200s and load-shedding 503s both count as the
                    // server answering correctly under pressure.
                    if matches!(fetch_status(addr, path), Some(200) | Some(503)) {
                        ok += 1;
                    }
                    total += 1;
                }
                (ok, total)
            })
        })
        .collect();

    // --- The data plane: supervised 8-worker chaos run, one health
    // tick per committed epoch. ---
    let checkpoints = CheckpointStore::new();
    checkpoints.arm_faults(plan.clone() as Arc<dyn FaultPoint>);
    let detector_config = OnlineConfig {
        min_windows: 2,
        z_window: 4,
        z_threshold: 1.5,
        ewma_threshold: 2.0,
        ..OnlineConfig::default()
    };
    let mut online = OnlineAnalytics::new(detector_config);
    online.attach_metrics(&registry);
    let mut sink = AlertingSink::new(MemorySink::new(), online);
    let buffers = BufferMetrics::new(&registry);
    let mut restarts = 0;
    'supervise: loop {
        let consumer = Consumer::subscribe(broker.clone(), "dash", TOPIC)
            .unwrap()
            .with_retry(Retry::with_attempts(25));
        let mut query = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(catalog.clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(checkpoints.clone())
            .max_records(5)
            .workers(8)
            .metrics(&registry)
            .trace_name("serve")
            .faults(plan.clone() as Arc<dyn FaultPoint>)
            .build()
            .unwrap();
        loop {
            match query.run_once(&mut sink) {
                Ok(0) => break 'supervise,
                Ok(_) => {
                    // The data-plane loop owns logical time: one tick
                    // per committed epoch. Scrapers only ever read.
                    buffers.publish();
                    let report = engine.lock().unwrap().observe(&registry);
                    *live_alerts.lock().unwrap() = sink.alerts().to_vec();
                    if report.tick.is_multiple_of(10) {
                        println!(
                            "tick {:>3}: overall={} (stream rate {} errors {})",
                            report.tick,
                            report.overall.as_str(),
                            report.subsystems[0].rate,
                            report.subsystems[0].errors,
                        );
                    }
                }
                Err(e) => {
                    assert_eq!(e.fault_class(), FaultClass::Fatal, "unexpected: {e}");
                    restarts += 1;
                    continue 'supervise;
                }
            }
        }
    }
    let drained = engine.lock().unwrap().observe(&registry);
    println!(
        "stream drained: {} epochs, {} silver rows, {} crash recoveries, {} alerts; overall={}",
        sink.inner().epochs(),
        sink.inner().total_rows(),
        restarts,
        sink.alerts().len(),
        drained.overall.as_str(),
    );

    // --- Lineage: pick any digest the run recorded and walk it. ---
    let lineage = tracer.lineage().clone();
    let digest = lineage
        .query()
        .nodes()
        .find_map(|(_, n)| n.digest())
        .unwrap_or(0);
    if digest != 0 {
        if let Some((status, body)) = fetch_body(addr, &format!("/lineage/digest/{digest:016x}")) {
            println!(
                "lineage digest {digest:016x}: HTTP {status}, {} walk lines",
                body.lines().count()
            );
        }
    }

    // --- Fault storm: produce under a 90% timeout plan with a retry
    // budget of 1, so exhaustion hits the stream-delivery SLO. ---
    let storm = Arc::new(FaultPlan::new(
        1234,
        FaultSpec {
            produce_timeout: 0.9,
            ..FaultSpec::default()
        },
    ));
    storm.attach_metrics(&registry);
    broker.arm_faults(storm.clone() as Arc<dyn FaultPoint>);
    let producer = Producer::new(broker.clone(), TOPIC).unwrap();
    let policy = Retry::with_attempts(1);
    let mut exhausted = 0;
    for i in 0..50i64 {
        if producer
            .send_retrying(&policy, i, None, Bytes::from_static(b"storm"))
            .is_err()
        {
            exhausted += 1;
        }
    }
    let report = engine.lock().unwrap().observe(&registry);
    let delivery = report
        .objectives
        .iter()
        .find(|o| o.name == "stream-delivery")
        .expect("stock objective");
    println!(
        "after retry-exhaustion storm ({exhausted} exhausted): overall={} \
         stream-delivery burn short {}% long {}%",
        report.overall.as_str(),
        delivery.burn_short_pct,
        delivery.burn_long_pct,
    );
    if oda::obs::enabled() {
        assert_ne!(
            report.overall,
            Verdict::Healthy,
            "exhaustion storm must flip the verdict"
        );
        let (status, body) = fetch_body(addr, "/healthz").expect("healthz answers");
        assert!(
            body.contains("\"overall\": \"degraded\"") || status == 503,
            "healthz must reflect the flip"
        );
        println!("/healthz now: HTTP {status}");

        // Clean ticks drain the short window while the long window
        // still remembers the burn: the multiwindow signature —
        // unhealthy → degraded → (eventually) healthy.
        broker.arm_faults(plan.clone() as Arc<dyn FaultPoint>);
        let storm_tick = report.tick;
        let mut recovering = report;
        for _ in 0..8 {
            recovering = engine.lock().unwrap().observe(&registry);
            if recovering.overall != Verdict::Unhealthy {
                break;
            }
        }
        println!(
            "after {} clean ticks: overall={}",
            recovering.tick - storm_tick,
            recovering.overall.as_str()
        );
        assert_eq!(
            recovering.overall,
            Verdict::Degraded,
            "short window must recover first"
        );
    }

    // --- Wind down: scrapers report, endpoints get a final tour. ---
    stop.store(true, Ordering::Relaxed);
    let mut total_scrapes = 0;
    let mut ok_scrapes = 0;
    for s in scrapers {
        let (ok, total) = s.join().expect("scraper joins");
        ok_scrapes += ok;
        total_scrapes += total;
    }
    println!("{SCRAPERS} scrapers: {ok_scrapes}/{total_scrapes} responses OK during the run");
    assert_eq!(ok_scrapes, total_scrapes, "every scrape must be answered");

    println!("\n=== endpoint tour ===");
    for path in [
        "/",
        "/metrics",
        "/healthz",
        "/trace/spans",
        "/alerts",
        "/bench",
    ] {
        if let Some((status, body)) = fetch_body(addr, path) {
            println!("GET {path:<14} HTTP {status}  {} bytes", body.len());
        }
    }
    let (_, metrics) = fetch_body(addr, "/metrics").expect("metrics answers");
    assert!(
        metrics.contains("frame_bytes_copied_total"),
        "frame-buffer copy accounting must be scraped"
    );
    server.shutdown();
    println!("server drained and shut down");
}
