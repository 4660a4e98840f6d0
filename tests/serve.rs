//! Operator-plane suite: the HTTP surface under scrape pressure, the
//! health engine's golden render, and the non-perturbation proof.
//!
//! The load-bearing claim mirrors every other obs feature's: attaching
//! the health engine and running N concurrent `/metrics` + `/healthz`
//! scrapers against a live chaos run must not change a single byte of
//! Gold output. Scrapes are reads; reads don't tick logical time; the
//! data plane cannot tell whether anyone is watching.
//!
//! The golden fixture `tests/golden/healthz.json` pins the health
//! render for a scripted observation sequence. On drift the actual
//! bytes land in `target/healthz-actual.json` (CI uploads them);
//! re-bless with `ODA_BLESS=1 cargo test --test serve`.

mod common;

use oda::faults::FaultPlan;
use oda::obs::{render_health_json, HealthEngine, Registry, Tracer, Verdict};
use oda::pipeline::frame_io::frame_to_colfile;
use oda::pipeline::streaming::MemorySink;
use oda::serve::{serve, Endpoints, ServerConfig};
use oda::stream::Broker;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use common::TOPIC;

const BATCHES: usize = 80;
const SCRAPERS: usize = 8;
/// How long one epoch tick waits for a scrape to land.
const SCRAPE_WAIT: Duration = Duration::from_millis(500);

/// Completed scrapes, counted by the scrapers and awaited by the
/// pipeline's epoch tick.
#[derive(Default)]
struct Scrapes {
    done: Mutex<usize>,
    landed: Condvar,
}

impl Scrapes {
    fn complete(&self) {
        *self.done.lock().unwrap() += 1;
        self.landed.notify_all();
    }

    /// Wait, at most [`SCRAPE_WAIT`], until more than `seen` scrapes
    /// have completed; returns the count then.
    fn wait_past(&self, seen: usize) -> usize {
        let done = self.done.lock().unwrap();
        let (done, _) = self
            .landed
            .wait_timeout_while(done, SCRAPE_WAIT, |n| *n <= seen)
            .unwrap();
        *done
    }
}

/// The shared supervisor loop over a freshly seeded broker, optionally
/// observed through `registry` and optionally ticking a health engine
/// over it once per committed epoch (the serve-side data-plane idiom
/// this suite is proving safe). With `scrapes`, each tick also waits
/// for a scrape to complete since the tick before it, so scrapes
/// overlap the run instead of racing a run that ends before the
/// scrapers connect.
fn run_pipeline(
    plan: Option<Arc<FaultPlan>>,
    workers: usize,
    registry: Option<&Registry>,
    health: Option<&Arc<Mutex<HealthEngine>>>,
    scrapes: Option<&Scrapes>,
) -> MemorySink {
    let broker = Broker::new();
    common::seed_broker(&broker, BATCHES);
    let seen = std::cell::Cell::new(0);
    let tick = || {
        if let (Some(engine), Some(reg)) = (health, registry) {
            engine.lock().unwrap().observe(reg);
        }
        if let Some(scrapes) = scrapes {
            seen.set(scrapes.wait_past(seen.get()));
        }
    };
    let mut sink = MemorySink::new();
    common::supervise(
        &broker,
        plan.as_ref(),
        workers,
        registry,
        "serve",
        &mut sink,
        Some(&tick),
    );
    sink
}

/// One raw GET; returns (status, content-type, body).
fn fetch(addr: SocketAddr, path: &str) -> Option<(u16, String, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    let status = raw.split_whitespace().nth(1)?.parse().ok()?;
    let content_type = raw
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or("")
        .to_string();
    let body = raw.split_once("\r\n\r\n")?.1.to_string();
    Some((status, content_type, body))
}

// ---------------------------------------------------------------------
// Concurrent scrapes vs. chaos byte-identity
// ---------------------------------------------------------------------

/// N parallel `/metrics` + `/healthz` clients during a chaos-seeded
/// 8-worker run: every response must be valid exposition/JSON, and the
/// Gold reduction must stay byte-identical to the bare, unwatched run.
#[test]
fn concurrent_scrapes_do_not_perturb_gold() {
    let baseline_sink = run_pipeline(None, 1, None, None, None);
    let baseline_gold = frame_to_colfile(&common::gold_reduction(&baseline_sink)).unwrap();

    let seeds = common::chaos_seeds();
    for seed in seeds {
        let registry = Registry::new().with_tracer(&Tracer::new());
        let engine = Arc::new(Mutex::new(HealthEngine::with_defaults()));
        let endpoints = Endpoints::new()
            .with_registry(&registry)
            .with_health(Arc::clone(&engine));
        let server = serve(endpoints, "127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(Scrapes::default());
        let scrapers: Vec<_> = (0..SCRAPERS)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let completed = Arc::clone(&completed);
                std::thread::spawn(move || {
                    let mut problems: Vec<String> = Vec::new();
                    let mut scrapes = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let path = if (i + scrapes).is_multiple_of(2) {
                            "/metrics"
                        } else {
                            "/healthz"
                        };
                        match fetch(addr, path) {
                            // Load-shedding is a correct answer under
                            // pressure; bodies are only validated on 200.
                            Some((503, _, _)) => {}
                            Some((200, ct, body)) => match path {
                                "/metrics" => {
                                    // An empty registry renders an empty
                                    // exposition — valid until the first
                                    // family registers.
                                    if !ct.starts_with("text/plain")
                                        || !(body.is_empty() || body.contains("# TYPE"))
                                    {
                                        problems.push(format!("bad exposition from {path}: {ct}"));
                                    }
                                }
                                _ => {
                                    if ct != "application/json" || !body.contains("\"overall\"") {
                                        problems.push(format!("bad health JSON: {ct}"));
                                    }
                                }
                            },
                            Some((status, _, _)) => {
                                problems.push(format!("{path} -> HTTP {status}"));
                            }
                            // Connection-level hiccups (e.g. accept racing
                            // shutdown) are not a protocol violation.
                            None => {}
                        }
                        scrapes += 1;
                        completed.complete();
                    }
                    (scrapes, problems)
                })
            })
            .collect();

        let plan = Arc::new(FaultPlan::chaos(seed));
        let sink = run_pipeline(
            Some(plan),
            8,
            Some(&registry),
            Some(&engine),
            Some(&completed),
        );

        stop.store(true, Ordering::Relaxed);
        let mut total_scrapes = 0;
        for s in scrapers {
            let (scrapes, problems) = s.join().expect("scraper joins");
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
            total_scrapes += scrapes;
        }
        server.shutdown();
        assert!(
            total_scrapes >= SCRAPERS,
            "seed {seed}: scrapers barely ran ({total_scrapes})"
        );

        let gold = frame_to_colfile(&common::gold_reduction(&sink)).unwrap();
        assert_eq!(
            gold, baseline_gold,
            "seed {seed}: scrape pressure + health engine changed Gold bytes"
        );
        // The engine genuinely ran: one tick per committed epoch.
        assert_eq!(
            engine.lock().unwrap().last_report().tick,
            sink.epochs() as u64,
            "seed {seed}: health ticks must match committed epochs"
        );
    }
}

// ---------------------------------------------------------------------
// Golden healthz fixture
// ---------------------------------------------------------------------

/// Scripted observation sequence for the golden: six ticks of clean
/// traffic, then four ticks of retry exhaustion — the render must show
/// the stream plane degraded and carry exact burn numbers. The sequence
/// drives a real registry, so with collection compiled out every series
/// reads zero and the report stays healthy.
fn scripted_report() -> oda::obs::HealthReport {
    let mut engine = HealthEngine::with_defaults();
    let mut last = engine.last_report();
    assert_eq!(last.tick, 0, "fresh engine starts at tick zero");
    let reg = Registry::new();
    let counter = |name: &str| reg.counter(name, "", &[]);
    let produced = counter("stream_produce_records_total");
    let fetched = counter("stream_fetch_records_total");
    let exhausted = counter("retry_exhausted_total");
    let epochs = counter("pipeline_epochs_total");
    let records = counter("pipeline_records_total");
    let lag = reg.gauge(
        "stream_consumer_lag",
        "",
        &[("group", "g"), ("partition", "0"), ("topic", TOPIC)],
    );
    // One tick: `n` records produced and fetched, `failed` exhausted,
    // one epoch per whole hundred produced so far.
    let mut total = 0;
    let mut tick = |n: u64, failed: u64, level: i64| {
        epochs.add((total + n) / 100 - total / 100);
        total += n;
        produced.add(n);
        fetched.add(n);
        records.add(n);
        exhausted.add(failed);
        lag.set(level);
        engine.observe(&reg)
    };
    for _ in 0..6 {
        last = tick(100, 0, 40);
        assert_eq!(last.overall, Verdict::Healthy);
    }
    for _ in 0..4 {
        last = tick(80, 20, 900);
    }
    if oda::obs::enabled() {
        assert_ne!(last.overall, Verdict::Healthy, "exhaustion must burn");
    } else {
        assert_eq!(last.overall, Verdict::Healthy);
    }
    last
}

/// The golden's values need collection on; compiled out, the render
/// must still come out whole and healthy.
#[test]
fn healthz_render_matches_golden() {
    let rendered = render_health_json(&scripted_report());
    if oda::obs::enabled() {
        common::assert_golden("healthz.json", "healthz-actual.json", &rendered);
    } else {
        assert!(rendered.ends_with("}\n"));
        assert!(rendered.contains("\"overall\": \"healthy\""));
    }
}

/// The scripted sequence flips the stream plane's verdict — pinned
/// beyond the byte level so a re-bless can't silently lose the story.
#[test]
fn scripted_sequence_flips_stream_verdict() {
    let report = scripted_report();
    let delivery = report
        .objectives
        .iter()
        .find(|o| o.name == "stream-delivery")
        .expect("stock objective present");
    let stream = report
        .subsystems
        .iter()
        .find(|s| s.subsystem == oda::obs::Subsystem::Stream)
        .unwrap();
    if oda::obs::enabled() {
        assert_ne!(delivery.verdict, Verdict::Healthy);
        assert!(delivery.burn_short_pct >= 100);
        assert_ne!(stream.verdict, Verdict::Healthy);
        assert_eq!(stream.saturation, 900, "lag gauge feeds USE saturation");
    } else {
        assert_eq!(stream.verdict, Verdict::Healthy);
    }
}

// ---------------------------------------------------------------------
// Endpoint smoke
// ---------------------------------------------------------------------

/// Every endpoint answers with the right status and content type over
/// a real socket (the same tour the CI serve-smoke job runs).
#[test]
fn every_endpoint_answers_with_correct_content_type() {
    let registry = Registry::new().with_tracer(&Tracer::new());
    registry.counter("smoke_total", "smoke", &[]).inc();
    let engine = Arc::new(Mutex::new(HealthEngine::with_defaults()));
    let endpoints = Endpoints::new()
        .with_registry(&registry)
        .with_health(Arc::clone(&engine))
        .with_alerts(Arc::new(String::new))
        .with_bench(Arc::new(|| "{\"schema\":\"test\"}".to_string()));
    let server = serve(endpoints, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.addr();

    let expectations: [(&str, u16, &str); 6] = [
        ("/", 200, "text/plain"),
        ("/metrics", 200, "text/plain; version=0.0.4"),
        ("/healthz", 200, "application/json"),
        ("/trace/spans", 200, "application/x-ndjson"),
        ("/alerts", 200, "application/x-ndjson"),
        ("/bench", 200, "application/json"),
    ];
    for (path, want_status, want_ct) in expectations {
        let (status, ct, _) = fetch(addr, path).expect("endpoint answers");
        assert_eq!(status, want_status, "{path}");
        assert!(ct.starts_with(want_ct), "{path}: {ct}");
    }
    // Parameterized routes: missing args and unknown digests are 4xx,
    // not 500s or hangs.
    let (status, _, _) = fetch(addr, "/trace/critical-path").unwrap();
    assert_eq!(status, 400);
    let (status, _, _) = fetch(addr, "/lineage/digest/00ff").unwrap();
    assert_eq!(status, 404);
    let (status, _, _) = fetch(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// `/lineage/digest/<gold>` walks the real provenance of a chaos run:
/// the Gold digest's ancestors reach back to Silver frames.
#[test]
fn lineage_endpoint_serves_gold_ancestry() {
    if !oda::obs::enabled() {
        return; // lineage recording is compiled out
    }
    let tracer = Tracer::new();
    let registry = Registry::new().with_tracer(&tracer);
    let sink = run_pipeline(None, 2, Some(&registry), None, None);
    let gold = common::gold_reduction(&sink);
    let gold_bytes = frame_to_colfile(&gold).unwrap();
    let digest = oda::obs::fnv1a(&gold_bytes);
    tracer.link(
        oda::obs::LineageNode::Frame {
            stage: "silver".into(),
            epoch: 0,
            digest: 1,
            rows: sink.total_rows() as u64,
        },
        oda::obs::LineageNode::Derived {
            name: "gold-day".into(),
            digest,
            rows: gold.rows() as u64,
        },
        "reduce",
    );

    let endpoints = Endpoints::new().with_registry(&registry);
    let server = serve(endpoints, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let (status, ct, body) =
        fetch(server.addr(), &format!("/lineage/digest/{digest:016x}")).expect("lineage answers");
    assert_eq!(status, 200);
    assert_eq!(ct, "application/json");
    assert!(body.contains(&format!("{digest:016x}")));
    assert!(body.contains("\"ancestors\""), "{body}");
    assert!(body.contains("silver"), "gold must trace back to silver");
    server.shutdown();
}
