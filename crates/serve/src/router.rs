//! The endpoint table: which observability surfaces this server
//! exposes, and how a parsed request maps onto them.
//!
//! [`Endpoints`] is a grab-bag of optional attachments — the observer
//! registry (and the tracer and lineage it carries), health engine,
//! alert/bench providers — so a caller wires up exactly the surfaces
//! its process owns and everything else 404s. Every handler is a *read-only* view over an
//! existing API: routing never writes to the registry, never advances
//! health-engine ticks, and never mutates the journal, which is what
//! keeps N concurrent scrapers incapable of perturbing chaos
//! byte-identity.

use std::sync::{Arc, Mutex};

use oda_obs::{
    critical_path, esc_into, export_jsonl, render_health_json, HealthEngine, LineageNode, Registry,
    Tracer, Verdict,
};

use crate::http::{
    Request, Response, CONTENT_TYPE_JSON, CONTENT_TYPE_JSONL, CONTENT_TYPE_PROMETHEUS,
    CONTENT_TYPE_TEXT,
};

/// A lazily-evaluated text surface (alerts tail, benchmark contract):
/// called per request so the body reflects current state.
pub type Provider = Arc<dyn Fn() -> String + Send + Sync>;

/// The observability surfaces one server instance exposes.
#[derive(Clone, Default)]
pub struct Endpoints {
    registry: Option<Registry>,
    health: Option<Arc<Mutex<HealthEngine>>>,
    alerts: Option<Provider>,
    bench: Option<Provider>,
}

impl std::fmt::Debug for Endpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoints")
            .field("metrics", &self.registry.is_some())
            .field("healthz", &self.health.is_some())
            .field("trace", &self.tracer().is_some())
            .field("alerts", &self.alerts.is_some())
            .field("bench", &self.bench.is_some())
            .finish()
    }
}

impl Endpoints {
    /// No surfaces attached; every route 404s.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve `GET /metrics` from `registry`. When the registry carries
    /// a tracer, also serve `GET /trace/*` from its journal and
    /// `GET /lineage/digest/<hex>` from its lineage graph.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// The tracer the attached registry carries, if any.
    fn tracer(&self) -> Option<&Tracer> {
        self.registry.as_ref()?.tracer()
    }

    /// Serve `GET /healthz` from `engine`'s last report.
    ///
    /// The server only ever calls [`HealthEngine::last_report`]; the
    /// data-plane loop keeps ownership of `observe`, so scrapes cannot
    /// advance logical time.
    pub fn with_health(mut self, engine: Arc<Mutex<HealthEngine>>) -> Self {
        self.health = Some(engine);
        self
    }

    /// Serve `GET /alerts` from a provider (typically an
    /// `alerts_jsonl` render of the alerting sink's tail).
    pub fn with_alerts(mut self, provider: Provider) -> Self {
        self.alerts = Some(provider);
        self
    }

    /// Serve `GET /bench` from a provider (typically the committed
    /// `BENCHMARK.json` contract `odabench` runs against).
    pub fn with_bench(mut self, provider: Provider) -> Self {
        self.bench = Some(provider);
        self
    }

    /// Route one request to a response.
    pub fn route(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is supported");
        }
        match req.path.as_str() {
            "/" => Response::ok(CONTENT_TYPE_TEXT, self.index()),
            "/metrics" => match &self.registry {
                Some(reg) => Response::ok(CONTENT_TYPE_PROMETHEUS, reg.render_prometheus()),
                None => Response::not_found("no metrics registry attached"),
            },
            "/healthz" => match &self.health {
                Some(engine) => {
                    let report = engine.lock().expect("health engine poisoned").last_report();
                    let body = render_health_json(&report);
                    if report.overall == Verdict::Unhealthy {
                        Response {
                            status: 503,
                            content_type: CONTENT_TYPE_JSON,
                            body,
                        }
                    } else {
                        Response::ok(CONTENT_TYPE_JSON, body)
                    }
                }
                None => Response::not_found("no health engine attached"),
            },
            "/trace/spans" => match self.tracer() {
                Some(tracer) => Response::ok(CONTENT_TYPE_JSONL, export_jsonl(&tracer.events())),
                None => Response::not_found("no tracer attached"),
            },
            "/trace/critical-path" => self.critical_path(req),
            "/alerts" => match &self.alerts {
                Some(p) => Response::ok(CONTENT_TYPE_JSONL, p()),
                None => Response::not_found("no alerts provider attached"),
            },
            "/bench" => match &self.bench {
                Some(p) => Response::ok(CONTENT_TYPE_JSON, p()),
                None => Response::not_found("no bench provider attached"),
            },
            path => {
                if let Some(digest) = path.strip_prefix("/lineage/digest/") {
                    self.lineage_digest(digest)
                } else {
                    Response::not_found(path)
                }
            }
        }
    }

    /// `/trace/critical-path?query=<name>&epoch=<n>` — the heaviest
    /// chain of the epoch's span tree, as JSONL trace events.
    fn critical_path(&self, req: &Request) -> Response {
        let Some(tracer) = self.tracer() else {
            return Response::not_found("no tracer attached");
        };
        let Some(query) = req.query_param("query") else {
            return Response::error(400, "missing ?query=<name>");
        };
        let Some(epoch) = req.query_param("epoch").and_then(|e| e.parse::<u64>().ok()) else {
            return Response::error(400, "missing or non-numeric ?epoch=<n>");
        };
        let roots = tracer.trace_tree(query, epoch);
        let Some(root) = roots.first() else {
            return Response::not_found("no spans for that query/epoch");
        };
        let path: Vec<_> = critical_path(root).into_iter().cloned().collect();
        Response::ok(CONTENT_TYPE_JSONL, export_jsonl(&path))
    }

    /// `/lineage/digest/<hex>` — the node carrying the digest (a hex
    /// `u64`, with or without `0x`) plus its ancestor and descendant
    /// closures.
    fn lineage_digest(&self, raw: &str) -> Response {
        let Some(tracer) = self.tracer() else {
            return Response::not_found("no tracer attached");
        };
        let hex = raw.strip_prefix("0x").unwrap_or(raw);
        let Some(digest) = Some(hex)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
        else {
            return Response::error(400, "digest must be a hex u64, with or without 0x");
        };
        let query = tracer.lineage().query();
        let Some(id) = query.find_digest(digest) else {
            return Response::not_found("no lineage node with that digest");
        };
        let node = query.node(id).expect("digest id resolves");
        let mut body = String::with_capacity(512);
        body.push_str("{\n");
        body.push_str(&format!("  \"digest\": \"{digest:016x}\",\n"));
        body.push_str("  \"node\": \"");
        esc_into(&node.label(), &mut body);
        body.push_str("\",\n");
        push_walk(&mut body, "ancestors", &query.ancestors_of_digest(digest));
        body.push_str(",\n");
        push_walk(&mut body, "descendants", &query.descendants_of(id));
        body.push('\n');
        body.push_str("}\n");
        Response::ok(CONTENT_TYPE_JSON, body)
    }

    /// The `/` body: one line per attached surface.
    fn index(&self) -> String {
        let mut out = String::from("oda-serve operator plane\n\n");
        let rows: [(&str, bool); 7] = [
            (
                "/metrics              Prometheus exposition",
                self.registry.is_some(),
            ),
            (
                "/healthz              SLO health report (JSON)",
                self.health.is_some(),
            ),
            (
                "/trace/spans          trace journal (JSONL)",
                self.tracer().is_some(),
            ),
            (
                "/trace/critical-path  ?query=<name>&epoch=<n> (JSONL)",
                self.tracer().is_some(),
            ),
            (
                "/lineage/digest/<hex> ancestors/descendants of a digest",
                self.tracer().is_some(),
            ),
            (
                "/alerts               online-detector alerts (JSONL)",
                self.alerts.is_some(),
            ),
            (
                "/bench                benchmark contract (JSON)",
                self.bench.is_some(),
            ),
        ];
        for (row, attached) in rows {
            out.push_str(if attached { "  " } else { "- " });
            out.push_str(row);
            if !attached {
                out.push_str("  [not attached]");
            }
            out.push('\n');
        }
        out
    }
}

/// Render one BFS walk as a JSON array of `{depth, label}` objects.
fn push_walk(out: &mut String, key: &str, walk: &[(u32, oda_obs::LineageNodeId, &LineageNode)]) {
    out.push_str(&format!("  \"{key}\": ["));
    for (i, (depth, _, node)) in walk.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {{ \"depth\": {depth}, \"label\": \""));
        esc_into(&node.label(), out);
        out.push_str("\" }");
    }
    if walk.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        let (p, q) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "GET".into(),
            path: p.into(),
            query: q.into(),
        }
    }

    #[test]
    fn unattached_surfaces_404() {
        let e = Endpoints::new();
        for path in [
            "/metrics",
            "/healthz",
            "/trace/spans",
            "/alerts",
            "/bench",
            "/lineage/digest/abc123",
            "/nope",
        ] {
            assert_eq!(e.route(&get(path)).status, 404, "{path}");
        }
        // Index always answers.
        assert_eq!(e.route(&get("/")).status, 200);
    }

    #[test]
    fn non_get_is_405() {
        let e = Endpoints::new();
        let req = Request {
            method: "POST".into(),
            path: "/metrics".into(),
            query: String::new(),
        };
        assert_eq!(e.route(&req).status, 405);
    }

    #[test]
    fn metrics_renders_exposition() {
        let reg = Registry::new();
        reg.counter("demo_total", "demo", &[]).add(3);
        let e = Endpoints::new().with_registry(&reg);
        let resp = e.route(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, CONTENT_TYPE_PROMETHEUS);
        assert!(resp.body.contains("# TYPE demo_total counter"));
    }

    #[test]
    fn healthz_is_json_and_flips_to_503_when_unhealthy() {
        use oda_obs::{HealthEngine, MetricsSnapshot, Selector, SloKind, SloObjective, Subsystem};
        let objectives = vec![SloObjective {
            name: "events".into(),
            subsystem: Subsystem::Faults,
            kind: SloKind::RateBound {
                counter: Selector::family("ev_total"),
                max_per_tick: 1,
            },
        }];
        let engine = Arc::new(Mutex::new(HealthEngine::new(objectives, 2, 4)));
        let e = Endpoints::new().with_health(Arc::clone(&engine));

        let resp = e.route(&get("/healthz"));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"overall\": \"healthy\""));

        // Drive the engine over budget from the data-plane side.
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert(("ev_total".into(), Vec::new()), 1_000);
        engine.lock().unwrap().observe_snapshot(snap.clone());
        snap.counters.insert(("ev_total".into(), Vec::new()), 2_000);
        engine.lock().unwrap().observe_snapshot(snap);
        let resp = e.route(&get("/healthz"));
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("\"overall\": \"unhealthy\""));
    }

    #[test]
    fn lineage_digest_walks_and_404s() {
        let tracer = Tracer::new();
        let frame = LineageNode::Frame {
            stage: "silver".into(),
            epoch: 1,
            digest: 0xabcd,
            rows: 4,
        };
        let bronze = LineageNode::Frame {
            stage: "bronze".into(),
            epoch: 1,
            digest: 0x1234,
            rows: 4,
        };
        tracer.link(bronze, frame, "refine");
        let e = Endpoints::new().with_registry(&Registry::new().with_tracer(&tracer));
        if oda_obs::enabled() {
            let resp = e.route(&get("/lineage/digest/abcd"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(resp.body.contains("\"digest\": \"000000000000abcd\""));
            assert!(resp.body.contains("\"ancestors\": ["));
            // 0x-prefixed parses identically.
            assert_eq!(e.route(&get("/lineage/digest/0xabcd")).body, resp.body);
        }
        assert_eq!(e.route(&get("/lineage/digest/ffff")).status, 404);
        // Digests are hex only: one that parses only as decimal is a bad
        // request, not a miss.
        for bad in ["zzz", "18446744073709551615", "+ff", "0x", "", "-1"] {
            let path = format!("/lineage/digest/{bad}");
            assert_eq!(e.route(&get(&path)).status, 400, "{path}");
        }
    }

    #[test]
    fn critical_path_requires_params() {
        let tracer = Tracer::new();
        let e = Endpoints::new().with_registry(&Registry::new().with_tracer(&tracer));
        assert_eq!(e.route(&get("/trace/critical-path")).status, 400);
        assert_eq!(e.route(&get("/trace/critical-path?query=gold")).status, 400);
        assert_eq!(
            e.route(&get("/trace/critical-path?query=gold&epoch=0"))
                .status,
            404
        );
        // Journal export answers even when empty.
        assert_eq!(e.route(&get("/trace/spans")).status, 200);
    }

    #[test]
    fn providers_answer_verbatim() {
        let e = Endpoints::new()
            .with_alerts(Arc::new(|| "{\"a\":1}\n".to_string()))
            .with_bench(Arc::new(|| "{}".to_string()));
        assert_eq!(e.route(&get("/alerts")).body, "{\"a\":1}\n");
        assert_eq!(e.route(&get("/bench")).content_type, CONTENT_TYPE_JSON);
    }
}
