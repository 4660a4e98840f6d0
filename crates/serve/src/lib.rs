//! # oda-serve — the operator plane, over the wire
//!
//! The paper's ODA stacks are operated through *networked* surfaces:
//! Prometheus scrapes, dashboard queries, health endpoints. This crate
//! is that shell for the reproduction — a dependency-free, std-only
//! HTTP/1.1 server ([`serve`]) exposing the observability surfaces the
//! stack already computes in-process:
//!
//! | Route                  | Body                                  |
//! |------------------------|---------------------------------------|
//! | `/metrics`             | Prometheus text exposition            |
//! | `/healthz`             | SLO health report (JSON, 503 when unhealthy) |
//! | `/trace/spans`         | trace journal (JSONL)                 |
//! | `/trace/critical-path` | heaviest span chain (`?query=&epoch=`)|
//! | `/lineage/digest/<hex>` | ancestor/descendant walks of a digest |
//! | `/alerts`              | online-detector alerts (JSONL)        |
//! | `/bench`               | benchmark contract (JSON)             |
//!
//! # Determinism
//!
//! The server is strictly a *reader*: every handler renders existing
//! state ([`Endpoints`] holds clones of the `Arc`-backed observer
//! registry — with the tracer it carries — and the health engine) and nothing on a request path
//! writes back, draws randomness, or advances the health engine's
//! logical clock. The chaos suite runs its scrape storm against a live
//! pipeline and asserts Gold output stays byte-identical — same bar as
//! every other obs feature.
//!
//! # Threading model
//!
//! One accept thread blocked in `accept` (no polling: a scrape is
//! picked up as soon as it connects) plus a short-lived thread per
//! connection, bounded by [`ServerConfig::max_connections`] (over
//! budget → immediate 503, never queueing into the data plane), with
//! per-socket read timeouts and graceful [`ServerHandle::shutdown`],
//! which wakes the accept thread with one loopback connect and drains
//! in-flight connections for a bounded time. Requests are single-shot
//! (`Connection: close`), which is exactly the scrape/curl traffic
//! shape this plane exists for.

pub mod http;
pub mod router;
pub mod server;

pub use http::{Request, Response};
pub use router::{Endpoints, Provider};
pub use server::{serve, ServerConfig, ServerHandle};
