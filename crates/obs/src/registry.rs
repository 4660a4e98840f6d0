//! The metric [`Registry`]: get-or-create named instruments and render
//! them as Prometheus text exposition.
//!
//! The registry is a `Clone`-able handle (`Arc` inside) so every layer
//! of the stack can hold the same one. It is also the stack's one
//! observer handle: [`Registry::with_tracer`] returns a handle over the
//! same metric families that also carries a [`Tracer`], so a service's
//! single `attach_metrics(&registry)` call wires up both halves. Lookup takes a short
//! `RwLock`-guarded `BTreeMap` probe, but call sites are expected to do
//! it once at attach time and cache the returned `Arc<Counter>` /
//! `Arc<Gauge>` / `Arc<Histogram>`; the per-observation path is then a
//! single relaxed atomic with no registry involvement.
//!
//! Keys are `(name, sorted label pairs)`. `BTreeMap` ordering makes
//! [`Registry::render_prometheus`] deterministic byte-for-byte: series
//! render sorted by name then label values, which is what lets a golden
//! test pin the exposition for a fixed seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, RwLock};

use crate::health::Selector;
use crate::histogram::Histogram;
use crate::metric::{Counter, Gauge};
use crate::trace::Tracer;

/// Sorted `(label, value)` pairs identifying one series of a metric.
type LabelSet = Vec<(String, String)>;

#[derive(Default)]
struct Family<T> {
    help: String,
    series: BTreeMap<LabelSet, Arc<T>>,
}

/// Every family of one instrument kind, by name.
type Families<T> = RwLock<BTreeMap<String, Family<T>>>;

#[derive(Default)]
struct Inner {
    counters: Families<Counter>,
    gauges: Families<Gauge>,
    histograms: Families<Histogram>,
}

/// A shared, thread-safe collection of named metrics, optionally
/// carrying the [`Tracer`] instrumented components record events into.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

fn get_or_create<T, F: FnOnce() -> T>(
    map: &Families<T>,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    make: F,
) -> Arc<T> {
    let set = label_set(labels);
    if let Some(existing) = map
        .read()
        .expect("obs registry poisoned")
        .get(name)
        .and_then(|f| f.series.get(&set))
    {
        return Arc::clone(existing);
    }
    let mut guard = map.write().expect("obs registry poisoned");
    let family = guard.entry(name.to_string()).or_insert_with(|| Family {
        help: help.to_string(),
        series: BTreeMap::new(),
    });
    Arc::clone(family.series.entry(set).or_insert_with(|| Arc::new(make())))
}

/// Fold `f` over the series of `sel`'s family that carry its label,
/// in place under the family map's read lock.
fn fold_selected<T, A>(map: &Families<T>, sel: &Selector, init: A, f: impl Fn(A, &T) -> A) -> A {
    let guard = map.read().expect("obs registry poisoned");
    let series = guard.get(&sel.family).into_iter().flat_map(|f| &f.series);
    series
        .filter(|(labels, _)| {
            sel.label
                .as_ref()
                .is_none_or(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .fold(init, |acc, (_, m)| f(acc, m))
}

impl Registry {
    /// A fresh, empty registry that carries no tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle over this registry's metric families that also carries
    /// `tracer`. Metrics recorded through either handle land in the same
    /// series; components attached with the returned handle record trace
    /// events and lineage into `tracer` as well.
    pub fn with_tracer(&self, tracer: &Tracer) -> Registry {
        Registry {
            inner: Arc::clone(&self.inner),
            tracer: Some(tracer.clone()),
        }
    }

    /// The tracer this handle carries, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Get or create the counter `name{labels}`; `help` is recorded on
    /// first registration of the family.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_create(&self.inner.counters, name, help, labels, Counter::new)
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_create(&self.inner.gauges, name, help, labels, Gauge::new)
    }

    /// Get or create the histogram `name{labels}` over `bounds`.
    ///
    /// The bounds of the first registration win; later callers get the
    /// existing instrument regardless of the bounds they pass.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        get_or_create(&self.inner.histograms, name, help, labels, || {
            Histogram::new(bounds)
        })
    }

    /// Value of one exact counter series (0 if absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner
            .counters
            .read()
            .expect("obs registry poisoned")
            .get(name)
            .and_then(|f| f.series.get(&label_set(labels)))
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Value of one exact gauge series (0 if absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        self.inner
            .gauges
            .read()
            .expect("obs registry poisoned")
            .get(name)
            .and_then(|f| f.series.get(&label_set(labels)))
            .map(|g| g.get())
            .unwrap_or(0)
    }

    /// Sum of the counter series `sel` matches (zero if none), read in
    /// place: one family lookup, no copy, no allocation.
    pub fn counter_sum(&self, sel: &Selector) -> u64 {
        fold_selected(&self.inner.counters, sel, 0, |s, c| {
            s.saturating_add(c.get())
        })
    }

    /// Largest value across the gauge series `sel` matches (zero if
    /// none), read in place like [`Self::counter_sum`].
    pub fn gauge_max(&self, sel: &Selector) -> i64 {
        fold_selected(&self.inner.gauges, sel, None, |m, g| m.max(Some(g.get()))).unwrap_or(0)
    }

    /// A point-in-time copy of every counter and gauge series in the
    /// registry, keyed by `(family name, sorted label pairs)`.
    ///
    /// The health engine does not take one: it reads the registry in
    /// place ([`Self::counter_sum`], [`Self::gauge_max`]). The one caller
    /// left is the benchmark's `obs.snapshot_ns` probe; this method and
    /// [`crate::health::MetricsSnapshot`] go when that probe is retired.
    pub fn snapshot(&self) -> crate::health::MetricsSnapshot {
        fn copy<T, V>(
            map: &Families<T>,
            value: impl Fn(&T) -> V,
        ) -> BTreeMap<(String, LabelSet), V> {
            let mut out = BTreeMap::new();
            for (name, family) in map.read().expect("obs registry poisoned").iter() {
                for (labels, m) in &family.series {
                    out.insert((name.clone(), labels.clone()), value(m));
                }
            }
            out
        }
        crate::health::MetricsSnapshot {
            counters: copy(&self.inner.counters, |c| c.get()),
            gauges: copy(&self.inner.gauges, |g| g.get()),
        }
    }

    /// Render every metric in Prometheus text exposition format.
    ///
    /// Output is deterministic: families sort by name, series by their
    /// sorted label pairs, histogram buckets cumulative with a final
    /// `+Inf`, followed by `_sum` and `_count`. All values are
    /// integers, so the bytes are stable across runs feeding the same
    /// observations.
    pub fn render_prometheus(&self) -> String {
        fn render<T>(
            out: &mut String,
            map: &Families<T>,
            kind: &str,
            series: impl Fn(&mut String, &str, &LabelSet, &T),
        ) {
            for (name, family) in map.read().expect("obs registry poisoned").iter() {
                writeln!(out, "# HELP {name} {}", family.help).unwrap();
                writeln!(out, "# TYPE {name} {kind}").unwrap();
                for (labels, m) in &family.series {
                    series(out, name, labels, m);
                }
            }
        }
        let mut out = String::new();
        render(
            &mut out,
            &self.inner.counters,
            "counter",
            |out, name, labels, c| {
                writeln!(out, "{name}{} {}", fmt_labels(labels, &[]), c.get()).unwrap();
            },
        );
        render(
            &mut out,
            &self.inner.gauges,
            "gauge",
            |out, name, labels, g| {
                writeln!(out, "{name}{} {}", fmt_labels(labels, &[]), g.get()).unwrap();
            },
        );
        render(
            &mut out,
            &self.inner.histograms,
            "histogram",
            |out, name, labels, h| {
                let snap = h.snapshot();
                let mut cumulative = 0u64;
                for (i, &bound) in snap.bounds.iter().enumerate() {
                    cumulative = cumulative.wrapping_add(snap.counts[i]);
                    let le = bound.to_string();
                    writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        fmt_labels(labels, &[("le", &le)])
                    )
                    .unwrap();
                }
                let (plain, inf) = (
                    fmt_labels(labels, &[]),
                    fmt_labels(labels, &[("le", "+Inf")]),
                );
                writeln!(out, "{name}_bucket{inf} {}", snap.count()).unwrap();
                writeln!(out, "{name}_sum{plain} {}", snap.sum).unwrap();
                writeln!(out, "{name}_count{plain} {}", snap.count()).unwrap();
            },
        );
        out
    }
}

/// Format `{k="v",...}` from sorted pairs plus trailing extras
/// (used for the histogram `le` label); empty label sets render as "".
fn fmt_labels(labels: &LabelSet, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("p", "0")]);
        let b = r.counter("x_total", "x", &[("p", "0")]);
        a.add(3);
        if crate::enabled() {
            assert_eq!(b.get(), 3);
        }
        // Different labels → different series.
        let c = r.counter("x_total", "x", &[("p", "1")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        let a = r.counter("y_total", "y", &[("b", "2"), ("a", "1")]);
        let b = r.counter("y_total", "y", &[("a", "1"), ("b", "2")]);
        a.inc();
        if crate::enabled() {
            assert_eq!(b.get(), 1);
        }
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let r = Registry::new();
        r.counter("b_total", "second", &[]).add(2);
        r.counter("a_total", "first", &[("p", "1")]).add(1);
        r.counter("a_total", "first", &[("p", "0")]).add(5);
        r.gauge("g_items", "a gauge", &[]).set(-4);
        r.histogram("h_ns", "a histogram", &[], &[10, 100])
            .observe(7);
        let text = r.render_prometheus();
        assert_eq!(text, r.render_prometheus());
        if crate::enabled() {
            let expected = "\
# HELP a_total first
# TYPE a_total counter
a_total{p=\"0\"} 5
a_total{p=\"1\"} 1
# HELP b_total second
# TYPE b_total counter
b_total 2
# HELP g_items a gauge
# TYPE g_items gauge
g_items -4
# HELP h_ns a histogram
# TYPE h_ns histogram
h_ns_bucket{le=\"10\"} 1
h_ns_bucket{le=\"100\"} 1
h_ns_bucket{le=\"+Inf\"} 1
h_ns_sum 7
h_ns_count 1
";
            assert_eq!(text, expected);
        } else {
            // Shape still renders with zeroed values.
            assert!(text.contains("# TYPE a_total counter"));
            assert!(text.contains("a_total{p=\"0\"} 0"));
        }
    }

    #[test]
    fn with_tracer_shares_families_and_carries_the_tracer() {
        let plain = Registry::new();
        let tracer = Tracer::new();
        let observed = plain.with_tracer(&tracer);
        observed.counter("shared_total", "s", &[]).add(4);
        assert!(plain.render_prometheus().contains("shared_total"));
        assert!(
            plain.tracer().is_none(),
            "a plain registry carries no tracer"
        );
        let kind = crate::TraceEventKind::Checkpoint { epoch: 0 };
        observed
            .tracer()
            .unwrap()
            .service_event("svc", "op", 1, 2, kind);
        if crate::enabled() {
            let e = &tracer.events()[0];
            let trace = crate::trace_id("svc", crate::SERVICE_TRACE);
            let span = crate::trace_span(trace, "op", 1);
            assert_eq!((e.trace, e.span, e.parent), (trace, span, None));
            assert_eq!((e.scope, e.ctx, e.dur_ns), (0, 2, 0));
        }
    }

    #[test]
    fn selector_label_filter() {
        let r = Registry::new();
        r.counter("acts_total", "", &[("action", "expired")]).add(7);
        r.counter("acts_total", "", &[("action", "migrate-failed")])
            .add(2);
        let sum = |sel: Selector| r.counter_sum(&sel);
        if crate::enabled() {
            assert_eq!(sum(Selector::family("acts_total")), 9);
            let failed = Selector::labeled("acts_total", "action", "migrate-failed");
            assert_eq!(sum(failed), 2);
        }
        assert_eq!(sum(Selector::labeled("acts_total", "action", "nope")), 0);
    }

    /// A family whose name is a prefix of another's (or extends it)
    /// reads only its own series, for counters and gauges alike.
    #[test]
    fn selectors_read_only_their_own_family() {
        let r = Registry::new();
        for (name, v) in [("lag", 1), ("lag_total", 10), ("la", 100), ("lag\0", 1_000)] {
            r.counter(name, "", &[]).add(v);
            r.gauge(name, "", &[("p", "0")]).set(v as i64);
        }
        let family = Selector::family;
        if crate::enabled() {
            assert_eq!(r.counter_sum(&family("lag")), 1);
            assert_eq!(r.counter_sum(&family("la")), 100);
            assert_eq!(r.gauge_max(&family("lag")), 1);
            assert_eq!(r.gauge_max(&family("lag_total")), 10);
        }
        assert_eq!(r.counter_sum(&family("l")), 0);
        assert_eq!(r.gauge_max(&family("lag_")), 0);
    }

    /// A labeled selector matches its label within its family only,
    /// never the same label on a neighbouring family.
    #[test]
    fn labeled_selector_stays_inside_its_family() {
        let r = Registry::new();
        let op = |v| [("op", v)];
        r.counter("a_total", "", &op("fetch")).add(3);
        r.counter("a_total", "", &op("produce")).add(4);
        r.counter("a_total_x", "", &op("produce")).add(50);
        r.counter("a_tota", "", &op("produce")).add(600);
        r.gauge("a_total", "", &op("produce")).set(-7);
        r.gauge("a_total_x", "", &op("produce")).set(80);
        let produce = Selector::labeled("a_total", "op", "produce");
        if crate::enabled() {
            assert_eq!(r.counter_sum(&produce), 4);
            assert_eq!(r.gauge_max(&produce), -7);
        }
        let fetch = Selector::labeled("a_tota", "op", "fetch");
        assert_eq!(r.counter_sum(&fetch), 0);
    }

    #[test]
    fn registry_snapshot_round_trip() {
        let r = Registry::new();
        r.counter("a_total", "a", &[("p", "0")]).add(4);
        r.gauge("g_level", "g", &[]).set(-2);
        let snap = r.snapshot();
        let counter = ("a_total".to_string(), vec![("p".into(), "0".into())]);
        let gauge = ("g_level".to_string(), Vec::new());
        if crate::enabled() {
            assert_eq!(snap.counters[&counter], 4);
            assert_eq!(snap.gauges[&gauge], -2);
        } else {
            assert_eq!(snap.counters[&counter], 0);
        }
        // Shape is captured either way.
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("e_total", "e", &[("k", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("e_total{k=\"a\\\"b\\\\c\\nd\"}"));
    }
}
