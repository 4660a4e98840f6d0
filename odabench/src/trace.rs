//! Bench-owned spans around every call into a layer.
//!
//! Spans are recorded from the benchmark's own files only — the product
//! crates are not instrumented for this — kept in memory, and written
//! out as Chrome `trace_event` JSON when the run ends. A span's name is
//! `<layer>.<operation>`; the layer prefix is one of the workspace's
//! crates (`core`, `stream`, `pipeline`, `storage`, `analytics`, `obs`,
//! `serve`), `planner` for `oda_pipeline::logical`, or `bench` for the
//! harness's own glue. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover, so the layer
//! numbers of a pass sum to its wall time.

use serde::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NO_SPAN: usize = usize::MAX;

thread_local! {
    /// Innermost open span of this thread.
    static CURRENT: Cell<usize> = const { Cell::new(NO_SPAN) };
    /// Small stable id for the Chrome `tid` field.
    static THREAD: Cell<usize> = const { Cell::new(NO_SPAN) };
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    pub thread: usize,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRec>,
    pass: u32,
}

/// In-memory span recorder shared by every thread of a traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
    /// Parent adopted by spans opened on threads that have no open span
    /// of their own: the executor's scoped workers run the wrapped
    /// decoder and partition map while the driver sits in `run_once`.
    fanout: AtomicUsize,
}

/// An open span; closes when dropped.
pub struct Guard {
    tracer: Arc<Tracer>,
    id: usize,
    previous: usize,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.lock().spans[self.id].end_ns = end;
        CURRENT.with(|c| c.set(self.previous));
    }
}

impl Guard {
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Open `name` when tracing is on; the untraced path pays one branch.
pub fn span(tracer: &Option<Arc<Tracer>>, name: &'static str) -> Option<Guard> {
    tracer.as_ref().map(|t| t.enter(name))
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
            fanout: AtomicUsize::new(NO_SPAN),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no span is recorded while panicking")
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag spans opened from now on with `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.lock().pass = pass;
    }

    pub fn enter(self: &Arc<Self>, name: &'static str) -> Guard {
        let previous = CURRENT.with(Cell::get);
        let parent = if previous != NO_SPAN {
            previous
        } else {
            // SeqCst: pairs with the store in `fan_out`, which happens
            // before the worker threads are spawned.
            self.fanout.load(Ordering::SeqCst)
        };
        let thread = THREAD.with(|t| {
            if t.get() == NO_SPAN {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let start = self.now_ns();
        let mut inner = self.lock();
        let id = inner.spans.len();
        let pass = inner.pass;
        inner.spans.push(SpanRec {
            name,
            start_ns: start,
            end_ns: start,
            parent: (parent != NO_SPAN).then_some(parent),
            pass,
            thread,
        });
        drop(inner);
        CURRENT.with(|c| c.set(id));
        Guard {
            tracer: Arc::clone(self),
            id,
            previous,
        }
    }

    /// Make `guard`'s span the parent of spans opened on other threads
    /// until [`Tracer::fan_in`].
    pub fn fan_out(&self, guard: &Guard) {
        self.fanout.store(guard.id, Ordering::SeqCst);
    }

    pub fn fan_in(&self) {
        self.fanout.store(NO_SPAN, Ordering::SeqCst);
    }

    /// Record a closed span from a duration the product reports about
    /// itself (`EpochTimings.checkpoint_ns`), placed at `start_ns` under
    /// `parent`.
    pub fn reported(&self, name: &'static str, parent: usize, start_ns: u64, dur_ns: u64) {
        let mut inner = self.lock();
        let pass = inner.pass;
        let thread = inner.spans[parent].thread;
        inner.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            pass,
            thread,
        });
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span, so parallel children are
/// not subtracted twice).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals per span name for the spans of `pass`.
pub fn totals(spans: &[SpanRec], pass: u32) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.pass != pass {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The layer a span name belongs to (the prefix before the first dot).
pub fn layer_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

/// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto):
/// one complete event per span, microsecond timestamps, the span's pass
/// and parent in `args`.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = vec![
                ("id".to_string(), Value::U64(id as u64)),
                ("pass".to_string(), Value::U64(u64::from(s.pass))),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::U64(p as u64)));
            }
            Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str(layer_of(s.name).to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(s.thread as u64)),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("bench.pass", 0, 100, None),
            rec("pipeline.epoch", 10, 90, Some(0)),
            // Two parallel workers overlapping on 30..50.
            rec("pipeline.decode", 20, 50, Some(1)),
            rec("pipeline.decode", 30, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 30, 30]);
        let t = totals(&spans, 0);
        assert_eq!(t["pipeline.decode"].count, 2);
        assert_eq!(t["pipeline.decode"].self_ns, 60);
        assert_eq!(t["pipeline.epoch"].self_ns, 40);
    }

    #[test]
    fn nesting_and_fanout_assign_parents() {
        let tracer = Tracer::new();
        let outer = tracer.enter("bench.pass");
        let epoch = tracer.enter("pipeline.epoch");
        tracer.fan_out(&epoch);
        let t = Arc::clone(&tracer);
        std::thread::scope(|s| {
            s.spawn(move || drop(t.enter("pipeline.decode")));
        });
        tracer.fan_in();
        drop(epoch);
        drop(tracer.enter("storage.put"));
        drop(outer);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1), "worker adopts the fan-out span");
        assert_eq!(spans[3].parent, Some(0), "sibling after the epoch closed");
        assert!(serde_json::value_from_slice(chrome_json(&spans).as_bytes()).is_ok());
    }
}
