//! In-memory span recording around the benchmark's calls into each
//! crate, for the traced (per-layer) pass.
//!
//! A span is (name, start, end, parent, id) plus the id of the trace
//! (one cell, one trace generation, one request) it belongs to. Spans
//! stay in memory until the run ends, then [`Recorder::write_chrome`]
//! writes them out. A disabled recorder runs the closures and records
//! nothing, so the traced and untraced passes execute the same code.

use dtm_harness::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Trace (request / cell) id shared by a root and its descendants.
    pub trace: u64,
    /// What was called, e.g. `CoreSim::run_sample`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a child span attaches: the parent's id and trace.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    id: u64,
    trace: u64,
}

impl Ctx {
    /// The attachment point for the root span of trace `trace`.
    pub fn root(trace: u64) -> Ctx {
        Ctx { id: 0, trace }
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A shareable span sink; cloning shares the sink.
#[derive(Debug, Clone)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    /// A recorder that keeps every span.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// A recorder that keeps nothing.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the context its own children attach to.
    pub fn span<T>(&self, name: &'static str, parent: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        let Some(inner) = &self.0 else {
            return f(parent);
        };
        // Relaxed: the id only has to be unique; it publishes no data.
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let start = inner.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx {
            id,
            trace: parent.trace,
        });
        let end = inner.epoch.elapsed().as_nanos() as u64;
        inner
            .spans
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .push(Span {
                id,
                parent: parent.id,
                trace: parent.trace,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(inner) => inner
                .spans
                .lock()
                .expect("span sink poisoned by a panicking thread")
                .clone(),
            None => Vec::new(),
        }
    }

    /// Writes every span as a Chrome/Perfetto trace (one track per
    /// trace id).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans()
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("ph".into(), Json::str("X")),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(s.trace)),
                    ("ts".into(), Json::f64(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::f64(s.dur_ns() as f64 / 1e3)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::u64(s.id)),
                            ("parent".into(), Json::u64(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
        std::fs::write(path, doc.emit() + "\n")
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Span count.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of self times (ns): duration minus the time child spans cover.
    pub self_ns: u64,
    /// Every duration (ns), for medians.
    pub durs_ns: Vec<f64>,
}

/// Aggregates `spans` by name, with self time per span computed as its
/// duration minus the union of its children's intervals.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered;
        e.durs_ns.push(s.dur_ns() as f64);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            trace: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns: s,
            end_ns: e,
        };
        let spans = vec![
            mk(1, 0, 0, 100),
            mk(2, 1, 10, 40),
            mk(3, 1, 30, 60),
            mk(4, 1, 90, 120),
        ];
        let agg = by_name(&spans);
        // Children cover [10, 60] and [90, 100] of the root: 60 ns.
        assert_eq!(agg["root"].self_ns, 40);
        assert_eq!(agg["child"].count, 3);
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_keeps_nothing() {
        let rec = Recorder::disabled();
        assert_eq!(rec.span("x", Ctx::root(1), |_| 7), 7);
        assert!(rec.spans().is_empty());
        let rec = Recorder::enabled();
        rec.span("outer", Ctx::root(3), |c| rec.span("inner", c, |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trace, 3);
    }
}
