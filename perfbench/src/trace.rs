//! In-memory span recorder for the traced run.
//!
//! Each span records a name, start, end, parent span and an optional
//! request id. Spans stay in memory until the run ends. A span's *self
//! time* is its duration minus the part of it its children cover. A span
//! opened without a parent starts a new track (one per thread of work),
//! and every child stays on its parent's track, so on each
//! single-threaded track the self times of all spans add up exactly to
//! the duration of the track's root span.
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the untimed end-to-end run and the traced run share one code path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanId(usize);

#[derive(Clone, Debug)]
pub(crate) struct Span {
    pub(crate) name: String,
    pub(crate) track: u32,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<SpanId>,
    pub(crate) request: Option<u64>,
}

pub(crate) struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    tracks: AtomicU32,
}

impl Tracer {
    pub(crate) fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tracks: AtomicU32::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub(crate) fn open(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking thread");
        let track = match parent {
            Some(p) => spans[p.0].track,
            None => self.tracks.fetch_add(1, Ordering::Relaxed),
        };
        spans.push(Span {
            name: name.to_string(),
            track,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(SpanId(spans.len() - 1))
    }

    pub(crate) fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            let mut spans = self
                .spans
                .lock()
                .expect("span log poisoned by a panicking thread");
            spans[id.0].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// parent its own children.
    pub(crate) fn scope<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, None);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub(crate) fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .clone()
    }

    /// Takes every recorded span out of the tracer.
    pub(crate) fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned by a panicking thread"),
        )
    }
}

/// Self time of every span, index-aligned with `spans`: the span's
/// duration minus the union of its children's intervals clipped to it.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p.0].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over all spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct NameTotals {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) self_ns: u64,
}

pub(crate) fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Durations in nanoseconds of every span with exactly this name.
pub(crate) fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Σ self time over the spans of one track, and that track's root
/// duration.
pub(crate) fn track_balance(spans: &[Span], track: u32) -> (u64, u64) {
    let selfs = self_times(spans);
    let mut self_sum = 0;
    let mut root = 0;
    for (s, own) in spans.iter().zip(selfs) {
        if s.track == track {
            self_sum += own;
            if s.parent.is_none() {
                root += s.end_ns - s.start_ns;
            }
        }
    }
    (self_sum, root)
}

/// Measured cost of one open/close pair on this host, in nanoseconds.
pub(crate) fn span_cost_ns() -> f64 {
    let t = Tracer::new(true);
    let root = t.open("calibrate", None, None);
    let n = 20_000u32;
    let start = Instant::now();
    for _ in 0..n {
        let id = t.open("c", root, None);
        t.close(id);
    }
    start.elapsed().as_nanos() as f64 / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            track: 0,
            start_ns: start,
            end_ns: end,
            parent: parent.map(SpanId),
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let (self_sum, root) = track_balance(&spans, 0);
        assert_eq!(self_sum, root);
    }

    #[test]
    fn overlapping_children_are_counted_as_a_union() {
        // Two concurrent children overlapping on [30,40) and one running
        // past the parent's end.
        let spans = vec![
            span("p", 0, 100, None),
            span("x", 20, 40, Some(0)),
            span("y", 30, 60, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["p"].self_ns, 50);
        assert_eq!(totals["z"].total_ns, 40);
    }

    #[test]
    fn live_tracer_nests_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        t.scope("outer", None, |o| {
            t.scope("inner", o, |_| std::hint::black_box(0));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_eq!(spans[1].track, spans[0].track);
        let (self_sum, root) = track_balance(&spans, spans[0].track);
        assert_eq!(self_sum, root);

        let off = Tracer::new(false);
        off.scope("outer", None, |o| assert!(o.is_none()));
        assert!(off.take().is_empty());
    }
}
