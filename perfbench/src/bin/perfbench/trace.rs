//! In-memory span recording around the benchmark's calls into each
//! layer, and the per-layer self-time table built from the spans when
//! the run ends.
//!
//! A span has a name, a start and an end, the span that caused it (its
//! parent, possibly on another thread) and the id of the request or
//! query it belongs to. Spans of one thread collect in a [`Local`]
//! buffer and move to the shared [`Tracer`] when the buffer drops, so
//! recording takes no lock. With tracing off every call is a branch.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are counted, not stored, so a long
/// run's memory stays bounded.
const MAX_SPANS: usize = 4_000_000;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer boundary, e.g. `core.query`.
    pub name: &'static str,
    /// Unique span id (never 0).
    pub id: u64,
    /// Causing span, or 0 for a root.
    pub parent: u64,
    /// Request or query id shared by the spans of one operation.
    pub trace: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// The run's span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A per-thread recording buffer.
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            buf: Vec::new(),
        }
    }

    /// Every span recorded so far, and how many were dropped at the cap.
    pub fn take(&self) -> (Vec<SpanRec>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        // ordering: a statistic read after every recording thread joined.
        (spans, self.dropped.load(Ordering::Relaxed))
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One thread's span buffer; flushes into its [`Tracer`] on drop.
pub struct Local<'a> {
    tracer: &'a Tracer,
    buf: Vec<SpanRec>,
}

impl Local<'_> {
    /// Run `f` inside a span named `name`. `f` receives this buffer (for
    /// child spans) and the new span's id (0 with tracing off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> R {
        if !self.tracer.on {
            return f(self, 0);
        }
        // ordering: ids only need to be unique.
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        self.buf.push(SpanRec {
            name,
            id,
            parent,
            trace,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        out
    }

    /// Record a span timed by the caller (work that ran on a thread
    /// without its own buffer, e.g. inside `QueryExecutor::run_with`).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.tracer.on {
            return;
        }
        // ordering: ids only need to be unique.
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.buf.push(SpanRec {
            name,
            id,
            parent,
            trace,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // A poisoned store means another thread panicked mid-flush; the
        // run fails on that panic, so these spans may be discarded.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            let room = MAX_SPANS.saturating_sub(spans.len());
            let keep = room.min(self.buf.len());
            spans.extend_from_slice(&self.buf[..keep]);
            let lost = (self.buf.len() - keep) as u64;
            // ordering: a statistic, read after every thread joined.
            self.tracer.dropped.fetch_add(lost, Ordering::Relaxed);
        }
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: duration minus the part child spans cover.
    pub self_ns: u64,
}

impl LayerRow {
    /// Mean self time per span, microseconds.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name count, total and self time. A span's self time is its
/// duration minus the union of its children's intervals clipped to it,
/// so children running in parallel on other threads are not subtracted
/// twice.
pub fn layer_table(spans: &[SpanRec]) -> Vec<(&'static str, LayerRow)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rows: HashMap<&'static str, LayerRow> = HashMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(covered);
    }
    let mut out: Vec<_> = rows.into_iter().collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Write spans as tab-separated lines: name, id, parent, trace,
/// start_ns, end_ns.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\ttrace\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.trace, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            trace: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec("batch", 1, 0, 0, 100),
            // Two parallel children overlapping on [20, 60).
            rec("query", 2, 1, 10, 60),
            rec("query", 3, 1, 20, 70),
            rec("query", 4, 1, 90, 120), // runs past its parent
        ];
        let table = layer_table(&spans);
        let batch = table.iter().find(|r| r.0 == "batch").unwrap().1;
        assert_eq!(batch.self_ns, 100 - 60 - 10);
        let query = table.iter().find(|r| r.0 == "query").unwrap().1;
        assert_eq!((query.count, query.total_ns, query.self_ns), (3, 130, 130));
    }

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_nests() {
        let off = Tracer::new(false);
        off.local().span("a", 1, 0, |_, id| assert_eq!(id, 0));
        assert!(off.take().0.is_empty());

        let on = Tracer::new(true);
        {
            let mut local = on.local();
            local.span("outer", 7, 0, |l, outer| {
                l.span("inner", 7, outer, |_, inner| assert_ne!(inner, outer));
            });
        }
        let (spans, dropped) = on.take();
        assert_eq!((spans.len(), dropped), (2, 0));
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((inner.parent, inner.trace), (outer.id, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
