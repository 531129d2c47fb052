//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer's public API:
//! name, start, end, the span that caused it (the innermost open span on
//! the same thread) and a request id shared by every span of one
//! operation (a root span opens a new request). An optional item count
//! records how many calls a span covers, so per-call costs are measured
//! where the work happens. Spans stay in memory until the run ends, when
//! they are summarised into the per-layer table and written out as JSON
//! lines. With tracing off, opening a span is one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span. Ids start at 1; a root span has `parent == 0` and
/// its own id as `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped. Inert when tracing is off.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
    items: u64,
}

/// Opens a span named `name` under the innermost open span of this
/// thread, or as the root of a new request.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, request) = s.last().copied().unwrap_or((0, id));
        s.push((id, request));
        (parent, request)
    });
    Guard {
        open: Some(Open {
            id,
            parent,
            request,
            name,
            start: Instant::now(),
            items: 1,
        }),
    }
}

impl Guard {
    /// Sets how many calls (or units of work) this span covers.
    pub fn items(&mut self, n: u64) {
        if let Some(o) = &mut self.open {
            o.items = n;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped.map(|p| p.0), Some(o.id), "spans close in LIFO order");
        });
        let base = epoch();
        let span = Span {
            id: o.id,
            parent: o.parent,
            request: o.request,
            name: o.name,
            start_ns: o.start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
            items: o.items,
        };
        SPANS.lock().expect("span buffer poisoned").push(span);
    }
}

/// Runs `f` inside a span and returns its result with the wall time it
/// took, which is measured whether or not tracing is on.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _g = span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Every span recorded so far, in close order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per-name aggregate of a span list: count, items, total and self time.
#[derive(Debug, Default, Clone)]
pub struct NameSummary {
    pub spans: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl NameSummary {
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Nearest-rank quantile of span durations, in milliseconds.
    pub fn quantile_ms(&self, p: f64) -> f64 {
        let ms: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e6).collect();
        crate::stats::quantile(&ms, p)
    }
}

/// Summarises spans by name. A span's self time is its duration minus
/// the part of its interval covered by its children (overlapping child
/// intervals are merged first, so concurrent children count once).
pub fn summarise(spans: &[Span]) -> Vec<(&'static str, NameSummary)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: HashMap<&'static str, NameSummary> = HashMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| covered_ns(iv, s));
        let e = by_name.entry(s.name).or_default();
        e.spans += 1;
        e.items += s.items;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered);
        e.durations_ns.push(s.dur_ns());
    }
    let mut out: Vec<_> = by_name.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

fn covered_ns(intervals: &mut [(u64, u64)], within: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(within.start_ns), b.min(within.end_ns));
        if a >= b {
            continue;
        }
        match &mut cur {
            Some((_, ce)) if a <= *ce => *ce = (*ce).max(b),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Writes the spans as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            mk(2, 1, "child", 10, 40),
            mk(3, 1, "child", 30, 50),
            mk(4, 1, "child", 70, 80),
            mk(1, 0, "root", 0, 100),
        ];
        let table = summarise(&spans);
        let root = &table.iter().find(|(n, _)| *n == "root").unwrap().1;
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.self_ns, 100 - 40 - 10);
        let child = &table.iter().find(|(n, _)| *n == "child").unwrap().1;
        assert_eq!((child.spans, child.total_ns, child.self_ns), (3, 60, 60));
    }
}
