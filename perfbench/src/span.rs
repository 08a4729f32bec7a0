//! In-memory span recorder for the traced pass.
//!
//! A span is one call into a layer, timed from outside the library: its
//! name (`core.thm11.step`, `snapshot.save`, ...), start and end in
//! nanoseconds since the recorder was created, the span that was open when
//! it started (its parent), and the job it belongs to. Spans are kept in
//! memory and written out once the pass ends, so recording costs one clock
//! read at each end and one push.
//!
//! Everything here runs on the benchmark's main thread: the library's
//! worker threads live inside the calls being timed.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's one clock read. Every host time it reports comes from
/// here; nothing simulated or charged depends on it.
pub fn now() -> Instant {
    // conform: allow(R3) -- benchmark wall clock; simulated results never depend on it
    Instant::now()
}

/// Job id of spans that belong to no job (graph build, verification, the
/// scheduler's own run span).
pub const NO_JOB: u32 = u32::MAX;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Job id, or [`NO_JOB`].
    pub job: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans and named counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<u32>,
    counters: RefCell<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(NO_PARENT),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos())
            .expect("a pass lasts far less than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&self, name: &'static str, job: u32, f: impl FnOnce() -> R) -> R {
        let parent = self.open.get();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                job,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans per pass")
        };
        self.open.set(idx);
        let out = f();
        self.open.set(parent);
        let end = self.now_ns();
        self.spans.borrow_mut()[idx as usize].end_ns = end;
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counters.borrow_mut().entry(name).or_insert(0) += n;
    }

    /// The counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as JSON lines (`name`, `job`, `parent`, `start_ns`,
    /// `end_ns`); `job` and `parent` are `null` where absent.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| {
            if v == u32::MAX {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.job),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a recorder is present, else runs it bare —
/// the one switch between the traced and the plain pass.
pub fn maybe_span<R>(t: Option<&Tracer>, name: &'static str, job: u32, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, job, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns() - c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let t = Tracer::new();
        t.span("outer", NO_JOB, || {
            t.span("inner", 3, || std::hint::black_box(1 + 1));
            t.span("inner", 4, || ());
        });
        t.span("next", NO_JOB, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_PARENT);
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0] + spans[1].dur_ns() + spans[2].dur_ns(),
            spans[0].dur_ns()
        );
    }

    #[test]
    fn counters_accumulate() {
        let t = Tracer::new();
        t.count("a", 2);
        t.count("a", 5);
        assert_eq!(t.counter("a"), 7);
        assert_eq!(t.counter("b"), 0);
    }
}
