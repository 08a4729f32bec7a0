//! Timing adapters: wrappers that record spans around the library's calls
//! while delegating everything else unchanged.
//!
//! * [`Timed`] wraps an [`Execution`] and times `step`, `save` and
//!   `restore`. It goes through the real scheduler exactly like the boxed
//!   executions the CLI queues (`Box<E>` delegates the same way).
//! * [`TimedObserver`] wraps a [`RoundObserver`] — the JSONL trace sink —
//!   and times each event it receives. Observer callbacks happen inside
//!   `step`, so their spans are children of the step span.
//!
//! The checkpoint sink and the `JobSpec` factory closures are timed where
//! the workloads build them, with [`crate::span::maybe_span`].

use std::cell::RefCell;
use std::rc::Rc;

use cc_mis_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use cc_mis_sim::{Execution, RoundEvent, RoundObserver, SharedObserver, Status};

use crate::span::Tracer;

/// An execution whose `step`, `save` and `restore` calls are recorded as
/// spans.
pub struct Timed<E> {
    inner: E,
    tracer: Rc<Tracer>,
    job: u32,
    step_span: &'static str,
}

impl<E> Timed<E> {
    /// Wraps `inner`; its steps are recorded as `step_span` spans of `job`.
    pub fn new(inner: E, tracer: Rc<Tracer>, job: u32, step_span: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            job,
            step_span,
        }
    }
}

impl<E: Execution> Execution for Timed<E> {
    type Outcome = E::Outcome;

    fn algorithm_id(&self) -> &'static str {
        self.inner.algorithm_id()
    }

    fn attach_observer(&mut self, observer: SharedObserver) {
        self.inner.attach_observer(observer);
    }

    fn step(&mut self) -> Status<E::Outcome> {
        let tracer = Rc::clone(&self.tracer);
        tracer.span(self.step_span, self.job, || self.inner.step())
    }

    // conform: allow(R22) -- a timing wrapper writes no bytes of its own; the wrapped execution's entry pins the format
    fn save(&self, w: &mut SnapshotWriter) {
        let tracer = Rc::clone(&self.tracer);
        tracer.span("snapshot.save", self.job, || self.inner.save(w));
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.tracer.count("snapshot.bytes", r.remaining() as u64);
        let tracer = Rc::clone(&self.tracer);
        // conform: allow(R17) -- `remaining()` above only measures the payload; the whole reader goes to the wrapped restore, as the writer goes to the wrapped save
        tracer.span("snapshot.restore", self.job, || self.inner.restore(r))
    }
}

/// A round observer that records each delivered event as an
/// `observer.sink` span around the wrapped observer's callback.
pub struct TimedObserver<O: ?Sized> {
    inner: Rc<RefCell<O>>,
    tracer: Rc<Tracer>,
    job: u32,
}

impl<O: RoundObserver + ?Sized + 'static> TimedObserver<O> {
    /// Wraps `inner` and returns the engine-facing handle.
    pub fn shared(inner: Rc<RefCell<O>>, tracer: Rc<Tracer>, job: u32) -> SharedObserver {
        Rc::new(RefCell::new(TimedObserver { inner, tracer, job }))
    }
}

impl<O: RoundObserver + ?Sized> RoundObserver for TimedObserver<O> {
    fn on_event(&mut self, event: &RoundEvent) {
        self.tracer.span("observer.sink", self.job, || {
            self.inner.borrow_mut().on_event(event)
        });
    }
}
