//! The `Tracer` trait and the cheap shareable handle instrumented code
//! holds.

use crate::event::TraceEvent;
use std::fmt;
use std::sync::Arc;

/// A consumer of trace events.
///
/// Implementations must be thread-safe: the sweep executor runs jobs on
/// worker threads, and one tracer may be shared across a whole plan.
pub trait Tracer: Send + Sync {
    /// Consumes one event.
    fn record(&self, ev: TraceEvent);
}

/// The handle instrumented structs hold.
///
/// Disabled (the default) it is a `None`; every [`TraceHandle::emit`] is
/// a single branch and the event-construction closure never runs, which
/// is what keeps instrumentation free on untraced runs.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<dyn Tracer>>);

impl TraceHandle {
    /// The no-op handle.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle delivering events to `tracer`.
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        TraceHandle(Some(tracer))
    }

    /// Whether a tracer is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event built by `build` — which is only invoked when a
    /// tracer is installed, so argument formatting costs nothing on
    /// untraced runs.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.0 {
            t.record(build());
        }
    }
}

/// Every handle equals every other, as every `PhantomData` does: a handle
/// is where events go, not simulation state. Two simulators in the same
/// state are equal whether or not either is traced, so state equality
/// can be derived on the structs that hold one.
impl PartialEq for TraceHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceCategory;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingTracer(AtomicU64);

    impl Tracer for CountingTracer {
        fn record(&self, _ev: TraceEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        let mut built = false;
        h.emit(|| {
            built = true;
            TraceEvent::instant(TraceCategory::Noc, "x", 0, 0)
        });
        assert!(!built, "closure must not run when disabled");
    }

    #[test]
    fn enabled_handle_delivers() {
        let t = Arc::new(CountingTracer::default());
        let h = TraceHandle::new(t.clone());
        assert!(h.enabled());
        for i in 0..5 {
            h.emit(|| TraceEvent::instant(TraceCategory::Core, "x", i, 0));
        }
        assert_eq!(t.0.load(Ordering::Relaxed), 5);
        // Clones share the same sink.
        h.clone()
            .emit(|| TraceEvent::instant(TraceCategory::Core, "x", 9, 0));
        assert_eq!(t.0.load(Ordering::Relaxed), 6);
    }
}
