//! In-memory span recording and the timing wrapper around a [`Workload`].
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the tracer was created), the span that caused it, and the call's
//! outcome. Spans are appended to a vector and only written out when the
//! benchmark ends, so tracing costs two clock reads and one push per call.
//!
//! One search runs at a time, so the "current parent" is a single slot the
//! search loop sets around each `Search::step` (and each search); the wrapper's
//! calls, which run on the evaluator's worker threads, read it from there.

use gevo_engine::{EvalOutcome, Workload};
use gevo_gpu::CompiledKernel;
use gevo_ir::Kernel;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The call succeeded: a valid evaluation, an accepted compile, a
    /// checkpoint that loaded without rollback.
    pub ok: bool,
    /// Work the call reports: warp-instructions for an evaluation, bytes
    /// for a checkpoint write, 0 otherwise.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    parent: AtomicU32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            parent: AtomicU32::new(0),
        }
    }

    /// Opens a span under the current parent. It is recorded when the
    /// returned guard drops, also when the traced call panics (then with
    /// `ok` still false).
    pub fn open(&self, name: &'static str) -> Open<'_> {
        Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent.load(Ordering::SeqCst),
            name,
            start: Instant::now(),
            ok: false,
            work: 0,
        }
    }

    /// Opens a span and makes it the parent of every span opened until
    /// the guard drops.
    pub fn enter(&self, name: &'static str) -> Entered<'_> {
        let span = self.open(name);
        let outer = self.parent.swap(span.id, Ordering::SeqCst);
        Entered { span, outer }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// An open span; see [`Tracer::open`].
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    pub ok: bool,
    pub work: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
            ok: self.ok,
            work: self.work,
        };
        // A poisoned store only means another thread panicked mid-push;
        // never panic in drop.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// A span that is the current parent; see [`Tracer::enter`].
pub struct Entered<'t> {
    pub span: Open<'t>,
    outer: u32,
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        self.span.tracer.parent.store(self.outer, Ordering::SeqCst);
    }
}

/// Records a span around each call into the wrapped workload's compile
/// and evaluate paths and forwards every [`Workload`] method unchanged,
/// so the traced search runs the same program as the untraced one
/// (`supports_delta_patch` in particular: keeping the trait default
/// would silently switch the delta-patch path off).
pub struct Traced<'a> {
    pub inner: &'a dyn Workload,
    pub tracer: &'a Tracer,
}

impl Traced<'_> {
    fn scored(&self, outcome: EvalOutcome, mut span: Open<'_>) -> EvalOutcome {
        span.ok = outcome.is_valid();
        span.work = outcome.stats.as_ref().map_or(0, |s| s.instructions);
        outcome
    }
}

impl Workload for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kernels(&self) -> &[Kernel] {
        self.inner.kernels()
    }

    fn evaluate(&self, kernels: &[Kernel], eval_seed: u64) -> EvalOutcome {
        let span = self.tracer.open("evaluate");
        self.scored(self.inner.evaluate(kernels, eval_seed), span)
    }

    fn compile(&self, kernels: &[Kernel]) -> Option<Result<Vec<CompiledKernel>, String>> {
        let mut span = self.tracer.open("compile");
        let compiled = self.inner.compile(kernels);
        span.ok = !matches!(compiled, Some(Err(_)));
        compiled
    }

    fn evaluate_compiled(&self, compiled: &[CompiledKernel], eval_seed: u64) -> EvalOutcome {
        let span = self.tracer.open("evaluate");
        self.scored(self.inner.evaluate_compiled(compiled, eval_seed), span)
    }

    fn supports_delta_patch(&self) -> bool {
        self.inner.supports_delta_patch()
    }

    fn hotspot_profile(&self) -> Option<Vec<Vec<u64>>> {
        self.inner.hotspot_profile()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Plan;

    #[test]
    fn union_counts_overlap_once_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(covered_ns(2, 45, &mut iv), 3 + 20 + 5);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
    }

    #[test]
    fn entered_spans_parent_the_spans_opened_inside_them() {
        let t = Tracer::new();
        {
            let _outer = t.enter("step");
            let mut inner = t.open("evaluate");
            inner.ok = true;
        }
        let _after = t.open("evaluate");
        drop(_after);
        let spans = t.spans();
        let step = spans.iter().find(|s| s.name == "step").unwrap();
        assert_eq!(spans[0].parent, step.id);
        assert!(spans[0].ok);
        assert_eq!(spans[2].parent, 0, "parent restored after the step");
        assert!(step.start_ns <= spans[0].start_ns && spans[0].end_ns <= step.end_ns);
    }

    #[test]
    fn wrapper_forwards_every_workload_method() {
        for name in ["simcov-2t", "adept-v1-resume"] {
            let built = Plan::named(name).unwrap().build();
            let w = built.workload();
            let tracer = Tracer::new();
            let t = Traced {
                inner: w,
                tracer: &tracer,
            };
            assert_eq!(t.name(), w.name());
            assert_eq!(t.kernels(), w.kernels());
            assert!(w.supports_delta_patch(), "{name} runs the delta-patch path");
            assert_eq!(t.supports_delta_patch(), w.supports_delta_patch());
            assert_eq!(t.hotspot_profile(), w.hotspot_profile());
            let compiled = t.compile(t.kernels()).unwrap().unwrap();
            assert_eq!(
                t.evaluate_compiled(&compiled, 0),
                w.evaluate_compiled(&compiled, 0)
            );
            assert_eq!(t.evaluate(t.kernels(), 0), w.evaluate(w.kernels(), 0));
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(names, ["compile", "evaluate", "evaluate"], "{name}");
            assert!(tracer.spans().iter().all(|s| s.ok && s.parent == 0));
        }
    }
}
