//! Host-time spans recorded around the program's public calls.
//!
//! Three sources feed one in-memory span list:
//! - [`Recorder::span`] around a call the benchmark makes itself
//!   (`Manifest::parse`, `Store::open`, `load_run`, `save_run`,
//!   `Campaign::to_json`, `ExperimentBuilder::run`, ...);
//! - [`TimingSink`], a `ProgressSink` whose `StageStarted` and
//!   `StageFinished` events bound the source, serial-pass, per-stage and
//!   schedule spans inside `Pipeline::run_observed`;
//! - [`TracedStore`], an `ExecStore` in front of the real store, whose
//!   calls bound the stage and reference entry traffic and, between a
//!   reference miss and its save, the reference executor.
//!
//! Parents are assigned after each iteration by interval containment on
//! the same thread (or under a span that fanned work out to workers), and
//! a span's self time is its duration minus the part of it that its
//! children cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mondrian_obs::{ProgressEvent, ProgressSink};
use mondrian_pipeline::{ExecStore, StageEntry};
use mondrian_store::Store;
use mondrian_workloads::Tuple;

/// One timed interval of host work.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`core.stage.join`, `store.load_run`, ...).
    pub name: String,
    /// The crate the time belongs to (`cli`, `store`, `pipeline`, ...).
    pub layer: &'static str,
    /// Start, in µs since the recorder was created.
    pub start_us: f64,
    /// End, in µs since the recorder was created.
    pub end_us: f64,
    /// Recording thread (a per-process counter).
    pub thread: u64,
    /// The sweep point (`RunSpec::id`) the span belongs to, if any.
    pub sweep: Option<String>,
    /// Whether spans of other threads may nest under this one: it spans
    /// a fan-out of work onto worker threads.
    pub fork: bool,
    /// Index of the enclosing span in the same iteration, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SWEEP: RefCell<Option<String>> = const { RefCell::new(None) };
    static REF_MISS_AT: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Tags every span the current thread records from now on with a sweep
/// point (or none).
pub fn set_sweep(id: Option<String>) {
    SWEEP.with(|s| *s.borrow_mut() = id);
}

/// The in-memory span list of one process.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder; its creation is time zero.
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// µs since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a finished span on the current thread.
    pub fn record(&self, name: impl Into<String>, layer: &'static str, start_us: f64, end_us: f64) {
        self.push(name.into(), layer, start_us, end_us, false);
    }

    fn push(&self, name: String, layer: &'static str, start_us: f64, end_us: f64, fork: bool) {
        let span = Span {
            name,
            layer,
            start_us,
            end_us,
            thread: THREAD.with(|t| *t),
            sweep: SWEEP.with(|s| s.borrow().clone()),
            fork,
            parent: None,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let out = f();
        self.push(name.to_string(), layer, start, self.now_us(), false);
        out
    }

    /// Runs `f`, which fans work out to worker threads, inside a span
    /// that the workers' spans nest under.
    pub fn fork_span<T>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let out = f();
        self.push(name.to_string(), layer, start, self.now_us(), true);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Assigns each span its innermost enclosing span and returns every
/// span's self time in µs, indexed like `spans`.
pub fn self_times(spans: &mut [Span]) -> Vec<f64> {
    for i in 0..spans.len() {
        let inner = &spans[i];
        let mut best: Option<usize> = None;
        for (j, outer) in spans.iter().enumerate() {
            let encloses = j != i
                && (outer.thread == inner.thread || outer.fork)
                && outer.start_us <= inner.start_us
                && inner.end_us <= outer.end_us
                // Equal intervals nest in recording order, never both ways.
                && (outer.dur() > inner.dur() || (outer.dur() == inner.dur() && j > i));
            if encloses && best.is_none_or(|b| outer.dur() < spans[b].dur()) {
                best = Some(j);
            }
        }
        spans[i].parent = best;
    }
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// Sums self time (ms) per layer.
pub fn layer_self_ms(spans: &[Span], self_us: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, us) in spans.iter().zip(self_us) {
        *out.entry(s.layer).or_insert(0.0) += us / 1e3;
    }
    out
}

/// Sums span durations (ms) by name.
pub fn span_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0.0) += s.dur() / 1e3;
    }
    out
}

#[derive(Debug, Clone)]
enum Mark {
    Started { op: String, at: f64 },
    Finished { at: f64 },
}

/// A `ProgressSink` that timestamps every stage event.
#[derive(Debug)]
pub struct TimingSink {
    marks: Mutex<Vec<(String, Mark)>>,
    epoch: Instant,
}

impl TimingSink {
    /// A sink timing against `rec`'s clock.
    pub fn new(rec: &Recorder) -> Self {
        TimingSink { marks: Mutex::new(Vec::new()), epoch: rec.epoch }
    }

    /// Turns the marks of run `label`, whose `run_observed` call spanned
    /// `start..end`, into spans on the current thread:
    /// - `pipeline.run`: the whole call;
    /// - `workloads.source`: call start to the first stage (validation,
    ///   DAG build and `PipelineConfig::source_relation`);
    /// - `pipeline.serial_pass`: first stage start to last stage end;
    /// - `core.stage.<op>`: each stage of the serial pass;
    /// - `pipeline.schedule`: last stage end to the end of the call
    ///   (schedule execution, planning, the silent planned-schedule race
    ///   of `auto`, and report assembly).
    pub fn record_run(&self, rec: &Recorder, label: &str, start: f64, end: f64) {
        let mut marks = self.marks.lock().expect("mark list poisoned");
        let (mine, rest): (Vec<_>, Vec<_>) = marks.drain(..).partition(|(l, _)| l == label);
        *marks = rest;
        drop(marks);
        rec.record("pipeline.run", "pipeline", start, end);
        let mut open: Option<(String, f64)> = None;
        let (mut first, mut last_stage) = (None, None);
        for (_, mark) in mine {
            match mark {
                Mark::Started { op, at } => {
                    first.get_or_insert(at);
                    open = Some((op, at));
                }
                Mark::Finished { at } => {
                    if let Some((op, began)) = open.take() {
                        rec.record(format!("core.stage.{op}"), "core", began, at);
                    }
                    last_stage = Some(at);
                }
            }
        }
        let (Some(first), Some(last_stage)) = (first, last_stage) else { return };
        rec.record("workloads.source", "workloads", start, first);
        rec.record("pipeline.serial_pass", "pipeline", first, last_stage);
        rec.record("pipeline.schedule", "pipeline", last_stage, end);
    }
}

impl ProgressSink for TimingSink {
    fn emit(&self, run: &str, event: &ProgressEvent) {
        let at = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mark = match event {
            ProgressEvent::StageStarted { op, .. } => Mark::Started { op: op.clone(), at },
            ProgressEvent::StageFinished { .. } => Mark::Finished { at },
            ProgressEvent::WaveCompleted { .. } | ProgressEvent::SweepPointDone { .. } => return,
        };
        self.marks.lock().expect("mark list poisoned").push((run.to_string(), mark));
    }
}

/// The real store behind a span around each stage and reference entry
/// call. The time between a reference-entry miss and the save of the
/// computed relation is the reference executor's (`ops.reference`).
#[derive(Debug)]
pub struct TracedStore {
    inner: Arc<Store>,
    rec: Arc<Recorder>,
}

impl TracedStore {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Arc<Store>, rec: Arc<Recorder>) -> Self {
        TracedStore { inner, rec }
    }
}

impl ExecStore for TracedStore {
    fn load_ref(&self, key: &[u8]) -> Option<Arc<[Tuple]>> {
        let out = self.rec.span("store.load_ref", "store", || self.inner.load_ref(key));
        if out.is_none() {
            REF_MISS_AT.with(|m| m.set(Some(self.rec.now_us())));
        }
        out
    }

    fn save_ref(&self, key: &[u8], rel: &[Tuple]) {
        if let Some(missed) = REF_MISS_AT.with(Cell::take) {
            self.rec.record("ops.reference", "ops", missed, self.rec.now_us());
        }
        self.rec.span("store.save_ref", "store", || self.inner.save_ref(key, rel));
    }

    fn load_stage(&self, key: &[u8]) -> Option<StageEntry> {
        self.rec.span("store.load_stage", "store", || self.inner.load_stage(key))
    }

    fn save_stage(&self, key: &[u8], entry: &StageEntry) {
        self.rec.span("store.save_stage", "store", || self.inner.save_stage(key, entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, start: f64, end: f64, thread: u64) -> Span {
        Span {
            name: name.into(),
            layer,
            start_us: start,
            end_us: end,
            thread,
            sweep: None,
            fork: false,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut spans = vec![
            span("root", "cli", 0.0, 100.0, 0),
            span("a", "core", 10.0, 40.0, 0),
            span("b", "core", 30.0, 60.0, 0),
            span("a.inner", "ops", 15.0, 20.0, 0),
        ];
        let st = self_times(&mut spans);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(1));
        // Overlapping children cover 10..60 once.
        assert_eq!(st, vec![50.0, 25.0, 30.0, 5.0]);
        let layers = layer_self_ms(&spans, &st);
        assert!((layers["core"] - 0.055).abs() < 1e-12);
    }

    #[test]
    fn other_threads_nest_only_under_fork_spans() {
        let mut spans = vec![span("fan", "cli", 0.0, 100.0, 0), span("w", "core", 10.0, 20.0, 1)];
        self_times(&mut spans);
        assert_eq!(spans[1].parent, None);
        spans[0].fork = true;
        let st = self_times(&mut spans);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(st, vec![90.0, 10.0]);
    }

    #[test]
    fn equal_intervals_nest_once() {
        let mut spans =
            vec![span("inner", "core", 0.0, 10.0, 0), span("outer", "cli", 0.0, 10.0, 0)];
        let st = self_times(&mut spans);
        assert_eq!(spans[0].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert_eq!(st, vec![10.0, 0.0]);
    }
}
