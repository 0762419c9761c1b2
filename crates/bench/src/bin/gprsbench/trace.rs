//! Outside-in tracing: spans the harness records around the public calls
//! it makes, and decorators it owns around the public seams the engine
//! calls back through (`ThreadProgram`/`Checkpoint`, `PersistBackend`).
//!
//! Nothing here touches engine internals. Spans are kept in memory and
//! written as one JSON file when the traced run ends.

use gprs_core::history::Checkpoint;
use gprs_core::persist::{DurableImage, DurableRecord, PersistBackend, PersistError, PersistStats};
use gprs_runtime::ctx::StepCtx;
use gprs_runtime::program::{Step, ThreadProgram};
use gprs_telemetry::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One closed (or still open: `end_ns == 0`) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one run (one job, one resume cycle) share this id.
    pub run: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span operation panics while holding the lock")
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn close(&self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        span.ns()
    }

    /// Runs `f` inside a span and returns its value with the span's id.
    pub fn scoped<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, run);
        let out = f(id);
        self.close(id);
        (out, id)
    }

    pub fn ns(&self, id: SpanId) -> u64 {
        self.lock()[id as usize].ns()
    }

    pub fn name(&self, id: SpanId) -> &'static str {
        self.lock()[id as usize].name
    }

    /// A span's duration minus the part of it its child spans cover
    /// (children may overlap one another: they run on other threads).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let spans = self.lock();
        self_ns_of(&spans, id)
    }

    /// Count and summed duration of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        let spans = self.lock();
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Mean duration in microseconds of the spans called `name` (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        ns as f64 / 1e3 / n.max(1) as f64
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `{"workload":…,"spans":[{"id","name","start_ns","end_ns","parent","run"}…]}`
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.lock();
        let mut w = JsonWriter::new();
        w.begin_object().field_str("workload", workload);
        w.key("spans").begin_array();
        for (id, s) in spans.iter().enumerate() {
            w.begin_object()
                .field_u64("id", id as u64)
                .field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("run", u64::from(s.run));
            if let Some(p) = s.parent {
                w.field_u64("parent", u64::from(p));
            }
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn self_ns_of(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut edge = me.start_ns;
    for (a, b) in kids {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    me.ns() - covered
}

/// The per-layer numbers of one traced run, by metric name.
#[derive(Debug)]
pub struct Layers {
    pub workload: &'static str,
    pub values: BTreeMap<&'static str, f64>,
    /// Lines for the human report that are not metrics (shares, ranges).
    pub notes: Vec<String>,
    pub tracer: Arc<Tracer>,
}

impl Layers {
    pub fn new(workload: &'static str) -> Layers {
        Layers {
            workload,
            values: BTreeMap::new(),
            notes: Vec::new(),
            tracer: Arc::new(Tracer::default()),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Calls and nanoseconds of one decorated function.
#[derive(Debug, Default)]
pub struct CallCounter {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CallCounter {
    /// Times `f`. `Relaxed`: the counters are statistics read after the
    /// run's threads have been joined.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> f64 {
        self.ns() as f64 / self.calls().max(1) as f64
    }
}

/// What the program decorator saw, summed over a run's logical threads.
#[derive(Debug, Default)]
pub struct ProgramProbe {
    pub step: CallCounter,
    pub checkpoint: CallCounter,
    pub restore: CallCounter,
}

impl ProgramProbe {
    pub fn total_ns(&self) -> u64 {
        self.step.ns() + self.checkpoint.ns() + self.restore.ns()
    }
}

/// Decorates a thread program: every `step`, `checkpoint` and `restore`
/// the engine makes is timed from outside.
pub struct Traced<P> {
    inner: P,
    probe: Arc<ProgramProbe>,
}

impl<P> Traced<P> {
    pub fn new(inner: P, probe: Arc<ProgramProbe>) -> Self {
        Traced { inner, probe }
    }
}

impl<P: Checkpoint> Checkpoint for Traced<P> {
    type Snapshot = P::Snapshot;
    fn checkpoint(&self) -> P::Snapshot {
        self.probe.checkpoint.time(|| self.inner.checkpoint())
    }
    fn restore(&mut self, snapshot: &P::Snapshot) {
        let Traced { inner, probe } = self;
        probe.restore.time(|| inner.restore(snapshot));
    }
}

impl<P> ThreadProgram for Traced<P>
where
    P: ThreadProgram,
    P::Snapshot: Sized,
{
    fn step(&mut self, ctx: &mut StepCtx<'_>) -> Step {
        let Traced { inner, probe } = self;
        probe.step.time(|| inner.step(ctx))
    }
}

/// Registers `program` on `b`, decorated when a probe is given. One
/// function so the traced and untraced runs are wired identically.
pub fn add_thread<P>(
    b: &mut gprs_runtime::GprsBuilder,
    program: P,
    group: gprs_core::ids::GroupId,
    weight: u32,
    probe: Option<&Arc<ProgramProbe>>,
) -> gprs_core::ids::ThreadId
where
    P: ThreadProgram,
    P::Snapshot: Sized,
{
    match probe {
        Some(p) => b.thread(Traced::new(program, p.clone()), group, weight),
        None => b.thread(program, group, weight),
    }
}

/// Decorates a persistence backend. `record` is called several times per
/// grant, so it is counted, not spanned; `put_chunk`, `sync` and `load`
/// are rare enough to get a span each, parented on whatever span the
/// harness last declared current with [`TracedBackend::enter`].
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn PersistBackend>,
    tracer: Arc<Tracer>,
    parent: AtomicU32,
    run: AtomicU32,
    pub record: CallCounter,
}

const NO_PARENT: u32 = u32::MAX;

impl TracedBackend {
    pub fn new(inner: Arc<dyn PersistBackend>, tracer: Arc<Tracer>) -> Self {
        TracedBackend {
            inner,
            tracer,
            parent: AtomicU32::new(NO_PARENT),
            run: AtomicU32::new(0),
            record: CallCounter::default(),
        }
    }

    /// Declares the span (and run) that backend calls made from now on
    /// belong to. `SeqCst`: set by the harness thread before it starts the
    /// workers that read it.
    pub fn enter(&self, parent: SpanId, run: u32) {
        self.parent.store(parent, Ordering::SeqCst);
        self.run.store(run, Ordering::SeqCst);
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent.load(Ordering::SeqCst);
        let parent = (parent != NO_PARENT).then_some(parent);
        self.tracer
            .scoped(name, parent, self.run.load(Ordering::SeqCst), |_| f())
            .0
    }
}

impl PersistBackend for TracedBackend {
    fn record(&self, rec: &DurableRecord) -> Result<(), PersistError> {
        self.record.time(|| self.inner.record(rec))
    }
    fn put_chunk(&self, bytes: &[u8]) -> Result<u64, PersistError> {
        self.span("core.persist.put_chunk", || self.inner.put_chunk(bytes))
    }
    fn get_chunk(&self, hash: u64) -> Option<Vec<u8>> {
        self.inner.get_chunk(hash)
    }
    fn sync(&self) -> Result<(), PersistError> {
        self.span("core.persist.sync", || self.inner.sync())
    }
    fn stats(&self) -> PersistStats {
        self.inner.stats()
    }
    fn load(&self) -> Result<DurableImage, PersistError> {
        self.span("core.persist.load", || self.inner.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span("run", 100, 1100, None),
            // Two overlapping children (two worker threads) cover 200..600.
            span("sync", 200, 500, Some(0)),
            span("sync", 400, 600, Some(0)),
            // A disjoint child, and one that sticks out past its parent.
            span("put_chunk", 700, 800, Some(0)),
            span("sync", 1000, 1300, Some(0)),
            // A grandchild belongs to its own parent only.
            span("inner", 210, 220, Some(1)),
            // Someone else's child.
            span("sync", 300, 900, Some(5)),
        ];
        // 1000 − (400 + 100 + 100)
        assert_eq!(self_ns_of(&spans, 0), 400);
        assert_eq!(self_ns_of(&spans, 1), 290);
        assert_eq!(self_ns_of(&spans, 3), 100);
    }

    #[test]
    fn tracer_nests_totals_and_serializes() {
        let t = Tracer::default();
        let ((), run) = t.scoped("run", None, 7, |run| {
            t.scoped("build", Some(run), 7, |_| ());
            t.scoped("build", Some(run), 7, |_| ());
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.total("build").0, 2);
        assert!(t.self_ns(run) <= t.ns(run));
        let json = t.to_json("chain");
        assert!(json.starts_with("{\"workload\":\"chain\",\"spans\":[{\"id\":0,\"name\":\"run\""));
        assert!(json.contains("\"parent\":0") && json.contains("\"run\":7"));
    }

    #[test]
    fn backend_decorator_counts_records_and_spans_syncs() {
        let tracer = Arc::new(Tracer::default());
        let mem: Arc<dyn PersistBackend> = Arc::new(gprs_core::persist::MemoryBackend::new());
        let b = TracedBackend::new(mem, tracer.clone());
        let parent = tracer.open("run", None, 3);
        b.enter(parent, 3);
        b.record(&DurableRecord::Spec { text: "x".into() }).unwrap();
        b.record(&DurableRecord::Spec { text: "y".into() }).unwrap();
        b.sync().unwrap();
        let image = b.load().unwrap();
        tracer.close(parent);
        assert_eq!(image.spec.as_deref(), Some("y"));
        assert_eq!(b.record.calls(), 2);
        assert_eq!(tracer.total("core.persist.sync").0, 1);
        assert_eq!(tracer.total("core.persist.load").0, 1);
        assert!(tracer.self_ns(parent) < tracer.ns(parent));
    }
}
