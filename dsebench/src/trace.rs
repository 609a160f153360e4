//! In-memory spans around every call the traced replay makes into a
//! layer, and the per-layer self times derived from them.
//!
//! A span's *self time* is its duration minus what its children cover.
//! Children of a parallel span (`core.engine` over a worker pool) run on
//! several threads at once; each is weighted by `1 / workers`, so a
//! worker pool's wall time splits into its workers' busy layers plus
//! the pool's own idle share, and self times still add up to the
//! answer's wall time.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span within a run; 0 is "no parent".
pub type SpanId = u32;

/// Every layer the replay times, as `module.call`.
pub const LAYERS: [&str; 17] = [
    "ir.parse",
    "ir.canon",
    "xform.prepare",
    "xform.variant",
    "xform.transform",
    "xform.census",
    "synth.model",
    "synth.price",
    "synth.estimate",
    "cache.lookup",
    "cache.insert",
    "cache.flush",
    "core.memo",
    "core.space",
    "core.search",
    "core.strategy",
    "core.engine",
];

/// The root span of one answer; its self time is the harness's glue.
pub const ROOT: &str = "bench.answer";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub answer: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub thread: u32,
    /// Worker threads the span's children are spread over (1 unless the
    /// span is a parallel section).
    pub workers: u32,
    /// False for a span that only frees the layer's state: it adds self
    /// time, not a call.
    pub call: bool,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records spans from any thread into one buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    answer: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            answer: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Time `f` as span `name` under `parent`; `f` gets the new span's id
    /// to parent its own calls.
    pub fn span<R>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        self.record(parent, name, 1, true, f)
    }

    /// [`Tracer::span`] for a section whose children run on `workers`
    /// threads.
    pub fn parallel<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        workers: usize,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.record(parent, name, workers, true, f)
    }

    /// Drop `value` in a span of `layer`, so freeing what a layer built
    /// counts as that layer's time rather than the caller's.
    pub fn free<T>(&self, parent: SpanId, layer: &'static str, value: T) {
        self.record(parent, layer, 1, false, |_| drop(value));
    }

    fn record<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        workers: usize,
        call: bool,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let span = Span {
            id,
            parent,
            answer: self.answer.load(Ordering::Relaxed),
            name,
            start,
            end,
            thread: THREAD.with(|t| *t),
            workers: workers.max(1) as u32,
            call,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start answer `id`: later spans carry it.
    pub fn begin(&self, id: u32) {
        self.answer.store(id, Ordering::Relaxed);
    }

    /// Take every span recorded so far. The buffer keeps its capacity, so
    /// recording the next answer does not grow it inside the answer's
    /// spans.
    pub fn drain(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .drain(..)
            .collect()
    }
}

/// Self time and calls of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: f64,
}

/// Where one answer's wall time went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub wall_ns: f64,
    pub glue_ns: f64,
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Summed child time inside parallel sections, and their capacity
    /// (workers × duration).
    pub engine_busy_ns: f64,
    pub engine_capacity_ns: f64,
}

impl Breakdown {
    /// Attribute the spans of one answer, checking that the span tree is
    /// well formed: one root, every child inside its parent's interval,
    /// no self time below zero, self times summing to the root's wall.
    pub fn of(spans: &[Span]) -> Result<Breakdown, String> {
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        let [root] = roots.as_slice() else {
            return Err(format!("{} root spans, expected one", roots.len()));
        };
        if root.name != ROOT {
            return Err(format!("root span is {}", root.name));
        }
        let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            let p = by_id
                .get(&s.parent)
                .ok_or_else(|| format!("{} has no parent in its answer", s.name))?;
            if s.start < p.start || s.end > p.end {
                return Err(format!("{} is outside its parent {}", s.name, p.name));
            }
            children.entry(s.parent).or_default().push(s);
        }
        let mut out = Breakdown {
            wall_ns: (root.end - root.start) as f64,
            ..Breakdown::default()
        };
        let mut total = 0.0;
        let mut stack = vec![(*root, 1.0f64)];
        while let Some((s, weight)) = stack.pop() {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let child_weight = weight / f64::from(s.workers);
            let covered: f64 = kids.iter().map(|c| (c.end - c.start) as f64).sum();
            let dur = (s.end - s.start) as f64;
            let self_ns = weight * dur - child_weight * covered;
            if self_ns < -1e-6 * out.wall_ns {
                return Err(format!(
                    "{} children overlap ({self_ns:.0} ns self)",
                    s.name
                ));
            }
            total += self_ns;
            if s.name == ROOT {
                out.glue_ns += self_ns;
            } else {
                let l = out.layers.entry(s.name).or_default();
                l.calls += u64::from(s.call);
                l.self_ns += self_ns;
            }
            if s.name == "core.engine" {
                out.engine_busy_ns += covered;
                out.engine_capacity_ns += f64::from(s.workers) * dur;
            }
            stack.extend(kids.iter().map(|c| (*c, child_weight)));
        }
        if (total - out.wall_ns).abs() > 1e-6 * out.wall_ns.max(1.0) {
            return Err(format!(
                "self times sum to {total:.0} ns, answer took {:.0} ns",
                out.wall_ns
            ));
        }
        Ok(out)
    }

    pub fn add(&mut self, other: &Breakdown) {
        self.wall_ns += other.wall_ns;
        self.glue_ns += other.glue_ns;
        self.engine_busy_ns += other.engine_busy_ns;
        self.engine_capacity_ns += other.engine_capacity_ns;
        for (name, l) in &other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.calls += l.calls;
            mine.self_ns += l.self_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64, workers: u32) -> Span {
        Span {
            id,
            parent,
            answer: 0,
            name,
            start,
            end,
            thread: 0,
            workers,
            call: true,
        }
    }

    #[test]
    fn self_times_sum_to_wall() {
        let spans = [
            span(1, 0, ROOT, 0, 100, 1),
            span(2, 1, "core.space", 0, 10, 1),
            span(3, 1, "core.engine", 10, 90, 2),
            span(4, 3, "xform.transform", 10, 90, 1),
            span(5, 3, "xform.transform", 10, 50, 1),
            span(6, 4, "synth.estimate", 20, 30, 1),
        ];
        let b = Breakdown::of(&spans).unwrap();
        assert_eq!(b.wall_ns, 100.0);
        assert_eq!(b.glue_ns, 10.0);
        // Two workers over 80 ns: 120 ns busy, 40 ns idle → 20 ns of wall.
        assert_eq!(b.layers["core.engine"].self_ns, 20.0);
        assert_eq!(b.layers["xform.transform"].calls, 2);
        assert_eq!(b.layers["xform.transform"].self_ns, 55.0);
        assert_eq!(b.layers["synth.estimate"].self_ns, 5.0);
        assert_eq!(b.engine_busy_ns / b.engine_capacity_ns, 0.75);
    }

    #[test]
    fn malformed_trees_are_refused() {
        let escaped = [
            span(1, 0, ROOT, 0, 100, 1),
            span(2, 1, "ir.parse", 50, 120, 1),
        ];
        assert!(Breakdown::of(&escaped).is_err());
        let overlapping = [
            span(1, 0, ROOT, 0, 100, 1),
            span(2, 1, "ir.parse", 0, 60, 1),
            span(3, 1, "ir.canon", 40, 100, 1),
        ];
        assert!(Breakdown::of(&overlapping).is_err());
        let orphan = [
            span(1, 0, ROOT, 0, 100, 1),
            span(2, 9, "ir.parse", 0, 60, 1),
        ];
        assert!(Breakdown::of(&orphan).is_err());
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let t = Tracer::default();
        t.begin(7);
        t.span(0, ROOT, |root| {
            t.parallel(root, "core.engine", 2, |engine| {
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| t.span(engine, "xform.transform", |_| ()));
                    }
                });
            });
            t.free(root, "xform.transform", vec![0u8; 64]);
        });
        let spans = t.drain();
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.answer == 7));
        let b = Breakdown::of(&spans).unwrap();
        // Freeing adds time to the layer, not a call.
        assert_eq!(b.layers["xform.transform"].calls, 2);
        assert!(t.drain().is_empty());
    }
}
