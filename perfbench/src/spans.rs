//! Outside-in span recording.
//!
//! The benchmark cannot instrument the simulator from inside, so it wraps
//! the simulator's two plug-in points — [`Agent`] (endpoints: hosts,
//! sinks, meters, TCP banks) and [`Qdisc`] (router buffers) — in
//! [`Timed`], and brackets the run-loop phases it drives itself. Every
//! callback into a wrapped object becomes a span on a per-thread stack,
//! so a span's *self* time is its duration minus its children's: a
//! packet a host sends is enqueued inside the host's callback, and that
//! enqueue is charged to the qdisc, not the host. What is left on the
//! run-loop phases is the engine itself: the event calendar, dispatch,
//! link transmission and routing.
//!
//! Per-call spans are folded into per-layer totals as they close (a run
//! makes millions of them); the coarse spans — one per scenario run and
//! one per phase inside it — are kept in memory and written out as JSON
//! lines when the benchmark ends.
//!
//! Recording a span costs time of its own, and the clock reads bound
//! only part of it: the rest (thread-local lookup, stack push and pop,
//! folding) lands in the enclosing span's self time, and a little lands
//! in the span's own. [`calibrate`] measures both shares on empty spans,
//! and [`Overhead::self_ns`] takes them back out.

use netsim::{Agent, Api, Dequeue, Packet, Qdisc};
use simcore::SimTime;
use std::any::Any;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// One layer boundary the benchmark can see from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A whole scenario run (the root span of one request).
    Run,
    /// Topology construction and agent attachment.
    Build,
    /// The run loop before the measurement window.
    Warmup,
    /// The run loop inside the measurement window.
    Measure,
    /// The run loop after the horizon, draining in-flight packets.
    Drain,
    /// Reading counters into a result.
    Collect,
    /// `eac::host::HostAgent` callbacks (admission, probing, data
    /// generation via the traffic models).
    Host,
    /// `eac::sink::SinkAgent` callbacks (probe accounting, verdicts).
    Sink,
    /// Measurement agents: the MBAC load meter, the Fig 11 link sampler.
    Monitor,
    /// `tcpsim` sender and receiver banks.
    Tcp,
    /// `Qdisc::enqueue_into`.
    Enqueue,
    /// `Qdisc::dequeue`.
    Dequeue,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Run,
        Layer::Build,
        Layer::Warmup,
        Layer::Measure,
        Layer::Drain,
        Layer::Collect,
        Layer::Host,
        Layer::Sink,
        Layer::Monitor,
        Layer::Tcp,
        Layer::Enqueue,
        Layer::Dequeue,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Build => "build",
            Layer::Warmup => "warmup",
            Layer::Measure => "measure",
            Layer::Drain => "drain",
            Layer::Collect => "collect",
            Layer::Host => "host",
            Layer::Sink => "sink",
            Layer::Monitor => "monitor",
            Layer::Tcp => "tcp",
            Layer::Enqueue => "enqueue",
            Layer::Dequeue => "dequeue",
        }
    }

    /// Coarse spans are kept individually; the rest only as totals.
    fn is_coarse(self) -> bool {
        matches!(
            self,
            Layer::Run
                | Layer::Build
                | Layer::Warmup
                | Layer::Measure
                | Layer::Drain
                | Layer::Collect
        )
    }
}

/// Accumulated time at one layer boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStat {
    pub calls: u64,
    /// Spans closed directly inside spans of this layer.
    pub children: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerStat {
    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &LayerStat) -> LayerStat {
        LayerStat {
            calls: self.calls - earlier.calls,
            children: self.children - earlier.children,
            total_ns: self.total_ns - earlier.total_ns,
            self_ns: self.self_ns - earlier.self_ns,
        }
    }
}

/// A closed coarse span. Spans of one scenario run share `run`.
#[derive(Clone, Debug)]
pub struct CoarseSpan {
    pub run: u64,
    pub layer: Layer,
    pub parent: Option<Layer>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    children: u64,
}

struct Recorder {
    epoch: Instant,
    run: u64,
    stack: Vec<Frame>,
    stats: [LayerStat; Layer::ALL.len()],
    coarse: Vec<CoarseSpan>,
    dequeued: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        run: 0,
        stack: Vec::with_capacity(16),
        stats: [LayerStat::default(); Layer::ALL.len()],
        coarse: Vec::new(),
        dequeued: 0,
    });
}

fn enter(layer: Layer) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if layer == Layer::Run {
            r.run += 1;
        }
        r.stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
        });
    });
}

fn exit() {
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let f = r.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        let s = &mut r.stats[f.layer as usize];
        s.calls += 1;
        s.children += f.children;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(f.child_ns);
        let parent = r.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.layer
        });
        if f.layer.is_coarse() {
            let start_ns = f.start.duration_since(r.epoch).as_nanos() as u64;
            let run = r.run;
            r.coarse.push(CoarseSpan {
                run,
                layer: f.layer,
                parent,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// Run `f` inside a span at `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let out = f();
    exit();
    out
}

/// Per-layer totals accumulated so far.
pub fn stats() -> [LayerStat; Layer::ALL.len()] {
    REC.with(|r| r.borrow().stats)
}

/// Dequeue calls that returned a packet so far.
pub fn dequeued() -> u64 {
    REC.with(|r| r.borrow().dequeued)
}

/// Take the closed coarse spans recorded so far.
pub fn take_coarse() -> Vec<CoarseSpan> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().coarse))
}

/// What recording one span adds to the measured times, nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Overhead {
    /// Added to the enclosing span's self time.
    pub outer_ns: f64,
    /// Added to the span's own self time.
    pub inner_ns: f64,
}

impl Overhead {
    /// The self time the program itself spent in spans with totals `s`,
    /// the recording cost taken out.
    pub fn self_ns(&self, s: &LayerStat) -> f64 {
        let cost = s.children as f64 * self.outer_ns + s.calls as f64 * self.inner_ns;
        (s.self_ns as f64 - cost).max(0.0)
    }
}

/// Measure the recording cost on empty spans nested in one outer span
/// (the median of several trials), then clear every total so the
/// calibration leaves no trace in the benchmark's figures.
pub fn calibrate() -> Overhead {
    const SPANS: u64 = 100_000;
    const TRIALS: usize = 7;
    let mut outer = Vec::with_capacity(TRIALS);
    let mut inner = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let before = stats();
        span(Layer::Host, || {
            for i in 0..SPANS {
                span(Layer::Sink, || black_box(i));
            }
        });
        let after = stats();
        let per_span =
            |l: Layer| after[l as usize].since(&before[l as usize]).self_ns as f64 / SPANS as f64;
        outer.push(per_span(Layer::Host));
        inner.push(per_span(Layer::Sink));
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stats = [LayerStat::default(); Layer::ALL.len()];
        r.coarse.clear();
        r.dequeued = 0;
    });
    Overhead {
        outer_ns: crate::median(outer),
        inner_ns: crate::median(inner),
    }
}

/// An agent or qdisc whose every callback is recorded as a span at
/// `layer`. As an agent it downcasts to the wrapped type, so code that
/// reads results through `Sim::agent::<T>()` works unchanged.
pub struct Timed<T> {
    inner: T,
    layer: Layer,
}

impl<T> Timed<T> {
    /// Wrap an agent; its callbacks are charged to `layer`.
    pub fn agent(layer: Layer, inner: T) -> Box<Self> {
        Box::new(Timed { inner, layer })
    }

    /// Wrap a qdisc; its calls are charged to [`Layer::Enqueue`] and
    /// [`Layer::Dequeue`].
    pub fn qdisc(inner: T) -> Box<Self> {
        Box::new(Timed {
            inner,
            layer: Layer::Enqueue,
        })
    }
}

impl<T: Agent + 'static> Agent for Timed<T> {
    fn on_start(&mut self, api: &mut Api) {
        span(self.layer, || self.inner.on_start(api))
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        span(self.layer, || self.inner.on_packet(pkt, api))
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        span(self.layer, || self.inner.on_timer(kind, data, api))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

impl<T: Qdisc> Qdisc for Timed<T> {
    fn enqueue_into(&mut self, pkt: Packet, now: SimTime, evicted: &mut Vec<Packet>) -> bool {
        span(Layer::Enqueue, || {
            self.inner.enqueue_into(pkt, now, evicted)
        })
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeue {
        let d = span(Layer::Dequeue, || self.inner.dequeue(now));
        if let Dequeue::Packet(_) = d {
            REC.with(|r| r.borrow_mut().dequeued += 1);
        }
        d
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}
