//! Wall-clock benchmark of the endpoint-admission-control simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <basic|hetero-mark|multihop-mbac|coexist> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run makes its scenario from the seed (see `workload`), then:
//!
//! 1. runs it once, untimed, to warm up and to fix the result every later
//!    run of it must reproduce bit for bit;
//! 2. runs rounds until `--seconds` have passed; a round times the
//!    scenario's set-up (`setup_s`) on the library's own driver, and one
//!    run of it, in slices, on a plain replica of that driver, whose
//!    result must agree with the library's;
//! 3. reports host time per simulated data packet (`ns_per_packet`), the
//!    set-up time, and the process's peak memory.
//!
//! Data packets, not events, are the unit of work: a change that keeps
//! the results bit-identical cannot change how many packets a scenario
//! carries, but may well change how many events it takes to carry them.
//!
//! With `--trace 1` the rounds run the scenario on a traced replica of
//! its driver instead (see `replica`, `spans`), which must agree with the
//! library, and the run reports per-layer costs. Spans are written to
//! `perfbench/traces/` as JSON lines. What each layer metric should move,
//! on which workload:
//!
//! - `engine_ns_per_event`, `events_per_hop` (calendar, dispatch, links,
//!   routing): `ns_per_packet` everywhere; fewer events per packet-hop
//!   shows only in `events_per_hop`, as the event cost may not drop.
//! - `host_ns_per_call` (admission, probing, traffic generation):
//!   `ns_per_packet` on `basic` and `hetero-mark`, where hosts take a
//!   third of the run; least on `coexist`, where TCP sends over a quarter
//!   of the packets.
//! - `sink_ns_per_call`: the same workloads, a fifth as much.
//! - `qdisc_ns_per_op`, `dequeue_hit_share`: most on `multihop-mbac` and
//!   `coexist`, where qdiscs take nearly twice the share they take on
//!   `basic`.
//! - `tcp_share` on `coexist`, `monitor_share` on `multihop-mbac` (the
//!   MBAC load meter) and `coexist` (the link sampler); both are 0 where
//!   the layer is absent.
//! - `setup_s` moves with topology size: `multihop-mbac` most.
//!
//! The last line on stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod reference;
mod replica;
mod spans;
mod workload;

use spans::Layer;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Digest, Instance};

const USAGE: &str = "usage: perfbench --workload <basic|hetero-mark|multihop-mbac|coexist> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Builds of the scenario timed together as one `setup_s` sample.
const SETUP_BATCH: usize = 50;
/// `setup_s` samples a round takes.
const SETUP_SAMPLES: usize = 8;
/// Timed runs a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one run prints.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one scenario run; it fails unless it reproduced `expected`.
    fn tally(&mut self, got: Result<&Digest, &String>, expected: &Result<Digest, String>) {
        self.attempted += 1;
        let ok = matches!((got, expected), (Ok(g), Ok(e)) if g.agrees(e));
        if !ok {
            self.failed += 1;
            if let Err(e) = got {
                eprintln!("run failed: {e}");
            }
        }
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && finite,
            self.attempted,
            self.failed
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Warm-up: one untimed library run; its result is the reference every
/// later run must reproduce.
fn warm_up(inst: &Instance, out: &mut Outcome) -> Result<Digest, String> {
    let r = inst.run();
    out.tally(r.as_ref(), &r);
    r
}

/// End-to-end run: set-up time and host time per simulated packet.
///
/// The set-up is timed on the library's own driver. The run is timed on
/// the driver's plain replica (see `replica::Sliced`), which adds nothing
/// to the simulation but stops the run loop every tenth of a second or so
/// to time a fixed reference loop: a shared or virtualised host can run
/// a third slower for seconds at a time, and only a timing taken right
/// next to the work cancels that drift (see `reference`). The run time is
/// the sum over slices of each slice's median over the rounds.
fn timed(inst: &Instance, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expected = warm_up(inst, &mut out);
    let packets = expected.as_ref().map_or(0, |d| d.packets);

    let mut setup = Vec::new();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    let mut rounds = 0;
    let start = Instant::now();
    while rounds < MIN_ROUNDS || secs_since(start) < seconds {
        let before = reference::time();
        let mut setup_s = [0.0; SETUP_SAMPLES];
        for s in &mut setup_s {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                inst.set_up();
            }
            *s = secs_since(t) / SETUP_BATCH as f64;
        }
        let after = reference::time();
        let scale = reference::NOMINAL_S / ((before + after) / 2.0);
        setup.extend(setup_s.iter().map(|s| s * scale));

        let mut h = replica::Sliced::new(inst.slice());
        let got = inst.run_replica(&mut h);
        out.tally(Ok(&got), &expected);
        if slices.is_empty() {
            slices = vec![Vec::new(); h.times.len()];
        }
        if h.times.len() != slices.len() {
            return Err("a run made a different number of slices".into());
        }
        for (k, t) in h.times.into_iter().enumerate() {
            slices[k].push(t);
        }
        rounds += 1;
    }
    let run_s: f64 = slices.into_iter().map(median).sum();
    out.metrics = vec![
        ("ns_per_packet", run_s / packets as f64 * 1e9, "ns"),
        ("setup_s", median(setup), "s"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    Ok(out)
}

/// Traced run: after the library's reference run, each round runs the
/// scenario on its traced replica; the per-layer metrics come from the
/// spans, with the recording cost taken out (see [`spans::calibrate`])
/// and times taken at reference speed as in [`timed`].
fn traced(inst: &Instance, seconds: f64, trace_file: &str) -> Result<Outcome, String> {
    let overhead = spans::calibrate();
    eprintln!(
        "span recording cost: {:.1} ns to the parent, {:.1} ns to the span",
        overhead.outer_ns, overhead.inner_ns
    );
    let mut out = Outcome::default();
    let expected = warm_up(inst, &mut out);

    let mut self_ns = [0.0; Layer::ALL.len()];
    let (mut events, mut runs) = (0u64, 0u64);
    let mut seen = spans::stats();
    let mut before = reference::time();
    let start = Instant::now();
    while runs == 0 || secs_since(start) < seconds {
        let replica = inst.run_replica(&mut replica::Traced);
        out.tally(Ok(&replica), &expected);
        events += replica.events.expect("replicas count events");
        runs += 1;

        let after = reference::time();
        let scale = reference::NOMINAL_S / ((before + after) / 2.0);
        before = after;
        let now = spans::stats();
        for (acc, (n, s)) in self_ns.iter_mut().zip(now.iter().zip(&seen)) {
            *acc += overhead.self_ns(&n.since(s)) * scale;
        }
        seen = now;
    }

    // Self times partition each run, so their sum is the run's own time.
    let whole_ns: f64 = self_ns.iter().sum();
    let ns = |l: Layer| self_ns[l as usize];
    let share = |l: Layer| ns(l) / whole_ns;
    let calls = |l: Layer| seen[l as usize].calls as f64;
    let engine = ns(Layer::Warmup) + ns(Layer::Measure) + ns(Layer::Drain);
    let qdisc = ns(Layer::Enqueue) + ns(Layer::Dequeue);
    let hops = calls(Layer::Enqueue);
    out.metrics = vec![
        ("engine_ns_per_event", engine / events as f64, "ns"),
        (
            "qdisc_ns_per_op",
            qdisc / (hops + calls(Layer::Dequeue)),
            "ns",
        ),
        (
            "host_ns_per_call",
            ns(Layer::Host) / calls(Layer::Host),
            "ns",
        ),
        (
            "sink_ns_per_call",
            ns(Layer::Sink) / calls(Layer::Sink),
            "ns",
        ),
        ("engine_share", engine / whole_ns, "ratio"),
        ("qdisc_share", qdisc / whole_ns, "ratio"),
        ("host_share", share(Layer::Host), "ratio"),
        ("sink_share", share(Layer::Sink), "ratio"),
        ("tcp_share", share(Layer::Tcp), "ratio"),
        ("monitor_share", share(Layer::Monitor), "ratio"),
        ("events_per_run", events as f64 / runs as f64, "count"),
        ("events_per_hop", events as f64 / hops, "ratio"),
        (
            "dequeue_hit_share",
            spans::dequeued() as f64 / calls(Layer::Dequeue),
            "ratio",
        ),
    ];
    write_trace(trace_file, &seen).map_err(|e| format!("writing {trace_file}: {e}"))?;
    Ok(out)
}

/// Write the coarse spans and the per-layer totals as JSON lines.
fn write_trace(path: &str, st: &[spans::LayerStat]) -> std::io::Result<()> {
    let mut text = String::new();
    for sp in spans::take_coarse() {
        let parent = sp
            .parent
            .map_or("null".into(), |p| format!("\"{}\"", p.name()));
        let _ = writeln!(
            text,
            "{{\"run\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.run,
            sp.layer.name(),
            sp.start_ns,
            sp.end_ns
        );
    }
    for l in Layer::ALL {
        let x = st[l as usize];
        let _ = writeln!(
            text,
            "{{\"layer\": \"{}\", \"calls\": {}, \"children\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            l.name(),
            x.calls,
            x.children,
            x.total_ns,
            x.self_ns
        );
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(inst) = workload::instance(&args.workload, args.seed) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let result = if args.trace {
        let file = format!(
            "{}/traces/{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        traced(&inst, args.seconds, &file)
    } else {
        timed(&inst, args.seconds)
    };
    match result {
        Ok(out) => println!("{}", out.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
