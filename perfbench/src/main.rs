//! Host-cost benchmark of the HOMP runtime: per offload, per served
//! request and per pipeline, end to end and layer by layer.
//!
//! ```text
//! homp-perfbench --workload <offload_mix|chunk_stream|serve_mix|pipeline_region>
//!                --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Every workload is a single-threaded closed loop over *rounds*: a
//! fixed, seed-derived sequence of ops (offloads, served requests or
//! pipelines). Every op's output is checked, and every round's digest of
//! simulated makespans, counts and engine op counts must match the
//! reference round's. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` records spans around each layer call and prints the
//! per-layer metrics. The last stdout line is one JSON object. See
//! `README.md`.

mod alloc;
mod calibrate;
mod directives;
mod kernel;
mod replay;
mod spans;
mod stats;
mod workloads;

use calibrate::Reference;
use homp_sim::TraceLevel;
use stats::{mean, percentile, Digest};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// How a round runs.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Trace level of the runtime under test.
    pub level: TraceLevel,
    /// Also time the per-layer probes (planning, `DataPlan`, engine
    /// replay, plain-offload comparison) between ops.
    pub probes: bool,
}

/// What one round measured. Counts are round totals; `walls_ns` and
/// `sim_ms` hold one entry per op.
#[derive(Default, Clone)]
pub struct RoundOut {
    pub ops: u64,
    pub failed: u64,
    pub walls_ns: Vec<u64>,
    pub sim_ms: Vec<f64>,
    pub digest: Digest,
    pub engine_ops: u64,
    pub exec_calls: u64,
    pub trace_events: u64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
    pub chunks: u64,
    pub imbalance_pct_sum: f64,
    pub requeued_chunks: u64,
    pub retries: u64,
    pub host_iters: u64,
    pub iters_done: u64,
    pub iters_attempted: u64,
    pub h2d_bytes: u64,
    pub elided_bytes: u64,
    pub overlap_ms: f64,
    pub pipeline_chunks: u64,
    pub queue_delay_ms: Vec<f64>,
    pub master_trace_events: u64,
}

impl RoundOut {
    fn clear(&mut self) {
        let mut walls = std::mem::take(&mut self.walls_ns);
        let mut sim = std::mem::take(&mut self.sim_ms);
        let mut qd = std::mem::take(&mut self.queue_delay_ms);
        walls.clear();
        sim.clear();
        qd.clear();
        *self = RoundOut {
            walls_ns: walls,
            sim_ms: sim,
            queue_delay_ms: qd,
            ..Default::default()
        };
    }

    /// Count one op's allocations: `before` is [`alloc::snapshot`]
    /// taken right before the call into the program.
    pub fn add_allocs(&mut self, before: (u64, u64)) {
        let after = alloc::snapshot();
        self.alloc_count += after.0 - before.0;
        self.alloc_bytes += after.1 - before.1;
    }
}

/// A workload: state built once by its set-up, then run round by round.
pub trait Workload {
    fn round(&mut self, mode: Mode, out: &mut RoundOut);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("homp-perfbench: {msg}");
    eprintln!(
        "usage: homp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        spans: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => {
                a.seed = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(val)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    a
}

/// Op wall samples kept per run.
const SAMPLE_CAP: usize = 4 << 20;
/// Spans stored for the traced run's span file.
const SPAN_CAP: usize = 1 << 16;
/// The untraced run is cut into blocks of whole rounds, at least this
/// long, each followed by one timed set-up.
const BLOCK: Duration = Duration::from_millis(250);
/// Share of blocks, fastest first by median op time on the reference
/// time scale, that the untraced timings are taken from — more if they
/// hold fewer than [`MIN_KEPT_OPS`] ops, the fewest a p99 needs.
const FASTEST_SHARE: f64 = 0.25;
const MIN_KEPT_OPS: usize = 1000;
/// Least time between two timings of the host-speed reference.
const REF_EVERY: Duration = Duration::from_millis(1);

/// Op wall times in ns, up to [`SAMPLE_CAP`].
#[derive(Default)]
struct Samples(Vec<u32>);

impl Samples {
    fn extend(&mut self, walls: &[u64]) {
        let room = SAMPLE_CAP.saturating_sub(self.0.len());
        self.0.extend(
            walls
                .iter()
                .take(room)
                .map(|&w| w.min(u64::from(u32::MAX)) as u32),
        );
    }

    /// Samples in `range`, in µs, scaled by `factor`.
    fn us(&self, range: Range<usize>, factor: f64) -> Vec<f64> {
        self.0[range]
            .iter()
            .map(|&n| f64::from(n) / 1e3 * factor)
            .collect()
    }

    fn all_us(&self) -> Vec<f64> {
        self.us(0..self.0.len(), 1.0)
    }
}

/// Ops attempted and failed so far, and rounds whose digest diverged.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    diverged: u64,
}

/// Run one round and check it against the reference digest: a round
/// that diverges fails all its ops.
fn run_round(
    w: &mut dyn Workload,
    mode: Mode,
    reference: Digest,
    samples: &mut Samples,
    out: &mut RoundOut,
    tally: &mut Tally,
) {
    out.clear();
    w.round(mode, out);
    tally.attempted += out.ops;
    tally.failed += out.failed;
    if out.digest != reference {
        tally.diverged += 1;
        tally.failed += out.ops - out.failed;
    }
    samples.extend(&out.walls_ns);
}

/// Build the workload once more, drop it, and return the seconds the
/// build took.
fn timed_setup(args: &Args) -> f64 {
    let t = Instant::now();
    let w = workloads::build(&args.workload, args.seed);
    let secs = t.elapsed().as_secs_f64();
    drop(w);
    secs
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric list printed as the `metrics` object, in order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn print_metrics(correct: bool, tally: &Tally, metrics: &Metrics) {
    for (name, v, unit) in metrics {
        println!("  {name:<30} {v:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Per-op ratio of a total (0 when there were no ops).
fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

fn main() {
    let args = parse_args();
    spans::init(if args.trace { SPAN_CAP } else { 0 });

    spans::set_enabled(args.trace);
    let mut w = workloads::build(&args.workload, args.seed);
    spans::set_enabled(false);
    let w = w.as_mut();

    // ---- determinism: a warm-up round, then the reference round ------
    let full = Mode {
        level: TraceLevel::Full,
        probes: false,
    };
    let mut out = RoundOut::default();
    w.round(full, &mut out);
    let first = out.clone();
    out.clear();
    w.round(full, &mut out);
    let reference = out.clone();
    let deterministic =
        first.digest == reference.digest && first.engine_ops == reference.engine_ops;
    let mut tally = Tally {
        attempted: first.ops + reference.ops,
        failed: first.failed + reference.failed,
        diverged: 0,
    };
    println!(
        "workload {} seed {} digest {:016x} (warm-up {:016x}) deterministic {deterministic}",
        args.workload, args.seed, reference.digest.0, first.digest.0
    );

    let metrics = if args.trace {
        traced(&args, w, &reference, &mut tally, &mut out)
    } else {
        untraced(&args, w, &reference, &mut tally, &mut out)
    };
    println!(
        "failed_frac {:.6} ({} of {} ops); diverged rounds {}",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted,
        tally.diverged
    );
    let correct = deterministic && tally.failed == 0 && tally.diverged == 0;
    print_metrics(correct, &tally, &metrics);
}

/// One block of the untraced run: its op samples (a range of the run's
/// sample store), the set-up timed after it, and the factor that puts
/// its times on the reference time scale.
struct Block {
    samples: Range<usize>,
    setup_s: f64,
    factor: f64,
}

/// The quietest blocks by one percentile, the ops they hold, and that
/// percentile of their op times pooled on the reference time scale.
struct Fastest<'a> {
    blocks: Vec<&'a Block>,
    ops: usize,
    value: f64,
}

/// Rank blocks by percentile `q` of their op times on the reference
/// time scale, and keep the fastest: the stretches of the run other
/// tenants of the host disturbed least.
fn fastest<'a>(blocks: &'a [Block], samples: &Samples, q: f64) -> Fastest<'a> {
    let scaled = |b: &Block| samples.us(b.samples.clone(), b.factor);
    let mut ranked: Vec<(f64, &Block)> = blocks
        .iter()
        .filter(|b| !b.samples.is_empty())
        .map(|b| (percentile(&mut scaled(b), q), b))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let min_blocks = (ranked.len() as f64 * FASTEST_SHARE).ceil() as usize;
    let mut kept = Vec::new();
    let mut op_us = Vec::new();
    for (_, b) in ranked {
        if kept.len() >= min_blocks && op_us.len() >= MIN_KEPT_OPS {
            break;
        }
        kept.push(b);
        op_us.extend(scaled(b));
    }
    let ops = op_us.len();
    let value = percentile(&mut op_us, q);
    Fastest {
        blocks: kept,
        ops,
        value,
    }
}

/// The end-to-end metrics.
fn untraced(
    args: &Args,
    w: &mut dyn Workload,
    r: &RoundOut,
    tally: &mut Tally,
    out: &mut RoundOut,
) -> Metrics {
    // The program reaches its steady state within the two rounds
    // already run; the sample store allocated below is not counted.
    let peak_rss = peak_rss_mb();
    let full = Mode {
        level: TraceLevel::Full,
        probes: false,
    };
    let calib = Reference::new();
    let mut samples = Samples::default();
    let mut blocks = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let start = samples.0.len();
        let mut ref_us = Vec::new();
        let tb = Instant::now();
        let mut next_ref = tb;
        while tb.elapsed() < BLOCK {
            if Instant::now() >= next_ref {
                ref_us.push(calib.time_us());
                next_ref = Instant::now() + REF_EVERY;
            }
            run_round(w, full, r.digest, &mut samples, out, tally);
        }
        blocks.push(Block {
            samples: start..samples.0.len(),
            setup_s: timed_setup(args),
            factor: calibrate::NOMINAL_US / percentile(&mut ref_us, 50.0),
        });
    }
    let p50 = fastest(&blocks, &samples, 50.0);
    let p99 = fastest(&blocks, &samples, 99.0);
    // Throughput per kept block, so one op stalled by the host weighs on
    // one block's figure, not on the whole pool's mean.
    let mut ops_per_s: Vec<f64> = p50
        .blocks
        .iter()
        .map(|b| 1e6 / mean(&samples.us(b.samples.clone(), b.factor)))
        .collect();
    let mut setup_s: Vec<f64> = p50.blocks.iter().map(|b| b.setup_s * b.factor).collect();
    let factors: Vec<f64> = p50.blocks.iter().map(|b| b.factor).collect();
    let mut raw_us = samples.all_us();
    println!(
        "timed {} ops in {} blocks over {:.2} s (raw op_us p50 {:.3}, p99 {:.3}); \
         p50 from the fastest {} blocks ({} ops, mean host factor {:.3}), p99 from {} ({} ops)",
        raw_us.len(),
        blocks.len(),
        t0.elapsed().as_secs_f64(),
        percentile(&mut raw_us, 50.0),
        percentile(&mut raw_us, 99.0),
        p50.blocks.len(),
        p50.ops,
        mean(&factors),
        p99.blocks.len(),
        p99.ops,
    );
    let mut sim = r.sim_ms.clone();
    vec![
        ("op_us.p50", p50.value, "us"),
        ("op_us.p99", p99.value, "us"),
        ("ops_per_s", percentile(&mut ops_per_s, 50.0), "1/s"),
        ("sim_ms.mean", mean(&sim), "ms"),
        ("sim_ms.p99", percentile(&mut sim, 99.0), "ms"),
        ("setup_s", percentile(&mut setup_s, 50.0), "s"),
        ("peak_rss_mb", peak_rss, "MB"),
    ]
}

/// Span names whose totals feed the per-layer metrics.
const LAYER_SPANS: [&str; 7] = [
    "runtime.call",
    "kernels.execute",
    "engine.replay",
    "model.plan",
    "map.dataplan",
    "data_env.region",
    "serve.plain",
];

/// The per-layer metrics.
fn traced(
    args: &Args,
    w: &mut dyn Workload,
    r: &RoundOut,
    tally: &mut Tally,
    out: &mut RoundOut,
) -> Metrics {
    // Rounds cycle through four kinds, so host drift hits each alike:
    //   0: Full trace, spans on, layer probes (the layer totals);
    //   1: Full trace, spans on;
    //   2: Off trace, spans on (1 vs 2: the trace level alone);
    //   3: Full trace, spans off (1 vs 3: the span recording alone).
    let kinds = [
        (
            Mode {
                level: TraceLevel::Full,
                probes: true,
            },
            true,
        ),
        (
            Mode {
                level: TraceLevel::Full,
                probes: false,
            },
            true,
        ),
        (
            Mode {
                level: TraceLevel::Off,
                probes: false,
            },
            true,
        ),
        (
            Mode {
                level: TraceLevel::Full,
                probes: false,
            },
            false,
        ),
    ];
    let mut kind_samples: [Samples; 4] = Default::default();
    let mut layer = [0u64; LAYER_SPANS.len()];
    let (mut probe_ops, mut probe_engine_ops) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut round = 0usize;
    while t0.elapsed().as_secs_f64() < args.seconds || round < kinds.len() {
        let kind = round % kinds.len();
        let (mode, spans_on) = kinds[kind];
        spans::set_enabled(spans_on);
        let before = LAYER_SPANS.map(|n| spans::totals(n).total_ns);
        run_round(w, mode, r.digest, &mut kind_samples[kind], out, tally);
        if kind == 0 {
            probe_ops += out.ops;
            probe_engine_ops += out.engine_ops;
            for (i, n) in LAYER_SPANS.iter().enumerate() {
                layer[i] += spans::totals(n).total_ns - before[i];
            }
        }
        round += 1;
        if kind + 1 == kinds.len() {
            // A set-up per cycle feeds the `lang` and `compile` spans.
            spans::set_enabled(true);
            timed_setup(args);
        }
    }
    spans::set_enabled(false);
    if let Some(path) = &args.spans {
        if let Err(e) = spans::write(path) {
            eprintln!("homp-perfbench: writing spans to {}: {e}", path.display());
        }
    }

    let lang = spans::totals("lang.parse");
    let comp = spans::totals("compile");
    let [call, exec, replay_ns, plan, dataplan, region, plain] = layer.map(|v| v as f64);
    let mut full_us = kind_samples[1].all_us();
    let off_us = kind_samples[2].all_us();
    let mut base_us = kind_samples[3].all_us();
    println!(
        "traced: {} probe ops, {} Full-trace ops, {} Off-trace ops, {} span-free ops",
        kind_samples[0].0.len(),
        full_us.len(),
        off_us.len(),
        base_us.len(),
    );
    let ops = r.ops;
    let serve_extra = if args.workload == "serve_mix" {
        per_op(call - plain, probe_ops)
    } else {
        0.0
    };
    let mut qd = r.queue_delay_ms.clone();
    let (qd50, qd99) = if qd.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&mut qd, 50.0), percentile(&mut qd, 99.0))
    };
    vec![
        (
            "lang.parse_ns",
            per_op(lang.total_ns as f64, lang.calls),
            "ns",
        ),
        ("compile.ns", per_op(comp.total_ns as f64, comp.calls), "ns"),
        ("model.plan_ns", per_op(plan, probe_ops), "ns"),
        ("map.dataplan_ns", per_op(dataplan, probe_ops), "ns"),
        (
            "engine.ops_per_op",
            per_op(r.engine_ops as f64, ops),
            "count",
        ),
        (
            "engine.replay_ns_per_op",
            per_op(replay_ns, probe_ops),
            "ns",
        ),
        (
            "kernels.execute_calls_per_op",
            per_op(r.exec_calls as f64, ops),
            "count",
        ),
        ("kernels.execute_ns_per_op", per_op(exec, probe_ops), "ns"),
        (
            "runtime.self_ns_per_op",
            per_op(call - exec - replay_ns, probe_engine_ops),
            "ns/op",
        ),
        (
            "trace.events_per_op",
            per_op(r.trace_events as f64, ops),
            "count",
        ),
        (
            "trace.cost_ns_per_op",
            (mean(&full_us) - mean(&off_us)) * 1e3,
            "ns",
        ),
        (
            "alloc.count_per_op",
            per_op(r.alloc_count as f64, ops),
            "count",
        ),
        ("alloc.bytes_per_op", per_op(r.alloc_bytes as f64, ops), "B"),
        ("sched.chunks_per_op", per_op(r.chunks as f64, ops), "count"),
        ("sched.imbalance_pct", per_op(r.imbalance_pct_sum, ops), "%"),
        (
            "faults.requeued_chunks",
            per_op(r.requeued_chunks as f64, ops),
            "count",
        ),
        ("faults.retries", per_op(r.retries as f64, ops), "count"),
        (
            "faults.host_iters",
            per_op(r.host_iters as f64, ops),
            "count",
        ),
        (
            "faults.useful_ratio",
            r.iters_done as f64 / r.iters_attempted.max(1) as f64,
            "ratio",
        ),
        (
            "data_env.h2d_bytes_per_op",
            per_op(r.h2d_bytes as f64, ops),
            "B",
        ),
        (
            "data_env.elided_bytes_per_op",
            per_op(r.elided_bytes as f64, ops),
            "B",
        ),
        ("data_env.region_ns", per_op(region, probe_ops), "ns"),
        ("pipeline.overlap_ms", per_op(r.overlap_ms, ops), "ms"),
        (
            "pipeline.chunks_per_op",
            per_op(r.pipeline_chunks as f64, ops),
            "count",
        ),
        ("serve.queue_delay_ms.p50", qd50, "ms"),
        ("serve.queue_delay_ms.p99", qd99, "ms"),
        (
            "serve.master_trace_events",
            r.master_trace_events as f64,
            "count",
        ),
        ("serve.extra_ns_per_req", serve_extra, "ns"),
        (
            "tracing.overhead_us",
            percentile(&mut full_us, 50.0) - percentile(&mut base_us, 50.0),
            "us",
        ),
    ]
}
