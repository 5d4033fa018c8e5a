//! The four workloads. Each one's module doc says why it was chosen.

mod chunk_stream;
mod offload_mix;
mod pipeline_region;
mod serve_mix;

use crate::kernel::{Log, Recorded};
use crate::{replay, spans, Mode, RoundOut, Workload};
use homp_core::{Algorithm, OffloadRegion, OffloadReport, Runtime};
use homp_kernels::PhantomKernel;
use homp_model::KernelIntensity;
use homp_sim::{Engine, Machine, NoiseModel};
use std::cell::RefCell;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "offload_mix",
    "chunk_stream",
    "serve_mix",
    "pipeline_region",
];

/// Run one workload's set-up: machine, runtime and inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "offload_mix" => Box::new(offload_mix::OffloadMix::new(seed)),
        "chunk_stream" => Box::new(chunk_stream::ChunkStream::new(seed)),
        "serve_mix" => Box::new(serve_mix::ServeMix::new(seed)),
        "pipeline_region" => Box::new(pipeline_region::PipelineRegion::new(seed)),
        other => unreachable!("workload names are checked at argument parsing: {other}"),
    }
}

/// SplitMix64 step: the per-op noise seeds of a round.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `model` layer probe: AUTO resolution plus the model plan the
/// resolved algorithm would compute, on the op's own inputs.
pub fn plan_probe(rt: &Runtime, region: &OffloadRegion, intensity: &KernelIntensity) {
    use homp_core::sched::model_sched::{model1_plan, model2_plan};
    let _s = spans::span("model.plan");
    let alg = rt.resolve_auto(region.algorithm, intensity, &region.devices);
    let params: Vec<_> = region
        .devices
        .iter()
        .map(|&d| rt.params()[d as usize])
        .collect();
    let plan = match alg {
        Algorithm::Model1 { cutoff } => {
            Some(model1_plan(&params, intensity, region.trip_count, cutoff))
        }
        Algorithm::Model2 { cutoff } | Algorithm::WorkAssist { cutoff, .. } => {
            Some(model2_plan(&params, intensity, region.trip_count, cutoff))
        }
        _ => None,
    };
    std::hint::black_box((alg, plan));
}

/// The `map` layer probe: the op's `DataPlan`.
pub fn dataplan_probe(region: &OffloadRegion) {
    let _s = spans::span("map.dataplan");
    std::hint::black_box(homp_core::DataPlan::new(region, region.devices.len()).is_ok());
}

/// Fold one offload report into the round: digest its makespan and
/// counts, and add its scheduler, fault and trace counters. Returns
/// whether the report's counts plus host-fallback iterations add up to
/// the trip count `n`.
pub fn account(out: &mut RoundOut, report: &OffloadReport, n: u64) -> bool {
    let f = &report.faults;
    out.digest.f64(report.makespan.as_secs());
    out.digest.words(&report.counts);
    out.digest.words(&[
        report.chunks,
        f.host_iters,
        f.requeued_chunks,
        f.transient_retries,
    ]);
    out.trace_events += report.trace.len() as u64;
    out.chunks += report.chunks;
    out.imbalance_pct_sum += report.imbalance_pct;
    out.requeued_chunks += f.requeued_chunks;
    out.retries += f.transient_retries;
    out.host_iters += f.host_iters;
    out.iters_done += n;
    out.iters_attempted += n + f.requeued_iters;
    report.counts.iter().sum::<u64>() + f.host_iters == n
}

/// A bare engine for [`replay::replay`], on the machine and noise seed
/// the runtime under test uses.
pub fn replay_engine(machine: Machine, seed: u64) -> Engine {
    Engine::new(machine, NoiseModel::new(seed, Runtime::DEFAULT_NOISE))
}

/// A runtime with its replay engine and range log: what a workload of
/// single offloads needs.
pub struct Offloader {
    pub rt: Runtime,
    pub replay: Engine,
    pub log: RefCell<Log>,
}

impl Offloader {
    pub fn new(machine: Machine, seed: u64) -> Self {
        Offloader {
            rt: Runtime::new(machine.clone(), seed),
            replay: replay_engine(machine, seed),
            log: RefCell::default(),
        }
    }

    /// One op: `reset_with_seed(noise_seed)`, then a timed
    /// `offload().run()` of `region` with a phantom kernel, checked and
    /// folded into `out`. `extra_ok` adds a workload-specific check.
    pub fn op(
        &mut self,
        mode: Mode,
        out: &mut RoundOut,
        region: &OffloadRegion,
        intensity: KernelIntensity,
        noise_seed: u64,
        extra_ok: impl Fn(&OffloadReport) -> bool,
    ) {
        spans::next_op();
        let _op = spans::span("op");
        self.rt.reset_with_seed(noise_seed);
        self.log.borrow_mut().clear();
        if mode.probes {
            plan_probe(&self.rt, region, &intensity);
            dataplan_probe(region);
        }
        let mut kernel = Recorded {
            inner: PhantomKernel::new(intensity),
            tag: 0,
            log: &self.log,
        };
        let ops_before = self.rt.sim_ops();
        let alloc_before = crate::alloc::snapshot();
        let t = Instant::now();
        let result = {
            let _s = spans::span("runtime.call");
            self.rt.offload(region, &mut kernel).run()
        };
        let wall = t.elapsed().as_nanos() as u64;
        out.add_allocs(alloc_before);
        let engine_ops = self.rt.sim_ops() - ops_before;
        out.ops += 1;
        out.walls_ns.push(wall);
        let Ok(report) = result else {
            out.failed += 1;
            out.digest.word(u64::MAX);
            return;
        };
        let n = region.trip_count;
        let mut ok = account(out, &report, n)
            && extra_ok(&report)
            && kernel.inner.executed() == n
            && self.log.borrow_mut().partitions(1, |_| n);
        if mode.probes {
            self.replay.reset_with_seed(noise_seed);
            let replayed = replay::replay(&mut self.replay, &report.trace, &|_| intensity);
            ok &= replayed == engine_ops;
        }
        out.failed += u64::from(!ok);
        out.digest.word(engine_ops);
        out.sim_ms.push(report.time_ms());
        out.engine_ops += engine_ops;
        out.exec_calls += self.log.borrow().calls;
    }
}
