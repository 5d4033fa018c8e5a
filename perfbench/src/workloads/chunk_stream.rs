//! `chunk_stream`: long SCHED_DYNAMIC offloads on `full_node`, each of
//! at least 10⁴ chunks. Two offloads in three run under a scripted fault
//! plan: a K40 drops out mid-run and recovers, a MIC is slowed down,
//! and another K40 sees transient DMA errors.
//!
//! Why: the dispatch loop, the engine and requeue/health handling do
//! almost all the work, and fixed per-offload cost is under 1%. A
//! fixed-cost cut should show on `offload_mix` and leave this workload
//! unchanged; an engine or dispatch-loop cut shows here first.
//!
//! SCHED_GUIDED is not used: its chunk floor of 0.5% of the trip count
//! caps a guided offload at about 200 chunks.

use super::{mix, Offloader};
use crate::{Mode, RoundOut, Workload};
use homp_core::{Algorithm, FaultConfig, OffloadRegion};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_sim::{FaultPlan, Machine};

/// Chunks per offload.
const CHUNKS: u64 = 10_000;
/// Offloads per round. Every third runs fault-free, the others under a
/// fault plan: faulted offloads cost the host more, and with the two
/// kinds equally common the median op time would sit in the gap between
/// them and jump from run to run.
const OPS: u64 = 6;

struct Op {
    spec: KernelSpec,
    region: OffloadRegion,
    noise_seed: u64,
    faults: FaultConfig,
}

pub struct ChunkStream {
    off: Offloader,
    ops: Vec<Op>,
}

/// A dropout of K40 `2` over the middle of the run, a 3× slowdown of
/// MIC `5`, and 2% transient DMA errors on K40 `3`, scaled to the
/// fault-free makespan `t` (seconds).
fn fault_plan(seed: u64, t: f64) -> FaultConfig {
    FaultConfig::new(
        FaultPlan::new(seed)
            .with_dropout_at(2, 0.3 * t)
            .with_recovery_at(2, 0.6 * t)
            .with_slowdown(5, 3.0, 0.2 * t, 0.8 * t)
            .with_transient_dma(3, 0.02),
    )
}

impl ChunkStream {
    pub fn new(seed: u64) -> Self {
        let machine = Machine::full_node();
        let devices: Vec<u32> = (0..machine.len() as u32).collect();
        let specs = [KernelSpec::Axpy(10_000_000), KernelSpec::Sum(300_000_000)];
        let mut off = Offloader::new(machine, seed);
        let mut ops = Vec::new();
        for i in 0..OPS {
            let spec = specs[(i / 3) as usize % specs.len()];
            let chunk_pct = 100.0 / CHUNKS as f64;
            let region = spec.region(devices.clone(), Algorithm::Dynamic { chunk_pct });
            let noise_seed = mix(seed, i);
            let faults = if i % 3 == 0 {
                FaultConfig::none()
            } else {
                // Script the faults against this op's fault-free makespan.
                off.rt.reset_with_seed(noise_seed);
                let mut k = PhantomKernel::new(spec.intensity());
                let clean = off
                    .rt
                    .offload(&region, &mut k)
                    .run()
                    .expect("fault-free offload runs");
                fault_plan(noise_seed, clean.makespan.as_secs())
            };
            ops.push(Op {
                spec,
                region,
                noise_seed,
                faults,
            });
        }
        ChunkStream { off, ops }
    }
}

impl Workload for ChunkStream {
    fn round(&mut self, mode: Mode, out: &mut RoundOut) {
        self.off.rt.set_trace_level(mode.level);
        for op in &self.ops {
            self.off.rt.set_fault_config(op.faults.clone());
            let intensity = op.spec.intensity();
            self.off
                .op(mode, out, &op.region, intensity, op.noise_seed, |r| {
                    r.chunks >= CHUNKS
                });
        }
    }
}
