//! `offload_mix`: the 48 paper regions (8 algorithms × 6 kernels at
//! Table V sizes) on `full_node`, one `offload().run()` each on a single
//! reused runtime with `reset_with_seed` between ops.
//!
//! Why: at about 60 engine ops per offload the fixed per-offload costs
//! dominate — planning, `DataPlan`, per-slot vectors, trace hand-off in
//! `finish`, the WORK_ASSIST dry run. A cut to those shows here first.

use super::{mix, Offloader};
use crate::{directives, Mode, RoundOut, Workload};
use homp_core::{Algorithm, OffloadRegion};
use homp_kernels::KernelSpec;
use homp_sim::Machine;

pub struct OffloadMix {
    off: Offloader,
    /// `(kernel, region compiled from directive text, noise seed)`.
    ops: Vec<(KernelSpec, OffloadRegion, u64)>,
}

impl OffloadMix {
    pub fn new(seed: u64) -> Self {
        let machine = Machine::full_node();
        let mut ops = Vec::new();
        for spec in KernelSpec::paper_suite() {
            for alg in Algorithm::extended_suite() {
                let region = directives::compile_checked(spec, alg, &machine);
                ops.push((spec, region, mix(seed, ops.len() as u64)));
            }
        }
        OffloadMix {
            off: Offloader::new(machine, seed),
            ops,
        }
    }
}

impl Workload for OffloadMix {
    fn round(&mut self, mode: Mode, out: &mut RoundOut) {
        self.off.rt.set_trace_level(mode.level);
        for (spec, region, noise_seed) in &self.ops {
            self.off
                .op(mode, out, region, spec.intensity(), *noise_seed, |_| true);
        }
    }
}
