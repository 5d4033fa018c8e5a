//! Engine replay: re-submit an op's Full trace to a bare
//! `homp_sim::Engine` built on the same machine and noise seed. The
//! time this takes is the engine floor under that op: what the
//! simulator alone costs for the same launches, transfers, kernels and
//! barriers, with none of the runtime's planning or bookkeeping.

use crate::spans;
use homp_model::KernelIntensity;
use homp_sim::{ChunkWork, Dir, Engine, OpKind, TeamSched, Trace};

/// Replay every event of `trace` into `engine` (one engine op per
/// event) and return the number of ops the engine counted.
/// `intensity` maps a kernel event's label to its per-iteration cost.
pub fn replay(
    engine: &mut Engine,
    trace: &Trace,
    intensity: &dyn Fn(&str) -> KernelIntensity,
) -> u64 {
    let _s = spans::span("engine.replay");
    let before = engine.ops_submitted();
    for ev in trace.events() {
        let label = trace.label(ev.label);
        let dev = ev.device;
        match ev.kind {
            OpKind::Init => {
                engine.launch(dev, ev.start, label);
            }
            OpKind::H2D => {
                engine.transfer(dev, ev.amount, Dir::H2D, ev.start, label);
            }
            OpKind::D2H => {
                engine.transfer(dev, ev.amount, Dir::D2H, ev.start, label);
            }
            OpKind::Kernel => {
                let k = intensity(label);
                let work = ChunkWork::new(ev.amount, &k);
                engine.compute_teams(dev, &work, ev.start, label, TeamSched::Aggregate);
            }
            OpKind::Sync => {
                // A one-device barrier released at the event's end:
                // records exactly one SYNC op, as the original did.
                engine.barrier(&[dev, dev], &[ev.start, ev.end]);
            }
            OpKind::Fault | OpKind::Backoff => {
                engine.record_backoff(dev, ev.start, ev.span(), label);
            }
            OpKind::Failover => {
                engine.record_failover(dev, ev.start, ev.span(), label);
            }
        }
    }
    engine.ops_submitted() - before
}
