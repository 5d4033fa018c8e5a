//! `serve_mix`: `TrafficConfig::default_mix` — 1000 sessions from 100
//! tenants at about 3× overload — through `Server::serve` under
//! weighted-fair admission on `full_node`. Each op is one request; a
//! round serves four such traffics drawn from the seed, so that one
//! arrival pattern moves the simulated latencies less.
//! Arrivals are open-loop in simulated time and latency counts from each
//! request's due arrival; on the host, requests are served back to back
//! by one single-threaded call.
//!
//! Why: the same offload layer used differently — re-entrant dispatch on
//! busy calendars, `Trace::absorb` into one master trace, admission. A
//! cut that helps classic offloads could hurt serving here.
//!
//! A request's host time runs from the end of the previous request's
//! last kernel call to the end of its own (the first from the start of
//! the `serve` call, the last to its return), so the per-request times
//! add up to the call's wall time.

use super::{account, dataplan_probe, mix, plan_probe, replay_engine};
use crate::kernel::{Log, Recorded};
use crate::{replay, spans, Mode, RoundOut, Workload};
use homp_core::{OffloadRegion, Runtime};
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_model::KernelIntensity;
use homp_serve::traffic::{generate, TrafficConfig};
use homp_serve::{ServePolicy, ServeRequest, Server, TenantId};
use homp_sim::{Engine, Machine, SimTime};
use std::cell::RefCell;
use std::time::Instant;

/// Traffics served per round.
const TRAFFICS: u64 = 4;

/// One generated request, kept as data so each round can rebuild it.
struct Request {
    tenant: TenantId,
    weight: f64,
    arrival: SimTime,
    region: OffloadRegion,
    intensity: KernelIntensity,
}

pub struct ServeMix {
    /// `(seed, requests)` of each traffic.
    traffics: Vec<(u64, Vec<Request>)>,
    server: Server,
    /// Runs the same requests as plain offloads (`serve.extra_ns_per_req`).
    plain: Runtime,
    replay: Engine,
    log: RefCell<Log>,
}

/// Per-iteration cost of a kernel event, by the region name it carries.
fn intensity_of(label: &str) -> KernelIntensity {
    KernelSpec::paper_suite()
        .into_iter()
        .find(|s| s.label().split('-').next() == Some(label))
        .unwrap_or_else(|| panic!("kernel label {label:?} names a paper kernel"))
        .intensity()
}

impl ServeMix {
    pub fn new(seed: u64) -> Self {
        let machine = Machine::full_node();
        let traffics = (0..TRAFFICS)
            .map(|k| {
                let seed = mix(seed, k);
                let reqs = generate(&TrafficConfig::default_mix(machine.len(), seed))
                    .into_iter()
                    .map(|r| Request {
                        tenant: r.tenant,
                        weight: r.weight,
                        arrival: r.arrival,
                        intensity: r.kernel.intensity(),
                        region: r.region,
                    })
                    .collect();
                (seed, reqs)
            })
            .collect();
        let server = Server::new(machine.clone(), seed).policy(ServePolicy::WeightedFair);
        ServeMix {
            traffics,
            server,
            plain: Runtime::new(machine.clone(), seed),
            replay: replay_engine(machine, seed),
            log: RefCell::new(Log::default()),
        }
    }
}

/// The traffic as requests, every kernel recording into `log`.
fn requests<'a>(traffic: &[Request], log: &'a RefCell<Log>) -> Vec<ServeRequest<'a>> {
    traffic
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let inner = PhantomKernel::new(r.intensity);
            let kernel = Box::new(Recorded {
                inner,
                tag: i as u32,
                log,
            });
            ServeRequest::new(r.tenant, r.arrival, r.region.clone(), kernel).with_weight(r.weight)
        })
        .collect()
}

impl Workload for ServeMix {
    fn round(&mut self, mode: Mode, out: &mut RoundOut) {
        for k in 0..self.traffics.len() {
            self.serve(k, mode, out);
        }
    }
}

impl ServeMix {
    /// Serve traffic `k` on a runtime reset to that traffic's seed.
    fn serve(&mut self, k: usize, mode: Mode, out: &mut RoundOut) {
        spans::next_op();
        let _op = spans::span("op");
        let (seed, traffic) = &self.traffics[k];
        let reqs = requests(traffic, &self.log);
        let trips: Vec<u64> = reqs.iter().map(|r| r.region.trip_count).collect();
        if mode.probes {
            for r in &reqs {
                plan_probe(self.server.runtime(), &r.region, &r.kernel.intensity());
                dataplan_probe(&r.region);
            }
        }
        {
            let mut log = self.log.borrow_mut();
            log.clear();
            log.last.resize(reqs.len(), None);
        }
        let rt = self.server.runtime_mut();
        rt.reset_with_seed(*seed);
        rt.set_trace_level(mode.level);
        let ops_before = rt.sim_ops();
        let alloc_before = crate::alloc::snapshot();
        let t0 = Instant::now();
        let result = {
            let _s = spans::span("runtime.call");
            self.server.serve(reqs)
        };
        let t_end = Instant::now();
        out.add_allocs(alloc_before);
        let engine_ops = self.server.runtime().sim_ops() - ops_before;
        out.ops += trips.len() as u64;
        let Ok(report) = result else {
            out.failed += trips.len() as u64;
            out.digest.word(u64::MAX);
            out.walls_ns.push((t_end - t0).as_nanos() as u64);
            return;
        };

        let failed_before = out.failed;
        let mut log = self.log.borrow_mut();
        let mut ok = report.outcomes.len() == trips.len();
        let mut prev = t0;
        for (j, o) in report.outcomes.iter().enumerate() {
            let done = log.last[o.seq].unwrap_or(prev);
            let end = if j + 1 == report.outcomes.len() {
                t_end
            } else {
                done
            };
            out.walls_ns.push((end - prev).as_nanos() as u64);
            prev = done;
            let n = trips[o.seq];
            let good = account(out, &o.report, n) && log.last[o.seq].is_some();
            out.failed += u64::from(!good);
            out.digest.words(&[o.seq as u64, o.tenant as u64]);
            out.digest.f64(o.dispatched_at.as_secs());
            out.digest.f64(o.completed_at.as_secs());
            out.sim_ms.push(o.latency().as_millis());
            out.queue_delay_ms.push(o.queue_delay().as_millis());
        }
        ok &= log.partitions(trips.len() as u32, |t| trips[t as usize]);
        out.exec_calls += log.calls;
        out.engine_ops += engine_ops;
        out.master_trace_events = out.master_trace_events.max(report.trace.len() as u64);
        out.digest.word(engine_ops);
        drop(log);

        if mode.probes {
            self.replay.reset_with_seed(*seed);
            ok &= replay::replay(&mut self.replay, &report.trace, &intensity_of) == engine_ops;
            drop(report);
            let reqs = requests(traffic, &self.log);
            self.plain.set_trace_level(mode.level);
            let _s = spans::span("serve.plain");
            for mut r in reqs {
                ok &= self
                    .plain
                    .offload(&r.region, r.kernel.as_mut())
                    .run()
                    .is_ok();
            }
        }
        // A failure not tied to one request fails the whole call.
        if !ok {
            out.failed = failed_before + trips.len() as u64;
        }
    }
}
