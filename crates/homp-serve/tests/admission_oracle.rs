//! Admission oracle: every decision in a [`ServeReport`] is re-derived
//! from the report alone and compared with what the server logged.
//!
//! The oracle knows only the documented admission rule. At each
//! decision, the candidates are the requests that have arrived by
//! `decided_at` and are not yet dispatched; the server must dispatch
//! the least `(credit, arrival, seq)` among them (FIFO: `(arrival,
//! seq)`), log the candidate count as `queue_depth`, and log the
//! tenant's credit as the sum of `makespan / max(weight, 1e-9)` over its
//! earlier outcomes (always 0 under FIFO). Arrivals, weights and
//! makespans come from the outcomes, which cover every request.
//!
//! The traffics are small and adversarial for tie-breaks: sparse tenant
//! ids at both ends of the `u32` range, weights the server clamps
//! (`0`, negative, `1e-12`), and arrivals drawn from a handful of
//! instants so most of them tie.

use homp_core::Algorithm;
use homp_kernels::{KernelSpec, PhantomKernel};
use homp_serve::{ServePolicy, ServeReport, ServeRequest, Server, TenantId};
use homp_sim::{DeviceId, Machine, SimTime};
use proptest::prelude::*;

const TENANTS: [TenantId; 6] = [0, 1, 7, 1000, u32::MAX - 1, u32::MAX];
const WEIGHTS: [f64; 6] = [0.0, -2.0, 1e-12, 0.5, 1.0, 4.0];
/// Arrival instants in microseconds; few of them, so arrivals tie.
const ARRIVALS_US: [f64; 4] = [0.0, 0.0, 40.0, 150.0];

/// One generated request: indices into the tables above and the suite.
type Draw = (usize, usize, usize, usize);

fn traffic(draws: &[Draw]) -> Vec<ServeRequest<'static>> {
    let machine = Machine::four_k40();
    let devices: Vec<DeviceId> = (0..machine.len() as DeviceId).collect();
    let suite: Vec<KernelSpec> =
        KernelSpec::paper_suite().into_iter().map(|s| s.test_size()).collect();
    draws
        .iter()
        .map(|&(t, w, a, k)| {
            let spec = &suite[k % suite.len()];
            ServeRequest::new(
                TENANTS[t],
                SimTime::from_secs(ARRIVALS_US[a] * 1e-6),
                spec.region(devices.clone(), Algorithm::Model2 { cutoff: None }),
                Box::new(PhantomKernel::new(spec.intensity())),
            )
            .with_weight(WEIGHTS[w])
        })
        .collect()
}

fn serve(draws: &[Draw], policy: ServePolicy, max_inflight: usize) -> ServeReport {
    let mut srv = Server::new(Machine::four_k40(), 42).policy(policy).max_inflight(max_inflight);
    srv.serve(traffic(draws)).expect("serve")
}

/// Re-derive every decision of `rep` and compare it with the log.
fn check_decisions(rep: &ServeReport, policy: ServePolicy) {
    let n = rep.outcomes.len();
    assert_eq!(rep.decisions.len(), n, "one decision per request");
    // Per-request facts, indexed by seq.
    let mut arrival = vec![None; n];
    let mut tenant = vec![0; n];
    for o in &rep.outcomes {
        assert!(arrival[o.seq].is_none(), "seq {} dispatched twice", o.seq);
        arrival[o.seq] = Some(o.arrival);
        tenant[o.seq] = o.tenant;
    }
    let arrival: Vec<SimTime> = arrival.into_iter().map(|a| a.expect("every seq served")).collect();

    let mut dispatched = vec![false; n];
    for (i, d) in rep.decisions.iter().enumerate() {
        let o = &rep.outcomes[i];
        assert_eq!((d.seq, d.tenant, d.decided_at), (o.seq, o.tenant, o.dispatched_at));

        // Credit of a tenant: its earlier outcomes, in dispatch order
        // (the order the server accrues them in, so the sum is exact).
        let credit = |t: TenantId| -> f64 {
            match policy {
                ServePolicy::Fifo => 0.0,
                ServePolicy::WeightedFair => rep.outcomes[..i]
                    .iter()
                    .filter(|p| p.tenant == t)
                    .fold(0.0, |c, p| c + p.report.makespan.as_secs() / p.weight.max(1e-9)),
            }
        };
        let key = |s: usize| (credit(tenant[s]), arrival[s].as_secs(), s);
        let candidates: Vec<usize> =
            (0..n).filter(|&s| !dispatched[s] && arrival[s] <= d.decided_at).collect();
        let expect = candidates
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let (ka, kb) = (key(a), key(b));
                ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1)).then(ka.2.cmp(&kb.2))
            })
            .expect("a decision has at least one candidate");

        let ctx = format!("decision {i} under {policy:?}: {d:?}");
        assert_eq!(d.seq, expect, "dispatched request is not the argmin; {ctx}");
        assert_eq!(d.queue_depth, candidates.len(), "queue depth; {ctx}");
        assert_eq!(d.credit.to_bits(), credit(d.tenant).to_bits(), "logged credit; {ctx}");
        dispatched[d.seq] = true;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both policies, windows of 1–3, over the same random traffic.
    fn every_decision_matches_the_oracle(
        draws in proptest::collection::vec((0usize..6, 0usize..6, 0usize..4, 0usize..6), 1..24),
        max_inflight in 1usize..=3,
    ) {
        for policy in [ServePolicy::Fifo, ServePolicy::WeightedFair] {
            check_decisions(&serve(&draws, policy, max_inflight), policy);
        }
    }
}

/// A pinned traffic where every tenant table entry and every clamped
/// weight appears and most arrivals tie, so both policies queue.
#[test]
fn pinned_tied_traffic_matches_the_oracle() {
    let draws: Vec<Draw> = (0..30).map(|i| ((i * 5) % 6, (i * 7) % 6, i % 4, i % 6)).collect();
    for max_inflight in 1..=3 {
        for policy in [ServePolicy::Fifo, ServePolicy::WeightedFair] {
            check_decisions(&serve(&draws, policy, max_inflight), policy);
        }
    }
}
