//! Differential test of [`FaultPlan`]'s dense per-device table against
//! a keyed reference: random builder calls on sparse and high device
//! ids (ids far beyond any machine included) must leave every query
//! answering exactly as a `BTreeMap<DeviceId, DeviceFaultPlan>` holding
//! the same programs does.

use homp_sim::noise::bernoulli;
use homp_sim::{DeviceFaultPlan, DeviceId, FaultPlan, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Hash salts of the transient-DMA and launch-timeout draws; pinned
/// here so the reference draws hash the same words as the plan.
const SALT_DMA: u64 = 0x0D3A_0D3A;
const SALT_LAUNCH: u64 = 0x1A57_1A57;

/// One `FaultPlan` builder call.
#[derive(Debug, Clone)]
enum Call {
    /// `with_device` with an inactive default program.
    Inert(DeviceId),
    Dropout(DeviceId, f64),
    Recovery(DeviceId, f64),
    Dma(DeviceId, f64),
    Launch(DeviceId, f64),
    Slowdown(DeviceId, f64, f64, f64),
    Flaky(DeviceId, f64, f64, f64, f64),
}

impl Call {
    fn device(&self) -> DeviceId {
        match *self {
            Call::Inert(d)
            | Call::Dropout(d, _)
            | Call::Recovery(d, _)
            | Call::Dma(d, _)
            | Call::Launch(d, _)
            | Call::Slowdown(d, ..)
            | Call::Flaky(d, ..) => d,
        }
    }

    fn apply(&self, plan: FaultPlan) -> FaultPlan {
        match *self {
            Call::Inert(d) => plan.with_device(d, DeviceFaultPlan::default()),
            Call::Dropout(d, at) => plan.with_dropout_at(d, at),
            Call::Recovery(d, at) => plan.with_recovery_at(d, at),
            Call::Dma(d, rate) => plan.with_transient_dma(d, rate),
            Call::Launch(d, rate) => plan.with_launch_timeouts(d, rate),
            Call::Slowdown(d, factor, from, len) => plan.with_slowdown(d, factor, from, from + len),
            Call::Flaky(d, from, len, dma, launch) => {
                plan.with_flaky_window(d, from, from + len, dma, launch)
            }
        }
    }

    /// The same call on the keyed reference, field by field.
    fn apply_reference(&self, reference: &mut BTreeMap<DeviceId, DeviceFaultPlan>) {
        if let Call::Inert(d) = *self {
            reference.insert(d, DeviceFaultPlan::default());
            return;
        }
        let p = reference.entry(self.device()).or_default();
        match *self {
            Call::Inert(_) => unreachable!("handled above"),
            Call::Dropout(_, at) => p.fail_at = Some(at),
            Call::Recovery(_, at) => p.recover_at = Some(at),
            Call::Dma(_, rate) => p.transient_dma_rate = rate,
            Call::Launch(_, rate) => p.launch_timeout_rate = rate,
            Call::Slowdown(_, factor, from, len) => {
                p.slowdown = Some(homp_sim::SlowdownWindow { factor, from, until: from + len })
            }
            Call::Flaky(_, from, len, dma_rate, launch_rate) => {
                p.flaky = Some(homp_sim::FlakyWindow {
                    from,
                    until: from + len,
                    dma_rate,
                    launch_rate,
                })
            }
        }
    }
}

/// Device ids: a low cluster, the top of a 64-device machine, and ids
/// no machine here has.
fn arb_device() -> impl Strategy<Value = DeviceId> {
    prop_oneof![0u32..8, 60u32..64, 200u32..260]
}

/// Rates include exact zeros, so some entries stay inactive.
fn arb_rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0f64..=1.0, Just(1.0)]
}

fn arb_call() -> impl Strategy<Value = Call> {
    prop_oneof![
        arb_device().prop_map(Call::Inert),
        (arb_device(), 0.0f64..4.0).prop_map(|(d, at)| Call::Dropout(d, at)),
        (arb_device(), 0.0f64..4.0).prop_map(|(d, at)| Call::Recovery(d, at)),
        (arb_device(), arb_rate()).prop_map(|(d, r)| Call::Dma(d, r)),
        (arb_device(), arb_rate()).prop_map(|(d, r)| Call::Launch(d, r)),
        (arb_device(), 1.0f64..5.0, 0.0f64..3.0, 0.0f64..2.0)
            .prop_map(|(d, f, from, len)| Call::Slowdown(d, f, from, len)),
        (arb_device(), 0.0f64..3.0, 0.0f64..2.0, arb_rate(), arb_rate())
            .prop_map(|(d, from, len, dma, launch)| Call::Flaky(d, from, len, dma, launch)),
    ]
}

fn build(seed: u64, calls: &[Call]) -> (FaultPlan, BTreeMap<DeviceId, DeviceFaultPlan>) {
    let mut reference = BTreeMap::new();
    let plan = calls.iter().fold(FaultPlan::new(seed), |plan, call| {
        call.apply_reference(&mut reference);
        call.apply(plan)
    });
    (plan, reference)
}

fn ref_dropout_at(p: &DeviceFaultPlan, start: SimTime, end: SimTime) -> Option<SimTime> {
    let tf = SimTime::from_secs(p.fail_at?);
    if p.recover_at.is_some_and(|rec| start >= SimTime::from_secs(rec)) {
        return None;
    }
    if start >= tf {
        Some(start)
    } else if end > tf {
        Some(tf)
    } else {
        None
    }
}

fn ref_slowdown(p: &DeviceFaultPlan, at: SimTime) -> f64 {
    match p.slowdown {
        Some(w) if w.contains(at) => w.factor,
        _ => 1.0,
    }
}

fn ref_dma_rate(p: &DeviceFaultPlan, at: SimTime) -> f64 {
    match p.flaky {
        Some(w) if w.contains(at) => p.transient_dma_rate.max(w.dma_rate),
        _ => p.transient_dma_rate,
    }
}

fn ref_launch_rate(p: &DeviceFaultPlan, at: SimTime) -> f64 {
    match p.flaky {
        Some(w) if w.contains(at) => p.launch_timeout_rate.max(w.launch_rate),
        _ => p.launch_timeout_rate,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_table_answers_like_a_keyed_map(
        seed in 0u64..1_000_000,
        calls in proptest::collection::vec(arb_call(), 0..24),
        probes in proptest::collection::vec((0.0f64..5.0, 0.0f64..2.0, 0u64..1_000), 1..12),
    ) {
        let (plan, reference) = build(seed, &calls);
        prop_assert_eq!(plan.seed(), seed);
        prop_assert_eq!(plan.is_none(), !reference.values().any(DeviceFaultPlan::is_active));
        // Every id the strategy can draw, the gaps between them, and
        // one past the largest.
        for d in 0u32..=260 {
            let program = reference.get(&d);
            prop_assert_eq!(plan.device(d), program);
            prop_assert_eq!(
                plan.fail_at(d),
                program.and_then(|p| p.fail_at).map(SimTime::from_secs)
            );
            prop_assert_eq!(
                plan.recover_at(d),
                program.and_then(|p| p.recover_at).map(SimTime::from_secs)
            );
            for &(start, len, seq) in &probes {
                let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(start + len));
                prop_assert_eq!(
                    plan.dropout_at(d, start, end),
                    program.and_then(|p| ref_dropout_at(p, start, end))
                );
                prop_assert_eq!(
                    plan.slowdown_factor(d, start),
                    program.map_or(1.0, |p| ref_slowdown(p, start))
                );
                let words = |salt| [seed, d as u64, seq, salt];
                prop_assert_eq!(
                    plan.dma_fault_at(d, seq, start),
                    program.is_some_and(|p| bernoulli(&words(SALT_DMA), ref_dma_rate(p, start)))
                );
                prop_assert_eq!(
                    plan.launch_fault_at(d, seq, start),
                    program
                        .is_some_and(|p| bernoulli(&words(SALT_LAUNCH), ref_launch_rate(p, start)))
                );
                prop_assert_eq!(
                    plan.dma_fault(d, seq),
                    program.is_some_and(|p| bernoulli(&words(SALT_DMA), p.transient_dma_rate))
                );
                prop_assert_eq!(
                    plan.launch_fault(d, seq),
                    program.is_some_and(|p| bernoulli(&words(SALT_LAUNCH), p.launch_timeout_rate))
                );
            }
        }
    }

    #[test]
    fn equality_ignores_builder_order_across_devices(
        seed in 0u64..1_000,
        calls in proptest::collection::vec(arb_call(), 0..24),
        extra in arb_call(),
    ) {
        // Calls on different devices commute, and a stable sort keeps
        // each device's own calls in order: highest id first grows the
        // table in one step, lowest first grows it call by call.
        let (plan, reference) = build(seed, &calls);
        let mut descending = calls.clone();
        descending.sort_by_key(|c| Reverse(c.device()));
        let mut ascending = calls.clone();
        ascending.sort_by_key(Call::device);
        prop_assert_eq!(&build(seed, &descending).0, &plan);
        prop_assert_eq!(&build(seed, &ascending).0, &plan);
        // One more call: equal exactly when the reference is unchanged.
        let mut more = calls.clone();
        more.push(extra);
        let (plan_more, reference_more) = build(seed, &more);
        prop_assert_eq!(plan_more == plan, reference_more == reference);
        prop_assert_ne!(&build(seed + 1, &calls).0, &plan);
    }
}

#[test]
fn plan_of_inert_entries_is_none_but_differs_from_empty() {
    let inert = FaultPlan::new(3)
        .with_device(63, DeviceFaultPlan::default())
        .with_transient_dma(250, 0.0);
    assert!(inert.is_none());
    assert_eq!(inert.device(63), Some(&DeviceFaultPlan::default()));
    assert_eq!(inert.device(62), None);
    assert_eq!(inert.device(251), None);
    assert_ne!(inert, FaultPlan::new(3), "an inert entry is still an entry");
}
