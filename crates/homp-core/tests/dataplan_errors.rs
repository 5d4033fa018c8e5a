//! `DataPlan::new` error reporting: every malformed alignment must be
//! rejected with the exact variant and message a user sees, whichever
//! entity the bad `ALIGN` hangs off (an array or the loop itself).

use homp_core::align::AlignError;
use homp_core::{DataPlan, OffloadRegion, OffloadRegionBuilder, PlanError};
use homp_lang::{DistPolicy, MapDir};

fn align(target: &str) -> DistPolicy {
    DistPolicy::Align { target: target.into(), ratio: 1 }
}

fn region(arrays: &[(&str, DistPolicy)], loop_align: Option<&str>) -> OffloadRegion {
    let mut b: OffloadRegionBuilder =
        OffloadRegion::builder("bad").trip_count(100).devices(vec![0, 1]);
    for (name, policy) in arrays {
        b = b.map_1d(*name, MapDir::To, 100, 8, policy.clone());
    }
    if let Some(target) = loop_align {
        b = b.align_loop_with(target, 1);
    }
    b.build()
}

fn plan_error(r: &OffloadRegion) -> (PlanError, String) {
    let e = DataPlan::new(r, 2).expect_err("plan must be rejected");
    let msg = e.to_string();
    (e, msg)
}

fn path(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn duplicate_array_name() {
    let r =
        region(&[("x", align("loop")), ("y", DistPolicy::Full), ("x", DistPolicy::Block)], None);
    assert_eq!(
        plan_error(&r),
        (PlanError::Align(AlignError::Duplicate("x".into())), "entity `x` registered twice".into())
    );
}

#[test]
fn array_named_like_the_loop_is_a_duplicate() {
    let r = region(&[("loop", DistPolicy::Block)], None);
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::Duplicate("loop".into())),
            "entity `loop` registered twice".into()
        )
    );
}

#[test]
fn align_to_unknown_target() {
    let r = region(&[("x", align("loop")), ("y", align("ghost"))], None);
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::UnknownTarget {
                from: "y".into(),
                target: "ghost".into()
            }),
            "`y` aligns with unknown entity `ghost`".into()
        )
    );
}

#[test]
fn loop_align_to_unknown_target_names_the_last_aligner() {
    let r = region(&[("x", align("ghost"))], Some("x"));
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::UnknownTarget {
                from: "x".into(),
                target: "ghost".into()
            }),
            "`x` aligns with unknown entity `ghost`".into()
        )
    );
}

#[test]
fn align_cycle_between_arrays() {
    let r = region(&[("x", align("loop")), ("a", align("b")), ("b", align("a"))], None);
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::Cycle(path(&["a", "b", "a"]))),
            "alignment cycle: a -> b -> a".into()
        )
    );
}

#[test]
fn align_cycle_through_the_loop() {
    let r = region(&[("x", align("y")), ("y", align("loop"))], Some("x"));
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::Cycle(path(&["loop", "x", "y", "loop"]))),
            "alignment cycle: loop -> x -> y -> loop".into()
        )
    );
}

#[test]
fn cycle_reached_through_a_chain_lists_the_whole_path() {
    let r = region(&[("y", align("a")), ("a", align("b")), ("b", align("a"))], Some("y"));
    assert_eq!(
        plan_error(&r),
        (
            PlanError::Align(AlignError::Cycle(path(&["loop", "y", "a", "b", "a"]))),
            "alignment cycle: loop -> y -> a -> b -> a".into()
        )
    );
}
