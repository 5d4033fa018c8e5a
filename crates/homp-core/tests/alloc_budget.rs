//! Exact allocation gate on the per-offload path.
//!
//! A counting global allocator tallies every allocation (and growing
//! reallocation) made by the current thread, so the parallel test
//! threads never mix their counts. The steady-state count of one
//! reseeded `offload().run()` is a deterministic property of the code,
//! independent of the host, which makes it a portable perf gate: a
//! change that adds per-offload allocations fails here on any machine.
//!
//! The budgets are pinned exactly. A change that lowers a count should
//! lower its pin in the same commit, so the saving cannot be lost again
//! unnoticed.

use homp_core::{Algorithm, FaultConfig, FnKernel, OffloadRegion, Range, Runtime};
use homp_lang::{DistPolicy, MapDir};
use homp_model::KernelIntensity;
use homp_sim::{DeviceId, FaultPlan, Machine, TraceLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread allocation counter.
struct Counting;

fn bump() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a `const`-initialized thread-local `Cell`,
// which neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn aligned() -> DistPolicy {
    DistPolicy::Align { target: "loop".into(), ratio: 1 }
}

/// AXPY over 10M elements: `x`, `y` aligned with the loop.
fn axpy(devices: Vec<DeviceId>, algorithm: Algorithm) -> (OffloadRegion, KernelIntensity) {
    let n = 10_000_000;
    let region = OffloadRegion::builder("axpy")
        .trip_count(n)
        .devices(devices)
        .algorithm(algorithm)
        .map_1d("x", MapDir::To, n, 8, aligned())
        .map_1d("y", MapDir::ToFrom, n, 8, aligned())
        .scalars(16)
        .build();
    let intensity = KernelIntensity {
        flops_per_iter: 2.0,
        mem_elems_per_iter: 3.0,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    };
    (region, intensity)
}

/// 6144² matrix multiplication: rows of `A`, `C` aligned, `B` replicated.
fn matmul(devices: Vec<DeviceId>, algorithm: Algorithm) -> (OffloadRegion, KernelIntensity) {
    let n = 6_144;
    let region = OffloadRegion::builder("matmul")
        .trip_count(n)
        .devices(devices)
        .algorithm(algorithm)
        .map_2d("A", MapDir::To, n, n, 8, aligned(), DistPolicy::Full, None)
        .map_2d("B", MapDir::To, n, n, 8, DistPolicy::Full, DistPolicy::Full, None)
        .map_2d("C", MapDir::From, n, n, 8, aligned(), DistPolicy::Full, None)
        .scalars(8)
        .build();
    let nf = n as f64;
    let intensity = KernelIntensity {
        flops_per_iter: 2.0 * nf * nf,
        mem_elems_per_iter: 3.0 * nf,
        data_elems_per_iter: 3.0 * nf,
        elem_bytes: 8.0,
    };
    (region, intensity)
}

type Build = fn(Vec<DeviceId>, Algorithm) -> (OffloadRegion, KernelIntensity);

/// Allocations made by the last of several reseeded offloads of the
/// same region on one runtime: reset, offload, and dropping the report.
/// `configure` runs once on the fresh runtime, before any offload.
fn steady_state_allocs(build: Build, algorithm: Algorithm, configure: fn(&mut Runtime)) -> u64 {
    let machine = Machine::full_node();
    let devices = (0..machine.len() as DeviceId).collect();
    let (region, intensity) = build(devices, algorithm);
    let mut kernel = FnKernel::new(intensity, |r: Range| {
        std::hint::black_box(r);
    });
    let mut rt = Runtime::new(machine, 42);
    configure(&mut rt);
    let mut op = |rt: &mut Runtime| {
        rt.reset_with_seed(42);
        drop(rt.offload(&region, &mut kernel).run().expect("offload runs"));
    };
    for _ in 0..3 {
        op(&mut rt);
    }
    let before = ALLOCS.with(Cell::get);
    op(&mut rt);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn block_axpy_allocation_budget() {
    // 53 while `DataPlan` keyed its alignment graph by owned names and
    // every trace hand-off rebuilt the label table.
    assert_eq!(
        steady_state_allocs(axpy, Algorithm::Block, |_| {}),
        20,
        "BLOCK axpy allocations per offload"
    );
}

#[test]
fn model_2_matmul_allocation_budget() {
    let alg = Algorithm::Model2 { cutoff: None };
    // 63 before the same two cuts.
    assert_eq!(
        steady_state_allocs(matmul, alg, |_| {}),
        28,
        "MODEL_2 matmul allocations per offload"
    );
}

/// A throughput run under faults: no trace, device 2 three times slower
/// throughout, device 3 gone from 0.5 ms to 0.7 ms. The axpy takes
/// about 2.9 ms, so the engine marks seven stretched ops and one
/// dropout, and the runtime requeues a chunk and reintegrates device 3.
fn faulted_untraced(rt: &mut Runtime) {
    let plan = FaultPlan::new(7)
        .with_slowdown(2, 3.0, 0.0, 1.0)
        .with_dropout_at(3, 5e-4)
        .with_recovery_at(3, 7e-4);
    rt.set_fault_config(FaultConfig::new(plan));
    rt.set_trace_level(TraceLevel::Off);
}

#[test]
fn faulted_dynamic_axpy_allocation_budget() {
    let alg = Algorithm::Dynamic { chunk_pct: 2.0 };
    // 57 while each of the eight fault markers formatted its tagged
    // label (two allocations apiece), even for a trace that drops it.
    assert_eq!(
        steady_state_allocs(axpy, alg, faulted_untraced),
        41,
        "faulted SCHED_DYNAMIC axpy allocations per offload at TraceLevel::Off"
    );
}
