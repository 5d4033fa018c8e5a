//! Directive text for the six paper kernels, timed through the
//! `lang` (parse) and `compile` layers.
//!
//! Each source is the HOMP spelling of the region `KernelSpec::region`
//! builds directly; [`compile_checked`] lowers it and checks that the
//! two agree on everything but the name, so the benchmark runs the
//! paper's regions whichever way they were made.

use crate::spans;
use homp_core::{compile, Algorithm, CompileOptions, OffloadRegion};
use homp_kernels::KernelSpec;
use homp_lang::{parse_directive, Env};
use homp_sim::Machine;

/// `(target part, loop clauses before dist_schedule)` per kernel.
fn source(spec: KernelSpec) -> (&'static str, &'static str) {
    match spec {
        KernelSpec::Axpy(_) => (
            "map(to: x[0:n] partition([ALIGN(loop)]), a, n) \
             map(tofrom: y[0:n] partition([ALIGN(loop)]))",
            "",
        ),
        KernelSpec::MatVec(_) => (
            "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), x[0:n], n) \
             map(from: y[0:n] partition([ALIGN(loop)]))",
            "",
        ),
        KernelSpec::MatMul(_) => (
            "map(to: A[0:n][0:n] partition([ALIGN(loop)], FULL), B[0:n][0:n], n) \
             map(from: C[0:n][0:n] partition([ALIGN(loop)], FULL))",
            "",
        ),
        KernelSpec::Stencil2d(_) => (
            "map(to: u[0:n][0:n] partition([ALIGN(loop)], FULL) halo(3,), n) \
             map(from: u_next[0:n][0:n] partition([ALIGN(loop)], FULL))",
            "",
        ),
        KernelSpec::Sum(_) => (
            "map(to: x[0:n] partition([ALIGN(loop)])) map(tofrom: s)",
            "reduction(+:s) ",
        ),
        KernelSpec::BlockMatching(_) => (
            "map(to: frame[0:n][0:n] partition([ALIGN(loop, 16)], FULL) halo(4,), \
             reference[0:n][0:n] partition([ALIGN(loop, 16)], FULL) halo(4,), n, s) \
             map(from: motion[0:rows][0:rows*2] partition([ALIGN(loop)], FULL))",
            "",
        ),
    }
}

fn env(spec: KernelSpec) -> Env {
    let n = match spec {
        KernelSpec::Axpy(n)
        | KernelSpec::MatVec(n)
        | KernelSpec::MatMul(n)
        | KernelSpec::Stencil2d(n)
        | KernelSpec::Sum(n)
        | KernelSpec::BlockMatching(n) => n,
    };
    let mut env = Env::new();
    env.insert("n".into(), n as i64);
    env.insert("rows".into(), (n / 16) as i64);
    env
}

/// Parse and lower `directives` for `machine`, each parse and the
/// lowering in their own span.
pub fn compile_text(
    directives: &[String],
    env: &Env,
    machine: &Machine,
    opts: &CompileOptions,
) -> OffloadRegion {
    let types: Vec<&str> = machine
        .devices
        .iter()
        .map(|d| d.dev_type.homp_name())
        .collect();
    let parsed: Vec<_> = directives
        .iter()
        .map(|src| {
            let _s = spans::span("lang.parse");
            parse_directive(src).unwrap_or_else(|e| panic!("directive parses: {e}\n{src}"))
        })
        .collect();
    let refs: Vec<_> = parsed.iter().collect();
    let _s = spans::span("compile");
    compile(&refs, env, &types, opts).expect("directives lower to a region")
}

/// The paper region for `spec` under `alg` on every device of
/// `machine`, compiled from directive text and checked against the
/// directly built region.
pub fn compile_checked(spec: KernelSpec, alg: Algorithm, machine: &Machine) -> OffloadRegion {
    let (target, loop_clauses) = source(spec);
    let directives = [
        format!("#pragma omp parallel target device(*) {target}"),
        format!("#pragma omp parallel for {loop_clauses}distribute dist_schedule(target:[{alg}])"),
    ];
    let region = compile_text(
        &directives,
        &env(spec),
        machine,
        &CompileOptions::for_kernel(&spec),
    );
    let built = spec.region((0..machine.len() as u32).collect(), alg);
    assert!(
        region.trip_count == built.trip_count
            && region.algorithm == built.algorithm
            && region.devices == built.devices
            && region.arrays == built.arrays
            && region.scalar_bytes == built.scalar_bytes
            && region.parallel_offload == built.parallel_offload
            && region.loop_align == built.loop_align,
        "compiled {} under {alg} differs from KernelSpec::region:\n{region:?}\nvs\n{built:?}",
        spec.label()
    );
    region
}
