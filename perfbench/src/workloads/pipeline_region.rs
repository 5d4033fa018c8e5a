//! `pipeline_region`: Jacobi sweep→resid chains of depth 4, overlapped
//! (`nowait`, `PerDeviceChunks`) on `four_k40`, inside a `target data`
//! region. Each op is one iteration: `target update to(f)` for the new
//! forcing term, the pipeline, then a plain `relax` offload that reads
//! the region's resident arrays and writes the iterate back (deferred
//! copy-back). The region opens with a round's first op and closes,
//! flushing, with its last. The stages do real f64 arithmetic, checked
//! bitwise against a serial host computation of the same chain.
//!
//! Why: the only workload on the overlapped pipeline executor, linked
//! intermediates and `DataEnv` elision; it also adds writes beside
//! reads (update-to, deferred copy-back, flush).

use super::{account, dataplan_probe, mix, plan_probe, replay_engine};
use crate::directives::compile_text;
use crate::kernel::{Log, Recorded};
use crate::{replay, spans, Mode, RoundOut, Workload};
use homp_core::{
    compile_data_region, ChunkingPolicy, CompileOptions, LoopKernel, OffloadRegion, Pipeline,
    PipelineKernel, Range, Runtime,
};
use homp_lang::{parse_directive, Env};
use homp_model::KernelIntensity;
use homp_sim::{Engine, Machine};
use std::cell::RefCell;
use std::time::Instant;

/// Grid points (the trip count of every stage).
const N: usize = 1 << 12;
/// Iterations (ops) per round, all inside one `target data` region.
const ITERS: usize = 8;
/// Pipeline chunks per device and stage.
const CHUNKS_PER_DEVICE: u32 = 4;
const H: f64 = 0.0625;

fn intensity(flops: f64, mem: f64) -> KernelIntensity {
    KernelIntensity {
        flops_per_iter: flops,
        mem_elems_per_iter: mem,
        data_elems_per_iter: 3.0,
        elem_bytes: 8.0,
    }
}

/// Stage cost by the kernel name the trace carries.
fn intensity_of(label: &str) -> KernelIntensity {
    if label.starts_with("sweep") {
        intensity(5.0, 5.0)
    } else {
        intensity(3.0, 3.0)
    }
}

/// Sweep: a three-point average of `src` plus the forcing term.
fn sweep(src: &[f64], f: &[f64], dst: &mut [f64], r: Range) {
    for j in r.start as usize..r.end as usize {
        let left = src[j.saturating_sub(1)];
        let right = src[(j + 1).min(N - 1)];
        dst[j] = (left + src[j] + right) * (1.0 / 3.0) + H * f[j];
    }
}

/// Residual correction: pull `src` towards the forcing term.
fn resid(src: &[f64], f: &[f64], dst: &mut [f64], r: Range) {
    for j in r.start as usize..r.end as usize {
        dst[j] = src[j] - 0.1 * (src[j] - f[j]);
    }
}

/// Relax: average the iterate with the chain's output.
fn relax_step(g0: &mut [f64], g4: &[f64], r: Range) {
    for j in r.start as usize..r.end as usize {
        g0[j] = 0.5 * (g0[j] + g4[j]);
    }
}

/// Stage `s` reads `g[s]` and writes `g[s + 1]`.
fn stage(g: &mut [Vec<f64>], f: &[f64], s: usize, r: Range) {
    let (lo, hi) = g.split_at_mut(s + 1);
    if s.is_multiple_of(2) {
        sweep(&lo[s], f, &mut hi[0], r);
    } else {
        resid(&lo[s], f, &mut hi[0], r);
    }
}

struct Chain<'a> {
    g: &'a mut [Vec<f64>],
    f: &'a [f64],
    log: &'a RefCell<Log>,
}

impl PipelineKernel for Chain<'_> {
    fn intensity(&self, s: usize) -> KernelIntensity {
        intensity_of(if s.is_multiple_of(2) {
            "sweep"
        } else {
            "resid"
        })
    }

    fn execute(&mut self, s: usize, r: Range) {
        let _s = spans::span("kernels.execute");
        stage(self.g, self.f, s, r);
        self.log.borrow_mut().record(s as u32, r);
    }
}

struct Relax<'a> {
    g: &'a mut [Vec<f64>],
}

impl LoopKernel for Relax<'_> {
    fn intensity(&self) -> KernelIntensity {
        intensity(2.0, 3.0)
    }

    fn execute(&mut self, r: Range) {
        let (g0, rest) = self.g.split_at_mut(1);
        relax_step(&mut g0[0], &rest[3], r);
    }
}

pub struct PipelineRegion {
    seed: u64,
    rt: Runtime,
    replay: Engine,
    data: OffloadRegion,
    pipe: Pipeline,
    relax: OffloadRegion,
    /// `g[0]` is the iterate, `g[1..=4]` the chain's outputs.
    g: Vec<Vec<f64>>,
    f: Vec<f64>,
    g0_init: Vec<f64>,
    forcing: Vec<Vec<f64>>,
    /// Serial results per iteration: `(g[0] after relax, g[4])`.
    expected: Vec<(Vec<f64>, Vec<f64>)>,
    log: RefCell<Log>,
}

fn align(name: &str) -> String {
    format!("{name}[0:n] partition([ALIGN(loop)])")
}

impl PipelineRegion {
    pub fn new(seed: u64) -> Self {
        let machine = Machine::four_k40();
        let mut env = Env::new();
        env.insert("n".into(), N as i64);
        let loop_dir = "#pragma omp parallel for distribute dist_schedule(target:[BLOCK])";
        let mut pipe = Pipeline::builder("jacobi-chain")
            .chunking(ChunkingPolicy::PerDeviceChunks(CHUNKS_PER_DEVICE));
        for s in 0..4 {
            let name = format!("{}{}", if s % 2 == 0 { "sweep" } else { "resid" }, s / 2);
            let nowait = if s < 3 { "nowait " } else { "" };
            let halo = if s % 2 == 0 { " halo(1)" } else { "" };
            let target = format!(
                "#pragma omp parallel target device(*) {nowait}map(to: {}{halo}, {}, n) \
                 map(tofrom: {})",
                align(&format!("g{s}")),
                align("f"),
                align(&format!("g{}", s + 1)),
            );
            let opts = CompileOptions::for_loop(name, N as u64);
            pipe = pipe.then(compile_text(
                &[target, loop_dir.into()],
                &env,
                &machine,
                &opts,
            ));
        }
        let relax = compile_text(
            &[
                format!(
                    "#pragma omp parallel target device(*) map(to: {}, {}, n) map(tofrom: {})",
                    align("g4"),
                    align("f"),
                    align("g0")
                ),
                loop_dir.into(),
            ],
            &env,
            &machine,
            &CompileOptions::for_loop("relax", N as u64),
        );
        let data_src = format!(
            "#pragma omp parallel target data device(*) map(to: {}, n) map(tofrom: {})",
            align("f"),
            align("g0")
        );
        let data = {
            let types: Vec<&str> = machine
                .devices
                .iter()
                .map(|d| d.dev_type.homp_name())
                .collect();
            let d = {
                let _s = spans::span("lang.parse");
                parse_directive(&data_src).expect("target data directive parses")
            };
            let _s = spans::span("compile");
            compile_data_region(
                &[&d],
                &env,
                &types,
                &CompileOptions::for_loop("region", N as u64),
            )
            .expect("target data directive lowers")
        };

        // Inputs from the seed, and the serial reference of every iteration.
        let unit = |i: u64| (mix(seed, i) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let g0_init: Vec<f64> = (0..N as u64).map(unit).collect();
        let forcing: Vec<Vec<f64>> = (0..ITERS as u64)
            .map(|k| (0..N as u64).map(|i| unit((k + 1) << 32 | i)).collect())
            .collect();
        let mut g = vec![vec![0.0; N]; 5];
        g[0].copy_from_slice(&g0_init);
        let all = Range::new(0, N as u64);
        let expected = forcing
            .iter()
            .map(|f| {
                for s in 0..4 {
                    stage(&mut g, f, s, all);
                }
                let (g0, rest) = g.split_at_mut(1);
                relax_step(&mut g0[0], &rest[3], all);
                (g[0].clone(), g[4].clone())
            })
            .collect();

        PipelineRegion {
            seed,
            rt: Runtime::new(machine.clone(), seed),
            replay: replay_engine(machine, seed),
            data,
            pipe: pipe.build(),
            relax,
            g,
            f: vec![0.0; N],
            g0_init,
            forcing,
            expected,
            log: RefCell::new(Log::default()),
        }
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for PipelineRegion {
    fn round(&mut self, mode: Mode, out: &mut RoundOut) {
        self.rt.reset_with_seed(self.seed);
        self.rt.set_trace_level(mode.level);
        self.g[0].copy_from_slice(&self.g0_init);
        for k in 0..ITERS {
            spans::next_op();
            let _op = spans::span("op");
            self.f.copy_from_slice(&self.forcing[k]);
            self.log.borrow_mut().clear();
            if mode.probes {
                for region in self.pipe.stages.iter().chain([&self.relax]) {
                    plan_probe(&self.rt, region, &intensity_of(&region.name));
                    dataplan_probe(region);
                }
            }
            let ops_before = self.rt.sim_ops();
            let alloc_before = crate::alloc::snapshot();
            let t = Instant::now();
            if k == 0 {
                let _s = spans::span("data_env.region");
                self.rt.data_region_begin(&self.data);
            }
            let update = {
                let _s = spans::span("data_env.region");
                self.rt.target_update(&["f"], &[])
            };
            let calls_before = self.rt.sim_ops();
            let pipeline = {
                let _s = spans::span("runtime.call");
                let mut chain = Chain {
                    g: &mut self.g,
                    f: &self.f,
                    log: &self.log,
                };
                self.rt.offload_pipeline(&self.pipe, &mut chain)
            };
            let relaxed = {
                let _s = spans::span("runtime.call");
                let mut kernel = Recorded {
                    inner: Relax { g: &mut self.g },
                    tag: 4,
                    log: &self.log,
                };
                self.rt.offload(&self.relax, &mut kernel).run()
            };
            let call_ops = self.rt.sim_ops() - calls_before;
            let closed = (k + 1 == ITERS).then(|| {
                let _s = spans::span("data_env.region");
                self.rt.data_region_end()
            });
            let wall = t.elapsed().as_nanos() as u64;
            out.add_allocs(alloc_before);
            let engine_ops = self.rt.sim_ops() - ops_before;
            out.ops += 1;
            out.walls_ns.push(wall);
            let (Ok(update), Ok(pipeline), Ok(relaxed), Ok(closed)) =
                (update, pipeline, relaxed, closed.transpose())
            else {
                out.failed += 1;
                out.digest.word(u64::MAX);
                continue;
            };

            let n = N as u64;
            let mut ok = true;
            for st in &pipeline.stages {
                ok &= account(out, st, n);
            }
            ok &= account(out, &relaxed, n);
            ok &= self.log.borrow_mut().partitions(5, |_| n);
            let (want_g0, want_g4) = &self.expected[k];
            ok &= bitwise_eq(&self.g[0], want_g0) && bitwise_eq(&self.g[4], want_g4);
            if mode.probes {
                self.replay.reset_with_seed(self.seed);
                let mut replayed = replay::replay(&mut self.replay, &pipeline.trace, &intensity_of);
                replayed += replay::replay(&mut self.replay, &relaxed.trace, &intensity_of);
                ok &= replayed == call_ops;
            }
            out.failed += u64::from(!ok);
            out.digest.f64(pipeline.makespan.as_secs());
            out.digest.words(&[engine_ops, update.h2d_bytes]);
            out.sim_ms.push(pipeline.time_ms());
            out.engine_ops += engine_ops;
            out.exec_calls += self.log.borrow().calls;
            out.trace_events += pipeline.trace.len() as u64;
            out.overlap_ms += pipeline.overlap().as_millis();
            out.pipeline_chunks += pipeline.stages.iter().map(|s| s.chunks).sum::<u64>();
            if let Some(closed) = closed {
                out.digest.word(closed.flushed_bytes);
                out.h2d_bytes += closed.stats.h2d_bytes;
                out.elided_bytes += closed.stats.h2d_elided_bytes + closed.stats.d2h_elided_bytes;
            }
        }
    }
}
