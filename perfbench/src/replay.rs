//! Shared pieces of the two `ProxyCl` workloads: reference outputs, output
//! checks, and the traced replay of a program build and of
//! `ProxyCl::enqueue_concurrent_at` through the crates' public calls.

use crate::trace::{Trace, Tracer};
use crate::Outcome;
use accelos::chunk::Mode;
use accelos::jit::{transform_module, TransformInfo};
use accelos::policy::{plan_with_arrivals_and_faults, FaultSchedule, PlanCtx, SchedulingPolicy};
use accelos::proxycl::{PendingExec, RetryPolicy};
use accelos::scheduler::ExecRequest;
use clrt::{Arg, Buffer, Context, Event, Platform, Program};
use gpu_sim::{
    FaultEvent, FaultKind, FaultPlan, KernelLaunch, LaunchId, ReclaimCmd, ResumeCmd, SimReport,
    Simulator,
};
use kernel_ir::interp::{DynStats, ParSchedule};
use kernel_ir::{ExecTier, Interpreter, KernelProfile, ModuleFacts};
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use sched_metrics::profile::ProfileStore;
use std::time::Duration;

/// Output buffers as little-endian bytes.
pub fn read_outputs(ctx: &Context, outputs: &[Buffer]) -> Vec<Vec<u8>> {
    outputs
        .iter()
        .map(|b| {
            ctx.read_i32(*b)
                .expect("output buffer")
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect()
        })
        .collect()
}

/// Outputs of the *untransformed* kernel on the tree-walker, one thread:
/// what every transformed, scheduled launch must reproduce.
pub fn reference_outputs(
    spec: &KernelSpec,
    platform: &Platform,
    dataset_seed: u64,
) -> Vec<Vec<u8>> {
    let mut ctx = Context::new(platform);
    let program = Program::build(spec.source).expect("bundled kernel builds");
    let p = prepare_launch(spec, &mut ctx, &program, 1, dataset_seed).expect("dataset");
    let args = p.kernel.resolved_args().expect("arguments bound");
    let mut interp = Interpreter::new(p.kernel.module());
    interp.set_exec_tier(ExecTier::TreeWalk);
    interp
        .run_kernel_bytecode(
            ctx.memory_mut(),
            p.kernel.name(),
            p.ndrange,
            &args,
            1,
            ParSchedule::default(),
        )
        .expect("reference run");
    read_outputs(&ctx, &p.outputs)
}

fn words(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Kernels whose output bytes depend on work-group order.
pub const ORDER_DEPENDENT: [&str; 2] = ["bfs", "mri-gridding_reorder"];

/// Whether a scheduled launch's outputs are correct. Most kernels must be
/// byte-equal to the reference. `bfs` and `mri-gridding_reorder` allocate
/// output slots with atomics, so their bytes depend on work-group order
/// (see `tests/jit_differential.rs`); they are checked on order-independent
/// properties instead: `bfs` must reach exactly the reference distances and
/// count at least one append per newly reached node, and `reorder` must
/// hold the same multiset of values.
pub fn outputs_match(kernel: &str, got: &[Vec<u8>], want: &[Vec<u8>]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    match kernel {
        "bfs" => {
            let dist = words(&got[0]);
            let reached = dist.iter().filter(|&&d| d == 2).count() as i64;
            let count = words(&got[1])[0] as i64;
            got[0] == want[0] && count >= reached && count <= 16 * dist.len() as i64
        }
        "mri-gridding_reorder" => {
            let (mut a, mut b) = (words(&got[0]), words(&want[0]));
            a.sort_unstable();
            b.sort_unstable();
            a == b
        }
        _ => got == want,
    }
}

/// Counters the replay accumulates across ops.
#[derive(Default)]
pub struct Counters {
    pub launches: u64,
    pub vm_insns: u64,
    pub parallel_launches: u64,
    pub retry_incarnations: u64,
    pub faults_injected: u64,
    pub reclaims: u64,
    pub resumes: u64,
}

/// A traced program build: the steps `ProxyCl::build_program` takes (front
/// end, §6 JIT, then `Program::from_module`'s verify, profile and
/// accelcheck), each timed on its own. Wrapping the module into a program
/// repeats those three checks; that repeat is the benchmark's own cost.
pub fn build_traced(t: &mut Tracer, source: &str) -> (Program, Vec<TransformInfo>) {
    let module = t.span("minicl.compile", |_| {
        minicl::compile(source).expect("front end")
    });
    let transformed = t.span("accelos.jit.transform", |_| {
        transform_module(&module, Mode::Optimized).expect("JIT")
    });
    let m = &transformed.module;
    t.span("kernel_ir.verify", |_| {
        kernel_ir::verify::verify_module(m).expect("verifies")
    });
    t.span("kernel_ir.profile", |_| {
        KernelProfile::all(m).expect("profiles")
    });
    t.span("kernel_ir.accelcheck", |_| ModuleFacts::compute(m));
    let program = t.span("perfbench.program_wrap", |_| {
        Program::from_module(transformed.module, source).expect("program")
    });
    (program, transformed.kernels)
}

/// Result of a replayed enqueue, comparable with `ProxyCl`'s.
pub struct Replayed {
    /// Per request: (start, end) relative to the batch's queue time, and
    /// the functional statistics.
    pub events: Vec<(u64, u64, DynStats)>,
    pub report: SimReport,
    /// Launch ids of each request's incarnations, oldest first.
    pub lineage: Vec<Vec<LaunchId>>,
    /// Planned groups of each request.
    pub planned: Vec<u64>,
}

impl Replayed {
    /// Exactly-once retry: each request's incarnations executed its
    /// planned groups exactly, every incarnation but the last aborted.
    pub fn lineages_conserve(&self) -> bool {
        self.lineage
            .iter()
            .zip(&self.planned)
            .all(|(ids, &planned)| {
                let executed: u64 = ids
                    .iter()
                    .map(|&id| self.report.kernel(id).groups_executed as u64)
                    .sum();
                let (last, earlier) = ids.split_last().expect("lineage is never empty");
                executed == planned
                    && !self.report.kernel(*last).aborted
                    && earlier.iter().all(|&id| self.report.kernel(id).aborted)
            })
    }

    pub fn matches(&self, events: &[Event]) -> bool {
        self.events.len() == events.len()
            && self.events.iter().zip(events).all(|((s, e, stats), ev)| {
                *s == ev.start - ev.queued && *e == ev.end - ev.queued && *stats == ev.stats
            })
    }
}

/// Replay `ProxyCl::enqueue_concurrent_at` on `ctx` step by step: the
/// policy's cohort plan, the functional run of every transformed kernel,
/// the joint simulation with its retry loop, and the profile-store write
/// back. Returns `Err` where `ProxyCl` would.
#[allow(clippy::too_many_arguments)]
pub fn enqueue_replay(
    t: &mut Tracer,
    ctx: &mut Context,
    policy: &dyn SchedulingPolicy,
    store: Option<&mut ProfileStore>,
    faults: &FaultPlan,
    retry: RetryPolicy,
    batch: &[PendingExec],
    arrivals: &[u64],
    c: &mut Counters,
) -> Result<Replayed, String> {
    let requests: Vec<ExecRequest> = batch
        .iter()
        .map(|p| {
            let req = clrt::launch_requirements(&p.kernel, p.ndrange);
            ExecRequest::new(
                p.kernel.name(),
                p.ndrange,
                req.local_mem,
                req.regs_per_thread,
                p.chunk,
            )
        })
        .collect();
    let mut abort_times: Vec<Vec<u64>> = vec![Vec::new(); batch.len()];
    let mut device_faults: Vec<FaultEvent> = Vec::new();
    for ev in &faults.events {
        match ev.kind {
            FaultKind::KernelAbort { launch } => abort_times
                .get_mut(launch.0 as usize)
                .ok_or("abort outside the batch")?
                .push(ev.at),
            _ => device_faults.push(*ev),
        }
    }
    let estimates: Vec<Option<u64>> = match store.as_deref() {
        Some(s) => t.span("sched_metrics.profile", |_| {
            batch
                .iter()
                .map(|p| s.estimate(p.kernel.name(), p.ndrange.total_items()))
                .collect()
        }),
        None => Vec::new(),
    };
    let device = ctx.device().clone();
    let mut planning_ctx = PlanCtx::new(&device);
    if estimates.iter().any(Option::is_some) {
        planning_ctx = planning_ctx.with_estimates(&estimates);
    }
    let schedule = t.span("accelos.policy.plan_with_arrivals", |_| {
        plan_with_arrivals_and_faults(
            policy,
            &planning_ctx,
            &requests,
            arrivals,
            &FaultSchedule::from_fault_plan(faults),
        )
    });
    c.reclaims += schedule.reclaims.len() as u64;
    c.resumes += schedule.resumes.len() as u64;
    let decisions = schedule.decisions;

    let tier = ExecTier::from_env();
    let threads = kernel_ir::interp::default_interp_threads();
    let mut all_stats = Vec::with_capacity(batch.len());
    for (pending, decision) in batch.iter().zip(&decisions) {
        let rt = ctx.create_buffer(8 * decision.descriptor.len());
        ctx.write_i64(rt, &decision.descriptor)
            .map_err(|e| e.to_string())?;
        let mut kernel = pending.kernel.clone();
        let rt_index = kernel.arity() - 1;
        kernel
            .set_arg(rt_index, Arg::Buffer(rt))
            .map_err(|e| e.to_string())?;
        let args = kernel.resolved_args().map_err(|e| e.to_string())?;
        let mut interp = Interpreter::with_facts(kernel.module(), kernel.facts());
        interp.set_exec_tier(tier);
        let range = decision.hardware_range;
        // The VM makes the same check inside `run_kernel_tiered`; repeating
        // it here to count it is the benchmark's cost, not the glue's.
        let parallel = t.span("perfbench.parallel_check", |_| {
            threads.min(range.total_groups()) > 1
                && interp.parallel_eligible(kernel.name(), range, &args)
        });
        c.parallel_launches += u64::from(parallel);
        let stats = t
            .span("kernel_ir.vm", |_| {
                interp.run_kernel_tiered(ctx.memory_mut(), kernel.name(), range, &args)
            })
            .map_err(|e| e.to_string())?;
        c.launches += 1;
        c.vm_insns += stats.total_insns;
        all_stats.push(stats);
    }

    let staggered = arrivals.iter().any(|&a| a != arrivals[0]);
    let plan_ctx = PlanCtx::new(&device);
    let launches: Vec<KernelLaunch> = batch
        .iter()
        .zip(&decisions)
        .zip(&all_stats)
        .enumerate()
        .map(|(i, ((pending, decision), stats))| {
            let total_vgs = decision.descriptor[1] as u64;
            let per_vg = if total_vgs == 0 {
                1
            } else {
                (stats.total_insns / total_vgs.max(1)).max(1)
            };
            let mem_intensity = if stats.total_insns == 0 {
                0.0
            } else {
                (stats.mem_ops as f64 / stats.total_insns as f64).min(1.0)
            };
            KernelLaunch {
                name: pending.kernel.name().to_string(),
                arrival: arrivals[i],
                req: clrt::launch_requirements(&pending.kernel, pending.ndrange),
                mem_intensity,
                plan: decision.to_sim_plan(vec![per_vg; total_vgs as usize], 1),
                max_workers: if staggered {
                    policy.solo_workers(&plan_ctx, i, &requests[i])
                } else {
                    None
                },
            }
        })
        .collect();

    let mut copies: Vec<Vec<(u64, u64)>> = vec![Vec::new(); batch.len()];
    let (report, lineage) = loop {
        let (report, lineage) = t.span("gpu_sim.proxycl", |_| {
            let mut sim = Simulator::new(device.clone());
            let mut lineage: Vec<Vec<LaunchId>> = launches
                .iter()
                .map(|l| vec![sim.add_launch(l.clone())])
                .collect();
            for (i, arrs) in copies.iter().enumerate() {
                for &(arrival, resume_from) in arrs {
                    let mut copy = launches[i].clone();
                    copy.arrival = arrival;
                    if resume_from > 0 {
                        copy.plan = launches[i].plan.tail(resume_from);
                    }
                    lineage[i].push(sim.add_launch(copy));
                }
            }
            for r in &schedule.reclaims {
                sim.add_reclaim(ReclaimCmd {
                    at: r.at,
                    launch: lineage[r.index][0],
                    workers: r.workers,
                    pressure: r.pressure.map(|p| lineage[p][0]),
                    chunk: None,
                });
            }
            for r in &schedule.resumes {
                sim.add_resume(ResumeCmd {
                    after: lineage[r.after][0],
                    launch: lineage[r.index][0],
                    workers: r.workers,
                });
            }
            for ev in &device_faults {
                sim.add_fault(*ev);
            }
            for (i, times) in abort_times.iter().enumerate() {
                for (j, &at) in times.iter().enumerate() {
                    if let Some(&id) = lineage[i].get(j) {
                        sim.add_fault(FaultEvent {
                            at,
                            kind: FaultKind::KernelAbort { launch: id },
                        });
                    }
                }
            }
            (sim.run(), lineage)
        });
        let mut respawned = false;
        for (i, ids) in lineage.iter().enumerate() {
            let newest = report.kernel(*ids.last().expect("lineage is never empty"));
            if !newest.aborted {
                continue;
            }
            let spent = copies[i].len() as u32;
            if spent >= retry.max_attempts {
                return Err(format!(
                    "`{}` exhausted its retries",
                    batch[i].kernel.name()
                ));
            }
            let checkpoint: u64 = if retry.checkpoint {
                ids.iter()
                    .map(|&id| report.kernel(id).groups_executed as u64)
                    .sum()
            } else {
                0
            };
            copies[i].push((
                newest.end.saturating_add(retry.backoff_delay(spent)),
                checkpoint,
            ));
            respawned = true;
        }
        if !respawned {
            break (report, lineage);
        }
    };
    c.retry_incarnations += copies.iter().map(|v| v.len() as u64).sum::<u64>();
    c.faults_injected += report.faults_injected as u64;

    if let Some(s) = store {
        t.span("sched_metrics.profile", |_| {
            for (i, (pending, ids)) in batch.iter().zip(&lineage).enumerate() {
                let newest = report.kernel(*ids.last().expect("lineage is never empty"));
                if newest.groups_executed as u64 != launches[i].plan.total_groups() {
                    continue;
                }
                let solo = plan_ctx.solo_share(i, &requests[i].demand);
                if let Some(obs) = newest.isolated_observation(decisions[i].workers, solo) {
                    s.record(pending.kernel.name(), pending.ndrange.total_items(), obs);
                }
            }
        });
    }

    let events = lineage
        .iter()
        .zip(all_stats)
        .map(|(ids, stats)| {
            let first = ids
                .iter()
                .filter_map(|&id| report.kernel(id).first_start)
                .min();
            let end = report
                .kernel(*ids.last().expect("lineage is never empty"))
                .end;
            (first.unwrap_or(0), end, stats)
        })
        .collect();
    let planned = launches.iter().map(|l| l.plan.total_groups()).collect();
    Ok(Replayed {
        events,
        report,
        lineage,
        planned,
    })
}

/// Field-by-field digest of a simulation report.
pub fn digest_report(d: &mut crate::stats::Digest, report: &SimReport) {
    d.u64(report.makespan);
    d.u64(report.faults_injected as u64);
    for k in &report.kernels {
        d.bytes(k.name.as_bytes());
        for x in [
            k.arrival,
            k.first_start.map_or(u64::MAX, |s| s),
            k.end,
            k.machine_wgs as u64,
            k.groups_executed as u64,
            k.preemptions as u64,
            k.reclaimed_workers as u64,
            k.pauses as u64,
            k.resumes as u64,
            k.resumed_workers as u64,
            k.chunks_lost as u64,
            k.groups_retried as u64,
            u64::from(k.aborted),
        ] {
            d.u64(x);
        }
        for &(a, b) in &k.busy_intervals {
            d.u64(a);
            d.u64(b);
        }
    }
}

/// Untraced and traced timings of the ops a traced run replayed.
pub struct Timings {
    pub ops: usize,
    /// Untraced time spent inside `enqueue_concurrent[_at]`.
    pub enqueue: Duration,
    /// Untraced and traced time of the whole ops.
    pub plain: Duration,
    pub traced: Duration,
    /// Kernel instructions the untraced enqueues retired.
    pub insns: u64,
}

/// The per-layer metrics both `ProxyCl` workloads report from a replay.
pub fn proxy_layers(out: &mut Outcome, trace: &Trace, c: &Counters, tm: &Timings) {
    let vm = trace.get("kernel_ir.vm");
    let sim = trace.get("gpu_sim.proxycl");
    let launches = c.launches.max(1) as f64;
    for name in [
        "minicl.compile",
        "accelos.jit.transform",
        "kernel_ir.verify",
        "kernel_ir.profile",
        "kernel_ir.accelcheck",
        "parboil.datasets",
        "accelos.policy.plan_with_arrivals",
        "kernel_ir.vm",
        "sched_metrics.profile",
    ] {
        out.metric(&format!("{name}.s"), trace.self_s(name));
    }
    out.metric("accelos.policy.reclaims", c.reclaims as f64);
    out.metric("accelos.policy.resumes", c.resumes as f64);
    out.metric("kernel_ir.vm.insns", c.vm_insns as f64);
    out.metric(
        "kernel_ir.vm.ns_per_insn",
        vm.total_ns as f64 / c.vm_insns.max(1) as f64,
    );
    out.metric(
        "kernel_ir.vm.us_per_launch",
        vm.total_ns as f64 / 1e3 / launches,
    );
    out.metric(
        "kernel_ir.vm.parallel_share",
        c.parallel_launches as f64 / launches,
    );
    out.metric(
        "gpu_sim.proxycl.us_per_run",
        sim.total_ns as f64 / 1e3 / sim.calls.max(1) as f64,
    );
    out.metric("gpu_sim.retry_incarnations", c.retry_incarnations as f64);
    out.metric("gpu_sim.faults_injected", c.faults_injected as f64);
    // The runtime's own work per launch (requests, descriptors, argument
    // binding, launch building, events): the enqueue span's self time.
    // Subtracting the plan, VM and simulation spans from a second, untraced
    // timing of the same enqueue would bury it under the VM's run-to-run
    // noise (hundreds of µs per launch on proxycl-parboil).
    out.metric(
        "accelos.proxycl.glue_us_per_launch",
        trace.self_s("accelos.proxycl.enqueue") * 1e6 / launches,
    );
    out.metric(
        "minsns_per_s",
        tm.insns as f64 / tm.enqueue.as_secs_f64() / 1e6,
    );
    let (plain_ops, traced_ops) = (
        tm.ops as f64 / tm.plain.as_secs_f64(),
        tm.ops as f64 / tm.traced.as_secs_f64(),
    );
    out.metric("trace.overhead_ops_per_s", traced_ops - plain_ops);
    out.fact("traced_ops_per_s", traced_ops.to_string());
    out.fact("untraced_ops_per_s", plain_ops.to_string());
    out.fact("trace_ops", tm.ops.to_string());
}
