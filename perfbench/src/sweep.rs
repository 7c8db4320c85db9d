//! `paper-sweep`: the paper's evaluation sweep on the K20m preset.
//!
//! An op is one `(workload × repetition)` unit of the default-scale grid
//! (the 2-, 4- and 8-kernel Parboil workloads `SweepConfig::workloads`
//! generates, all four `PolicySet::paper()` policies). Units are
//! interleaved across the three request sizes so every prefix of the op
//! list has the sweep's mix, and they run on a pool of worker threads as
//! the harness sweep fans them out. Unit `(workload i, rep r)` is
//! `measure_workload(.., reps = 1, base + i + r)`: the sweep seeds
//! repetition `r` of workload `i` with `base + i + r`.
//!
//! The grid is the default sweep's (generated from its own seed, 2016);
//! the benchmark seed picks `base`, i.e. every unit's cost draw. The first
//! lap over the grid feeds the quantiles, `unfairness`, `stp` and the
//! digest, so they are always taken over the whole sweep.

use crate::stats::{window_rate, windowed_latency, Digest};
use crate::trace::{Trace, Tracer};
use crate::Outcome;
use accel_harness::experiments::{measure_workload, sweep, Sweep, WorkloadMetrics};
use accel_harness::runner::{RepContext, Runner, WorkloadRun};
use accel_harness::shard::{
    merge_shards, parse_shard_file, render_shard_file, DeviceShard, PartialSweep, ShardSpec,
    REQUEST_SIZES,
};
use accel_harness::workloads::{SweepConfig, Workload};
use accelos::policy::{PlanCtx, PolicySet, SchedulingPolicy};
use gpu_sim::{DeviceConfig, FaultPlan, KernelLaunch, SimReport, Simulator, WorkGroupReq};
use sched_metrics::IntervalSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Units per window (about a second on one worker): `ops_per_s` is read
/// over windows of this many completions, and the latency quantiles over
/// windows of this many consecutive units of the first lap (24 windows;
/// p90 keeps 14 samples beyond it).
const WINDOW_UNITS: usize = 142;
/// Set-ups before the run; one more is timed before every window's first
/// unit, and `setup_s` is read over all of them.
const SETUPS: usize = 3;
/// Every this-many op of the first lap is replayed on one thread after
/// the run.
const CHECK_STRIDE: usize = 32;
/// The fixed grid a traced run replays (512 units).
fn trace_grid(seed: u64) -> SweepConfig {
    SweepConfig {
        pairs: 160,
        n4: 48,
        n8: 48,
        reps: 2,
        seed,
    }
}

/// Per-virtual-group software cost the harness adds to every planned
/// launch (`PER_VG_OVERHEAD` in `accel_harness::runner`). A drift shows
/// up as a replay mismatch.
const PER_VG_OVERHEAD: u64 = 2;

/// Multiplier the harness applies to a repetition's seed.
const REP_SEED_MUL: u64 = 0x9e37_79b9;

/// One `(workload, repetition)` unit of a sweep grid.
struct Unit {
    size_slot: usize,
    index: usize,
    rep: u32,
    workload: Workload,
}

impl Unit {
    /// The `seed` argument of the equivalent `measure_workload` call.
    fn base_seed(&self, cfg: &SweepConfig) -> u64 {
        cfg.seed
            .wrapping_add(self.index as u64)
            .wrapping_add(self.rep as u64)
    }
}

/// The grid's units, interleaved so the three request sizes keep their
/// proportions in every prefix.
fn units(cfg: &SweepConfig) -> Vec<Unit> {
    let mut keyed = Vec::new();
    for (size_slot, &size) in REQUEST_SIZES.iter().enumerate() {
        let grid = cfg.workloads(size);
        let n = grid.len() * cfg.reps.max(1) as usize;
        let mut k = 0usize;
        for (index, workload) in grid.into_iter().enumerate() {
            for rep in 0..cfg.reps.max(1) {
                let key = ((2 * k + 1) as u128 * 1_000_000 / (2 * n) as u128) as u64;
                keyed.push((
                    key,
                    size_slot,
                    k,
                    Unit {
                        size_slot,
                        index,
                        rep,
                        workload: workload.clone(),
                    },
                ));
                k += 1;
            }
        }
    }
    keyed.sort_by_key(|(key, slot, k, _)| (*key, *slot, *k));
    keyed.into_iter().map(|(.., u)| u).collect()
}

fn device() -> DeviceConfig {
    DeviceConfig::k20m()
}

fn metrics_ok(m: &WorkloadMetrics) -> bool {
    let positive = [&m.unfairness, &m.total_time, &m.stp, &m.antt, &m.worst_antt];
    positive
        .iter()
        .all(|v| v.iter().all(|x| x.is_finite() && *x > 0.0))
        && m.unfairness.iter().all(|&u| u >= 1.0 - 1e-12)
        && m.overlap.iter().all(|&o| (0.0..=1.0 + 1e-12).contains(&o))
        && m.total_time.iter().all(|&t| t >= 1.0)
}

fn digest_metrics(d: &mut Digest, m: &WorkloadMetrics) {
    for v in [
        &m.unfairness,
        &m.overlap,
        &m.total_time,
        &m.stp,
        &m.antt,
        &m.worst_antt,
    ] {
        for &x in v {
            d.f64(x);
        }
    }
}

/// Shared isolated-time cache of a replay, keyed like the runner's:
/// (policy name, kernel, repetition seed).
#[derive(Default)]
struct IsoCache {
    times: Mutex<HashMap<(String, &'static str, u64), u64>>,
}

/// Work-conservation check of one simulation: every launch finished and
/// executed exactly its planned groups.
fn conserves(report: &SimReport, totals: &[u64]) -> bool {
    report.kernels.len() == totals.len()
        && report
            .kernels
            .iter()
            .zip(totals)
            .all(|(k, &t)| !k.aborted && k.groups_executed as u64 == t)
}

fn simulate(device: &DeviceConfig, launches: Vec<KernelLaunch>) -> SimReport {
    let mut sim = Simulator::new(device.clone());
    for l in launches {
        sim.add_launch(l);
    }
    sim.with_faults(FaultPlan::default()).run()
}

/// The launches the runner builds for a session (`Runner::launches_in`),
/// or for kernel `solo` of it alone (the isolated-time run).
fn build_launches(
    t: &mut Tracer,
    runner: &Runner,
    ctx: &RepContext<'_>,
    policy: &dyn SchedulingPolicy,
    solo: Option<usize>,
) -> Vec<KernelLaunch> {
    let all = ctx.exec_requests(policy.chunk_mode());
    let specs = ctx.workload();
    let indices: Vec<usize> = match solo {
        Some(i) => vec![i],
        None => (0..specs.len()).collect(),
    };
    let requests: Vec<_> = indices.iter().map(|&i| all[i].clone()).collect();
    let plan_ctx = match solo {
        Some(_) => PlanCtx::new(runner.device()),
        None => ctx.plan_ctx(),
    };
    let decisions = t.span("accelos.policy.plan", |_| policy.plan(&plan_ctx, &requests));
    decisions
        .iter()
        .zip(&indices)
        .enumerate()
        .map(|(j, (decision, &i))| {
            let spec = specs[i];
            let (_, profile) = runner.db().get(spec.name).expect("kernel in the db");
            KernelLaunch {
                name: spec.name.to_string(),
                arrival: 0,
                req: WorkGroupReq {
                    threads: spec.wg_size,
                    local_mem: profile.static_local_bytes as u32,
                    regs_per_thread: profile.regs_per_item.max(1) as u32,
                },
                mem_intensity: spec.mem_intensity,
                plan: decision.to_sim_plan(ctx.costs(i).clone(), PER_VG_OVERHEAD),
                max_workers: policy.solo_workers(&plan_ctx, j, &requests[j]),
            }
        })
        .collect()
}

/// Replay one unit through the harness's public steps: session, plan,
/// launch building, shared simulation, cached solo simulations, metrics.
/// Returns the unit's metrics and whether every simulation conserved work.
fn replay_unit(
    t: &mut Tracer,
    runner: &Runner,
    set: &PolicySet,
    workload: &Workload,
    base_seed: u64,
    iso: &IsoCache,
) -> (WorkloadMetrics, bool) {
    t.span("harness.measure_rep", |t| {
        let seed = base_seed.wrapping_mul(REP_SEED_MUL);
        let ctx = t.span("harness.rep_context", |_| {
            runner.rep_context(workload, seed)
        });
        let mut ok = true;
        let mut m = WorkloadMetrics {
            unfairness: Vec::new(),
            overlap: Vec::new(),
            total_time: Vec::new(),
            stp: Vec::new(),
            antt: Vec::new(),
            worst_antt: Vec::new(),
        };
        for policy in set.iter() {
            let policy = policy.as_ref();
            let launches = t.span("harness.launches_in", |t| {
                build_launches(t, runner, &ctx, policy, None)
            });
            let totals: Vec<u64> = launches.iter().map(|l| l.plan.total_groups()).collect();
            let report = t.span("gpu_sim.shared", |_| simulate(runner.device(), launches));
            ok &= conserves(&report, &totals);
            let alone: Vec<u64> = (0..workload.len())
                .map(|i| isolated(t, runner, &ctx, policy, i, iso, &mut ok))
                .collect();
            let run = WorkloadRun {
                names: workload.iter().map(|k| k.name).collect(),
                shared: report
                    .kernels
                    .iter()
                    .map(|k| k.turnaround().max(1))
                    .collect(),
                alone,
                busy: report
                    .kernels
                    .iter()
                    .map(|k| IntervalSet::from_raw(k.busy_intervals.clone()))
                    .collect(),
                total_time: report.total_time().max(1),
            };
            t.span("sched_metrics.workload_metrics", |_| {
                m.unfairness.push(run.unfairness());
                m.overlap.push(run.overlap());
                m.total_time.push(run.total_time as f64);
                m.stp.push(run.stp());
                m.antt.push(run.antt());
                m.worst_antt.push(run.worst_antt());
            });
        }
        (m, ok)
    })
}

fn isolated(
    t: &mut Tracer,
    runner: &Runner,
    ctx: &RepContext<'_>,
    policy: &dyn SchedulingPolicy,
    index: usize,
    iso: &IsoCache,
    ok: &mut bool,
) -> u64 {
    t.span("harness.isolated_time", |t| {
        let key = (
            policy.name().to_string(),
            ctx.workload()[index].name,
            ctx.seed(),
        );
        if let Some(&v) = iso
            .times
            .lock()
            .expect("no replay worker panicked")
            .get(&key)
        {
            return v;
        }
        let launches = t.span("harness.launches_in", |t| {
            build_launches(t, runner, ctx, policy, Some(index))
        });
        let totals: Vec<u64> = launches.iter().map(|l| l.plan.total_groups()).collect();
        let report = t.span("gpu_sim.solo", |_| simulate(runner.device(), launches));
        *ok &= conserves(&report, &totals);
        let v = report.total_time().max(1);
        iso.times
            .lock()
            .expect("no replay worker panicked")
            .insert(key, v);
        v
    })
}

/// Run `work(worker, op index)` on `threads` workers pulling from a shared
/// cursor until `stop(next index, elapsed)` says so. Returns each op's
/// index and result, in index order, and the wall time.
fn pool<R: Send>(
    threads: usize,
    stop: impl Fn(usize, Duration) -> bool + Sync,
    work: impl Fn(usize, usize) -> R + Sync,
) -> (Vec<(usize, R)>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (next, stop, work) = (&next, &stop, &work);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if stop(idx, start.elapsed()) {
                            break;
                        }
                        mine.push((idx, work(worker, idx)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    let wall = start.elapsed();
    out.sort_by_key(|(i, _)| *i);
    (out, wall)
}

/// One set-up and its time in seconds.
fn setup(cfg: &SweepConfig) -> (Runner, Vec<Unit>, f64) {
    let t0 = Instant::now();
    let runner = Runner::new(device());
    let list = units(cfg);
    (runner, list, t0.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, threads: usize, traced: bool) -> Outcome {
    if traced {
        return run_traced(seed, threads);
    }
    let set = PolicySet::paper();
    let accelos = set.index_of("accelos").expect("paper set has accelos");
    let cfg = SweepConfig::default_scale();
    let (mut times, mut last) = (Vec::new(), None);
    for _ in 0..SETUPS {
        let (runner, list, t) = setup(&cfg);
        times.push(t);
        last = Some((runner, list));
    }
    let (runner, list) = last.expect("at least one set-up");
    let setups = Mutex::new(times);
    let lap = list.len();
    let base = seed.wrapping_mul(0x0001_0000_0001);
    let op = |idx: usize| {
        let u = &list[idx % lap];
        let laps = (idx / lap) as u64;
        (
            u,
            u.base_seed(&cfg)
                .wrapping_add(base)
                .wrapping_add(laps.wrapping_mul(7919)),
        )
    };
    let budget = Duration::from_secs_f64(seconds);
    let (done, _) = pool(
        threads,
        |idx, elapsed| idx >= lap && elapsed >= budget,
        |_, idx| {
            if idx > 0 && idx % WINDOW_UNITS == 0 {
                let t = setup(&cfg).2;
                setups.lock().expect("no sweep worker panicked").push(t);
            }
            let (u, base) = op(idx);
            let t0 = Instant::now();
            let m = measure_workload(&runner, &set, &u.workload, 1, base);
            (t0.elapsed(), m)
        },
    );

    let mut out = Outcome::new(done.len() as u64);
    out.failed = done.iter().filter(|(_, (_, m))| !metrics_ok(m)).count() as u64;
    let prefix = &done[..lap];
    assert!(prefix.iter().enumerate().all(|(i, (idx, _))| i == *idx));

    // Reference: a fresh runner replays a sample of the first lap on this
    // thread; results must be bit-identical and every simulation must
    // conserve work.
    let reference = Runner::new(device());
    let iso = IsoCache::default();
    let mut t = Tracer::new(Instant::now(), 0);
    let mut sample_ok = true;
    for (idx, (_, m)) in prefix.iter().step_by(CHECK_STRIDE) {
        let (u, base) = op(*idx);
        let (replayed, conserved) = replay_unit(&mut t, &reference, &set, &u.workload, base, &iso);
        sample_ok &= conserved && replayed == *m;
    }
    out.check(
        "replayed sample equals the pooled sweep and conserves work",
        sample_ok,
    );

    let mut digest = Digest::default();
    for (_, (_, m)) in prefix {
        digest_metrics(&mut digest, m);
    }
    let lat = windowed_latency(
        &prefix
            .iter()
            .map(|(_, (t, _))| t.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
        WINDOW_UNITS,
    );
    let mean = |f: &dyn Fn(&WorkloadMetrics) -> f64| {
        prefix.iter().map(|(_, (_, m))| f(m)).sum::<f64>() / lap as f64
    };
    out.setup(&setups.into_inner().expect("no sweep worker panicked"));
    // Windows of equal work (units interleave the sweep's mix): ops per
    // second of op time, spread over the workers.
    let windows: Vec<(usize, Duration)> = done
        .chunks_exact(WINDOW_UNITS)
        .map(|w| {
            let busy: Duration = w.iter().map(|(_, (t, _))| *t).sum();
            (WINDOW_UNITS, busy / threads as u32)
        })
        .collect();
    out.metric("ops_per_s", window_rate(&windows));
    out.latency(&lat);
    out.metric("unfairness", mean(&|m| m.unfairness[accelos]));
    out.metric("stp", mean(&|m| m.stp[accelos]));
    out.fact("digest", digest.hex());
    out.fact("digest_ops", lap.to_string());
    out.fact("latency_windows", (lap / WINDOW_UNITS).to_string());
    out
}

/// Fold per-unit metrics into per-workload averages in repetition order
/// (the sweep's float-addition order), for one request size.
fn fold(
    cfg: &SweepConfig,
    size_slot: usize,
    runs: &[(&Unit, &WorkloadMetrics)],
) -> Vec<WorkloadMetrics> {
    let n = cfg.workloads(REQUEST_SIZES[size_slot]).len();
    let mut per: Vec<Vec<(u32, &WorkloadMetrics)>> = vec![Vec::new(); n];
    for (u, m) in runs.iter().filter(|(u, _)| u.size_slot == size_slot) {
        per[u.index].push((u.rep, m));
    }
    per.into_iter()
        .map(|mut reps| {
            reps.sort_by_key(|(r, _)| *r);
            let p = reps[0].1.unfairness.len();
            let mut acc = WorkloadMetrics {
                unfairness: vec![0.0; p],
                overlap: vec![0.0; p],
                total_time: vec![0.0; p],
                stp: vec![0.0; p],
                antt: vec![0.0; p],
                worst_antt: vec![0.0; p],
            };
            for (_, m) in &reps {
                for i in 0..p {
                    acc.unfairness[i] += m.unfairness[i];
                    acc.overlap[i] += m.overlap[i];
                    acc.total_time[i] += m.total_time[i];
                    acc.stp[i] += m.stp[i];
                    acc.antt[i] += m.antt[i];
                    acc.worst_antt[i] += m.worst_antt[i];
                }
            }
            let k = reps.len() as f64;
            for i in 0..p {
                acc.unfairness[i] /= k;
                acc.overlap[i] /= k;
                acc.total_time[i] /= k;
                acc.stp[i] /= k;
                acc.antt[i] /= k;
                acc.worst_antt[i] /= k;
            }
            acc
        })
        .collect()
}

/// Traced run: replay the fixed trace grid with spans, compare every unit
/// with the untraced `measure_workload`, and round-trip the replayed sweep
/// through two shard files against the unsharded `sweep`.
fn run_traced(seed: u64, threads: usize) -> Outcome {
    let set = PolicySet::paper();
    let cfg = trace_grid(seed);
    let epoch = Instant::now();
    let mut trace = Trace::default();

    // Set-up, with its compile and profile steps timed one by one.
    let mut t = Tracer::new(epoch, 0);
    t.span("harness.setup", |t| {
        for spec in parboil::KernelSpec::all() {
            let module = t.span("minicl.compile", |_| {
                spec.compile().expect("bundled kernel")
            });
            t.span("kernel_ir.profile", |_| {
                kernel_ir::KernelProfile::of(&module, spec.entry).expect("profile")
            });
        }
    });
    trace.absorb(t.finish());
    let runner = Runner::new(device());
    let list = units(&cfg);

    // Untraced pass: the same units through `measure_workload`.
    let (plain, plain_wall) = pool(
        threads,
        |i, _| i >= list.len(),
        |_, i| {
            let u = &list[i];
            measure_workload(&runner, &set, &u.workload, 1, u.base_seed(&cfg))
        },
    );

    // Traced pass on a fresh runner, one recorder per worker.
    let traced_runner = Runner::new(device());
    let iso = IsoCache::default();
    let tracers: Vec<Mutex<Tracer>> = (0..threads)
        .map(|i| Mutex::new(Tracer::new(epoch, i as u32 + 1)))
        .collect();
    let (replayed, traced_wall) = pool(
        threads,
        |i, _| i >= list.len(),
        |worker, i| {
            let mut t = tracers[worker].lock().expect("one worker per recorder");
            t.set_op(i as u64);
            let u = &list[i];
            replay_unit(
                &mut t,
                &traced_runner,
                &set,
                &u.workload,
                u.base_seed(&cfg),
                &iso,
            )
        },
    );
    for tr in tracers {
        trace.absorb(tr.into_inner().expect("no replay worker panicked").finish());
    }

    let mut out = Outcome::new(list.len() as u64);
    out.failed = replayed
        .iter()
        .zip(&plain)
        .filter(|((_, (m, ok)), (_, p))| !ok || m != p || !metrics_ok(p))
        .count() as u64;

    // Shard round trip of the replayed sweep against the unsharded sweep.
    let runs: Vec<(&Unit, &WorkloadMetrics)> =
        replayed.iter().map(|(i, (m, _))| (&list[*i], m)).collect();
    let mut t = Tracer::new(epoch, 0);
    let merged = t.span("harness.shard.roundtrip", |_| {
        let files: Vec<String> = (0..2)
            .map(|index| {
                let spec = ShardSpec { index, count: 2 };
                let sweeps = (0..REQUEST_SIZES.len())
                    .map(|slot| {
                        let all = fold(&cfg, slot, &runs);
                        let total = all.len();
                        PartialSweep {
                            request_size: REQUEST_SIZES[slot],
                            total,
                            cells: spec
                                .indices(total)
                                .into_iter()
                                .map(|g| (g, all[g].clone()))
                                .collect(),
                        }
                    })
                    .collect();
                let shard = DeviceShard {
                    device: runner.device().name.clone(),
                    policy_names: set.names(),
                    policy_labels: set.labels(),
                    sweeps,
                };
                render_shard_file(spec, &cfg, &[shard])
            })
            .collect();
        let parsed: Result<Vec<_>, String> = files.iter().map(|f| parse_shard_file(f)).collect();
        parsed.and_then(|p| merge_shards(&p))
    });
    trace.absorb(t.finish());
    let unsharded: Vec<Sweep> = REQUEST_SIZES
        .iter()
        .map(|&size| sweep(&runner, &set, &cfg, size))
        .collect();
    let merge_ok = matches!(&merged, Ok(devs) if devs.len() == 1 && devs[0].1 == unsharded);
    out.check(
        "merged shards of the replay equal the unsharded sweep",
        merge_ok,
    );

    let traced_ops = list.len() as f64 / traced_wall.as_secs_f64();
    let plain_ops = list.len() as f64 / plain_wall.as_secs_f64();
    let shared = trace.get("gpu_sim.shared");
    let solo = trace.get("gpu_sim.solo");
    let iso_calls = trace.get("harness.isolated_time").calls;
    let sim_self = trace.self_s("gpu_sim.shared") + trace.self_s("gpu_sim.solo");
    let sweep_self = trace.all_self_ns() as f64 / 1e9
        - trace.total_s("harness.setup")
        - trace.total_s("harness.shard.roundtrip");
    out.metric("harness.rep_context.s", trace.self_s("harness.rep_context"));
    out.metric("accelos.policy.plan.s", trace.self_s("accelos.policy.plan"));
    out.metric(
        "accelos.policy.plan.calls",
        trace.get("accelos.policy.plan").calls as f64,
    );
    out.metric("harness.launches_in.s", trace.self_s("harness.launches_in"));
    out.metric("gpu_sim.shared.runs", shared.calls as f64);
    out.metric("gpu_sim.shared.us_per_run", per_call_us(shared));
    out.metric("gpu_sim.solo.runs", solo.calls as f64);
    out.metric("gpu_sim.solo.us_per_run", per_call_us(solo));
    out.metric(
        "harness.isolated_time.s",
        trace.self_s("harness.isolated_time"),
    );
    out.metric("harness.isolated_time.calls", iso_calls as f64);
    out.metric(
        "harness.isolated_time.unique_keys",
        iso.times.lock().expect("no replay worker panicked").len() as f64,
    );
    out.metric(
        "sched_metrics.workload_metrics.s",
        trace.self_s("sched_metrics.workload_metrics"),
    );
    out.metric(
        "harness.shard.roundtrip.s",
        trace.self_s("harness.shard.roundtrip"),
    );
    out.metric("minicl.compile.s", trace.self_s("minicl.compile"));
    out.metric("kernel_ir.profile.s", trace.self_s("kernel_ir.profile"));
    out.metric("gpu_sim.self_share", sim_self / sweep_self);
    out.metric("trace.overhead_ops_per_s", traced_ops - plain_ops);
    out.fact("traced_ops_per_s", traced_ops.to_string());
    out.fact("untraced_ops_per_s", plain_ops.to_string());
    out.fact("trace_units", list.len().to_string());
    out.trace = Some(trace);
    out
}

fn per_call_us(t: crate::trace::Totals) -> f64 {
    if t.calls == 0 {
        0.0
    } else {
        t.total_ns as f64 / t.calls as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_keeps_every_unit_once() {
        let cfg = SweepConfig::test_scale();
        let list = units(&cfg);
        let expected: usize = REQUEST_SIZES
            .iter()
            .map(|&s| cfg.workloads(s).len() * cfg.reps as usize)
            .sum();
        assert_eq!(list.len(), expected);
        let mut keys: Vec<_> = list.iter().map(|u| (u.size_slot, u.index, u.rep)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), expected);
    }

    #[test]
    fn replay_matches_measure_workload() {
        let runner = Runner::new(device());
        let set = PolicySet::paper();
        let cfg = SweepConfig::test_scale();
        let iso = IsoCache::default();
        let mut t = Tracer::new(Instant::now(), 0);
        for u in units(&cfg).iter().take(6) {
            let base = u.base_seed(&cfg);
            let (m, ok) = replay_unit(&mut t, &runner, &set, &u.workload, base, &iso);
            assert!(ok);
            assert_eq!(m, measure_workload(&runner, &set, &u.workload, 1, base));
        }
    }
}
