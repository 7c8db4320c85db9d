//! `proxycl-parboil`: batches of 1–4 concurrently arriving Parboil kernels
//! (all 25, dataset scale 1) sent through `ProxyCl::enqueue_concurrent`
//! with the `accelos` policy, from one client. An op is one enqueue call.
//!
//! Batches come in cycles of 25 rounds. A round lays the 25 kernels out
//! on a ring (table order), starts at a rotation offset and cuts the ring
//! into ten batches of sizes 1,2,3,4,1,2,3,4,1,4. Each cycle visits every
//! offset once, in a seeded order, so every cycle holds the same 250
//! batches: the seed moves the order, the batch-internal arrival order
//! and the datasets, not the mix the latency quantiles are taken over.

use crate::replay::{
    self, digest_report, enqueue_replay, outputs_match, proxy_layers, read_outputs, Counters,
    Replayed, Timings,
};
use crate::stats::{window_rate, windowed_latency, Digest, Rng};
use crate::trace::{Trace, Tracer};
use crate::Outcome;
use accelos::policy::{AccelOsPolicy, SchedulingPolicy};
use accelos::proxycl::{PendingExec, ProxyCl, RetryPolicy};
use clrt::{Buffer, Event, Kernel, Platform};
use gpu_sim::FaultPlan;
use kernel_ir::interp::NdRange;
use kernel_ir::DeviceMemory;
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZES: [usize; 10] = [1, 2, 3, 4, 1, 2, 3, 4, 1, 4];
const KERNELS: usize = 25;
/// Ops in one cycle; the first cycle feeds `unfairness`, `stp` and the
/// digest, and always completes.
const CYCLE_OPS: usize = KERNELS * SIZES.len();
/// The first two cycles feed the latency quantiles, in windows of five
/// rounds (each kernel five times; p75 keeps 12 samples beyond it).
const LATENCY_OPS: usize = 2 * CYCLE_OPS;
const LATENCY_WINDOW: usize = 5 * SIZES.len();
/// Ops per window of `ops_per_s` (two rounds, each kernel twice; about a
/// second).
const RATE_WINDOW: usize = 2 * SIZES.len();
/// Set-ups before the run; one more is timed after every rate window,
/// and `setup_s` is read over all of them.
const SETUPS: usize = 3;
/// Ops a traced run replays (the first ten rounds).
const TRACE_OPS: usize = 100;

struct Launch {
    spec: &'static KernelSpec,
    kernel: Kernel,
    ndrange: NdRange,
    outputs: Vec<Buffer>,
    chunk: u32,
}

struct Bench {
    os: ProxyCl,
    launches: Vec<Launch>,
    snapshot: DeviceMemory,
}

fn policy() -> Arc<dyn SchedulingPolicy> {
    Arc::new(AccelOsPolicy::optimized())
}

/// Platform, the 25 program builds through `ProxyCl`, their scale-1
/// datasets, and a snapshot of device memory to reset each op from.
fn setup(seed: u64) -> Bench {
    let platform = Platform::nvidia();
    let mut os = ProxyCl::with_policy(&platform, policy());
    let launches = KernelSpec::all()
        .iter()
        .map(|spec| {
            let program = os
                .build_program(spec.source)
                .expect("bundled kernel builds");
            let p = prepare_launch(spec, os.context_mut(), program.program(), 1, seed)
                .expect("dataset");
            Launch {
                spec,
                kernel: p.kernel,
                ndrange: p.ndrange,
                outputs: p.outputs,
                chunk: program.info(spec.entry).expect("transformed").chunk,
            }
        })
        .collect();
    let snapshot = os.context_mut().memory_mut().clone();
    Bench {
        os,
        launches,
        snapshot,
    }
}

/// Kernel indices of op `op`, in arrival order.
fn batch_of(seed: u64, op: usize) -> Vec<usize> {
    let (cycle, within) = (op / CYCLE_OPS, op % CYCLE_OPS);
    let (round, slot) = (within / SIZES.len(), within % SIZES.len());
    let mut offsets: Vec<usize> = (0..KERNELS).collect();
    Rng::new(seed ^ (cycle as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).shuffle(&mut offsets);
    let start = offsets[round] + SIZES[..slot].iter().sum::<usize>();
    let mut batch: Vec<usize> = (0..SIZES[slot]).map(|t| (start + t) % KERNELS).collect();
    Rng::new(seed ^ (op as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).shuffle(&mut batch);
    batch
}

impl Bench {
    fn pending(&self, batch: &[usize]) -> Vec<PendingExec> {
        batch
            .iter()
            .map(|&k| PendingExec {
                kernel: self.launches[k].kernel.clone(),
                chunk: self.launches[k].chunk,
                ndrange: self.launches[k].ndrange,
            })
            .collect()
    }

    fn reset(&mut self) {
        *self.os.context_mut().memory_mut() = self.snapshot.clone();
    }

    fn outputs(&mut self, k: usize) -> Vec<Vec<u8>> {
        read_outputs(self.os.context_mut(), &self.launches[k].outputs)
    }

    /// Run one op untraced: reset memory, enqueue (timed), check outputs.
    fn op(&mut self, batch: &[usize], refs: &[Vec<Vec<u8>>]) -> (Duration, Option<Vec<Event>>) {
        self.reset();
        let pending = self.pending(batch);
        let t0 = Instant::now();
        let result = self.os.enqueue_concurrent(pending);
        let dt = t0.elapsed();
        let ok = result.is_ok()
            && batch.iter().all(|&k| {
                let got = self.outputs(k);
                outputs_match(self.launches[k].spec.name, &got, &refs[k])
            });
        (dt, result.ok().filter(|_| ok))
    }
}

/// Reference outputs (untransformed, tree-walker) and isolated times (one
/// solo enqueue each) of all 25 launches.
fn references(b: &mut Bench, seed: u64) -> (Vec<Vec<Vec<u8>>>, Vec<u64>) {
    let platform = Platform::nvidia();
    let refs: Vec<_> = KernelSpec::all()
        .iter()
        .map(|spec| replay::reference_outputs(spec, &platform, seed))
        .collect();
    let alone = (0..KERNELS)
        .map(|k| {
            b.reset();
            let ev =
                b.os.enqueue_concurrent(b.pending(&[k]))
                    .expect("solo launch");
            (ev[0].end - ev[0].queued).max(1)
        })
        .collect();
    (refs, alone)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        return run_traced(seed);
    }
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let b = setup(seed);
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut b = bench.expect("at least one setup");
    let (refs, alone) = references(&mut b, seed);

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Outcome::new(0);
    let (mut rounds, mut round, mut lat) = (Vec::new(), (0, Duration::ZERO), Vec::new());
    let (mut u_sum, mut stp_sum, mut digest) = (0.0, 0.0, Digest::default());
    let mut op = 0;
    // Whole windows only: every round runs each of the 25 kernels once, so
    // `ops_per_s` is read over windows of equal work.
    while op < LATENCY_OPS || start.elapsed() < budget || op % RATE_WINDOW != 0 {
        let batch = batch_of(seed, op);
        let (dt, events) = b.op(&batch, &refs);
        out.attempted += 1;
        round.0 += 1;
        round.1 += dt;
        if (op + 1) % RATE_WINDOW == 0 {
            rounds.push(std::mem::take(&mut round));
            let t0 = Instant::now();
            let spare = setup(seed);
            setups.push(t0.elapsed().as_secs_f64());
            drop(spare);
        }
        let Some(events) = events else {
            out.failed += 1;
            op += 1;
            continue;
        };
        if op < LATENCY_OPS {
            lat.push(dt.as_secs_f64() * 1e3);
        }
        if op < CYCLE_OPS {
            let shared: Vec<u64> = events.iter().map(|e| (e.end - e.queued).max(1)).collect();
            let solo: Vec<u64> = batch.iter().map(|&k| alone[k]).collect();
            let slowdowns: Vec<f64> = shared
                .iter()
                .zip(&solo)
                .map(|(&s, &a)| sched_metrics::individual_slowdown(s, a))
                .collect();
            u_sum += sched_metrics::unfairness(&slowdowns);
            stp_sum += sched_metrics::stp(&shared, &solo);
            digest_report(&mut digest, b.os.last_report().expect("just enqueued"));
            for &k in &batch {
                if !replay::ORDER_DEPENDENT.contains(&b.launches[k].spec.name) {
                    digest.bytes(&b.outputs(k).concat());
                }
            }
        }
        op += 1;
    }
    let complete = out.failed == 0;
    out.check("every op completed", complete);
    out.setup(&setups);
    out.metric("ops_per_s", window_rate(&rounds));
    if complete {
        out.latency(&windowed_latency(&lat, LATENCY_WINDOW));
        out.metric("unfairness", u_sum / CYCLE_OPS as f64);
        out.metric("stp", stp_sum / CYCLE_OPS as f64);
    }
    out.fact("digest", digest.hex());
    out.fact("digest_ops", CYCLE_OPS.to_string());
    out
}

/// Replay one batch on freshly reset memory; returns the replay, the
/// outputs it left, and its time.
fn replay_batch(
    b: &mut Bench,
    t: &mut Tracer,
    policy: &dyn SchedulingPolicy,
    batch: &[usize],
    c: &mut Counters,
) -> (Result<Replayed, String>, Vec<Vec<Vec<u8>>>, Duration) {
    b.reset();
    let pending = b.pending(batch);
    let zeros = vec![0; batch.len()];
    let t0 = Instant::now();
    let replayed = t.span("accelos.proxycl.enqueue", |t| {
        enqueue_replay(
            t,
            b.os.context_mut(),
            policy,
            None,
            &FaultPlan::default(),
            RetryPolicy::default(),
            &pending,
            &zeros,
            c,
        )
    });
    let dt = t0.elapsed();
    let outputs = batch.iter().map(|&k| b.outputs(k)).collect();
    (replayed, outputs, dt)
}

/// Traced run: replay the first ten rounds step by step next to the
/// untraced enqueue of the same batch on the same inputs.
fn run_traced(seed: u64) -> Outcome {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let platform = Platform::nvidia();
    t.span("proxycl.setup", |t| {
        let mut ctx = clrt::Context::new(&platform);
        for spec in KernelSpec::all() {
            let (program, _) = replay::build_traced(t, spec.source);
            t.span("parboil.datasets", |_| {
                prepare_launch(spec, &mut ctx, &program, 1, seed).expect("dataset")
            });
        }
    });
    let mut b = setup(seed);
    let (refs, _) = references(&mut b, seed);
    let policy = policy();
    let mut out = Outcome::new(TRACE_OPS as u64);
    let mut c = Counters::default();
    let (mut plain, mut traced, mut insns) = (Duration::ZERO, Duration::ZERO, 0u64);
    for op in 0..TRACE_OPS {
        let batch = batch_of(seed, op);
        t.set_op(op as u64);
        // Alternate which side runs first, so neither always meets the
        // caches the other warmed.
        let first = (op % 2 == 1).then(|| replay_batch(&mut b, &mut t, &*policy, &batch, &mut c));
        let (dt, events) = b.op(&batch, &refs);
        let mut want = Digest::default();
        digest_report(&mut want, b.os.last_report().expect("enqueued before"));
        let outputs: Vec<_> = batch.iter().map(|&k| b.outputs(k)).collect();
        let (replayed, replayed_outputs, rt) =
            first.unwrap_or_else(|| replay_batch(&mut b, &mut t, &*policy, &batch, &mut c));
        plain += dt;
        traced += rt;
        let Some(events) = events else {
            out.failed += 1;
            continue;
        };
        insns += events.iter().map(|e| e.stats.total_insns).sum::<u64>();
        let same = replayed.is_ok_and(|r| {
            let mut got = Digest::default();
            digest_report(&mut got, &r.report);
            r.matches(&events) && r.lineages_conserve() && got.hex() == want.hex()
        });
        if !same || replayed_outputs != outputs {
            out.failed += 1;
        }
    }
    let mut trace = Trace::default();
    trace.absorb(t.finish());
    let tm = Timings {
        ops: TRACE_OPS,
        enqueue: plain,
        plain,
        traced,
        insns,
    };
    proxy_layers(&mut out, &trace, &c, &tm);
    out.trace = Some(trace);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_holds_the_same_batches() {
        let canon = |seed: u64| {
            let mut all: Vec<Vec<usize>> = (0..CYCLE_OPS)
                .map(|op| {
                    let mut b = batch_of(seed, op);
                    b.sort_unstable();
                    b
                })
                .collect();
            all.sort();
            all
        };
        let a = canon(1);
        assert_eq!(a, canon(2));
        assert_eq!(
            a.iter().map(Vec::len).sum::<usize>(),
            CYCLE_OPS / SIZES.len() * KERNELS
        );
        let order = |seed| {
            (0..CYCLE_OPS)
                .map(|op| batch_of(seed, op))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(1), order(2), "the seed moves the order");
    }
}
