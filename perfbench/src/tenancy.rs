//! `proxycl-tenancy`: many short application sessions back to back.
//!
//! Session `s` creates a `ProxyCl` whose policy rotates over `accelos`,
//! `accelos-priority`, `accelos-deadline` and `accelos-sla:4:2:0`,
//! restores the profile store from the previous session's saved text,
//! builds the sources of 2–4 tenants, and enqueues them with staggered
//! arrivals under a seeded fault plan (a repairable CU failure and a
//! straggler every session, a kernel abort every third). Tenant 0 arrives
//! late: it is the premium, deadlined or gold tenant of the policies that
//! have one. Tenants are the Parboil kernels whose scale-1 launch retires
//! fewer than 500k instructions. An op is one session.
//!
//! Sessions come in rounds of 16 that hold every light kernel exactly
//! three times: a ring of 48 tenant slots (the light kernels in a fixed
//! scrambled order, three times over) is cut, from a rotation offset, into
//! sessions of 2, 3 and 4 tenants. A cycle visits the 16 offsets in a
//! seeded order, so every cycle holds the same 256 sessions: the seed
//! moves their order, datasets, arrival times and faults, not the mix the
//! latency quantiles are taken over.

use crate::replay::{
    self, build_traced, digest_report, enqueue_replay, outputs_match, proxy_layers, read_outputs,
    Counters, Replayed, Timings,
};
use crate::stats::{window_rate, windowed_latency, Digest, Rng};
use crate::trace::{Trace, Tracer};
use crate::Outcome;
use accelos::policy::{PolicySet, SchedulingPolicy};
use accelos::proxycl::{PendingExec, ProxyCl, RetryPolicy};
use clrt::{Buffer, Context, Event, Platform};
use gpu_sim::{FaultPlan, FaultSpec, SimReport};
use parboil::datasets::prepare_launch;
use parboil::KernelSpec;
use sched_metrics::profile::ProfileStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernels whose scale-1 launch retires fewer than [`LIGHT_INSNS`]
/// instructions (checked at set-up on every run).
const LIGHT: [&str; 16] = [
    "bfs",
    "histo_final",
    "histo_intermediates",
    "histo_main",
    "histo_prescan",
    "mri-gridding_GPU",
    "mri-gridding_binning",
    "mri-gridding_reorder",
    "mri-gridding_scan_inter1",
    "mri-gridding_scan_inter2",
    "mri-gridding_splitRearrange",
    "mri-gridding_uniformAdd",
    "mri-q_ComputePhiMag",
    "sad_calc_16",
    "sad_calc_8",
    "spmv",
];
const LIGHT_INSNS: u64 = 500_000;
const POLICIES: &str = "accelos,accelos-priority,accelos-deadline,accelos-sla:4:2:0";
/// Slack of `accelos-deadline` (its registry default).
const DEADLINE_SLACK: f64 = 2.0;
/// Datasets per kernel a session draws from.
const DATASETS: u64 = 4;
/// Sessions that feed the quantiles, `unfairness`, `stp`, the hold rate
/// and the digest: six whole cycles, always run to the end. Latency is
/// taken in windows of eight rounds (every light kernel 24 times; p90
/// keeps 12 samples beyond it).
const CYCLES: usize = 6;
const PREFIX: usize = CYCLES * ROUNDS * ROUND_SIZES.len();
const LATENCY_WINDOW: usize = 8 * ROUND_SIZES.len();
/// Set-ups before the run; one more is timed after every fourth round,
/// and `setup_s` is read over all of them.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 4 * ROUND_SIZES.len();
/// Sessions per window of `ops_per_s`: the latency windows' eight rounds
/// (about a second and a half).
const RATE_WINDOW: usize = LATENCY_WINDOW;
/// Sessions a traced run replays.
const TRACE_OPS: usize = 160;

fn spec(light: usize) -> &'static KernelSpec {
    KernelSpec::by_name(LIGHT[light]).expect("light kernel exists")
}

fn dataset_seed(seed: u64, d: u64) -> u64 {
    seed.wrapping_add(d.wrapping_mul(1_000_003))
}

struct Session {
    policy: usize,
    /// (light kernel, dataset) per tenant.
    tenants: Vec<(usize, u64)>,
    arrivals: Vec<u64>,
    faults: FaultPlan,
}

/// Tenants per session within a round: 48 slots, three per light kernel.
const ROUND_SIZES: [usize; 16] = [2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 3];
const ROUNDS: usize = 16;
/// Ring position `p` holds light kernel `(RING_STRIDE * p) % 16`, which
/// spreads each Parboil benchmark's kernels around the ring.
const RING_STRIDE: usize = 5;

fn session(seed: u64, s: usize, policies: usize, num_cus: usize) -> Session {
    let per_cycle = ROUNDS * ROUND_SIZES.len();
    let (cycle, within) = (s / per_cycle, s % per_cycle);
    let (round, slot) = (within / ROUND_SIZES.len(), within % ROUND_SIZES.len());
    let mut offsets: Vec<usize> = (0..ROUNDS).collect();
    Rng::new(seed ^ (cycle as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).shuffle(&mut offsets);
    let first = offsets[round] + ROUND_SIZES[..slot].iter().sum::<usize>();
    let k = ROUND_SIZES[slot];
    let mut r = Rng::new(seed ^ (s as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let tenants: Vec<(usize, u64)> = (first..first + k)
        .map(|p| ((RING_STRIDE * p) % LIGHT.len(), r.below(DATASETS)))
        .collect();
    let mut arrivals = vec![2_000 + r.below(10_000), 0];
    arrivals.extend((2..k).map(|_| r.below(4_000)));
    let spec = FaultSpec {
        cu_failures: 1,
        repair_delay: Some(4_000),
        stragglers: 1,
        slowdown: 2.0,
        straggler_window: 6_000,
        aborts: usize::from(s % 3 == 2),
        ..FaultSpec::none(30_000)
    };
    Session {
        policy: s % policies,
        tenants,
        arrivals,
        faults: FaultPlan::from_spec(&spec, num_cus, k, r.next_u64()),
    }
}

struct Bench {
    platform: Platform,
    policies: Vec<Arc<dyn SchedulingPolicy>>,
    store: String,
}

/// What one untraced session produced.
struct Done {
    total: Duration,
    enqueue: Duration,
    events: Vec<Event>,
    report: SimReport,
    store: String,
    outputs: Vec<Vec<Vec<u8>>>,
    /// Work groups of each tenant's launch (its virtual NDRange).
    groups: Vec<u64>,
}

/// Platform, policies, and the calibrated profile store the first session
/// restores: every light kernel is built and launched solo once on its
/// first dataset (which also checks it is light).
fn setup(seed: u64) -> Result<Bench, String> {
    let platform = Platform::nvidia();
    let policies: Vec<_> = PolicySet::parse(POLICIES)?.iter().cloned().collect();
    let mut os = ProxyCl::with_policy(&platform, policies[0].clone())
        .with_profile_store(ProfileStore::new());
    for light in 0..LIGHT.len() {
        let spec = spec(light);
        let program = os.build_program(spec.source).map_err(|e| e.to_string())?;
        let p = prepare_launch(
            spec,
            os.context_mut(),
            program.program(),
            1,
            dataset_seed(seed, 0),
        )
        .map_err(|e| e.to_string())?;
        let ev = os
            .enqueue(&program, &p.kernel, p.ndrange)
            .map_err(|e| e.to_string())?;
        if ev.stats.total_insns >= LIGHT_INSNS {
            return Err(format!(
                "{} retired {} instructions",
                spec.name, ev.stats.total_insns
            ));
        }
    }
    let store = os.take_profile_store().expect("store attached").render();
    Ok(Bench {
        platform,
        policies,
        store,
    })
}

impl Bench {
    /// Position of `accelos-deadline` in the policy rotation.
    fn deadline_policy(&self) -> Option<usize> {
        self.policies
            .iter()
            .position(|p| p.name() == "accelos-deadline")
    }

    /// One session through `ProxyCl`, timed from runtime creation to the
    /// store's saved text.
    fn session(&self, sess: &Session, seed: u64) -> Result<Done, String> {
        let t0 = Instant::now();
        let store = ProfileStore::parse(&self.store)?;
        let mut os = ProxyCl::with_policy(&self.platform, self.policies[sess.policy].clone())
            .with_profile_store(store)
            .with_faults(sess.faults.clone());
        let mut batch = Vec::new();
        let mut outputs: Vec<Vec<Buffer>> = Vec::new();
        let mut groups = Vec::new();
        for &(light, d) in &sess.tenants {
            let spec = spec(light);
            let program = os.build_program(spec.source).map_err(|e| e.to_string())?;
            let p = prepare_launch(
                spec,
                os.context_mut(),
                program.program(),
                1,
                dataset_seed(seed, d),
            )
            .map_err(|e| e.to_string())?;
            batch.push(PendingExec {
                kernel: p.kernel,
                chunk: program.info(spec.entry).ok_or("transform info")?.chunk,
                ndrange: p.ndrange,
            });
            outputs.push(p.outputs);
            groups.push(p.ndrange.total_groups() as u64);
        }
        let t1 = Instant::now();
        let events = os
            .enqueue_concurrent_at(batch, &sess.arrivals)
            .map_err(|e| e.to_string())?;
        let enqueue = t1.elapsed();
        let store = os.take_profile_store().expect("store attached").render();
        let total = t0.elapsed();
        Ok(Done {
            total,
            enqueue,
            events,
            report: os.last_report().cloned().expect("just enqueued"),
            store,
            outputs: outputs
                .iter()
                .map(|o| read_outputs(os.context_mut(), o))
                .collect(),
            groups,
        })
    }
}

/// Reference outputs (untransformed, tree-walker) and isolated times (a
/// solo `accelos` enqueue) of every (light kernel, dataset) pair.
struct References {
    outputs: HashMap<(usize, u64), Vec<Vec<u8>>>,
    alone: HashMap<(usize, u64), u64>,
}

fn references(b: &Bench, seed: u64) -> References {
    let mut os = ProxyCl::with_policy(&b.platform, b.policies[0].clone());
    let (mut outputs, mut alone) = (HashMap::new(), HashMap::new());
    for light in 0..LIGHT.len() {
        let spec = spec(light);
        let program = os.build_program(spec.source).expect("light kernel builds");
        for d in 0..DATASETS {
            let ds = dataset_seed(seed, d);
            outputs.insert((light, d), replay::reference_outputs(spec, &b.platform, ds));
            let p =
                prepare_launch(spec, os.context_mut(), program.program(), 1, ds).expect("dataset");
            let ev = os
                .enqueue(&program, &p.kernel, p.ndrange)
                .expect("solo launch");
            alone.insert((light, d), (ev.end - ev.queued).max(1));
        }
    }
    References { outputs, alone }
}

/// Per-session checks that need no replay: outputs, and exactly-once
/// retry read off the report (per kernel entry point, the incarnations executed
/// the tenants' planned groups, and one incarnation per tenant finished).
fn session_ok(sess: &Session, done: &Done, refs: &References) -> bool {
    let outputs_ok = sess
        .tenants
        .iter()
        .zip(&done.outputs)
        .all(|(&(light, d), got)| outputs_match(LIGHT[light], got, &refs.outputs[&(light, d)]));
    let mut planned: HashMap<&str, (u64, usize)> = HashMap::new();
    for (&(light, _), &groups) in sess.tenants.iter().zip(&done.groups) {
        let e = planned.entry(spec(light).entry).or_default();
        e.0 += groups;
        e.1 += 1;
    }
    let lineage_ok = planned.iter().all(|(name, &(groups, tenants))| {
        let runs: Vec<_> = done
            .report
            .kernels
            .iter()
            .filter(|k| k.name == *name)
            .collect();
        runs.iter().map(|k| k.groups_executed as u64).sum::<u64>() == groups
            && runs.iter().filter(|k| !k.aborted).count() == tenants
    });
    outputs_ok && lineage_ok
}

/// Fairness and deadline figures of one session.
struct Figures {
    unfairness: f64,
    stp: f64,
    /// `Some(held)` when the session ran `accelos-deadline`.
    deadline: Option<bool>,
}

fn figures(
    sess: &Session,
    events: &[Event],
    refs: &References,
    deadline_policy: Option<usize>,
) -> Figures {
    let shared: Vec<u64> = events
        .iter()
        .zip(&sess.arrivals)
        .map(|(e, &a)| (e.end - e.queued - a).max(1))
        .collect();
    let alone: Vec<u64> = sess.tenants.iter().map(|t| refs.alone[t]).collect();
    let slowdowns: Vec<f64> = shared
        .iter()
        .zip(&alone)
        .map(|(&s, &a)| sched_metrics::individual_slowdown(s, a))
        .collect();
    let deadline = (Some(sess.policy) == deadline_policy).then(|| {
        let end = events[0].end - events[0].queued;
        end as f64 <= (DEADLINE_SLACK * alone[0] as f64).round()
    });
    Figures {
        unfairness: sched_metrics::unfairness(&slowdowns),
        stp: sched_metrics::stp(&shared, &alone),
        deadline,
    }
}

fn digest_session(d: &mut Digest, sess: &Session, done: &Done) {
    digest_report(d, &done.report);
    for (e, &(light, _)) in done.events.iter().zip(&sess.tenants) {
        d.u64(e.start - e.queued);
        d.u64(e.end - e.queued);
        d.u64(e.stats.total_insns);
        d.bytes(LIGHT[light].as_bytes());
    }
    d.bytes(done.store.as_bytes());
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let b = setup(seed);
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut b = match bench.expect("at least one setup") {
        Ok(b) => b,
        Err(e) => {
            let mut out = Outcome::new(1);
            out.failed = 1;
            out.check(&format!("set-up: {e}"), false);
            return out;
        }
    };
    let refs = references(&b, seed);
    if traced {
        return run_traced(b, seed, &refs);
    }
    let num_cus = b.platform.device().num_cus;
    let deadline_policy = b.deadline_policy();

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Outcome::new(0);
    let (mut lat, mut digest) = (Vec::new(), Digest::default());
    let (mut u_sum, mut stp_sum, mut held, mut deadlined) = (0.0, 0.0, 0u64, 0u64);
    let mut s = 0;
    // Whole windows only: each round holds every light kernel three
    // times, so `ops_per_s` is read over windows of equal work.
    let mut rounds = Vec::new();
    let mut round = (0, Duration::ZERO);
    while s < PREFIX || start.elapsed() < budget || s % RATE_WINDOW != 0 {
        let sess = session(seed, s, b.policies.len(), num_cus);
        out.attempted += 1;
        match b.session(&sess, seed) {
            Ok(done) if session_ok(&sess, &done, &refs) => {
                round.0 += 1;
                round.1 += done.total;
                if s < PREFIX {
                    lat.push(done.total.as_secs_f64() * 1e3);
                    let f = figures(&sess, &done.events, &refs, deadline_policy);
                    u_sum += f.unfairness;
                    stp_sum += f.stp;
                    if let Some(h) = f.deadline {
                        deadlined += 1;
                        held += u64::from(h);
                    }
                    digest_session(&mut digest, &sess, &done);
                }
                b.store = done.store;
            }
            _ => out.failed += 1,
        }
        s += 1;
        if s % RATE_WINDOW == 0 {
            rounds.push(std::mem::take(&mut round));
        }
        if s % SETUP_EVERY == 0 {
            let t0 = Instant::now();
            let spare = setup(seed);
            setups.push(t0.elapsed().as_secs_f64());
            drop(spare);
        }
    }
    out.setup(&setups);
    out.metric("ops_per_s", window_rate(&rounds));
    if lat.len() == PREFIX {
        out.latency(&windowed_latency(&lat, LATENCY_WINDOW));
        out.metric("unfairness", u_sum / lat.len() as f64);
        out.metric("stp", stp_sum / lat.len() as f64);
    }
    out.fact(
        "deadline_hold_rate",
        (held as f64 / deadlined.max(1) as f64).to_string(),
    );
    out.fact("deadlined_sessions", deadlined.to_string());
    out.fact("digest", digest.hex());
    out.fact("digest_ops", PREFIX.to_string());
    out
}

/// Traced run: each session runs untraced through `ProxyCl`, then again as
/// a replay (builds step by step, datasets, store parse and render, the
/// enqueue replay) from the same saved store; both must agree.
fn run_traced(mut b: Bench, seed: u64, refs: &References) -> Outcome {
    let num_cus = b.platform.device().num_cus;
    let mut t = Tracer::new(Instant::now(), 0);
    let mut out = Outcome::new(TRACE_OPS as u64);
    let mut c = Counters::default();
    let mut tm = Timings {
        ops: TRACE_OPS,
        enqueue: Duration::ZERO,
        plain: Duration::ZERO,
        traced: Duration::ZERO,
        insns: 0,
    };
    let (mut held, mut deadlined, mut entries) = (0u64, 0u64, 0usize);
    for s in 0..TRACE_OPS {
        let sess = session(seed, s, b.policies.len(), num_cus);
        t.set_op(s as u64);
        // Alternate which side runs first, so neither always meets the
        // caches the other warmed.
        let first = (s % 2 == 1).then(|| replay_session(&mut t, &b, &sess, seed, &mut c));
        let plain = b.session(&sess, seed);
        let (replayed, rt) =
            first.unwrap_or_else(|| replay_session(&mut t, &b, &sess, seed, &mut c));
        tm.traced += rt;
        let Ok(done) = plain.map_err(|e| eprintln!("session {s}: {e}")) else {
            out.failed += 1;
            continue;
        };
        tm.plain += done.total;
        tm.enqueue += done.enqueue;
        tm.insns += done.events.iter().map(|e| e.stats.total_insns).sum::<u64>();
        let f = figures(&sess, &done.events, refs, b.deadline_policy());
        if let Some(h) = f.deadline {
            deadlined += 1;
            held += u64::from(h);
        }
        let same = match replayed {
            Ok(r) => {
                entries = r.entries;
                let (mut want, mut got) = (Digest::default(), Digest::default());
                digest_report(&mut want, &done.report);
                digest_report(&mut got, &r.enqueue.report);
                r.enqueue.matches(&done.events)
                    && r.enqueue.lineages_conserve()
                    && want.hex() == got.hex()
                    && r.store == done.store
                    && r.outputs == done.outputs
            }
            Err(e) => {
                eprintln!("replay of session {s}: {e}");
                false
            }
        };
        if !same || !session_ok(&sess, &done, refs) {
            out.failed += 1;
        }
        b.store = done.store;
    }
    let mut trace = Trace::default();
    trace.absorb(t.finish());
    proxy_layers(&mut out, &trace, &c, &tm);
    out.metric("sched_metrics.profile.entries", entries as f64);
    out.metric("deadline_hold_rate", held as f64 / deadlined.max(1) as f64);
    out.trace = Some(trace);
    out
}

/// What a replayed session produced.
struct SessionReplay {
    enqueue: Replayed,
    store: String,
    outputs: Vec<Vec<Vec<u8>>>,
    entries: usize,
}

/// Replay one session step by step (store parse, builds, datasets, the
/// enqueue, store render) from the bench's saved store; returns it and
/// its time.
fn replay_session(
    t: &mut Tracer,
    b: &Bench,
    sess: &Session,
    seed: u64,
    c: &mut Counters,
) -> (Result<SessionReplay, String>, Duration) {
    let t0 = Instant::now();
    let replayed = t.span("proxycl.session", |t| {
        let mut store = t.span("sched_metrics.profile", |_| ProfileStore::parse(&b.store))?;
        let mut ctx = Context::new(&b.platform);
        let mut batch = Vec::new();
        let mut outputs = Vec::new();
        for &(light, d) in &sess.tenants {
            let spec = spec(light);
            let (program, infos) = build_traced(t, spec.source);
            let p = t
                .span("parboil.datasets", |_| {
                    prepare_launch(spec, &mut ctx, &program, 1, dataset_seed(seed, d))
                })
                .map_err(|e| e.to_string())?;
            let chunk = infos
                .iter()
                .find(|i| i.kernel == spec.entry)
                .ok_or("transform info")?
                .chunk;
            batch.push(PendingExec {
                kernel: p.kernel,
                chunk,
                ndrange: p.ndrange,
            });
            outputs.push(p.outputs);
        }
        let policy = b.policies[sess.policy].as_ref();
        let enqueue = t.span("accelos.proxycl.enqueue", |t| {
            enqueue_replay(
                t,
                &mut ctx,
                policy,
                Some(&mut store),
                &sess.faults,
                RetryPolicy::default(),
                &batch,
                &sess.arrivals,
                c,
            )
        })?;
        let text = t.span("sched_metrics.profile", |_| store.render());
        Ok(SessionReplay {
            enqueue,
            store: text,
            outputs: outputs.iter().map(|o| read_outputs(&ctx, o)).collect(),
            entries: store.len(),
        })
    });
    (replayed, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_hold_each_kernel_three_times_and_cycles_repeat() {
        assert_eq!(ROUND_SIZES.iter().sum::<usize>(), 3 * LIGHT.len());
        let per_cycle = ROUNDS * ROUND_SIZES.len();
        for seed in [1, 2] {
            let mut count = [0usize; LIGHT.len()];
            for s in 16..32 {
                for (light, _) in session(seed, s, 4, 13).tenants {
                    count[light] += 1;
                }
            }
            assert!(count.iter().all(|&c| c == 3));
        }
        let cycle = |seed: u64| {
            let mut all: Vec<Vec<usize>> = (0..per_cycle)
                .map(|s| {
                    session(seed, s, 4, 13)
                        .tenants
                        .iter()
                        .map(|t| t.0)
                        .collect()
                })
                .collect();
            all.sort();
            all
        };
        assert_eq!(cycle(1), cycle(2));
    }

    #[test]
    fn sessions_are_seeded_and_well_formed() {
        for s in 0..64 {
            let a = session(9, s, 4, 13);
            let b = session(9, s, 4, 13);
            assert_eq!(a.tenants, b.tenants);
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.faults, b.faults);
            assert!((2..=4).contains(&a.tenants.len()));
            assert_eq!(a.arrivals.len(), a.tenants.len());
            assert!(a.arrivals[0] >= 2_000);
        }
    }
}
