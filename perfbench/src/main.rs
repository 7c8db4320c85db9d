//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics on plain runs and a per-layer split on traced runs.
//!
//! ```text
//! perfbench --workload <paper-sweep|proxycl-parboil|proxycl-tenancy>
//!           --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! `--threads` sizes the run's pools (exported as `ACCELOS_THREADS`); the
//! default is every hardware thread, less one for `paper-sweep`.
//!
//! Every metric is printed as `name value unit` on its own line, a record
//! with host and build facts is written under `perfbench/out/`, and the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod host;
mod parboil_wl;
mod replay;
mod stats;
mod sweep;
mod tenancy;
mod trace;

use stats::Latency;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: every untraced run prints all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("unfairness", "U"),
    ("stp", "STP"),
];

/// Per-layer metrics: every traced run prints all of them. A layer the
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("harness.rep_context.s", "s"),
    ("accelos.policy.plan.s", "s"),
    ("accelos.policy.plan.calls", "count"),
    ("harness.launches_in.s", "s"),
    ("gpu_sim.shared.runs", "count"),
    ("gpu_sim.shared.us_per_run", "us"),
    ("gpu_sim.solo.runs", "count"),
    ("gpu_sim.solo.us_per_run", "us"),
    ("harness.isolated_time.s", "s"),
    ("harness.isolated_time.calls", "count"),
    ("harness.isolated_time.unique_keys", "count"),
    ("sched_metrics.workload_metrics.s", "s"),
    ("harness.shard.roundtrip.s", "s"),
    ("gpu_sim.self_share", "ratio"),
    ("minicl.compile.s", "s"),
    ("accelos.jit.transform.s", "s"),
    ("kernel_ir.verify.s", "s"),
    ("kernel_ir.profile.s", "s"),
    ("kernel_ir.accelcheck.s", "s"),
    ("parboil.datasets.s", "s"),
    ("accelos.policy.plan_with_arrivals.s", "s"),
    ("accelos.policy.reclaims", "count"),
    ("accelos.policy.resumes", "count"),
    ("kernel_ir.vm.s", "s"),
    ("kernel_ir.vm.insns", "count"),
    ("kernel_ir.vm.ns_per_insn", "ns"),
    ("kernel_ir.vm.us_per_launch", "us"),
    ("kernel_ir.vm.parallel_share", "ratio"),
    ("gpu_sim.proxycl.us_per_run", "us"),
    ("gpu_sim.retry_incarnations", "count"),
    ("gpu_sim.faults_injected", "count"),
    ("sched_metrics.profile.s", "s"),
    ("sched_metrics.profile.entries", "count"),
    ("accelos.proxycl.glue_us_per_launch", "us"),
    ("minsns_per_s", "Minsn/s"),
    ("deadline_hold_rate", "ratio"),
    ("trace.overhead_ops_per_s", "ops/s"),
];

const WORKLOADS: [&str; 3] = ["paper-sweep", "proxycl-parboil", "proxycl-tenancy"];

/// What one workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<(String, f64)>,
    facts: Vec<(String, String)>,
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    pub fn new(attempted: u64) -> Self {
        Outcome {
            attempted,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            facts: Vec::new(),
            trace: None,
        }
    }

    /// Record a run-level correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn fact(&mut self, key: &str, value: impl Into<String>) {
        self.facts.push((key.to_string(), value.into()));
    }

    /// `setup_s` is the run's set-ups, spread over the run, read at
    /// [`stats::SLOW_PERMILLE`].
    pub fn setup(&mut self, times_s: &[f64]) {
        self.metric("setup_s", stats::slow_time(times_s));
        self.fact("setup_samples", times_s.len().to_string());
    }

    pub fn latency(&mut self, l: &Latency) {
        self.metric("latency_p50_ms", l.p50);
        self.metric("latency_tail_ms", l.tail);
        self.fact("latency_tail_percentile", l.tail_pct.to_string());
        self.fact("latency_samples", l.samples.to_string());
        self.fact("latency_samples_beyond_tail", l.beyond.to_string());
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut threads = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--threads" => threads = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (try: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let host = host::host_threads();
    // `paper-sweep` keeps every worker it gets busy, so by default it
    // leaves one hardware thread to the rest of the host: on a 2-thread
    // host, a full pool's run-to-run spread reached 0.21 (`ops_per_s`) and
    // 0.24 (tail latency) over ten seeds, one worker's stayed under 0.06.
    // The ProxyCl workloads are one client and keep every thread for the
    // interpreter's parallel gate.
    let threads = threads.unwrap_or(if workload == "paper-sweep" {
        host.saturating_sub(1).max(1)
    } else {
        host
    });
    if threads == 0 || threads > host {
        return Err(format!("--threads must be 1..={host}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
        threads,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric values are finite");
    format!("{x:?}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One knob sizes every pool the program starts (interpreter workers
    // and the sweep's rayon pool); the benchmark's own pools use it too.
    std::env::set_var("ACCELOS_THREADS", args.threads.to_string());

    let mut out = match args.workload.as_str() {
        "paper-sweep" => sweep::run(args.seed, args.seconds, args.threads, args.traced),
        "proxycl-parboil" => parboil_wl::run(args.seed, args.seconds, args.traced),
        _ => tenancy::run(args.seed, args.seconds, args.traced),
    };
    if !args.traced {
        out.metric("peak_rss_mb", host::peak_rss_mb());
    }

    let declared = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = declared
        .iter()
        .map(|&(name, unit)| (name, out.value(name).unwrap_or(0.0), unit))
        .collect();
    let all_measured = args.traced || END_TO_END.iter().all(|(n, _)| out.value(n).is_some());
    out.check("every end-to-end metric was measured", all_measured);
    let checks_ok = out.checks.iter().all(|(_, ok)| *ok);
    let correct = checks_ok && out.failed == 0 && out.attempted > 0;

    let facts = host::facts(&args.workload, args.seed, args.threads, args.traced);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(what, ok)| format!("{}: {ok}", json_str(what)))
        .collect();
    let mut record = String::from("{\n");
    for (k, v) in facts.iter().chain(&out.facts) {
        let _ = writeln!(record, "  {}: {},", json_str(k), json_str(v));
    }
    let _ = write!(
        record,
        "  \"checks\": {{\n    {}\n  }},\n  \"metrics\": {{\n    {}\n  }},\n  \
         \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {}\n}}\n",
        checks.join(",\n    "),
        body.join(",\n    "),
        out.attempted,
        out.failed
    );

    let dir = Path::new("perfbench/out");
    let stem = format!("{}.trace{}", args.workload, u8::from(args.traced));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), &record))
        .and_then(|_| match &out.trace {
            Some(t) => std::fs::write(dir.join(format!("{stem}.selftime.txt")), t.table())
                .and_then(|_| {
                    std::fs::write(
                        dir.join(format!("{stem}.chrome.json")),
                        t.chrome_json(200_000),
                    )
                }),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", dir.display());
        std::process::exit(1);
    }

    for (k, v) in facts.iter().chain(&out.facts) {
        println!("# {k} = {v}");
    }
    for (what, ok) in &out.checks {
        println!("# check {} : {what}", if *ok { "ok" } else { "FAILED" });
    }
    if let Some(t) = &out.trace {
        print!("{}", t.table());
    }
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}
