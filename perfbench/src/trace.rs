//! In-memory span recorder for the traced runs.
//!
//! The benchmark times its own calls into each crate's public functions:
//! a span is opened around a call, children nest inside it, and a span's
//! *self time* is its duration minus its children's. Nothing inside the
//! program is instrumented. Spans export as Chrome trace-event JSON
//! (Perfetto and `chrome://tracing` open it) and as a self-time table.
//! Spans named `perfbench.*` are the benchmark's own bookkeeping (for
//! example re-wrapping a module into a program after its build steps were
//! timed one by one); they count as tracing cost, never as a layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u32,
}

/// One thread's span recorder. Several recorders that share an epoch can
/// be merged into one [`Trace`].
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span closed");
        self.spans
    }
}

/// Per-name totals of a merged trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The merged spans of one traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Trace {
    /// Add one recorder's spans (parent indices are local to it).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let t = self.totals.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e9
    }

    /// Total (inclusive) time of `name` in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 / 1e9
    }

    /// Self time of every span, summed: the traced CPU time.
    pub fn all_self_ns(&self) -> u64 {
        self.totals.values().map(|t| t.self_ns).sum()
    }

    /// The self-time table: one row per span name, largest first.
    pub fn table(&self) -> String {
        let total = self.all_self_ns().max(1) as f64;
        let mut rows: Vec<_> = self.totals.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<40} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "calls", "self_s", "total_s", "self%"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "{:<40} {:>10} {:>12.6} {:>12.6} {:>6.2}%",
                name,
                t.calls,
                t.self_ns as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                100.0 * t.self_ns as f64 / total
            );
        }
        out
    }

    /// Chrome trace-event JSON (complete events, microsecond clock).
    /// At most `limit` spans are written, earliest first.
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_ns, s.tid));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in order.iter().take(limit).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let cat = s.name.split('.').next().unwrap_or("perfbench");
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                cat,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let mut trace = Trace::default();
        trace.absorb(t.finish());
        let (outer, inner) = (trace.get("outer"), trace.get("inner"));
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 4_000_000);
        assert!(trace.chrome_json(10).contains("\"name\":\"inner\""));
    }
}
