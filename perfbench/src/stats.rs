//! Small numeric helpers: quantiles, a seeded generator and a digest.

/// Nearest rank of percentile `permille / 10` in a sample of `n` (1-based).
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `permille / 10` of an ascending slice.
fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Percentile ladder (in permille) the tail latency is chosen from.
const TAIL_LADDER: [usize; 6] = [999, 990, 980, 950, 900, 750];

/// The highest ladder percentile (permille) with at least ten samples
/// beyond it in a sample of `n`. Every workload takes its quantiles over
/// a fixed number of ops, so the choice never changes from run to run.
fn tail_permille(n: usize) -> usize {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
        .unwrap_or(500)
}

/// Median and tail of a latency sample (milliseconds), plus the tail's
/// percentile and the number of samples strictly beyond the tail rank.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn latency(samples_ms: &[f64]) -> Latency {
    let mut v = samples_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = tail_permille(v.len());
    Latency {
        p50: percentile(&v, 500),
        tail: percentile(&v, tail),
        tail_pct: tail as f64 / 10.0,
        beyond: v.len() - rank(v.len(), tail),
        samples: v.len(),
    }
}

/// Where in its windows a timed figure is read, in permille of the windows
/// ordered fastest to slowest.
///
/// A shared host's speed moves in steps with its neighbours' load: a fixed
/// CPU loop timed once a second switched between about 7.3 and 10.5 ms
/// every few seconds, at the slower level most of the time. A median over
/// a run moves with the share of each level, so its spread over runs
/// reached 0.2–0.3. The window at this rank lies at the slower level in
/// every run that spends more than about a fifth of its time there, and a
/// change to the program moves it as it moves every window. A host whose
/// level changes between runs still moves every timed figure.
pub const SLOW_PERMILLE: usize = 800;

/// Element `permille` of a sample ordered by `cmp` (nearest rank).
fn ranked(values: &[f64], permille: usize, cmp: fn(&f64, &f64) -> std::cmp::Ordering) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(cmp);
    percentile(&v, permille)
}

/// A sample of durations read at [`SLOW_PERMILLE`], fastest first.
pub fn slow_time(values: &[f64]) -> f64 {
    ranked(values, SLOW_PERMILLE, f64::total_cmp)
}

/// [`latency`] in consecutive windows of `size` samples (a trailing part
/// window is dropped): each window's median and tail, read at
/// [`SLOW_PERMILLE`] over the windows. The tail percentile, `beyond` and
/// `samples` are those of one window.
pub fn windowed_latency(samples_ms: &[f64], size: usize) -> Latency {
    let parts: Vec<Latency> = samples_ms.chunks_exact(size).map(latency).collect();
    let slow = |f: fn(&Latency) -> f64| slow_time(&parts.iter().map(f).collect::<Vec<_>>());
    Latency {
        p50: slow(|l| l.p50),
        tail: slow(|l| l.tail),
        ..latency(&samples_ms[..size])
    }
}

/// Throughput of groups of equal work, `ops / seconds` per group, read at
/// [`SLOW_PERMILLE`] over the groups ordered fastest first.
pub fn window_rate(groups: &[(usize, std::time::Duration)]) -> f64 {
    let rates: Vec<f64> = groups
        .iter()
        .filter(|(_, t)| !t.is_zero())
        .map(|&(ops, t)| ops as f64 / t.as_secs_f64())
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        ranked(&rates, SLOW_PERMILLE, |a, b| b.total_cmp(a))
    }
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x0005_eed0_facc_e105)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over 64 bits: the digest of simulated outputs.
#[derive(Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        let times: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(slow_time(&times), 8.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(512), 980);
        assert_eq!(tail_permille(250), 950);
        assert_eq!(tail_permille(100), 900);
        let l = latency(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((l.tail_pct, l.tail, l.beyond), (99.0, 990.0, 10));
        // Windows in the slow mode set the windowed quantiles, whatever
        // share of the run the fast mode takes.
        let mut v: Vec<f64> = (0..10_000).map(|i| f64::from(i % 1000 + 1)).collect();
        for fast in [0, 1, 3, 7] {
            let mut w = v.clone();
            w[..fast * 1000].iter_mut().for_each(|x| *x *= 0.7);
            let l = windowed_latency(&w, 1000);
            assert_eq!((l.p50, l.tail, l.samples), (500.0, 990.0, 1000));
        }
        v.truncate(2500);
        assert_eq!(windowed_latency(&v, 1000).p50, 500.0);
    }

    #[test]
    fn window_rate_reads_the_slow_mode() {
        let d = std::time::Duration::from_millis;
        let mut groups = vec![(10, d(100)); 10];
        assert_eq!(window_rate(&groups), 100.0);
        groups[..7].iter_mut().for_each(|g| g.1 = d(50));
        assert_eq!(window_rate(&groups), 100.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
