//! Small shared helpers: the seeded generator's RNG, order statistics and
//! wall-clock conversions. Std only — the benchmark adds no dependency.

use std::time::{Duration, Instant};

/// SplitMix64: every generated input derives from `--seed` through this.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream for a named sub-generator.
    pub fn fork(&mut self, stream: u64) -> SplitMix64 {
        SplitMix64(self.next_u64() ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median — the spread the acceptance
/// check uses, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); 0 for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        s[lo - 1] + (s[lo] - s[lo - 1]) * (pos - lo as f64)
    };
    let m = quantile_sorted(&s, 0.5);
    if m == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / m.abs()
}

/// Consecutive equal blocks of `values` (the remainder is dropped).
pub fn blocks(values: &[f64], blocks: usize) -> impl Iterator<Item = &[f64]> {
    let per_block = (values.len() / blocks.max(1)).max(1);
    values.chunks_exact(per_block)
}

/// How a run's blocks are reduced to one number: the **calm quartile** — the
/// first quartile of per-block times (third of per-block rates). The host
/// this was defined on slows down in spells of a fraction of a second to
/// minutes, and only ever slows down; the calm quartile is what the program
/// does when at most a quarter of the blocks escaped a spell, where a median
/// needs half of them. A change to the program moves every block alike, so
/// it moves the calm quartile as much as it moves the median.
pub const CALM_Q: f64 = 0.25;

/// Calm quartile of per-block times (lower is calmer).
pub fn calm_time(per_block: &[f64]) -> f64 {
    quantile(per_block, CALM_Q)
}

/// Operations per second: calm quartile over blocks of operation times (ms)
/// of block length / block time.
pub fn block_rate(op_ms: &[f64], n_blocks: usize) -> f64 {
    let rates: Vec<f64> = blocks(op_ms, n_blocks)
        .map(|b| ratio(b.len() as f64 * 1e3, b.iter().sum()))
        .collect();
    quantile(&rates, 1.0 - CALM_Q)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Median wall time (ms) of `reps` calls of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed_ms(&mut f).1).collect();
    median(&samples)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
