//! Latency percentiles and counter diffing.

use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of requests, not a figure.
pub const MIN_TAIL: u64 = 10;

/// Mantissa bits kept per power of two: values are recorded to within
/// 1/1024 of themselves, and below 1024 exactly.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;

/// A latency histogram of fixed size. Recording costs an index and an
/// add, and the memory does not grow with the sample count, so the
/// process's resident size does not depend on how many requests a run
/// completes.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let mantissa = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + mantissa
    }

    /// The smallest value that lands in bucket `b`.
    fn floor(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let exp = (b / SUB) as u32 + SUB_BITS - 1;
        ((SUB + b % SUB) as u64) << (exp - SUB_BITS)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer
    /// than [`MIN_TAIL`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.total;
        let rank = ((q * n as f64).ceil() as u64).max(1);
        if rank > n || n - rank < MIN_TAIL {
            return None;
        }
        let mut seen = 0;
        self.counts.iter().enumerate().find_map(|(b, &c)| {
            seen += c;
            (seen >= rank).then(|| Self::floor(b))
        })
    }
}

/// Counters read from outside a layer: the `stats` verb's lines, or the
/// fields of an in-process counter struct, by name.
pub type Counters = BTreeMap<String, u64>;

/// `stats` lines that are levels or quantiles rather than running totals:
/// they are read at the end of the phase, never subtracted.
fn is_level(name: &str) -> bool {
    name.ends_with("_us")
        || name.starts_with("curr_")
        || name.ends_with("_epoch")
        || name.ends_with("_faulted")
        || name.ends_with("_bytes")
        || name.ends_with("_descriptors")
        || matches!(name, "shards" | "gc_workers" | "gc_acks_per_fence_x1000")
}

/// What a phase did: running totals are `after - before`, levels are
/// `after`. A total that went backwards means the two reads came from
/// different servers or a counter wrapped; either way the diff is wrong.
pub fn diff(before: &Counters, after: &Counters) -> Result<Counters, String> {
    let mut out = Counters::new();
    for (name, &end) in after {
        if is_level(name) {
            out.insert(name.clone(), end);
            continue;
        }
        let start = before.get(name).copied().unwrap_or(0);
        let delta = end
            .checked_sub(start)
            .ok_or_else(|| format!("counter {name} went backwards: {start} -> {end}"))?;
        out.insert(name.clone(), delta);
    }
    Ok(out)
}

/// A fence-latency quantile for the phase between two `stats` reads.
///
/// The server's fence histogram is cumulative from its start and `stats`
/// shows only its quantiles, which cannot be subtracted. The quantile at
/// the end of the phase describes the phase when no fence ran before it,
/// which the benchmark arranges by preloading before the server starts.
/// When the phase itself ran no fence the quantile describes nothing in
/// the phase, and is `None`.
pub fn fence_quantile(before: &Counters, after: &Counters, name: &str) -> Option<u64> {
    let samples = |c: &Counters| c.get("fence_samples").copied().unwrap_or(0);
    if samples(after) <= samples(before) {
        return None;
    }
    after.get(name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let h = histogram(1..=1000);
        assert_eq!(h.len(), 1000);
        assert_eq!(h.percentile(0.5), Some(500));
        // Rank 990 leaves exactly ten samples beyond it.
        assert_eq!(h.percentile(0.99), Some(990));
        let short = histogram(1..=999);
        assert_eq!(short.percentile(0.99), None);
        assert_eq!(short.percentile(0.5), Some(500));
        assert_eq!(Histogram::default().percentile(0.5), None);
        assert_eq!(histogram(1..=19).percentile(0.5), None);
        assert_eq!(histogram(1..=20).percentile(0.5), Some(10));
        let mut merged = histogram(1..=10);
        merged.merge(&histogram(11..=20));
        assert_eq!(merged.percentile(0.5), Some(10));
    }

    #[test]
    fn histogram_keeps_values_to_a_thousandth() {
        for v in [
            0,
            1,
            1023,
            1024,
            1025,
            4097,
            123_456,
            98_765_432_101,
            u64::MAX,
        ] {
            let b = Histogram::bucket(v);
            let floor = Histogram::floor(b);
            assert!(floor <= v, "{v}: floor {floor}");
            assert!(v - floor <= v / 1024, "{v}: floor {floor}");
            assert_eq!(Histogram::bucket(floor), b);
        }
        // Below 1024 every value has a bucket of its own.
        assert_eq!(Histogram::floor(Histogram::bucket(777)), 777);
        let h = histogram([1_000_000, 1_000_000, 1_000_000, 2_000_000].repeat(10));
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 <= 1_000_000 && 1_000_000 - p50 < 1000);
    }

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn totals_subtract_and_levels_do_not() {
        let before = counters(&[
            ("gc_batches", 10),
            ("gc_fences", 4),
            ("curr_items", 100),
            ("session_table_bytes", 96),
        ]);
        let after = counters(&[
            ("gc_batches", 25),
            ("gc_fences", 4),
            ("curr_items", 100),
            ("session_table_bytes", 192),
            ("scan_requests", 3),
        ]);
        let d = diff(&before, &after).unwrap();
        assert_eq!(d["gc_batches"], 15);
        assert_eq!(d["gc_fences"], 0);
        assert_eq!(d["curr_items"], 100);
        assert_eq!(d["session_table_bytes"], 192);
        assert_eq!(d["scan_requests"], 3);
        let backwards = counters(&[("gc_batches", 9)]);
        assert!(diff(&before, &backwards).is_err());
    }

    #[test]
    fn fence_quantiles_are_read_not_diffed() {
        let before = counters(&[("fence_samples", 0)]);
        let after = counters(&[
            ("fence_samples", 40),
            ("fence_p50_us", 256),
            ("fence_p99_us", 1024),
        ]);
        assert_eq!(fence_quantile(&before, &after, "fence_p50_us"), Some(256));
        assert_eq!(fence_quantile(&before, &after, "fence_p99_us"), Some(1024));
        // The p50 line is a level: the diff keeps it as read.
        assert_eq!(diff(&before, &after).unwrap()["fence_p50_us"], 256);
        // No fence in the phase: earlier fences must not speak for it.
        assert_eq!(fence_quantile(&after, &after, "fence_p50_us"), None);
        // A server that never fenced prints no quantile lines at all.
        let idle = counters(&[("fence_samples", 0)]);
        assert_eq!(fence_quantile(&idle, &idle, "fence_p99_us"), None);
    }
}
