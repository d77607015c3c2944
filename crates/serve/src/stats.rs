//! Streaming latency statistics for million-request traces.
//!
//! The exact [`LatencyStats::from_times`] path materializes one `Time`
//! per request and selects order statistics at the end — fine to
//! [`EXACT_MODE_LIMIT`](crate::EXACT_MODE_LIMIT) requests, pure memory
//! churn beyond. The simulator's latency accumulators keep both regimes
//! behind one `record`/`finish` interface, and every accumulator of one
//! run picks its regime from the whole trace length: small populations
//! stay exact, large ones stream into a fixed-bin log-scale
//! [`LogHistogram`] whose percentile estimates are within one bin width
//! (≈2.2% at 32 bins per doubling) of the exact nearest-rank values, with
//! count, mean, and max always exact.

use crate::report::LatencyStats;
use optimus_units::Time;
use std::sync::OnceLock;

/// Log-scale resolution: bins per doubling of latency.
pub const HISTOGRAM_BINS_PER_OCTAVE: usize = 32;
/// Smallest representable latency (values below clamp into the first
/// bin): one nanosecond.
const MIN_SECS: f64 = 1e-9;
/// Doublings the bins span: ⌈log2(1e6 s / `MIN_SECS`)⌉, so they cover
/// latencies up to ~11.6 days, far beyond any simulated makespan. Values
/// from `MIN_SECS·2^OCTAVES` (~13 days) up clamp into the last bin.
const OCTAVES: usize = 50;
/// Bins of every histogram: [`HISTOGRAM_BINS_PER_OCTAVE`] per octave plus
/// the top clamp bin.
const BIN_COUNT: usize = OCTAVES * HISTOGRAM_BINS_PER_OCTAVE + 1;

/// The bin lookup indexes a value by its exponent and the top
/// `INDEX_BITS` bits of its mantissa. A bucket is then at most 2^-7 of
/// its value wide, under half a bin (2^(1/32) − 1 ≈ 2.2%), so it holds
/// at most one bin edge.
const INDEX_BITS: u32 = 7;
/// Shift from an `f64`'s bits to its bucket number.
const INDEX_SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - INDEX_BITS;
/// Bucket number of `MIN_SECS`: index entry 0.
const INDEX_BASE: usize = (MIN_SECS.to_bits() >> INDEX_SHIFT) as usize;

/// The bin of `secs` by the defining formula: bin `i` covers
/// `[MIN·2^(i/B), MIN·2^((i+1)/B))` seconds, through a `log2` and a
/// `floor`. [`BinTable`] is derived from it, and tests check the two
/// agree.
fn formula_bin(secs: f64) -> usize {
    if secs <= MIN_SECS {
        return 0;
    }
    let i = ((secs / MIN_SECS).log2() * HISTOGRAM_BINS_PER_OCTAVE as f64).floor() as usize;
    i.min(BIN_COUNT - 1)
}

/// The bin edges of [`formula_bin`] and an index over them, so that
/// binning a value is one table read and one comparison.
struct BinTable {
    /// `edges[i]`, for `i ≥ 1`: the least `f64` the formula puts in bin
    /// `i` (`edges[0]` is zero).
    edges: Vec<f64>,
    /// Entry `k`: the bin of the least `f64` in bucket `INDEX_BASE + k`,
    /// for every bucket from `MIN_SECS`'s to the last edge's.
    index: Vec<u16>,
}

impl BinTable {
    /// The process's table, built on first use.
    fn get() -> &'static Self {
        static TABLE: OnceLock<BinTable> = OnceLock::new();
        TABLE.get_or_init(Self::build)
    }

    /// Finds each edge by stepping ulps from `MIN_SECS·2^(i/B)` until the
    /// formula's bin changes right there, then bins each bucket's least
    /// value against the edges.
    fn build() -> Self {
        let mut edges = vec![0.0; BIN_COUNT];
        for (i, edge) in edges.iter_mut().enumerate().skip(1) {
            let mut x = MIN_SECS * (i as f64 / HISTOGRAM_BINS_PER_OCTAVE as f64).exp2();
            while formula_bin(x) >= i {
                x = x.next_down();
            }
            while formula_bin(x) < i {
                x = x.next_up();
            }
            *edge = x;
        }
        let last = (edges[BIN_COUNT - 1].to_bits() >> INDEX_SHIFT) as usize;
        let index = (INDEX_BASE..=last)
            .map(|bucket| {
                let least = f64::from_bits((bucket as u64) << INDEX_SHIFT);
                let bin = edges.partition_point(|&e| e <= least) - 1;
                u16::try_from(bin).expect("1,601 bins fit u16")
            })
            .collect();
        Self { edges, index }
    }

    /// The bin of `secs`: equal to [`formula_bin`] for every value a
    /// `Time` can hold (any but NaN).
    fn bin_of(&self, secs: f64) -> usize {
        if secs <= MIN_SECS {
            return 0;
        }
        if secs >= self.edges[BIN_COUNT - 1] {
            return BIN_COUNT - 1;
        }
        let bucket = (secs.to_bits() >> INDEX_SHIFT) as usize - INDEX_BASE;
        let bin = usize::from(self.index[bucket]);
        bin + usize::from(secs >= self.edges[bin + 1])
    }
}

/// A fixed-bin log-scale latency histogram: bin `i` covers
/// `[MIN·2^(i/B), MIN·2^((i+1)/B))` seconds with `B` bins per doubling.
///
/// Memory is a few kilobytes regardless of population size, and recording
/// is a lookup in a per-process table of the bin edges and an increment —
/// no allocation, no sorting.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// An empty histogram spanning 1 ns to ~11.6 days.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BIN_COUNT],
            total: 0,
        }
    }

    /// The upper edge of bin `i` — the conservative representative a
    /// percentile query returns (never below any value in the bin).
    fn bin_upper(i: usize) -> f64 {
        MIN_SECS * 2f64.powf((i + 1) as f64 / HISTOGRAM_BINS_PER_OCTAVE as f64)
    }

    /// Records one observation.
    pub fn record(&mut self, value: Time) {
        self.counts[BinTable::get().bin_of(value.secs())] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds another histogram's population into this one (bin layouts
    /// are identical by construction, so this is an elementwise add).
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile estimate: the upper edge of the bin
    /// holding the rank-`⌈q·n⌉` observation — within one bin width
    /// (a factor of `2^(1/32)` ≈ 2.2%) above the exact order statistic.
    /// Zero for an empty histogram.
    ///
    /// Because the estimate is a bin's *upper* edge, it can exceed the
    /// population's true maximum; the simulator's streaming accumulators
    /// clamp it against the exactly-tracked max so a report never shows
    /// `p99 > max`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Time {
        if self.total == 0 {
            return Time::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Time::from_secs(Self::bin_upper(i));
            }
        }
        Time::from_secs(Self::bin_upper(BIN_COUNT - 1))
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One latency population's accumulator: exact below the cutover,
/// histogram-backed streaming above. Count, mean, and max are exact in
/// both regimes; only the streamed percentiles are approximate.
#[derive(Debug)]
pub(crate) enum LatencyAccumulator {
    /// Materialize every observation; `finish` runs the exact
    /// nearest-rank selection of [`LatencyStats::from_times`].
    Exact(Vec<Time>),
    /// Stream observations into a [`LogHistogram`] plus exact running
    /// aggregates.
    Streaming {
        /// Percentile sketch.
        histogram: LogHistogram,
        /// Running sum of seconds (mean stays exact).
        sum_secs: f64,
        /// Exact maximum.
        max: Time,
    },
}

impl LatencyAccumulator {
    /// Chooses the regime for a population of up to `expected`
    /// observations: exact within [`crate::EXACT_MODE_LIMIT`], streaming
    /// beyond.
    #[must_use]
    pub fn for_population(expected: usize) -> Self {
        if expected <= crate::EXACT_MODE_LIMIT {
            Self::Exact(Vec::new())
        } else {
            Self::Streaming {
                histogram: LogHistogram::new(),
                sum_secs: 0.0,
                max: Time::ZERO,
            }
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: Time) {
        match self {
            Self::Exact(values) => values.push(value),
            Self::Streaming {
                histogram,
                sum_secs,
                max,
            } => {
                histogram.record(value);
                *sum_secs += value.secs();
                *max = (*max).max(value);
            }
        }
    }

    /// Folds another accumulator's population into this one, so fleet
    /// drivers can aggregate per-replica latency populations loss-free:
    /// exact + exact concatenates the observations, and streaming +
    /// streaming merges histograms and running aggregates.
    ///
    /// # Panics
    ///
    /// Panics on a mixed pair. Every accumulator of one run is sized from
    /// the whole trace length, so the regimes of a run always agree.
    pub fn merge(&mut self, other: &Self) {
        match (self, other) {
            (Self::Exact(mine), Self::Exact(theirs)) => mine.extend_from_slice(theirs),
            (
                Self::Streaming {
                    histogram,
                    sum_secs,
                    max,
                },
                Self::Streaming {
                    histogram: other_histogram,
                    sum_secs: other_sum,
                    max: other_max,
                },
            ) => {
                histogram.merge(other_histogram);
                *sum_secs += other_sum;
                *max = (*max).max(*other_max);
            }
            _ => panic!("an exact and a streaming latency population do not merge"),
        }
    }

    /// Finalizes the statistics. Streamed percentile estimates are
    /// clamped to the exactly-tracked maximum: the histogram reports a
    /// bin's upper edge, which for the top-occupied bin can exceed the
    /// true max (for clamped overflow values, by any amount) — a report
    /// must never show `p99 > max`.
    #[must_use]
    pub fn finish(&self) -> LatencyStats {
        match self {
            Self::Exact(values) => LatencyStats::from_times(values),
            Self::Streaming {
                histogram,
                sum_secs,
                max,
            } => {
                let n = histogram.count();
                if n == 0 {
                    return LatencyStats::default();
                }
                LatencyStats {
                    count: n as usize,
                    p50: histogram.percentile(0.50).min(*max),
                    p90: histogram.percentile(0.90).min(*max),
                    p99: histogram.percentile(0.99).min(*max),
                    mean: Time::from_secs(sum_secs / n as f64),
                    max: *max,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_track_exact_within_one_bin() {
        let values: Vec<Time> = (1..=1000)
            .map(|i| Time::from_millis(f64::from(i) * 0.37))
            .collect();
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let exact = LatencyStats::from_times(&values);
        let bin_ratio = 2f64.powf(1.0 / HISTOGRAM_BINS_PER_OCTAVE as f64);
        for (q, e) in [(0.5, exact.p50), (0.9, exact.p90), (0.99, exact.p99)] {
            let est = h.percentile(q).secs();
            assert!(
                est >= e.secs() && est <= e.secs() * bin_ratio * bin_ratio,
                "q={q}: estimate {est} vs exact {}",
                e.secs()
            );
        }
    }

    /// The bin count is a constant; it stays what the covered range
    /// gives: ⌈log2(1e6 s / 1 ns)⌉ octaves of 32 bins, plus the top clamp
    /// bin.
    #[test]
    fn bin_count_follows_the_covered_range() {
        let octaves = (1e6 / MIN_SECS).log2().ceil() as usize;
        assert_eq!(BIN_COUNT, octaves * HISTOGRAM_BINS_PER_OCTAVE + 1);
        assert_eq!(BIN_COUNT, 1601);
        assert_eq!(LogHistogram::new().counts.len(), BIN_COUNT);
    }

    /// The table bins every value exactly as the formula does: the 8 ulps
    /// on each side of every edge (where a slipped edge or a `>` for `>=`
    /// shows), and a million seeded random bit patterns over
    /// [1e-12, 1e9] s, which cross both clamps.
    #[test]
    fn table_bins_equal_formula_bins() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let table = BinTable::get();
        let check = |x: f64| {
            assert_eq!(
                table.bin_of(x),
                formula_bin(x),
                "{x:e} ({:#x})",
                x.to_bits()
            );
        };
        for &edge in &table.edges[1..] {
            let (mut below, mut above) = (edge, edge);
            check(edge);
            for _ in 0..8 {
                below = below.next_down();
                above = above.next_up();
                check(below);
                check(above);
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        let bits = 1e-12f64.to_bits()..=1e9f64.to_bits();
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.gen_range(bits.clone())));
        }
        for x in [0.0, MIN_SECS, 1e-12, 1e9, f64::MAX, f64::INFINITY] {
            check(x);
        }
        assert_eq!(table.index.len(), 6401);
    }

    #[test]
    fn histogram_clamps_out_of_range_values() {
        let mut h = LogHistogram::new();
        h.record(Time::from_secs(1e-12));
        h.record(Time::from_secs(1e9));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.5) > Time::ZERO);
    }

    #[test]
    fn empty_accumulators_finish_to_zeros() {
        for acc in [
            LatencyAccumulator::Exact(Vec::new()),
            LatencyAccumulator::for_population(1_000_000),
        ] {
            let s = acc.finish();
            assert_eq!(s.count, 0);
            assert_eq!(s.p99, Time::ZERO);
        }
    }

    #[test]
    fn streaming_count_mean_max_are_exact() {
        let mut acc = LatencyAccumulator::for_population(1_000_000);
        assert!(matches!(acc, LatencyAccumulator::Streaming { .. }));
        for i in 1..=100 {
            acc.record(Time::from_millis(f64::from(i)));
        }
        let s = acc.finish();
        assert_eq!(s.count, 100);
        assert!((s.mean.millis() - 50.5).abs() < 1e-9);
        assert!((s.max.millis() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn small_populations_choose_the_exact_regime() {
        let mut acc = LatencyAccumulator::for_population(100);
        assert!(matches!(acc, LatencyAccumulator::Exact(_)));
        acc.record(Time::from_millis(7.0));
        assert_eq!(acc.finish().p50, Time::from_millis(7.0));
    }

    /// Regression: the histogram's percentile estimate is a bin's upper
    /// edge, so before the clamp a streamed population of identical
    /// values reported `p50 > max`. Percentiles must stay ordered and
    /// bounded by the exact maximum in both regimes.
    #[test]
    fn streamed_percentiles_never_exceed_the_exact_max() {
        let mut streaming = LatencyAccumulator::for_population(1_000_000);
        let mut exact = LatencyAccumulator::for_population(100);
        for _ in 0..60 {
            streaming.record(Time::from_secs(1.0));
            exact.record(Time::from_secs(1.0));
        }
        for acc in [&streaming, &exact] {
            let s = acc.finish();
            assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
            assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
            assert!(s.p99 <= s.max, "p99 {} > max {}", s.p99, s.max);
            assert_eq!(s.max, Time::from_secs(1.0));
        }
    }

    /// Values beyond the histogram's covered range clamp into the last
    /// bin; the finished percentiles must still respect the exact max.
    #[test]
    fn overflowing_values_keep_percentiles_under_the_max() {
        let mut acc = LatencyAccumulator::for_population(1_000_000);
        for _ in 0..10 {
            acc.record(Time::from_secs(1e7)); // past the last bin's edge, ~1.13e6 s
        }
        let s = acc.finish();
        assert_eq!(s.max, Time::from_secs(1e7));
        assert!(s.p99 <= s.max);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    /// Merging two streaming accumulators is loss-free on count, mean,
    /// and max, and the merged percentiles match recording the union
    /// directly.
    #[test]
    fn streaming_merge_equals_union() {
        let mut a = LatencyAccumulator::for_population(1_000_000);
        let mut b = LatencyAccumulator::for_population(1_000_000);
        let mut union = LatencyAccumulator::for_population(1_000_000);
        for i in 1..=100 {
            let v = Time::from_millis(f64::from(i) * 3.7);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            union.record(v);
        }
        a.merge(&b);
        assert_stats_match(&a.finish(), &union.finish());
    }

    /// Exact + exact merge concatenates; the result equals one exact
    /// accumulator over the union.
    #[test]
    fn exact_merge_equals_union() {
        let mut a = LatencyAccumulator::Exact(Vec::new());
        let mut b = LatencyAccumulator::Exact(Vec::new());
        let mut union = LatencyAccumulator::Exact(Vec::new());
        for i in 1..=50 {
            let v = Time::from_millis(f64::from(i));
            if i % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            union.record(v);
        }
        a.merge(&b);
        assert_stats_match(&a.finish(), &union.finish());
    }

    /// Order statistics and extrema are order-independent, so they match
    /// exactly; the mean accumulates in input order, which a merge
    /// permutes, so it matches only to floating-point roundoff.
    fn assert_stats_match(merged: &LatencyStats, union: &LatencyStats) {
        assert_eq!(merged.count, union.count);
        assert_eq!(merged.p50, union.p50);
        assert_eq!(merged.p90, union.p90);
        assert_eq!(merged.p99, union.p99);
        assert_eq!(merged.max, union.max);
        assert!((merged.mean.secs() - union.mean.secs()).abs() <= 1e-12 * union.mean.secs());
    }

    /// The regimes of one run always agree, so a mixed pair is a bug in
    /// the caller, not a population to convert.
    #[test]
    #[should_panic(expected = "do not merge")]
    fn mixed_regime_merges_panic() {
        let mut exact = LatencyAccumulator::for_population(100);
        exact.merge(&LatencyAccumulator::for_population(1_000_000));
    }
}
