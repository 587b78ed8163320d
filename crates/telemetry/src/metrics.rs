//! Lock-free metric primitives: monotonic counters, signed gauges, and a
//! fixed-budget streaming histogram with quantile readout.
//!
//! The histogram is log-bucketed in the style of HDR histograms: values
//! 0..8 get exact buckets, and every power-of-two octave above that is
//! split into 8 sub-buckets, so the bucket width is at most 1/8 of the
//! bucket's lower bound. Reading a quantile through the bucket midpoint
//! therefore has a worst-case relative error of 1/16 (6.25%), the memory
//! footprint is a fixed 496 buckets regardless of how many samples are
//! recorded, and `record` is a handful of relaxed atomic RMWs — O(1),
//! wait-free, and safe to call concurrently from any number of threads.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact buckets for values below this (also sub-buckets per octave).
const LINEAR: u64 = 8;
/// log2(LINEAR): bits of sub-bucket resolution within an octave.
const SUB_BITS: u32 = 3;
/// Total bucket count: 8 exact + 61 octaves (2^3..2^63) * 8 sub-buckets.
pub const BUCKETS: usize = 496;

/// A monotonically increasing event count. Cheap to clone; all clones
/// share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, outbox length, ...).
/// Cheap to clone; all clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via `dec`).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Streaming histogram over `u64` samples (by convention nanoseconds for
/// `*_ns` metrics, raw units otherwise). Cheap to clone; clones share
/// the same buckets, so worker threads can record into one histogram.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a sample to its bucket index.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = ((v >> (msb - SUB_BITS)) & (LINEAR - 1)) as usize;
        ((msb - SUB_BITS) as usize) * LINEAR as usize + LINEAR as usize + sub
    }
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_low(i: usize) -> u64 {
    if i < LINEAR as usize {
        i as u64
    } else {
        let octave = (i - LINEAR as usize) / LINEAR as usize; // 0-based from 2^3
        let sub = ((i - LINEAR as usize) % LINEAR as usize) as u64;
        (LINEAR + sub) << octave
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` boundary).
pub(crate) fn bucket_high(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_low(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// The value reported for samples landing in bucket `i` (its midpoint).
pub(crate) fn bucket_mid(i: usize) -> u64 {
    if i < LINEAR as usize {
        i as u64
    } else {
        let low = bucket_low(i);
        let width = bucket_low(i + 1).saturating_sub(low).max(1);
        low + width / 2
    }
}

/// [`Histogram::quantile`] over a sparse bucket list: the midpoint of
/// the bucket where the `ceil(q · total)`-th sample falls in the
/// ascending `buckets`, or `max` when they hold fewer. Indexes past the
/// layout are skipped, as [`Histogram::from_state`] skips them, so a
/// damaged state read from disk answers instead of panicking.
pub(crate) fn quantile_of(
    buckets: impl Iterator<Item = (u32, u64)>,
    total: u64,
    max: u64,
    q: f64,
) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, n) in buckets.filter(|&(i, _)| (i as usize) < BUCKETS) {
        cum = cum.wrapping_add(n);
        if cum >= rank {
            return bucket_mid(i as usize);
        }
    }
    max
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample. O(1): five relaxed atomic RMWs.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        let v = self.core.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` in [0, 1] (bucket midpoint; ≤ 6.25%
    /// relative error). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.core.buckets[i].load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_mid(i);
            }
        }
        // Concurrent recording can make `count` run ahead of buckets
        // momentarily; fall back to the observed max.
        self.max()
    }

    /// Number of recorded samples whose bucket is at or below the bucket
    /// of `v`. With [`Histogram::count`] this yields a percentile rank
    /// with the same ≤ 6.25% bucket-resolution error as `quantile`.
    pub fn count_le(&self, v: u64) -> u64 {
        let idx = bucket_index(v);
        let mut cum = 0u64;
        for i in 0..=idx {
            cum += self.core.buckets[i].load(Ordering::Relaxed);
        }
        cum
    }

    /// Folds another histogram's samples into this one. Merging is
    /// associative and commutative, so per-thread histograms can be
    /// combined in any order.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.core.buckets[i].load(Ordering::Relaxed);
            if n != 0 {
                self.core.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.core.count.fetch_add(other.count(), Ordering::Relaxed);
        self.core.sum.fetch_add(other.sum(), Ordering::Relaxed);
        let omin = other.core.min.load(Ordering::Relaxed);
        self.core.min.fetch_min(omin, Ordering::Relaxed);
        self.core.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// A serializable copy of the current state (for baseline
    /// persistence). Concurrent recording during the copy can skew a
    /// bucket by a sample or two — harmless for a baseline.
    pub fn to_state(&self) -> HistogramState {
        let mut state = HistogramState::default();
        self.state_into(&mut state);
        state
    }

    /// [`Histogram::to_state`] written over `state`, its bucket vector
    /// reused.
    pub fn state_into(&self, state: &mut HistogramState) {
        state.buckets.clear();
        for i in 0..BUCKETS {
            let n = self.core.buckets[i].load(Ordering::Relaxed);
            if n != 0 {
                state.buckets.push((i as u32, n));
            }
        }
        state.count = self.count();
        state.sum = self.sum();
        state.min = self.core.min.load(Ordering::Relaxed);
        state.max = self.max();
    }

    /// Rebuilds a histogram from a saved state. Bucket indexes outside
    /// the fixed layout are ignored (a state written by a future layout
    /// degrades gracefully instead of panicking).
    pub fn from_state(state: &HistogramState) -> Histogram {
        let h = Histogram::new();
        let c = &h.core;
        for &(i, n) in &state.buckets {
            if (i as usize) < BUCKETS {
                c.buckets[i as usize].store(n, Ordering::Relaxed);
            }
        }
        c.count.store(state.count, Ordering::Relaxed);
        c.sum.store(state.sum, Ordering::Relaxed);
        c.min.store(state.min, Ordering::Relaxed);
        c.max.store(state.max, Ordering::Relaxed);
        h
    }

    /// Cumulative bucket counts for Prometheus histogram exposition:
    /// one `(le, cumulative_count)` pair per *occupied* bucket, `le`
    /// being the bucket's inclusive upper bound. Sparse on purpose — a
    /// scrape carries only the boundaries that hold samples, and
    /// Prometheus treats the missing interior boundaries as implied by
    /// the cumulative counts. The final `+Inf` bucket is the caller's to
    /// add (it equals [`Histogram::count`]).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let n = self.core.buckets[i].load(Ordering::Relaxed);
            if n != 0 {
                cum += n;
                out.push((bucket_high(i), cum));
            }
        }
        out
    }
}

/// Records elapsed wall-clock time into a histogram on drop.
pub struct HistogramTimer {
    hist: Histogram,
    start: Instant,
}

impl HistogramTimer {
    /// Stops the timer now, recording and returning the elapsed time.
    pub fn stop(self) -> Duration {
        let elapsed = self.start.elapsed();
        self.hist.record_duration(elapsed);
        std::mem::forget(self);
        elapsed
    }
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// A histogram's full persistable state: sparse bucket counts plus the
/// scalar aggregates. `min` keeps its raw `u64::MAX` "empty" sentinel so
/// a restore is byte-faithful.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramState {
    /// `(bucket_index, count)` for every non-zero bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Raw minimum cell (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_dense() {
        let mut last = 0usize;
        for shift in 0..60 {
            for v in [1u64 << shift, (1u64 << shift) + 1, (1u64 << shift) * 3 / 2] {
                let i = bucket_index(v);
                assert!(i >= last || v < LINEAR, "index regressed at {v}");
                assert!(i < BUCKETS, "index {i} out of range for {v}");
                last = i.max(last);
                // The bucket must actually contain the value.
                assert!(bucket_low(i) <= v);
                if i + 1 < BUCKETS {
                    assert!(v < bucket_low(i + 1), "v={v} i={i}");
                }
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 28);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.0625 + 1e-9, "q={q}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn merge_matches_single_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 17)
            } else {
                b.record(v * 17)
            }
            whole.record(v * 17);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn a_sparse_quantile_reads_what_the_rebuilt_histogram_does() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 7, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let mut state = h.to_state();
        let sparse =
            |s: &HistogramState, q| quantile_of(s.buckets.iter().copied(), s.count, s.max, q);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(sparse(&state, q), h.quantile(q), "q={q}");
        }
        // A damaged state: an index past the layout is skipped, as the
        // rebuild skips it, and the count it leaves short reads as `max`.
        state.buckets.push((BUCKETS as u32 + 7, 5));
        state.buckets.push((u32::MAX, 1));
        state.count += 6;
        let rebuilt = Histogram::from_state(&state);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(sparse(&state, q), rebuilt.quantile(q), "q={q}");
        }
        assert_eq!(sparse(&state, 1.0), state.max);
    }

    #[test]
    fn cumulative_buckets_are_monotonic_and_complete() {
        let h = Histogram::new();
        assert!(h.cumulative_buckets().is_empty());
        for v in [0u64, 3, 3, 7, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        // Monotonic in both boundary and cumulative count.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
        // The last cumulative count covers every sample.
        assert_eq!(buckets.last().unwrap().1, h.count());
        // Every boundary actually bounds its samples: counting samples
        // ≤ le through the bucket API agrees.
        for &(le, cum) in &buckets {
            assert_eq!(h.count_le(le), cum, "le={le}");
        }
        // Exact sub-linear values get exact boundaries.
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (3, 3));
    }

    #[test]
    fn timer_records_on_drop_and_stop() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        let t = h.start_timer();
        let d = t.stop();
        assert_eq!(h.count(), 2);
        assert!(d.as_nanos() > 0 || d.is_zero());
    }
}
