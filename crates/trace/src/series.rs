use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::{TimeDelta, TimeRange, Timestamp, TraceError};

/// A time-ordered series of `(Timestamp, f64)` samples.
///
/// This is the workhorse behind every line chart in BatchLens: per-machine
/// metric series, per-job aggregates and the system-wide timeline are all
/// `TimeSeries`. Samples are kept sorted by timestamp; duplicate timestamps
/// are rejected at push time so lookups are unambiguous.
///
/// Values are plain `f64` rather than [`crate::Utilization`] so the type can
/// also carry derived quantities (z-scores, EWMA residuals, counts).
///
/// # Example
///
/// ```
/// use batchlens_trace::{TimeSeries, Timestamp, TimeDelta, TimeRange};
///
/// let mut s = TimeSeries::new();
/// for i in 0..10 {
///     s.push(Timestamp::new(i * 60), i as f64)?;
/// }
/// let window = TimeRange::new(Timestamp::new(120), Timestamp::new(300))?;
/// let cut = s.slice(&window);
/// assert_eq!(cut.len(), 3); // t=120, 180, 240
/// # Ok::<(), batchlens_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<Timestamp>,
    values: Vec<f64>,
}

/// How [`TimeSeries::resample`] combines the samples that fall into a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resample {
    /// Arithmetic mean of the bucket.
    Mean,
    /// Maximum of the bucket.
    Max,
    /// Minimum of the bucket.
    Min,
    /// Last sample in the bucket (sample-and-hold downsampling).
    Last,
    /// Sum of the bucket (for counts/loads).
    Sum,
}

/// Summary statistics of a series or a window of it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Number of samples summarized.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl SeriesStats {
    fn from_values<'a, I: IntoIterator<Item = &'a f64>>(values: I) -> Option<SeriesStats> {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &v in values {
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
            sum_sq += v * v;
        }
        if count == 0 {
            return None;
        }
        let n = count as f64;
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Some(SeriesStats {
            count,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        })
    }
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates an empty series with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a series from unordered `(t, v)` pairs, sorting by time.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnorderedSamples`] if two samples share a
    /// timestamp (the series would be ambiguous).
    pub fn from_samples<I>(samples: I) -> Result<Self, TraceError>
    where
        I: IntoIterator<Item = (Timestamp, f64)>,
    {
        let mut pairs: Vec<(Timestamp, f64)> = samples.into_iter().collect();
        pairs.sort_by_key(|(t, _)| *t);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(TraceError::UnorderedSamples {
                    previous: w[0].0,
                    offending: w[1].0,
                });
            }
        }
        let mut s = TimeSeries::with_capacity(pairs.len());
        for (t, v) in pairs {
            s.times.push(t);
            s.values.push(v);
        }
        Ok(s)
    }

    /// Appends a sample; timestamps must be strictly increasing.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnorderedSamples`] when `t` is not after the
    /// last timestamp.
    pub fn push(&mut self, t: Timestamp, value: f64) -> Result<(), TraceError> {
        if let Some(&last) = self.times.last() {
            if t <= last {
                return Err(TraceError::UnorderedSamples {
                    previous: last,
                    offending: t,
                });
            }
        }
        self.times.push(t);
        self.values.push(value);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The timestamps, sorted ascending.
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// The values, parallel to [`TimeSeries::times`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(timestamp, value)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<(Timestamp, f64)> {
        Some((*self.times.first()?, *self.values.first()?))
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// The closed span `[first, last]` as a half-open range `[first, last+1)`,
    /// or `None` when empty ([`SeriesView::span`]).
    pub fn span(&self) -> Option<TimeRange> {
        self.view().span()
    }

    /// Exact-match lookup.
    pub fn value_at(&self, t: Timestamp) -> Option<f64> {
        let i = self.times.binary_search(&t).ok()?;
        Some(self.values[i])
    }

    /// Sample-and-hold lookup: the value of the latest sample at or before
    /// `t`, or `None` when `t` precedes the first sample.
    ///
    /// This matches how a 300 s-resolution trace is read: between reports the
    /// previous report stands.
    pub fn value_at_or_before(&self, t: Timestamp) -> Option<f64> {
        match self.times.binary_search(&t) {
            Ok(i) => Some(self.values[i]),
            Err(0) => None,
            Err(i) => Some(self.values[i - 1]),
        }
    }

    /// Linear interpolation at `t`; clamps to the boundary values outside the
    /// sampled span. `None` on an empty series.
    pub fn interpolate(&self, t: Timestamp) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        match self.times.binary_search(&t) {
            Ok(i) => Some(self.values[i]),
            Err(0) => Some(self.values[0]),
            Err(i) if i == self.len() => Some(self.values[self.len() - 1]),
            Err(i) => {
                let (t0, v0) = (self.times[i - 1], self.values[i - 1]);
                let (t1, v1) = (self.times[i], self.values[i]);
                let span = (t1 - t0).as_secs_f64();
                let frac = (t - t0).as_secs_f64() / span;
                Some(v0 + (v1 - v0) * frac)
            }
        }
    }

    /// Copies the samples whose timestamps fall inside `range` (half-open).
    ///
    /// Prefer `view().slice(range)` ([`SeriesView::slice`]) on hot paths —
    /// it borrows instead of copying.
    pub fn slice(&self, range: &TimeRange) -> TimeSeries {
        self.view().slice(range).to_owned()
    }

    /// A borrowed view of the whole series.
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView {
            times: &self.times,
            values: &self.values,
        }
    }

    /// Re-buckets the series onto a regular grid of `resolution`, combining
    /// each bucket's samples with `how`. Empty buckets produce no sample.
    ///
    /// Bucket `k` covers `[k*resolution, (k+1)*resolution)` and is stamped at
    /// its left edge, matching the trace's reporting convention.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidResolution`] for non-positive resolutions.
    pub fn resample(&self, resolution: TimeDelta, how: Resample) -> Result<TimeSeries, TraceError> {
        if !resolution.is_positive() {
            return Err(TraceError::InvalidResolution {
                seconds: resolution.as_seconds(),
            });
        }
        let mut out = TimeSeries::new();
        let mut i = 0usize;
        while i < self.len() {
            let bucket_start = self.times[i].align_down(resolution)?;
            let bucket_end = bucket_start + resolution;
            let mut j = i;
            while j < self.len() && self.times[j] < bucket_end {
                j += 1;
            }
            let bucket = &self.values[i..j];
            let v = match how {
                Resample::Mean => bucket.iter().sum::<f64>() / bucket.len() as f64,
                Resample::Max => bucket.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                Resample::Min => bucket.iter().copied().fold(f64::INFINITY, f64::min),
                Resample::Last => bucket[bucket.len() - 1],
                Resample::Sum => bucket.iter().sum::<f64>(),
            };
            out.push(bucket_start, v)?;
            i = j;
        }
        Ok(out)
    }

    /// Summary statistics over the whole series; `None` when empty.
    pub fn stats(&self) -> Option<SeriesStats> {
        SeriesStats::from_values(&self.values)
    }

    /// Summary statistics over a window; `None` when the window is empty.
    pub fn stats_in(&self, range: &TimeRange) -> Option<SeriesStats> {
        let start = self.times.partition_point(|&t| t < range.start());
        let end = self.times.partition_point(|&t| t < range.end());
        SeriesStats::from_values(&self.values[start..end])
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    /// statistics; `None` when empty or `q` is out of range / NaN.
    ///
    /// Runs in O(n) expected time via selection rather than a full sort.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() || q.is_nan() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut scratch = self.values.clone();
        Some(quantile_select(&mut scratch, q))
    }

    /// Maps every value through `f`, keeping timestamps.
    #[must_use]
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> TimeSeries {
        TimeSeries {
            times: self.times.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Pointwise mean of many series evaluated on the union of their time
    /// grids using sample-and-hold semantics. Series that have not started
    /// yet at a grid point do not contribute there.
    ///
    /// This is the aggregation behind the paper's system-wide timeline view.
    /// It runs a single k-way merge sweep holding one cursor per series —
    /// O(total samples · log M) for M series — instead of a binary search
    /// per series per union-grid point. The series are borrowed views, so a
    /// dataset's usage series ([`crate::MachineView::usage`]) aggregate
    /// without a copy.
    pub fn mean_of<'a, I>(series: I) -> TimeSeries
    where
        I: IntoIterator<Item = SeriesView<'a>>,
    {
        let series: Vec<SeriesView<'a>> = series.into_iter().collect();
        let total: usize = series.iter().map(|s| s.len()).sum();
        let mut out = TimeSeries::with_capacity(total.min(1 << 20));
        kway_sweep(&series, |t, sum, started| {
            // Union grid timestamps strictly increase across calls.
            out.push(t, sum / f64::from(started))
                .expect("sweep emits strictly increasing grid");
        });
        out
    }

    /// Pointwise difference `self - other` on `self`'s grid using
    /// sample-and-hold lookups into `other`; grid points where `other` has
    /// no value yet are skipped.
    ///
    /// A two-cursor merge: O(n + m) instead of a binary search into `other`
    /// per sample of `self`.
    #[must_use]
    pub fn sub_series(&self, other: &TimeSeries) -> TimeSeries {
        let mut out = TimeSeries::with_capacity(self.len());
        let mut j = 0usize; // first index of `other` with time > t
        for (t, v) in self.iter() {
            while j < other.len() && other.times[j] <= t {
                j += 1;
            }
            if j > 0 {
                out.push(t, v - other.values[j - 1])
                    .expect("self grid is strictly increasing");
            }
        }
        out
    }
}

/// Interpolated `q`-quantile of `values` by in-place selection — O(n)
/// expected, no full sort. Shared by [`TimeSeries::quantile`] and the
/// median/MAD paths in the analytics crate.
///
/// # Panics
///
/// Panics when `values` is empty or `q` is outside `[0, 1]` / NaN.
pub fn quantile_select(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction {q} outside [0, 1]"
    );
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut lo_v, rest) = values.select_nth_unstable_by(lo, f64::total_cmp);
    let frac = pos - lo as f64;
    if frac == 0.0 {
        return lo_v;
    }
    // The hi = lo+1 order statistic is the minimum of the right partition.
    let hi_v = rest.iter().copied().fold(f64::INFINITY, f64::min);
    lo_v + (hi_v - lo_v) * frac
}

// ------------------------------------------------------- k-way merge sweep --

/// The k-way merge loop behind both [`TimeSeries::mean_of`] and the
/// parallel chunk partials: one cursor per series, a min-heap of `(next
/// time, series)`, and the running sum and count of the started series'
/// current values. Calls `emit(t, sum, started)` once per distinct
/// timestamp in the union grid, after every sample stamped exactly `t` has
/// been consumed.
fn kway_sweep(series: &[SeriesView<'_>], mut emit: impl FnMut(Timestamp, f64, u32)) {
    let mut heap: BinaryHeap<Reverse<(Timestamp, usize)>> = series
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| Reverse((s.times[0], i)))
        .collect();
    // cursor[i] = index of the *next* unconsumed sample of series i, so a
    // started series' current value is `values[cursor[i] - 1]`.
    let mut cursor = vec![0usize; series.len()];
    let (mut sum, mut started) = (0.0f64, 0u32);
    while let Some(&Reverse((t, _))) = heap.peek() {
        // Consume every series sample stamped exactly `t`.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((next_t, i)) = *top;
            if next_t != t {
                break;
            }
            let j = cursor[i];
            let values = series[i].values;
            if j == 0 {
                sum += values[0];
                started += 1;
            } else {
                sum += values[j] - values[j - 1];
            }
            cursor[i] = j + 1;
            if j + 1 < values.len() {
                // Replace the root in place: one sift instead of pop+push.
                *top = Reverse((series[i].times[j + 1], i));
            } else {
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
        emit(t, sum, started);
    }
}

// ---------------------------------------------- parallel chunk-merge sweep --

/// Series per leaf chunk of the parallel aggregation tree. Fixed (never a
/// function of the thread count) so the reduction graph — and therefore
/// every floating-point result — is identical at any pool size.
const PAR_SERIES_CHUNK: usize = 64;

/// A chunk's sweep state sampled at each of its union-grid points: the
/// running `(sum, started-count)` pair that two chunks can combine
/// pointwise with sample-and-hold semantics.
#[derive(Debug, Clone, Default)]
struct PartialSweep {
    times: Vec<Timestamp>,
    sums: Vec<f64>,
    counts: Vec<u32>,
}

/// Runs the [`kway_sweep`] over one chunk, recording the running sum and
/// count instead of their quotient.
fn partial_sweep(series: &[SeriesView<'_>]) -> PartialSweep {
    let mut out = PartialSweep::default();
    kway_sweep(series, |t, sum, started| {
        out.times.push(t);
        out.sums.push(sum);
        out.counts.push(started);
    });
    out
}

/// Combines two partial sweeps on the union of their grids with
/// sample-and-hold semantics: a side that has not started yet at a grid
/// point contributes nothing there. The left operand always folds first
/// (`left + right`), so the combine tree fixes the floating-point order.
fn combine_partials(a: &PartialSweep, b: &PartialSweep) -> PartialSweep {
    let mut out = PartialSweep {
        times: Vec::with_capacity(a.times.len() + b.times.len()),
        sums: Vec::with_capacity(a.times.len() + b.times.len()),
        counts: Vec::with_capacity(a.times.len() + b.times.len()),
    };
    let (mut i, mut j) = (0usize, 0usize);
    let mut a_cur: Option<(f64, u32)> = None;
    let mut b_cur: Option<(f64, u32)> = None;
    while i < a.times.len() || j < b.times.len() {
        let ta = a.times.get(i).copied();
        let tb = b.times.get(j).copied();
        let t = match (ta, tb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => unreachable!("loop condition"),
        };
        if ta == Some(t) {
            a_cur = Some((a.sums[i], a.counts[i]));
            i += 1;
        }
        if tb == Some(t) {
            b_cur = Some((b.sums[j], b.counts[j]));
            j += 1;
        }
        let (v, n) = match (a_cur, b_cur) {
            (Some((va, na)), Some((vb, nb))) => (va + vb, na + nb),
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => unreachable!("t came from one of the sides"),
        };
        out.times.push(t);
        out.sums.push(v);
        out.counts.push(n);
    }
    out
}

impl TimeSeries {
    /// Parallel [`TimeSeries::mean_of`], fanned out across `threads`
    /// workers (`threads = 0` uses [`batchlens_exec::default_threads`]).
    ///
    /// The series list is split into fixed 64-series chunks; each chunk
    /// sweeps to a partial `(sum, count)` series, and the
    /// partials fold in a fixed pairwise tree (`(c0+c1) + (c2+c3) + …`).
    /// Both levels fan out across the workers, but the reduction graph
    /// depends only on the input, so the output is **bit-identical at every
    /// thread count**, including the `threads = 1` serial fallback, which
    /// runs the same graph inline. With a single chunk (≤ 64 series) the
    /// result is also bit-identical to [`TimeSeries::mean_of`]; above that,
    /// per-point sums associate differently (same values up to float
    /// rounding), which is why the timeline uses this kernel for *both* its
    /// serial and parallel modes.
    ///
    /// O(total samples · log chunk-size) sweep work split across workers
    /// plus O(union-grid · log chunks) combine work.
    pub fn mean_of_par<'a, I>(series: I, threads: usize) -> TimeSeries
    where
        I: IntoIterator<Item = SeriesView<'a>>,
    {
        let series: Vec<SeriesView<'a>> = series.into_iter().collect();
        let chunks = batchlens_exec::fixed_chunks(series.len(), PAR_SERIES_CHUNK);
        if chunks.is_empty() {
            return TimeSeries::new();
        }
        let mut partials: Vec<PartialSweep> =
            batchlens_exec::run_indexed(threads, chunks.len(), |c| {
                let (lo, hi) = chunks[c];
                partial_sweep(&series[lo..hi])
            });
        while partials.len() > 1 {
            let pairs = partials.len() / 2;
            let mut next = batchlens_exec::run_indexed(threads, pairs, |p| {
                combine_partials(&partials[2 * p], &partials[2 * p + 1])
            });
            if partials.len() % 2 == 1 {
                next.push(partials.pop().expect("odd leftover"));
            }
            partials = next;
        }
        let p = partials.pop().expect("at least one chunk");
        let values = p
            .sums
            .iter()
            .zip(&p.counts)
            .map(|(&s, &n)| s / f64::from(n))
            .collect();
        TimeSeries {
            times: p.times,
            values,
        }
    }
}

/// A borrowed, zero-copy window over time-ascending samples: a slice of a
/// [`TimeSeries`], or one metric of a dataset machine's usage
/// ([`crate::MachineView::usage`]), whose three metrics share one time grid.
///
/// Window scans that previously cloned sub-series per machine per metric
/// (hottest-sample search, windowed stats) borrow the underlying sample
/// storage instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesView<'a> {
    times: &'a [Timestamp],
    values: &'a [f64],
}

impl<'a> SeriesView<'a> {
    /// A view over parallel `times` and `values`; the times ascend strictly.
    pub(crate) fn new(times: &'a [Timestamp], values: &'a [f64]) -> SeriesView<'a> {
        debug_assert_eq!(times.len(), values.len());
        SeriesView { times, values }
    }

    /// Number of samples in the view.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The timestamps, sorted ascending.
    pub fn times(&self) -> &'a [Timestamp] {
        self.times
    }

    /// The values, parallel to [`SeriesView::times`].
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Iterates `(timestamp, value)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + 'a {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<(Timestamp, f64)> {
        Some((*self.times.first()?, *self.values.first()?))
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// The closed span `[first, last]` as a half-open range `[first, last+1)`,
    /// or `None` when empty. The end saturates: a view whose last sample is
    /// at `i64::MAX` spans `[first, i64::MAX)`, since no half-open range can
    /// reach past the last representable instant.
    pub fn span(&self) -> Option<TimeRange> {
        let (&first, &last) = (self.times.first()?, self.times.last()?);
        TimeRange::new(first, last + TimeDelta::seconds(1)).ok()
    }

    /// Narrows the view to `range` (half-open), still without copying.
    pub fn slice(&self, range: &TimeRange) -> SeriesView<'a> {
        let start = self.times.partition_point(|&t| t < range.start());
        let end = self.times.partition_point(|&t| t < range.end());
        SeriesView {
            times: &self.times[start..end],
            values: &self.values[start..end],
        }
    }

    /// Summary statistics over the view; `None` when empty.
    pub fn stats(&self) -> Option<SeriesStats> {
        SeriesStats::from_values(self.values)
    }

    /// Copies the view into an owned series.
    pub fn to_owned(&self) -> TimeSeries {
        TimeSeries {
            times: self.times.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

/// Reference implementations of the aggregation kernels, kept for
/// differential testing and as benchmark baselines.
///
/// These are the pre-sweep algorithms: a union grid with one binary search
/// per series per grid point. They are O(G·M·log S) where the sweep kernels
/// are O(total · log M) — do not call them on hot paths.
pub mod naive {
    use super::{SeriesView, TimeSeries, Timestamp};

    /// Reference [`TimeSeries::mean_of`].
    pub fn mean_of<'a, I>(series: I) -> TimeSeries
    where
        I: IntoIterator<Item = SeriesView<'a>>,
        I::IntoIter: Clone,
    {
        let iter = series.into_iter();
        let mut grid: Vec<Timestamp> = iter.clone().flat_map(|s| s.times()).copied().collect();
        grid.sort_unstable();
        grid.dedup();
        let mut out = TimeSeries::with_capacity(0);
        for t in grid {
            let mut sum = 0.0;
            let mut n = 0usize;
            for s in iter.clone() {
                // Sample-and-hold: the latest sample at or before `t`.
                let at_or_before = s.times().partition_point(|&st| st <= t);
                if at_or_before > 0 {
                    sum += s.values()[at_or_before - 1];
                    n += 1;
                }
            }
            if n > 0 {
                out.push(t, sum / n as f64)
                    .expect("grid is strictly increasing");
            }
        }
        out
    }

    /// Reference [`TimeSeries::sub_series`]: binary search per sample.
    pub fn sub_series(a: &TimeSeries, other: &TimeSeries) -> TimeSeries {
        let mut out = TimeSeries::with_capacity(a.len());
        for (t, v) in a.iter() {
            if let Some(o) = other.value_at_or_before(t) {
                out.push(t, v - o)
                    .expect("self grid is strictly increasing");
            }
        }
        out
    }
}

impl FromIterator<(Timestamp, f64)> for TimeSeries {
    /// Collects pairs into a series, sorting by time.
    ///
    /// # Panics
    ///
    /// Panics when two samples share a timestamp; use
    /// [`TimeSeries::from_samples`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = (Timestamp, f64)>>(iter: I) -> Self {
        TimeSeries::from_samples(iter).expect("duplicate timestamps in FromIterator")
    }
}

impl Extend<(Timestamp, f64)> for TimeSeries {
    /// Extends with pairs that must continue the time order.
    ///
    /// # Panics
    ///
    /// Panics when a pair is not strictly after the current last sample.
    fn extend<I: IntoIterator<Item = (Timestamp, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v).expect("out-of-order extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: i64, step: i64) -> TimeSeries {
        (0..n)
            .map(|i| (Timestamp::new(i * step), i as f64))
            .collect()
    }

    #[test]
    fn push_enforces_order() {
        let mut s = TimeSeries::new();
        s.push(Timestamp::new(10), 1.0).unwrap();
        assert!(s.push(Timestamp::new(10), 2.0).is_err());
        assert!(s.push(Timestamp::new(5), 2.0).is_err());
        s.push(Timestamp::new(11), 2.0).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_samples_sorts_and_rejects_duplicates() {
        let s = TimeSeries::from_samples(vec![
            (Timestamp::new(20), 2.0),
            (Timestamp::new(0), 0.0),
            (Timestamp::new(10), 1.0),
        ])
        .unwrap();
        assert_eq!(s.times()[0], Timestamp::new(0));
        assert_eq!(s.times()[2], Timestamp::new(20));

        let dup =
            TimeSeries::from_samples(vec![(Timestamp::new(0), 0.0), (Timestamp::new(0), 1.0)]);
        assert!(dup.is_err());
    }

    #[test]
    fn lookups() {
        let s = ramp(5, 60); // t = 0,60,120,180,240 ; v = 0..4
        assert_eq!(s.value_at(Timestamp::new(120)), Some(2.0));
        assert_eq!(s.value_at(Timestamp::new(121)), None);
        assert_eq!(s.value_at_or_before(Timestamp::new(121)), Some(2.0));
        assert_eq!(s.value_at_or_before(Timestamp::new(-1)), None);
        assert_eq!(s.value_at_or_before(Timestamp::new(999)), Some(4.0));
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let s = ramp(3, 100); // (0,0) (100,1) (200,2)
        assert_eq!(s.interpolate(Timestamp::new(50)), Some(0.5));
        assert_eq!(s.interpolate(Timestamp::new(-10)), Some(0.0));
        assert_eq!(s.interpolate(Timestamp::new(500)), Some(2.0));
        assert_eq!(TimeSeries::new().interpolate(Timestamp::ZERO), None);
    }

    #[test]
    fn slice_is_half_open() {
        let s = ramp(10, 60);
        let r = TimeRange::new(Timestamp::new(60), Timestamp::new(240)).unwrap();
        let cut = s.slice(&r);
        assert_eq!(cut.len(), 3); // 60, 120, 180
        assert_eq!(cut.first().unwrap().0, Timestamp::new(60));
        assert_eq!(cut.last().unwrap().0, Timestamp::new(180));
    }

    #[test]
    fn resample_mean_and_max() {
        // 1 Hz ramp over 10 minutes, re-bucketed to 300 s.
        let s: TimeSeries = (0..600).map(|i| (Timestamp::new(i), i as f64)).collect();
        let mean = s
            .resample(TimeDelta::BATCH_RESOLUTION, Resample::Mean)
            .unwrap();
        assert_eq!(mean.len(), 2);
        assert!((mean.values()[0] - 149.5).abs() < 1e-9);
        assert!((mean.values()[1] - 449.5).abs() < 1e-9);
        let max = s
            .resample(TimeDelta::BATCH_RESOLUTION, Resample::Max)
            .unwrap();
        assert_eq!(max.values(), &[299.0, 599.0]);
    }

    #[test]
    fn resample_rejects_bad_resolution() {
        let s = ramp(3, 10);
        assert!(s.resample(TimeDelta::ZERO, Resample::Mean).is_err());
    }

    #[test]
    fn resample_skips_empty_buckets() {
        let s =
            TimeSeries::from_samples(vec![(Timestamp::new(0), 1.0), (Timestamp::new(900), 2.0)])
                .unwrap();
        let r = s
            .resample(TimeDelta::BATCH_RESOLUTION, Resample::Mean)
            .unwrap();
        assert_eq!(r.times(), &[Timestamp::new(0), Timestamp::new(900)]);
    }

    #[test]
    fn stats_and_quantiles() {
        let s = ramp(5, 1); // 0,1,2,3,4
        let st = s.stats().unwrap();
        assert_eq!(st.count, 5);
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 4.0);
        assert!((st.mean - 2.0).abs() < 1e-12);
        assert!((st.std_dev - 2.0_f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert_eq!(s.quantile(1.5), None);
        assert_eq!(TimeSeries::new().stats(), None);
    }

    #[test]
    fn stats_in_window() {
        let s = ramp(10, 10);
        let r = TimeRange::new(Timestamp::new(30), Timestamp::new(60)).unwrap();
        let st = s.stats_in(&r).unwrap();
        assert_eq!(st.count, 3);
        assert_eq!(st.min, 3.0);
        assert_eq!(st.max, 5.0);
    }

    #[test]
    fn mean_of_uses_sample_and_hold() {
        let a =
            TimeSeries::from_samples(vec![(Timestamp::new(0), 0.0), (Timestamp::new(100), 1.0)])
                .unwrap();
        let b = TimeSeries::from_samples(vec![(Timestamp::new(50), 3.0)]).unwrap();
        let m = TimeSeries::mean_of([a.view(), b.view()]);
        // grid: 0 (only a), 50 (a holds 0.0, b=3 → 1.5), 100 (a=1, b holds 3 → 2)
        assert_eq!(
            m.times(),
            &[Timestamp::new(0), Timestamp::new(50), Timestamp::new(100)]
        );
        assert_eq!(m.values(), &[0.0, 1.5, 2.0]);
    }

    #[test]
    fn sweep_matches_naive_on_irregular_grids() {
        let a = TimeSeries::from_samples(vec![
            (Timestamp::new(0), 0.25),
            (Timestamp::new(7), 0.5),
            (Timestamp::new(300), 0.125),
        ])
        .unwrap();
        let b = TimeSeries::from_samples(vec![(Timestamp::new(3), 1.5), (Timestamp::new(7), -2.0)])
            .unwrap();
        let c = TimeSeries::new();
        let sets: [&[&TimeSeries]; 3] = [&[&a, &b, &c], &[&a], &[]];
        for set in sets {
            let views = set.iter().map(|s| s.view());
            assert_eq!(TimeSeries::mean_of(views.clone()), naive::mean_of(views));
        }
        assert_eq!(a.sub_series(&b), naive::sub_series(&a, &b));
        assert_eq!(b.sub_series(&a), naive::sub_series(&b, &a));
    }

    #[test]
    fn views_borrow_without_copying() {
        let s = ramp(10, 60);
        let r = TimeRange::new(Timestamp::new(60), Timestamp::new(240)).unwrap();
        let v = s.view().slice(&r);
        assert_eq!(v.len(), 3);
        assert_eq!(v.first().unwrap().0, Timestamp::new(60));
        assert_eq!(v.last().unwrap().0, Timestamp::new(180));
        assert_eq!(v.to_owned(), s.slice(&r));
        assert_eq!(v.stats().unwrap().count, 3);
        // Narrowing a view agrees with slicing the owned series.
        let narrower = TimeRange::new(Timestamp::new(120), Timestamp::new(240)).unwrap();
        assert_eq!(v.slice(&narrower).to_owned(), s.slice(&narrower));
        assert_eq!(s.view().len(), s.len());
        assert!(TimeSeries::new().view().is_empty());
    }

    #[test]
    fn quantile_select_matches_sorted_definition() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0, 2.5];
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let expected = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
            let got = quantile_select(&mut values.to_vec(), q);
            assert!((got - expected).abs() < 1e-12, "q={q}: {got} vs {expected}");
        }
    }

    #[test]
    fn sub_series_skips_unstarted_other() {
        let a = ramp(3, 10); // (0,0) (10,1) (20,2)
        let b = TimeSeries::from_samples(vec![(Timestamp::new(10), 10.0)]).unwrap();
        let d = a.sub_series(&b);
        assert_eq!(d.times(), &[Timestamp::new(10), Timestamp::new(20)]);
        assert_eq!(d.values(), &[-9.0, -8.0]);
    }

    #[test]
    fn map_preserves_grid() {
        let s = ramp(3, 10);
        let doubled = s.map(|v| v * 2.0);
        assert_eq!(doubled.times(), s.times());
        assert_eq!(doubled.values(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn span_covers_endpoints() {
        let s = ramp(3, 100);
        let span = s.span().unwrap();
        assert!(span.contains(Timestamp::new(0)));
        assert!(span.contains(Timestamp::new(200)));
        assert!(!span.contains(Timestamp::new(201)));
        assert!(TimeSeries::new().span().is_none());
    }
}
