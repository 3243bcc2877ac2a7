use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::TraceError;

/// A point in trace time, in whole seconds since trace start.
///
/// The Alibaba v2017 trace timestamps everything in seconds relative to the
/// start of the 24-hour collection window; the paper's case study refers to
/// timestamps such as `47400`, `46200` and `43800` directly in this unit.
/// Negative values are permitted (records occasionally refer to events before
/// the window opens).
///
/// Arithmetic saturates: `Timestamp ± TimeDelta`, `Timestamp − Timestamp`
/// and `TimeDelta ± TimeDelta` clamp at the ends of `i64` instead of
/// overflowing, so a sample at `i64::MIN` minus a horizon is `i64::MIN`,
/// not a debug-build panic or a wrapped instant at the far end of time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The trace-start origin, `t = 0`.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from seconds since trace start.
    pub const fn new(seconds: i64) -> Self {
        Timestamp(seconds)
    }

    /// Seconds since trace start.
    pub const fn seconds(self) -> i64 {
        self.0
    }

    /// Rounds down to a multiple of `resolution` (e.g. the 300 s batch grid).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidResolution`] if `resolution` is not
    /// strictly positive.
    pub fn align_down(self, resolution: TimeDelta) -> Result<Self, TraceError> {
        if resolution.0 <= 0 {
            return Err(TraceError::InvalidResolution {
                seconds: resolution.0,
            });
        }
        Ok(Timestamp(self.0.div_euclid(resolution.0) * resolution.0))
    }

    /// Rounds up to a multiple of `resolution`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidResolution`] if `resolution` is not
    /// strictly positive.
    pub fn align_up(self, resolution: TimeDelta) -> Result<Self, TraceError> {
        let down = self.align_down(resolution)?;
        if down == self {
            Ok(self)
        } else {
            Ok(Timestamp(down.0 + resolution.0))
        }
    }

    /// Saturating minimum of two timestamps.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating maximum of two timestamps.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;

    /// `self + rhs`, saturating at the ends of `i64`.
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;

    /// `self - rhs`, saturating at the ends of `i64`.
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign<TimeDelta> for Timestamp {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        *self = *self - rhs;
    }
}

impl Sub for Timestamp {
    type Output = TimeDelta;

    /// The duration from `rhs` to `self`, saturating at the ends of `i64`.
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

/// A signed duration in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct TimeDelta(i64);

impl TimeDelta {
    /// Zero-length duration.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The paper's batch-table reporting resolution: 300 seconds.
    pub const BATCH_RESOLUTION: TimeDelta = TimeDelta(300);
    /// One minute.
    pub const MINUTE: TimeDelta = TimeDelta(60);
    /// One hour.
    pub const HOUR: TimeDelta = TimeDelta(3600);
    /// One day — the span of the v2017 trace.
    pub const DAY: TimeDelta = TimeDelta(86_400);

    /// Creates a duration from whole seconds.
    pub const fn seconds(seconds: i64) -> Self {
        TimeDelta(seconds)
    }

    /// Creates a duration from whole minutes.
    pub const fn minutes(minutes: i64) -> Self {
        TimeDelta(minutes * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn hours(hours: i64) -> Self {
        TimeDelta(hours * 3600)
    }

    /// The duration in seconds.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// The duration as floating-point seconds (for scale math).
    pub const fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// True if this duration is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Absolute value.
    pub const fn abs(self) -> Self {
        TimeDelta(self.0.abs())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;

    /// `self + rhs`, saturating at the ends of `i64`.
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;

    /// `self - rhs`, saturating at the ends of `i64`.
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Mul<i64> for TimeDelta {
    type Output = TimeDelta;

    fn mul(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl std::ops::Div<i64> for TimeDelta {
    type Output = TimeDelta;

    fn div(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

/// A half-open interval of trace time, `[start, end)`.
///
/// Used for job/instance lifetimes, brush selections and series slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeRange {
    start: Timestamp,
    end: Timestamp,
}

impl TimeRange {
    /// Creates the half-open interval `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvertedInterval`] if `end < start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self, TraceError> {
        if end < start {
            return Err(TraceError::InvertedInterval { start, end });
        }
        Ok(TimeRange { start, end })
    }

    /// Interval covering the whole v2017 trace window, `[0, 86400)`.
    pub fn full_day() -> Self {
        TimeRange {
            start: Timestamp::ZERO,
            end: Timestamp::new(86_400),
        }
    }

    /// Interval start (inclusive).
    pub const fn start(&self) -> Timestamp {
        self.start
    }

    /// Interval end (exclusive).
    pub const fn end(&self) -> Timestamp {
        self.end
    }

    /// Interval length.
    pub fn duration(&self) -> TimeDelta {
        self.end - self.start
    }

    /// True when the interval contains no time.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when `t` falls inside `[start, end)`.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// True when the two intervals share any time.
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection of two intervals, or `None` when disjoint.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeRange { start, end })
        } else {
            None
        }
    }

    /// Smallest interval containing both inputs.
    pub fn union(&self, other: &TimeRange) -> TimeRange {
        TimeRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Clamps a timestamp into the interval (end-exclusive intervals clamp to
    /// `end`, which callers treat as the right edge for scales/brushes).
    pub fn clamp(&self, t: Timestamp) -> Timestamp {
        t.max(self.start).min(self.end)
    }

    /// Iterates over grid points `start, start+step, …` strictly below `end`,
    /// with an exact `size_hint`. The count and each point are computed in
    /// `i128`, so a range as wide as `[i64::MIN, i64::MAX)` yields every
    /// point, and the iteration does one step of work per point.
    ///
    /// # Panics
    ///
    /// Does not panic; a non-positive `step` yields an empty iterator.
    pub fn steps(&self, step: TimeDelta) -> impl Iterator<Item = Timestamp> {
        let start = i128::from(self.start.seconds());
        let step_s = i128::from(step.as_seconds());
        let width = i128::from(self.end.seconds()) - start;
        let count = if step_s > 0 && width > 0 {
            (width + step_s - 1) / step_s
        } else {
            0
        };
        // At most 2⁶⁴ − 1 points (a step of 1 s over the widest range), and
        // every point lies below `end`, so neither cast can truncate.
        (0..count as u64).map(move |i| Timestamp::new((start + i128::from(i) * step_s) as i64))
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::new(300);
        assert_eq!((t + TimeDelta::seconds(60)).seconds(), 360);
        assert_eq!((t - TimeDelta::seconds(500)).seconds(), -200);
        assert_eq!(Timestamp::new(900) - t, TimeDelta::seconds(600));
    }

    #[test]
    fn arithmetic_saturates_at_the_ends_of_time() {
        let (min, max) = (Timestamp::new(i64::MIN), Timestamp::new(i64::MAX));
        assert_eq!(min - TimeDelta::minutes(30), min);
        assert_eq!(max + TimeDelta::seconds(1), max);
        assert_eq!(max - min, TimeDelta::seconds(i64::MAX));
        assert_eq!(min - max, TimeDelta::seconds(i64::MIN));
        let mut t = max;
        t += TimeDelta::DAY;
        assert_eq!(t, max);
        t = min;
        t -= TimeDelta::DAY;
        assert_eq!(t, min);
        let huge = TimeDelta::seconds(i64::MAX);
        assert_eq!(huge + TimeDelta::seconds(1), huge);
        let most_negative = TimeDelta::seconds(i64::MIN);
        assert_eq!(most_negative - TimeDelta::seconds(1), most_negative);
    }

    #[test]
    fn align_to_batch_grid() {
        let r = TimeDelta::BATCH_RESOLUTION;
        assert_eq!(
            Timestamp::new(47400).align_down(r).unwrap().seconds(),
            47400
        );
        assert_eq!(
            Timestamp::new(47401).align_down(r).unwrap().seconds(),
            47400
        );
        assert_eq!(Timestamp::new(47401).align_up(r).unwrap().seconds(), 47700);
        assert_eq!(Timestamp::new(-1).align_down(r).unwrap().seconds(), -300);
    }

    #[test]
    fn align_rejects_bad_resolution() {
        assert!(Timestamp::new(5).align_down(TimeDelta::ZERO).is_err());
        assert!(Timestamp::new(5).align_up(TimeDelta::seconds(-10)).is_err());
    }

    #[test]
    fn range_construction_and_containment() {
        let r = TimeRange::new(Timestamp::new(100), Timestamp::new(200)).unwrap();
        assert!(r.contains(Timestamp::new(100)));
        assert!(r.contains(Timestamp::new(199)));
        assert!(!r.contains(Timestamp::new(200)));
        assert_eq!(r.duration(), TimeDelta::seconds(100));
        assert!(TimeRange::new(Timestamp::new(2), Timestamp::new(1)).is_err());
    }

    #[test]
    fn empty_range_is_allowed_and_empty() {
        let r = TimeRange::new(Timestamp::new(5), Timestamp::new(5)).unwrap();
        assert!(r.is_empty());
        assert!(!r.contains(Timestamp::new(5)));
    }

    #[test]
    fn range_set_operations() {
        let a = TimeRange::new(Timestamp::new(0), Timestamp::new(100)).unwrap();
        let b = TimeRange::new(Timestamp::new(50), Timestamp::new(150)).unwrap();
        let c = TimeRange::new(Timestamp::new(200), Timestamp::new(300)).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let i = a.intersect(&b).unwrap();
        assert_eq!((i.start().seconds(), i.end().seconds()), (50, 100));
        assert!(a.intersect(&c).is_none());
        let u = a.union(&c);
        assert_eq!((u.start().seconds(), u.end().seconds()), (0, 300));
    }

    #[test]
    fn adjacent_ranges_do_not_overlap() {
        let a = TimeRange::new(Timestamp::new(0), Timestamp::new(100)).unwrap();
        let b = TimeRange::new(Timestamp::new(100), Timestamp::new(200)).unwrap();
        assert!(!a.overlaps(&b));
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn steps_cover_range_exclusively() {
        let r = TimeRange::new(Timestamp::new(0), Timestamp::new(900)).unwrap();
        let pts: Vec<i64> = r
            .steps(TimeDelta::BATCH_RESOLUTION)
            .map(|t| t.seconds())
            .collect();
        assert_eq!(pts, vec![0, 300, 600]);
        // Non-positive step: empty.
        assert_eq!(r.steps(TimeDelta::ZERO).count(), 0);
    }

    #[test]
    fn steps_count_exactly_over_the_widest_ranges() {
        let (min, max) = (i64::MIN, i64::MAX);
        let huge = 1i64 << 62;
        // (start, end, step, exact count, last point when cheap to reach).
        let cases: [(i64, i64, i64, u64, Option<i64>); 6] = [
            (0, max, 1, max as u64, None),
            (0, max, 60, (max as u64).div_ceil(60), None),
            (0, max, huge, 2, Some(huge)),
            (min, max, 1, u64::MAX, None),
            (min, max, 60, u64::MAX.div_ceil(60), None),
            (min, max, huge, 4, Some(huge)),
        ];
        for (start, end, step, count, last) in cases {
            let range = TimeRange::new(Timestamp::new(start), Timestamp::new(end)).unwrap();
            let step = TimeDelta::seconds(step);
            let exact = usize::try_from(count).unwrap();
            assert_eq!(range.steps(step).size_hint(), (exact, Some(exact)));
            let first: Vec<i128> = range
                .steps(step)
                .take(3)
                .map(|t| i128::from(t.seconds()))
                .collect();
            let expected: Vec<i128> = (0..3.min(count))
                .map(|i| i128::from(start) + i128::from(i) * i128::from(step.as_seconds()))
                .collect();
            assert_eq!(first, expected, "{range} by {step:?}");
            if let Some(last) = last {
                assert_eq!(range.steps(step).last(), Some(Timestamp::new(last)));
            }
        }
    }

    #[test]
    fn clamp_respects_bounds() {
        let r = TimeRange::new(Timestamp::new(10), Timestamp::new(20)).unwrap();
        assert_eq!(r.clamp(Timestamp::new(5)).seconds(), 10);
        assert_eq!(r.clamp(Timestamp::new(25)).seconds(), 20);
        assert_eq!(r.clamp(Timestamp::new(15)).seconds(), 15);
    }

    #[test]
    fn full_day_matches_trace_span() {
        let d = TimeRange::full_day();
        assert_eq!(d.duration(), TimeDelta::DAY);
    }
}
