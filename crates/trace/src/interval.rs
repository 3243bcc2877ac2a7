//! A static interval index for half-open time windows.
//!
//! Built once over a batch of `[start, end)` intervals, it answers two
//! queries the BatchLens views hammer:
//!
//! * **stab** — which intervals contain `t` — in O(log n + k) via a
//!   centered interval tree: each node owns the intervals straddling its
//!   center timestamp, kept in two sorted lists so a query only touches
//!   matching intervals (plus one miss) per node on its root-to-leaf path.
//!   Long-running straggler intervals cannot degrade the bound the way
//!   they poison max-end pruning in augmented start-sorted layouts.
//! * **count** — how many intervals contain `t` — in O(log n) from the
//!   sorted start/end arrays alone.
//!
//! [`crate::TraceDataset`] builds one over every `batch_instance` window at
//! construction time (plus one per machine), which turns
//! `jobs_running_at`-style snapshot queries from full-table scans into
//! index lookups.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::Timestamp;

/// One node of the centered tree. Intervals with `start <= center < end`
/// live here; strictly-earlier intervals descend left, strictly-later ones
/// right.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    center: Timestamp,
    /// `(start, id)` of the straddling intervals, ascending start.
    by_start: Vec<(Timestamp, u32)>,
    /// `(end, id)` of the straddling intervals, descending end.
    by_end: Vec<(Timestamp, u32)>,
    /// Index of the left child in `nodes`, or `u32::MAX`.
    left: u32,
    /// Index of the right child in `nodes`, or `u32::MAX`.
    right: u32,
}

const NO_CHILD: u32 = u32::MAX;

/// A static stabbing index over half-open `[start, end)` intervals.
///
/// Each interval carries a `u32` payload id (typically an index into the
/// caller's record table). Empty intervals (`end <= start`) are accepted
/// but never reported by queries, matching
/// `BatchInstanceRecord::running_at`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalIndex {
    nodes: Vec<Node>,
    /// Non-empty interval starts, sorted ascending (for counting/sweeps).
    sorted_starts: Vec<Timestamp>,
    /// Non-empty interval ends, sorted ascending (for counting/sweeps).
    sorted_ends: Vec<Timestamp>,
    /// Total intervals indexed (including empty ones).
    len: usize,
}

impl IntervalIndex {
    /// Builds the index from `(start, end, id)` triples (any order).
    pub fn build(intervals: impl IntoIterator<Item = (Timestamp, Timestamp, u32)>) -> Self {
        let rows: Vec<(Timestamp, Timestamp, u32)> = intervals.into_iter().collect();
        let len = rows.len();
        // Empty intervals can never be stabbed; keep them out of the tree
        // and the counting arrays so both queries agree.
        let rows: Vec<(Timestamp, Timestamp, u32)> =
            rows.into_iter().filter(|&(s, e, _)| s < e).collect();
        let mut sorted_starts: Vec<Timestamp> = rows.iter().map(|r| r.0).collect();
        let mut sorted_ends: Vec<Timestamp> = rows.iter().map(|r| r.1).collect();
        sorted_starts.sort_unstable();
        sorted_ends.sort_unstable();
        let mut index = IntervalIndex {
            nodes: Vec::new(),
            sorted_starts,
            sorted_ends,
            len,
        };
        if !rows.is_empty() {
            index.build_node(rows);
        }
        index
    }

    /// Recursively builds a subtree; returns its node index.
    fn build_node(&mut self, rows: Vec<(Timestamp, Timestamp, u32)>) -> u32 {
        debug_assert!(!rows.is_empty());
        // Center on the median start: cheap, and splits straddler-free sets
        // roughly in half.
        let mut starts: Vec<Timestamp> = rows.iter().map(|r| r.0).collect();
        let mid = starts.len() / 2;
        let (_, &mut center, _) = starts.select_nth_unstable(mid);
        let mut here: Vec<(Timestamp, Timestamp, u32)> = Vec::new();
        let mut left_rows = Vec::new();
        let mut right_rows = Vec::new();
        for row in rows {
            if row.1 <= center {
                left_rows.push(row);
            } else if row.0 > center {
                right_rows.push(row);
            } else {
                here.push(row);
            }
        }
        // `here` is never empty: the interval contributing the median start
        // has `start <= center` and (being non-empty) `end > center`, so it
        // straddles. That also bounds both partitions at n/2 — the median
        // property caps `start > center` (right) and `start < center`
        // (superset of left) — giving O(log n) depth.
        debug_assert!(!here.is_empty());
        self.place_node(center, here, left_rows, right_rows)
    }

    fn place_node(
        &mut self,
        center: Timestamp,
        here: Vec<(Timestamp, Timestamp, u32)>,
        left_rows: Vec<(Timestamp, Timestamp, u32)>,
        right_rows: Vec<(Timestamp, Timestamp, u32)>,
    ) -> u32 {
        debug_assert!(here.iter().all(|&(s, e, _)| s <= center && center < e));
        let mut by_start: Vec<(Timestamp, u32)> = here.iter().map(|r| (r.0, r.2)).collect();
        by_start.sort_unstable();
        let mut by_end: Vec<(Timestamp, u32)> = here.iter().map(|r| (r.1, r.2)).collect();
        by_end.sort_unstable_by(|a, b| b.cmp(a));
        let slot = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            by_start,
            by_end,
            left: NO_CHILD,
            right: NO_CHILD,
        });
        if !left_rows.is_empty() {
            let left = self.build_node(left_rows);
            self.nodes[slot as usize].left = left;
        }
        if !right_rows.is_empty() {
            let right = self.build_node(right_rows);
            self.nodes[slot as usize].right = right;
        }
        slot
    }

    /// Number of indexed intervals (including empty ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no intervals are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `visit` with the payload id of every interval containing `t`
    /// (`start <= t < end`). Order is unspecified.
    pub fn stab_with(&self, t: Timestamp, mut visit: impl FnMut(u32)) {
        if self.nodes.is_empty() {
            return;
        }
        let mut node = 0u32;
        loop {
            let n = &self.nodes[node as usize];
            if t < n.center {
                // Straddlers have end > center > t: they contain t iff
                // start <= t. The by-start list stops at the first miss.
                for &(start, id) in &n.by_start {
                    if start > t {
                        break;
                    }
                    visit(id);
                }
                node = n.left;
            } else {
                // t >= center: straddlers have start <= center <= t; they
                // contain t iff end > t. The by-end list is descending.
                for &(end, id) in &n.by_end {
                    if end <= t {
                        break;
                    }
                    visit(id);
                }
                if t == n.center {
                    return;
                }
                node = n.right;
            }
            if node == NO_CHILD {
                return;
            }
        }
    }

    /// The payload ids of every interval containing `t`, unspecified order.
    pub fn stab(&self, t: Timestamp) -> Vec<u32> {
        let mut out = Vec::new();
        self.stab_with(t, |id| out.push(id));
        out
    }

    /// How many intervals contain `t` — O(log n), independent of the answer.
    pub fn count_at(&self, t: Timestamp) -> usize {
        let started = self.sorted_starts.partition_point(|&s| s <= t);
        let ended = self.sorted_ends.partition_point(|&e| e <= t);
        started - ended
    }

    /// Non-empty interval starts, sorted ascending (for event sweeps).
    pub fn sorted_starts(&self) -> &[Timestamp] {
        &self.sorted_starts
    }

    /// Non-empty interval ends, sorted ascending (for event sweeps).
    pub fn sorted_ends(&self) -> &[Timestamp] {
        &self.sorted_ends
    }
}

/// Number of dyadic levels: 64 internal (one per branching bit of the
/// order-mapped `u64` timestamp) plus the unit-interval leaf level 0.
const LEVELS: usize = 65;

/// Maps a timestamp onto `u64` preserving order (two's-complement sign flip),
/// so dyadic-prefix arithmetic works for negative times too.
fn enc(t: Timestamp) -> u64 {
    (t.seconds() as u64) ^ (1u64 << 63)
}

/// The dyadic node a non-empty `[start, end)` interval straddles:
/// `(level, center)` where `center`'s lowest set bit is `level - 1`. Level 0
/// is the unit-interval leaf (`end == start + 1`), keyed by the encoded
/// start itself.
fn node_key(start: Timestamp, end: Timestamp) -> (u8, u64) {
    debug_assert!(start < end);
    let us = enc(start);
    // Last instant the half-open interval contains; `end > start` makes the
    // subtraction safe.
    let ul = enc(Timestamp::new(end.seconds() - 1));
    if us == ul {
        return (0, us);
    }
    // Highest differing bit = the branching level; the center is the shared
    // prefix with that bit set (the dyadic midpoint both endpoints straddle).
    let b = 63 - (us ^ ul).leading_zeros();
    let prefix = if b == 63 {
        0
    } else {
        (us >> (b + 1)) << (b + 1)
    };
    ((b + 1) as u8, prefix | (1u64 << b))
}

/// One dyadic node of the rolling index: the intervals straddling its
/// center, in two ordered sets so a stab only touches matching intervals.
#[derive(Debug, Clone, Default, PartialEq)]
struct RollingNode {
    /// `(start, id)` ascending: for `t <` center, matches are the prefix
    /// with `start <= t`.
    by_start: BTreeSet<(Timestamp, u32)>,
    /// `(end, id)` ascending: for `t >=` center, matches are the suffix
    /// with `end > t`.
    by_end: BTreeSet<(Timestamp, u32)>,
}

/// A **dynamic** stabbing index over half-open `[start, end)` intervals: the
/// online counterpart of the static [`IntervalIndex`], built for live
/// rolling windows that insert, close and evict intervals one at a time.
///
/// Where the static index places each interval on the node of a centered
/// tree built from the batch, this one places it on the node of the
/// **fixed dyadic hierarchy** over the (order-mapped) 64-bit timestamp
/// space: the node whose dyadic midpoint the interval straddles, computed
/// in O(1) from the endpoints' highest differing bit. Each node keeps its
/// straddlers in two ordered sets, so queries touch only matching
/// intervals — exactly the static tree's query discipline, but on a
/// skeleton that never needs rebalancing.
///
/// Complexity contracts (n = currently indexed intervals):
///
/// * [`RollingIntervalIndex::insert`] / [`RollingIntervalIndex::open`] /
///   [`RollingIntervalIndex::close`] / eviction per interval — O(log n).
/// * [`RollingIntervalIndex::stab_with`] /
///   [`RollingIntervalIndex::count_at`] — O(log n + k) for k matches,
///   treating the walk down the ≤ 64 dyadic levels as the constant it is in
///   practice: only levels that currently hold an interval are visited
///   (≤ log₂ of the window's time span — ~17 for a 24 h window), mirroring
///   the root-to-leaf path of the static tree. Long stragglers cannot
///   degrade the bound: they sit on high levels and are matched or skipped
///   by the same prefix test as everything else. **Never** a scan of the
///   window.
///
/// Intervals carry a caller-assigned `u32` id, **unique among currently
/// indexed intervals** (re-inserting an id replaces its previous window).
/// Empty intervals (`end <= start`) are accepted and dropped, matching the
/// static index's query behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingIntervalIndex {
    /// Dyadic `(level, center)` → straddling intervals.
    nodes: BTreeMap<(u8, u64), RollingNode>,
    /// How many closed intervals live on each level, so stabs skip empty
    /// levels without a map lookup.
    level_len: [usize; LEVELS],
    /// id → window, for replacement and eviction.
    closed: BTreeMap<u32, (Timestamp, Timestamp)>,
    /// `(end, id)` ascending over the closed intervals — the eviction
    /// queue.
    ends: BTreeSet<(Timestamp, u32)>,
    /// Open (started, not yet closed) intervals: id → start.
    open: BTreeMap<u32, Timestamp>,
    /// `(start, id)` ascending over the open intervals, for stabbing.
    open_by_start: BTreeSet<(Timestamp, u32)>,
}

impl Default for RollingIntervalIndex {
    fn default() -> Self {
        RollingIntervalIndex {
            nodes: BTreeMap::new(),
            level_len: [0; LEVELS],
            closed: BTreeMap::new(),
            ends: BTreeSet::new(),
            open: BTreeMap::new(),
            open_by_start: BTreeSet::new(),
        }
    }
}

impl RollingIntervalIndex {
    /// Creates an empty rolling index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently indexed intervals (closed + open; evicted and
    /// empty ones excluded).
    pub fn len(&self) -> usize {
        self.closed.len() + self.open.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of currently open (unclosed) intervals.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Inserts a closed interval — O(log n). An existing interval (open or
    /// closed) under the same id is replaced; empty intervals (`end <=
    /// start`) just remove any previous entry.
    pub fn insert(&mut self, start: Timestamp, end: Timestamp, id: u32) {
        self.remove(id);
        if start >= end {
            return;
        }
        let key = node_key(start, end);
        let node = self.nodes.entry(key).or_default();
        node.by_start.insert((start, id));
        node.by_end.insert((end, id));
        self.level_len[key.0 as usize] += 1;
        self.closed.insert(id, (start, end));
        self.ends.insert((end, id));
    }

    /// Starts a live interval `[start, ∞)` — O(log n). It matches every
    /// stab at `t >= start` until [`RollingIntervalIndex::close`] gives it
    /// an end. Replaces any existing interval under the same id.
    pub fn open(&mut self, start: Timestamp, id: u32) {
        self.remove(id);
        self.open.insert(id, start);
        self.open_by_start.insert((start, id));
    }

    /// Closes the open interval `id` at `end`, moving it into the indexed
    /// set — O(log n). Returns the start time when `id` was open, `None`
    /// otherwise (closing an unknown or already-closed id is a no-op). An
    /// `end` at or before the recorded start drops the interval as empty.
    pub fn close(&mut self, id: u32, end: Timestamp) -> Option<Timestamp> {
        let start = self.open.remove(&id)?;
        self.open_by_start.remove(&(start, id));
        self.insert(start, end, id);
        Some(start)
    }

    /// Removes the interval `id` (open or closed) — O(log n). Returns true
    /// when something was removed.
    pub fn remove(&mut self, id: u32) -> bool {
        if let Some(start) = self.open.remove(&id) {
            self.open_by_start.remove(&(start, id));
            return true;
        }
        let Some((start, end)) = self.closed.remove(&id) else {
            return false;
        };
        self.ends.remove(&(end, id));
        let key = node_key(start, end);
        if let Some(node) = self.nodes.get_mut(&key) {
            node.by_start.remove(&(start, id));
            node.by_end.remove(&(end, id));
            if node.by_start.is_empty() {
                self.nodes.remove(&key);
            }
        }
        self.level_len[key.0 as usize] -= 1;
        true
    }

    /// Evicts every closed interval that ended at or before `cutoff` (it can
    /// never again match a stab at `t >= cutoff`), returning the evicted
    /// ids in ascending end order — O(log n) per evicted interval. Open
    /// intervals are never evicted: they are still running.
    pub fn evict_before(&mut self, cutoff: Timestamp) -> Vec<u32> {
        let mut evicted = Vec::new();
        while let Some(&(end, id)) = self.ends.iter().next() {
            if end > cutoff {
                break;
            }
            self.remove(id);
            evicted.push(id);
        }
        evicted
    }

    /// Calls `visit` with the id of every interval containing `t`
    /// (`start <= t < end`, open intervals count as unbounded). Order is
    /// unspecified. O(log n + k) — see the type-level contract.
    pub fn stab_with(&self, t: Timestamp, mut visit: impl FnMut(u32)) {
        // Open intervals: contain t iff they started at or before it.
        for &(_, id) in self.open_by_start.range(..=(t, u32::MAX)) {
            visit(id);
        }
        let ut = enc(t);
        // Unit-interval leaves: everything there is exactly [t, t+1).
        if self.level_len[0] > 0 {
            if let Some(node) = self.nodes.get(&(0, ut)) {
                for &(_, id) in &node.by_start {
                    visit(id);
                }
            }
        }
        // Internal levels on t's root-to-leaf dyadic path.
        for b in 0..64u32 {
            if self.level_len[(b + 1) as usize] == 0 {
                continue;
            }
            let prefix = if b == 63 {
                0
            } else {
                (ut >> (b + 1)) << (b + 1)
            };
            let center = prefix | (1u64 << b);
            let Some(node) = self.nodes.get(&((b + 1) as u8, center)) else {
                continue;
            };
            if ut < center {
                // Straddlers end after the center (> t): match iff start <= t.
                for &(_, id) in node.by_start.range(..=(t, u32::MAX)) {
                    visit(id);
                }
            } else if ut > center {
                // Straddlers start at or before the center (<= t): match iff
                // end > t.
                let after = (
                    std::ops::Bound::Excluded((t, u32::MAX)),
                    std::ops::Bound::Unbounded,
                );
                for &(_, id) in node.by_end.range(after) {
                    visit(id);
                }
            } else {
                // t is the center: every straddler contains it.
                for &(_, id) in &node.by_start {
                    visit(id);
                }
            }
        }
    }

    /// The ids of every interval containing `t`, unspecified order.
    pub fn stab(&self, t: Timestamp) -> Vec<u32> {
        let mut out = Vec::new();
        self.stab_with(t, |id| out.push(id));
        out
    }

    /// How many intervals contain `t` — O(log n + k), no allocation.
    pub fn count_at(&self, t: Timestamp) -> usize {
        let mut n = 0usize;
        self.stab_with(t, |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: i64) -> Timestamp {
        Timestamp::new(t)
    }

    fn scan(rows: &[(i64, i64)], t: i64) -> Vec<u32> {
        rows.iter()
            .enumerate()
            .filter(|(_, &(s, e))| s <= t && t < e)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn build(rows: &[(i64, i64)]) -> IntervalIndex {
        IntervalIndex::build(
            rows.iter()
                .enumerate()
                .map(|(i, &(s, e))| (ts(s), ts(e), i as u32)),
        )
    }

    #[test]
    fn stab_matches_linear_scan() {
        let rows = [
            (0, 10),
            (5, 8),
            (5, 20),
            (9, 9), // empty
            (12, 15),
            (-3, 2),
            (2, 3),
            (0, 1000), // straggler spanning everything
        ];
        let idx = build(&rows);
        for t in -5..25 {
            let mut got = idx.stab(ts(t));
            got.sort_unstable();
            assert_eq!(got, scan(&rows, t), "stab at t={t}");
            assert_eq!(idx.count_at(ts(t)), scan(&rows, t).len(), "count at t={t}");
        }
    }

    #[test]
    fn randomized_against_scan() {
        // Deterministic pseudo-random intervals incl. duplicates, empties
        // and stragglers.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<(i64, i64)> = (0..500)
            .map(|_| {
                let s = (next() % 2000) as i64;
                let dur = match next() % 10 {
                    0 => 0,                     // empty
                    1 => 5000,                  // straggler
                    _ => (next() % 120) as i64, // typical
                };
                (s, s + dur)
            })
            .collect();
        let idx = build(&rows);
        for probe in (-10..2200).step_by(17) {
            let mut got = idx.stab(ts(probe));
            got.sort_unstable();
            assert_eq!(got, scan(&rows, probe), "stab at t={probe}");
            assert_eq!(idx.count_at(ts(probe)), scan(&rows, probe).len());
        }
    }

    #[test]
    fn empty_index_behaves() {
        let idx = IntervalIndex::build(std::iter::empty());
        assert!(idx.is_empty());
        assert!(idx.stab(ts(0)).is_empty());
        assert_eq!(idx.count_at(ts(0)), 0);
    }

    #[test]
    fn duplicate_intervals_all_reported() {
        let rows = [(0, 10), (0, 10), (0, 10)];
        let idx = build(&rows);
        assert_eq!(idx.stab(ts(5)).len(), 3);
        assert_eq!(idx.count_at(ts(5)), 3);
        assert_eq!(idx.count_at(ts(10)), 0);
    }

    #[test]
    fn survives_serde_round_trip() {
        let rows = [(0, 10), (5, 8)];
        let idx = build(&rows);
        let v = serde::Serialize::to_value(&idx);
        let back: IntervalIndex = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.stab(ts(6)).len(), 2);
    }

    fn rolling(rows: &[(i64, i64)]) -> RollingIntervalIndex {
        let mut idx = RollingIntervalIndex::new();
        for (i, &(s, e)) in rows.iter().enumerate() {
            idx.insert(ts(s), ts(e), i as u32);
        }
        idx
    }

    #[test]
    fn rolling_stab_matches_linear_scan() {
        let rows = [
            (0, 10),
            (5, 8),
            (5, 20),
            (9, 9), // empty: dropped
            (12, 15),
            (-3, 2),   // negative times cross the sign flip
            (2, 3),    // unit interval (leaf level)
            (0, 1000), // straggler spanning everything
            (-40, 60),
        ];
        let idx = rolling(&rows);
        assert_eq!(idx.len(), rows.len() - 1); // the empty one dropped
        for t in -50..70 {
            let mut got = idx.stab(ts(t));
            got.sort_unstable();
            assert_eq!(got, scan(&rows, t), "stab at t={t}");
            assert_eq!(idx.count_at(ts(t)), scan(&rows, t).len(), "count at t={t}");
        }
    }

    #[test]
    fn rolling_randomized_against_scan_and_static() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<(i64, i64)> = (0..400)
            .map(|_| {
                let s = (next() % 3000) as i64 - 500;
                let dur = match next() % 10 {
                    0 => 0,                     // empty
                    1 => 1,                     // unit (leaf)
                    2 => 7000,                  // straggler
                    _ => (next() % 150) as i64, // typical
                };
                (s, s + dur)
            })
            .collect();
        let dynamic = rolling(&rows);
        let fixed = build(&rows);
        for probe in (-520..2700).step_by(13) {
            let mut got = dynamic.stab(ts(probe));
            got.sort_unstable();
            let mut want = fixed.stab(ts(probe));
            want.sort_unstable();
            assert_eq!(got, want, "rolling vs static at t={probe}");
            assert_eq!(dynamic.count_at(ts(probe)), want.len());
        }
    }

    #[test]
    fn rolling_open_close_lifecycle() {
        let mut idx = RollingIntervalIndex::new();
        idx.open(ts(10), 1);
        assert_eq!(idx.open_len(), 1);
        // Open intervals match any t at or after their start.
        assert!(idx.stab(ts(9)).is_empty());
        assert_eq!(idx.stab(ts(10)), vec![1]);
        assert_eq!(idx.stab(ts(1_000_000)), vec![1]);
        // Closing bounds it.
        assert_eq!(idx.close(1, ts(20)), Some(ts(10)));
        assert_eq!(idx.open_len(), 0);
        assert_eq!(idx.stab(ts(15)), vec![1]);
        assert!(idx.stab(ts(20)).is_empty());
        // Closing again is a no-op; closing unknown ids too.
        assert_eq!(idx.close(1, ts(30)), None);
        assert_eq!(idx.close(99, ts(30)), None);
        // Closing at/before the start drops the interval as empty.
        idx.open(ts(50), 2);
        assert_eq!(idx.close(2, ts(50)), Some(ts(50)));
        assert!(idx.stab(ts(50)).is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn rolling_eviction_drops_only_expired() {
        let rows = [(0, 10), (5, 30), (20, 25), (28, 40)];
        let mut idx = rolling(&rows);
        idx.open(ts(2), 9); // open: never evicted
        let evicted = idx.evict_before(ts(25));
        // Ends <= 25: interval 0 (end 10) and 2 (end 25).
        assert_eq!(evicted, vec![0, 2]);
        assert_eq!(idx.len(), 3);
        // Queries at t >= cutoff are unaffected by eviction.
        for t in 25..45 {
            let mut got = idx.stab(ts(t));
            got.retain(|&id| id != 9);
            got.sort_unstable();
            assert_eq!(got, scan(&rows, t), "post-eviction stab at t={t}");
        }
        assert!(idx.stab(ts(100_000)).contains(&9));
    }

    #[test]
    fn rolling_insert_replaces_same_id() {
        let mut idx = RollingIntervalIndex::new();
        idx.insert(ts(0), ts(10), 7);
        idx.insert(ts(100), ts(110), 7);
        assert_eq!(idx.len(), 1);
        assert!(idx.stab(ts(5)).is_empty());
        assert_eq!(idx.stab(ts(105)), vec![7]);
        // Replacing with an empty window removes it.
        idx.insert(ts(3), ts(3), 7);
        assert!(idx.is_empty());
        assert!(!idx.remove(7));
    }

    #[test]
    fn rolling_duplicate_windows_distinct_ids() {
        let mut idx = RollingIntervalIndex::new();
        for id in 0..3 {
            idx.insert(ts(0), ts(10), id);
        }
        assert_eq!(idx.count_at(ts(5)), 3);
        assert_eq!(idx.count_at(ts(10)), 0);
        assert!(idx.remove(1));
        assert_eq!(idx.count_at(ts(5)), 2);
    }
}
