//! The palette family `P_0, ..., P_t` of the paper's interval and tree
//! algorithms (Figure 1, §3.2 and Figure 5), and the dependency lists `L_v`
//! of the interval sweeps.
//!
//! The algorithms only ever *extract* a color from `P_0`. Two
//! representations of it serve them:
//!
//! * [`PaletteFamily`] — Figure 1 (A1) and the tree sweeps (A4, A5). `P_0`
//!   is one list, doubly linked through a color-indexed table `C[c]`, so
//!   that insertion, extraction of a *given* color and extraction of *some*
//!   color are all `O(1)`. A color in `P_1..P_t` is just its level in the
//!   same table: Figure 1 moves it down one palette by a decrement, and a
//!   color that reaches level 0 is linked into `P_0`.
//! * `FirstFitPalette` — the §3.2 approximation (A2). Its pool is fixed at
//!   `{0..=U}`, so `P_0` is an occupancy bitmap over the pool, and an
//!   extraction takes the lowest set bit: the smallest usable color.
//!
//! Each keeps two deterministic work tallies, reported as the
//! `palette_probes` and `palette_word_scans` counters:
//!
//! * `PaletteFamily` — [`probe_count`](PaletteFamily::probe_count) counts
//!   the palette entries *examined* by `pop`/`pop_where`, and
//!   [`word_scan_count`](PaletteFamily::word_scan_count) the table words
//!   read or written per operation (pointer splices, level and head
//!   bookkeeping).
//! * `FirstFitPalette` — the probe count is the bitmap words an extraction
//!   examines (one per extraction while the lowest free color is below
//!   64), and the word count is the bitmap words read or written: the
//!   words an extraction examines plus the one it clears a bit in, each
//!   word a blocked window covers, one per color that rejoins `P_0`, and
//!   every word of a refill.

use crate::workspace::ensure_u32;
use ssg_graph::Vertex;

/// Sentinel for "no color" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// A family of palettes over colors `0..pool_size`: `P_0` as an intrusive
/// list with O(1) insert / remove / pop, and a level per color.
///
/// A color at level 0 is either linked into `P_0` or **parked** (at level 0
/// yet not linked): the tree sweeps park the colors they have taken out.
#[derive(Debug, Clone)]
pub struct PaletteFamily {
    next: Vec<u32>,
    prev: Vec<u32>,
    level: Vec<u32>,
    linked: Vec<bool>,
    head: u32,
    probes: u64,
    word_scans: u64,
}

impl Default for PaletteFamily {
    /// The cold state of a workspace arena: an empty pool. Solvers
    /// reinitialize with [`reset`](Self::reset) before use.
    fn default() -> Self {
        PaletteFamily {
            next: Vec::new(),
            prev: Vec::new(),
            level: Vec::new(),
            linked: Vec::new(),
            head: NIL,
            probes: 0,
            word_scans: 0,
        }
    }
}

impl PaletteFamily {
    /// Creates the family with an initial pool of `pool` colors (`0..pool`),
    /// all linked into `P_0`.
    pub fn new(pool: usize) -> Self {
        let mut f = PaletteFamily::default();
        f.reset(pool);
        f
    }

    /// Reinitializes the family to exactly the state [`new`](Self::new)
    /// would produce — a fresh pool of `pool` colors linked into `P_0` in the
    /// same LIFO order, and zeroed probe/word tallies — while keeping every
    /// previously grown buffer's capacity. This is what lets a warm
    /// [`Workspace`](crate::workspace::Workspace) rerun an algorithm
    /// without heap allocation.
    pub fn reset(&mut self, pool: usize) {
        self.probes = 0;
        self.word_scans = 0;
        self.restart(pool);
    }

    /// [`reset`](Self::reset), keeping the probe and word tallies: the
    /// palettes a sweep restarts from when it crosses a gap between
    /// connected components, so that one solve's tallies sum over its
    /// components.
    pub fn restart(&mut self, pool: usize) {
        self.next.clear();
        self.prev.clear();
        self.level.clear();
        self.linked.clear();
        self.head = NIL;
        for _ in 0..pool {
            self.grow();
        }
    }

    /// Sum of the capacities (in elements) of the family's internal
    /// buffers. Used by the workspace allocation tally: equal footprints
    /// across repeated same-sized solves certify that no buffer regrew.
    pub fn capacity_footprint(&self) -> usize {
        self.next.capacity() + self.prev.capacity() + self.level.capacity() + self.linked.capacity()
    }

    /// Total colors ever introduced.
    pub fn pool_size(&self) -> usize {
        self.level.len()
    }

    /// Introduces the next color (id `pool_size()`), linked into `P_0`.
    /// Returns its id.
    pub fn grow(&mut self) -> u32 {
        let c = self.level.len() as u32;
        self.next.push(NIL);
        self.prev.push(NIL);
        self.level.push(0);
        self.linked.push(false);
        self.word_scans += 4;
        self.link(c);
        c
    }

    /// Whether `c` is linked into `P_0` (at level 0 and not parked).
    #[inline]
    pub fn is_linked(&self, c: u32) -> bool {
        self.linked[c as usize]
    }

    /// Whether `P_0` has no linked colors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Links `c` into `P_0` (front insertion). `c` must be at level 0 and
    /// not linked.
    pub fn link(&mut self, c: u32) {
        debug_assert!(!self.linked[c as usize], "color {c} already linked");
        debug_assert_eq!(self.level[c as usize], 0, "only P_0 is a list");
        let h = self.head;
        // Word tally: next[c], prev[c], head read+write, linked, plus the
        // old head's prev backlink when the list was non-empty.
        self.word_scans += 5 + (h != NIL) as u64;
        self.next[c as usize] = h;
        self.prev[c as usize] = NIL;
        if h != NIL {
            self.prev[h as usize] = c;
        }
        self.head = c;
        self.linked[c as usize] = true;
    }

    /// Unlinks `c` from `P_0`. The color is then *parked* at level 0.
    // Out of line on purpose: inlined into the tree sweep's neighbourhood
    // closure (`tree::remove_neighborhood_colors`), it made that closure
    // too large to inline into its per-neighbour loop, and the release
    // build's A4/A5 solves ran 4–7 % slower.
    #[inline(never)]
    pub fn unlink(&mut self, c: u32) {
        debug_assert!(self.linked[c as usize], "color {c} not linked");
        let (p, n) = (self.prev[c as usize], self.next[c as usize]);
        // Word tally: prev[c], next[c], predecessor-or-head splice, linked,
        // plus the successor's prev backlink when one exists.
        self.word_scans += 4 + (n != NIL) as u64;
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.linked[c as usize] = false;
    }

    /// Puts an unlinked color at level `j`: where Figure 1 inserts the color
    /// it just assigned into `P_t`.
    pub fn set_level(&mut self, c: u32, j: u32) {
        debug_assert!(!self.linked[c as usize], "color {c} is linked");
        self.word_scans += 1;
        self.level[c as usize] = j;
    }

    /// Moves a color of `P_1..P_t` down one palette and returns its new
    /// level. A color that reaches level 0 is parked until the caller links
    /// it.
    pub fn descend(&mut self, c: u32) -> u32 {
        let j = self.level[c as usize];
        debug_assert!(j >= 1, "color {c} is already at level 0");
        self.word_scans += 1;
        self.level[c as usize] = j - 1;
        j - 1
    }

    /// Pops some color from `P_0` (the most recently inserted), or `None`
    /// when `P_0` is empty.
    pub fn pop(&mut self) -> Option<u32> {
        self.probes += 1;
        self.word_scans += 1;
        let h = self.head;
        if h == NIL {
            return None;
        }
        self.unlink(h);
        Some(h)
    }

    /// Pops the first linked color of `P_0` satisfying `pred`, scanning front
    /// to back. Used by the §4.2 tree approximation, whose predicate rejects
    /// at most `2(δ1-1)` colors — O(δ1) there. The predicate may carry
    /// mutable state.
    pub fn pop_where(&mut self, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut c = self.head;
        while c != NIL {
            self.probes += 1;
            self.word_scans += 1;
            if pred(c) {
                self.unlink(c);
                return Some(c);
            }
            c = self.next[c as usize];
        }
        None
    }

    /// Palette entries examined by `pop`/`pop_where` since creation or the
    /// last [`reset`](Self::reset) — the "palette probe" counter reported
    /// by telemetry.
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Table words read or written by palette operations since creation or
    /// the last [`reset`](Self::reset) — the deterministic work tally behind
    /// the `palette_word_scans` counter.
    pub fn word_scan_count(&self) -> u64 {
        self.word_scans
    }

    /// The linked colors of `P_0`, front to back (test helper; O(len);
    /// allocates).
    pub fn collect(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut c = self.head;
        while c != NIL {
            out.push(c);
            c = self.next[c as usize];
        }
        out
    }
}

/// The palette of the §3.2 approximation (Theorem 2) over the fixed pool
/// `{0..=U}`: one occupancy bit, one level and one block counter per color.
/// A color's bit is set exactly when it is at level 0 and no open
/// interval's color is within `δ1 - 1` of it, so the set bits are `P_0`
/// and [`take_lowest`](Self::take_lowest) is a find-first-set over
/// `⌈(U+1)/64⌉` words.
#[derive(Debug, Default)]
pub(crate) struct FirstFitPalette {
    bits: Vec<u64>,
    level: Vec<u32>,
    block: Vec<u32>,
    probes: u64,
    word_scans: u64,
}

impl FirstFitPalette {
    /// Starts a solve on the pool `0..pool`: every color at level 0,
    /// unblocked and in `P_0`, and zeroed tallies.
    pub(crate) fn reset(&mut self, pool: usize, grows: &mut u64) {
        self.probes = 0;
        self.word_scans = 0;
        ensure_u32(&mut self.level, pool, 0, grows);
        ensure_u32(&mut self.block, pool, 0, grows);
        if self.bits.capacity() < pool.div_ceil(64) {
            *grows += 1;
        }
        self.refill();
    }

    /// Returns every color to `P_0` at level 0: where the sweep crosses a
    /// gap between components. Every block counter is already zero there,
    /// since no interval is open.
    pub(crate) fn restart(&mut self) {
        debug_assert!(self.block.iter().all(|&b| b == 0));
        self.level.fill(0);
        self.refill();
    }

    fn refill(&mut self) {
        let pool = self.level.len();
        let words = pool.div_ceil(64);
        self.bits.clear();
        self.bits.resize(words, u64::MAX);
        let tail = pool % 64;
        if tail != 0 {
            self.bits[words - 1] = (1 << tail) - 1;
        }
        self.word_scans += words as u64;
    }

    /// Takes the smallest color of `P_0` and puts it at level `level` (`P_t`
    /// for a newly assigned color), or `None` when `P_0` is empty.
    pub(crate) fn take_lowest(&mut self, level: u32) -> Option<u32> {
        let i = self.bits.iter().position(|&w| w != 0)?;
        let word = &mut self.bits[i];
        let bit = word.trailing_zeros();
        *word &= !(1 << bit);
        // Examined words, plus the one whose bit was cleared.
        self.probes += i as u64 + 1;
        self.word_scans += i as u64 + 2;
        let c = i as u32 * 64 + bit;
        self.level[c as usize] = level;
        Some(c)
    }

    /// Moves `c` down one palette and returns its new level; at level 0 an
    /// unblocked color rejoins `P_0`.
    pub(crate) fn descend(&mut self, c: u32) -> u32 {
        let c = c as usize;
        let j = self.level[c] - 1;
        self.level[c] = j;
        // Branch-free: whether a color rejoins is data-dependent.
        let free = u64::from(j == 0 && self.block[c] == 0);
        self.bits[c / 64] |= free << (c % 64);
        self.word_scans += free;
        j
    }

    /// Blocks the colors `lo..=hi` for one more open interval (the window
    /// of its color), taking them out of `P_0`.
    pub(crate) fn block(&mut self, lo: u32, hi: u32) {
        let (lo, hi) = (lo as usize, hi as usize);
        for b in &mut self.block[lo..=hi] {
            *b += 1;
        }
        for i in lo / 64..=hi / 64 {
            let from = if i == lo / 64 { lo % 64 } else { 0 };
            let to = if i == hi / 64 { hi % 64 } else { 63 };
            self.bits[i] &= !((u64::MAX >> (63 - (to - from))) << from);
            self.word_scans += 1;
        }
    }

    /// Releases one block on each of the colors `lo..=hi`; a color at level
    /// 0 that is no longer blocked rejoins `P_0`.
    pub(crate) fn release(&mut self, lo: u32, hi: u32) {
        let (lo, hi) = (lo as usize, hi as usize);
        let blocks = self.block[lo..=hi].iter_mut();
        for ((c, b), &level) in (lo..).zip(blocks).zip(&self.level[lo..=hi]) {
            *b -= 1;
            let free = u64::from(*b == 0 && level == 0);
            self.bits[c / 64] |= free << (c % 64);
            self.word_scans += free;
        }
    }

    /// Bitmap words examined by extractions since the last
    /// [`reset`](Self::reset).
    pub(crate) fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Bitmap words read or written since the last [`reset`](Self::reset).
    pub(crate) fn word_scan_count(&self) -> u64 {
        self.word_scans
    }

    /// Sum of the buffer capacities, in elements.
    pub(crate) fn capacity_footprint(&self) -> usize {
        self.bits.capacity() + self.level.capacity() + self.block.capacity()
    }
}

/// The dependency lists `L_v` of Figure 1 and §3.2: the colors waiting for
/// interval `v` to close before they move down a palette. Each list is an
/// intrusive FIFO: vertex-indexed heads and tails, and one color-indexed
/// successor link, which suffices because a color sits in at most one list
/// at a time.
#[derive(Debug, Default)]
pub(crate) struct DepLists {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
}

impl DepLists {
    /// Empties the lists of vertices `0..n`, for colors `0..colors`.
    pub(crate) fn reset(&mut self, n: usize, colors: usize, grows: &mut u64) {
        ensure_u32(&mut self.head, n, NIL, grows);
        ensure_u32(&mut self.tail, n, NIL, grows);
        ensure_u32(&mut self.next, colors, NIL, grows);
    }

    /// Appends color `c` to `L_v`.
    #[inline]
    pub(crate) fn push(&mut self, v: Vertex, c: u32) {
        self.next[c as usize] = NIL;
        if self.head[v as usize] == NIL {
            self.head[v as usize] = c;
        } else {
            self.next[self.tail[v as usize] as usize] = c;
        }
        self.tail[v as usize] = c;
    }

    /// Removes and returns the first color of `L_v`.
    #[inline]
    pub(crate) fn pop_front(&mut self, v: Vertex) -> Option<u32> {
        let c = self.head[v as usize];
        if c == NIL {
            return None;
        }
        self.head[v as usize] = self.next[c as usize];
        Some(c)
    }

    /// Sum of the buffer capacities, in elements.
    pub(crate) fn capacity_footprint(&self) -> usize {
        self.head.capacity() + self.tail.capacity() + self.next.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_links_into_p0() {
        let mut f = PaletteFamily::new(3);
        assert_eq!(f.pool_size(), 3);
        assert_eq!(f.collect(), vec![2, 1, 0]);
        let c = f.grow();
        assert_eq!(c, 3);
        assert_eq!(f.collect(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn pop_is_lifo_and_empties() {
        let mut f = PaletteFamily::new(2);
        let a = f.pop().unwrap();
        let b = f.pop().unwrap();
        assert_eq!((a, b), (1, 0));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn descend_to_level_zero_then_link() {
        let mut f = PaletteFamily::new(1);
        let c = f.pop().unwrap();
        f.set_level(c, 3);
        assert!(f.is_empty());
        assert_eq!(f.descend(c), 2);
        assert_eq!(f.descend(c), 1);
        assert_eq!(f.descend(c), 0);
        assert!(!f.is_linked(c), "a color reaching level 0 stays parked");
        f.link(c);
        assert_eq!(f.collect(), vec![0]);
    }

    #[test]
    fn unlink_from_middle_keeps_order_consistent() {
        let mut f = PaletteFamily::new(5);
        // Recency order (front to back): [4, 3, 2, 1, 0].
        f.unlink(2);
        assert_eq!(f.collect(), vec![4, 3, 1, 0]);
        assert!(!f.is_linked(2));
        f.unlink(4); // front removal
        assert_eq!(f.collect(), vec![3, 1, 0]);
        f.unlink(0); // back removal
        assert_eq!(f.collect(), vec![3, 1]);
        f.link(2);
        assert_eq!(f.collect(), vec![2, 3, 1]);
    }

    #[test]
    fn pop_where_skips_rejected_colors() {
        let mut f = PaletteFamily::new(6);
        // Front to back: [5, 4, 3, 2, 1, 0]; reject anything >= 3.
        assert_eq!(f.pop_where(|c| c < 3), Some(2));
        assert_eq!(f.collect().len(), 5);
        // Nothing matches: P_0 untouched.
        assert_eq!(f.pop_where(|c| c > 100), None);
        assert_eq!(f.collect().len(), 5);
    }

    #[test]
    fn pop_where_predicate_may_be_stateful() {
        let mut f = PaletteFamily::new(4);
        // FnMut scratch: accept the third candidate examined.
        let mut examined = 0u32;
        let got = f.pop_where(|_| {
            examined += 1;
            examined == 3
        });
        assert_eq!(got, Some(1));
        assert_eq!(examined, 3);
    }

    #[test]
    fn probe_count_tracks_pops_and_scans() {
        let mut f = PaletteFamily::new(6);
        assert_eq!(f.probe_count(), 0);
        f.pop(); // 1 probe
        assert_eq!(f.probe_count(), 1);
        // P_0 is now [4, 3, 2, 1, 0]; scanning for c < 3 examines 4, 3, 2.
        f.pop_where(|c| c < 3);
        assert_eq!(f.probe_count(), 4);
        f.pop_where(|c| c > 100); // exhaustive scan of [4, 3, 1, 0]
        assert_eq!(f.probe_count(), 8);
    }

    #[test]
    fn word_scans_accumulate_and_reset() {
        let mut f = PaletteFamily::new(4);
        let fill = f.word_scan_count();
        // Four grows: 4 table pushes + 5 link words + 1 backlink each,
        // except the first link into an empty list.
        assert_eq!(fill, 4 * 10 - 1);
        f.pop();
        f.pop_where(|c| c == 0);
        assert!(f.word_scan_count() > fill);
        f.reset(4);
        assert_eq!(f.word_scan_count(), fill, "reset tallies differ");
    }

    #[test]
    fn reset_matches_fresh_family() {
        let mut f = PaletteFamily::new(3);
        let c = f.pop().unwrap();
        f.set_level(c, 2);
        f.grow();
        f.reset(2);
        let fresh = PaletteFamily::new(2);
        assert_eq!(f.pool_size(), fresh.pool_size());
        assert_eq!(f.collect(), fresh.collect());
        assert_eq!(f.probe_count(), 0);
        assert_eq!(f.word_scan_count(), fresh.word_scan_count());
        // Same LIFO pop order as a fresh family.
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(0));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn restart_matches_reset_but_keeps_tallies() {
        let mut f = PaletteFamily::new(3);
        let c = f.pop().unwrap();
        f.set_level(c, 2);
        f.grow();
        let (probes, scans) = (f.probe_count(), f.word_scan_count());
        f.restart(2);
        let fresh = PaletteFamily::new(2);
        assert_eq!(f.pool_size(), fresh.pool_size());
        assert_eq!(f.collect(), fresh.collect());
        assert_eq!(f.probe_count(), probes);
        assert_eq!(f.word_scan_count(), scans + fresh.word_scan_count());
    }

    #[test]
    fn parked_colors_keep_level_zero_until_linked() {
        let mut f = PaletteFamily::new(2);
        f.unlink(0);
        assert!(!f.is_linked(0));
        assert_eq!(f.collect(), vec![1]);
        f.link(0);
        assert_eq!(f.collect(), vec![0, 1]);
    }

    #[test]
    fn first_fit_takes_the_lowest_unblocked_level_zero_color() {
        let mut f = FirstFitPalette::default();
        let mut grows = 0;
        f.reset(70, &mut grows);
        assert_eq!(f.take_lowest(2), Some(0));
        f.block(1, 1);
        assert_eq!(f.take_lowest(2), Some(2));
        // 0 descends to level 1, then to 0 and rejoins P_0.
        assert_eq!(f.descend(0), 1);
        assert_eq!(f.take_lowest(1), Some(3));
        assert_eq!(f.descend(0), 0);
        assert_eq!(f.take_lowest(1), Some(0));
        // A blocked color reaching level 0 waits for its last release.
        f.block(3, 3);
        assert_eq!(f.descend(3), 0);
        f.release(1, 1);
        assert_eq!(f.take_lowest(1), Some(1));
        f.release(3, 3);
        assert_eq!(f.take_lowest(1), Some(3));
        // Overlapping windows: 4 and 5 stay out until both are released.
        f.block(4, 5);
        f.block(4, 4);
        f.release(4, 5);
        assert_eq!(f.take_lowest(1), Some(5));
        f.release(4, 4);
        assert_eq!(f.take_lowest(1), Some(4));
        // A window across a word boundary; the second word is reached once
        // the first is used up.
        f.block(62, 65);
        for c in 6..62 {
            assert_eq!(f.take_lowest(1), Some(c));
        }
        let probes = f.probe_count();
        assert_eq!(f.take_lowest(1), Some(66));
        assert_eq!(f.probe_count(), probes + 2, "two words examined");
        f.release(62, 65);
        assert_eq!(f.take_lowest(1), Some(62));
        for c in (63..66).chain(67..70) {
            assert_eq!(f.take_lowest(1), Some(c));
        }
        assert_eq!(f.take_lowest(1), None, "colors past the pool never appear");
    }

    #[test]
    fn first_fit_restart_refills_and_keeps_tallies() {
        let mut f = FirstFitPalette::default();
        let mut grows = 0;
        f.reset(3, &mut grows);
        assert_eq!(f.word_scan_count(), 1, "one refilled word");
        for c in 0..3 {
            assert_eq!(f.take_lowest(4), Some(c));
        }
        assert_eq!(f.take_lowest(4), None);
        let (probes, scans) = (f.probe_count(), f.word_scan_count());
        // Three extractions: one word examined and one written each.
        assert_eq!((probes, scans), (3, 1 + 3 * 2));
        f.restart();
        assert_eq!(f.word_scan_count(), scans + 1);
        assert_eq!(f.take_lowest(1), Some(0));
        // Color 1 rejoins P_0 on release only at level 0.
        f.block(1, 1);
        f.release(1, 1);
        assert_eq!(f.take_lowest(1), Some(1), "restart zeroed the levels");
        assert_eq!(f.probe_count(), probes + 2);
        // A warm reset to the same pool does not grow a buffer.
        let footprint = f.capacity_footprint();
        f.reset(3, &mut grows);
        assert_eq!(grows, 3, "only the cold reset grew");
        assert_eq!(f.capacity_footprint(), footprint);
        assert_eq!((f.probe_count(), f.word_scan_count()), (0, 1));
    }

    #[test]
    fn dep_lists_are_fifo_and_move_colors_between_lists() {
        let mut deps = DepLists::default();
        let mut grows = 0;
        deps.reset(3, 4, &mut grows);
        assert_eq!(deps.pop_front(0), None);
        for c in [2, 0, 3] {
            deps.push(0, c);
        }
        deps.push(1, 1);
        // Drain L_0 into L_1 as a closing interval hands its colors on.
        while let Some(c) = deps.pop_front(0) {
            deps.push(1, c);
        }
        let mut drained = Vec::new();
        while let Some(c) = deps.pop_front(1) {
            drained.push(c);
        }
        assert_eq!(drained, vec![1, 2, 0, 3]);
        assert_eq!(deps.pop_front(2), None);
        // A warm reset to the same shape does not grow a buffer.
        let footprint = deps.capacity_footprint();
        deps.reset(3, 4, &mut grows);
        assert_eq!(grows, 3);
        assert_eq!(deps.capacity_footprint(), footprint);
    }
}
