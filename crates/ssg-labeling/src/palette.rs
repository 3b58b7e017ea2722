//! The palette family `P_0, ..., P_t` of the paper's interval and tree
//! algorithms (Figure 1, §3.2 and Figure 5), implemented exactly as
//! Theorem 1's complexity proof prescribes: doubly linked lists threaded
//! through a color-indexed table `C[c]`, so that insertion, extraction of
//! a *given* color, and extraction of *some* color are all `O(1)`.
//!
//! The family keeps two deterministic work tallies:
//!
//! * [`probe_count`](PaletteFamily::probe_count) — palette entries
//!   *examined* by `pop`/`pop_where` (the paper-facing probe counter).
//! * [`word_scan_count`](PaletteFamily::word_scan_count) — list-table
//!   words read or written per operation (pointer splices, level and
//!   length bookkeeping), the per-probe *work* behind the
//!   `palette_word_scans` counter.

/// Sentinel for "no color" in the intrusive lists (also used by callers as
/// a "no parent color" marker).
const NIL: u32 = u32::MAX;

/// A family of `t + 1` palettes over colors `0..pool_size`, with O(1)
/// insert / remove / pop and per-color level tracking.
///
/// A color is always *assigned a level* once introduced, but may be
/// temporarily **parked** (tracked at its level yet not linked into the
/// list) — the §3.2 approximation uses this for colors blocked by the
/// `δ1`-separation of an open interval.
#[derive(Debug, Clone)]
pub struct PaletteFamily {
    next: Vec<u32>,
    prev: Vec<u32>,
    level: Vec<u32>,
    linked: Vec<bool>,
    head: Vec<u32>,
    len: Vec<usize>,
    probes: u64,
    word_scans: u64,
}

impl Default for PaletteFamily {
    /// The cold state of a workspace arena: `P_0` alone, empty pool.
    /// Solvers reinitialize with [`reset`](Self::reset) before use.
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl PaletteFamily {
    /// Creates palettes `P_0..P_t` with an initial pool of `pool` colors
    /// (`0..pool`), all linked into `P_0`.
    pub fn new(t: u32, pool: usize) -> Self {
        let mut f = PaletteFamily {
            next: Vec::new(),
            prev: Vec::new(),
            level: Vec::new(),
            linked: Vec::new(),
            head: Vec::new(),
            len: Vec::new(),
            probes: 0,
            word_scans: 0,
        };
        f.reset(t, pool);
        f
    }

    /// Reinitializes the family to exactly the state [`new`](Self::new)
    /// would produce — `t + 1` empty palettes, a fresh pool of `pool`
    /// colors linked into `P_0` in the same LIFO order, and zeroed
    /// probe/word tallies — while keeping every previously grown buffer's
    /// capacity. This is what lets a warm
    /// [`Workspace`](crate::workspace::Workspace) rerun an algorithm
    /// without heap allocation.
    pub fn reset(&mut self, t: u32, pool: usize) {
        self.head.clear();
        self.head.resize(t as usize + 1, NIL);
        self.len.clear();
        self.len.resize(t as usize + 1, 0);
        self.probes = 0;
        self.word_scans = 0;
        self.restart(pool);
    }

    /// [`reset`](Self::reset) to the same number of palettes, keeping the
    /// probe and word tallies: the palettes a sweep restarts from when it
    /// crosses a gap between connected components, so that one solve's
    /// tallies sum over its components.
    pub fn restart(&mut self, pool: usize) {
        self.next.clear();
        self.prev.clear();
        self.level.clear();
        self.linked.clear();
        self.head.fill(NIL);
        self.len.fill(0);
        for _ in 0..pool {
            self.grow();
        }
    }

    /// Sum of the capacities (in elements) of the family's internal
    /// buffers. Used by the workspace allocation tally: equal footprints
    /// across repeated same-sized solves certify that no buffer regrew.
    pub fn capacity_footprint(&self) -> usize {
        self.next.capacity()
            + self.prev.capacity()
            + self.level.capacity()
            + self.linked.capacity()
            + self.head.capacity()
            + self.len.capacity()
    }

    /// Number of palettes (`t + 1`).
    pub fn num_levels(&self) -> usize {
        self.head.len()
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
        self.link(0, c);
        c
    }

    /// The palette index currently holding color `c`.
    #[inline]
    pub fn level_of(&self, c: u32) -> u32 {
        self.level[c as usize]
    }

    /// Whether `c` is linked into its palette's list (not parked).
    #[inline]
    pub fn is_linked(&self, c: u32) -> bool {
        self.linked[c as usize]
    }

    /// Number of linked colors in palette `j`.
    #[inline]
    pub fn len(&self, j: u32) -> usize {
        self.len[j as usize]
    }

    /// Whether palette `j` has no linked colors.
    #[inline]
    pub fn is_empty(&self, j: u32) -> bool {
        self.len[j as usize] == 0
    }

    /// Links `c` into palette `j` (front insertion) and records its level.
    /// `c` must not currently be linked.
    pub fn link(&mut self, j: u32, c: u32) {
        debug_assert!(!self.linked[c as usize], "color {c} already linked");
        let h = self.head[j as usize];
        // Word tally: next[c], prev[c], head read+write, level, linked,
        // len, plus the old head's prev backlink when the list was
        // non-empty.
        self.word_scans += 7 + (h != NIL) as u64;
        self.next[c as usize] = h;
        self.prev[c as usize] = NIL;
        if h != NIL {
            self.prev[h as usize] = c;
        }
        self.head[j as usize] = c;
        self.level[c as usize] = j;
        self.linked[c as usize] = true;
        self.len[j as usize] += 1;
    }

    /// Unlinks `c` from its palette list, keeping its level. The color is
    /// then *parked*.
    pub fn unlink(&mut self, c: u32) {
        debug_assert!(self.linked[c as usize], "color {c} not linked");
        let (p, n) = (self.prev[c as usize], self.next[c as usize]);
        // Word tally: prev[c], next[c], level read, predecessor-or-head
        // splice, linked, len, plus the successor's prev backlink when
        // one exists.
        self.word_scans += 6 + (n != NIL) as u64;
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head[self.level[c as usize] as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.linked[c as usize] = false;
        self.len[self.level[c as usize] as usize] -= 1;
    }

    /// Moves a linked color to palette `j` (unlink + link).
    pub fn move_to(&mut self, c: u32, j: u32) {
        self.unlink(c);
        self.link(j, c);
    }

    /// Sets the level of a *parked* color without linking it.
    pub fn set_parked_level(&mut self, c: u32, j: u32) {
        debug_assert!(!self.linked[c as usize]);
        self.word_scans += 1;
        self.level[c as usize] = j;
    }

    /// Pops some color from palette `j` (the most recently inserted), or
    /// `None` when the palette is empty.
    pub fn pop(&mut self, j: u32) -> Option<u32> {
        self.probes += 1;
        self.word_scans += 1;
        let h = self.head[j as usize];
        if h == NIL {
            return None;
        }
        self.unlink(h);
        Some(h)
    }

    /// Pops the first linked color of palette `j` satisfying `pred`,
    /// scanning front to back. Used by the §4.2 tree approximation, whose
    /// predicate rejects at most `2(δ1-1)` colors — O(δ1) there. The
    /// predicate may carry mutable state.
    pub fn pop_where(&mut self, j: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut c = self.head[j as usize];
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

    /// List-table words read or written by palette operations since
    /// creation or the last [`reset`](Self::reset) — the deterministic
    /// work tally behind the `palette_word_scans` counter.
    pub fn word_scan_count(&self) -> u64 {
        self.word_scans
    }

    /// The linked colors of palette `j`, front to back (test helper;
    /// O(len); allocates).
    pub fn collect(&self, j: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut c = self.head[j as usize];
        while c != NIL {
            out.push(c);
            c = self.next[c as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_links_into_p0() {
        let mut f = PaletteFamily::new(2, 3);
        assert_eq!(f.pool_size(), 3);
        assert_eq!(f.num_levels(), 3);
        assert_eq!(f.len(0), 3);
        assert!(f.is_empty(1));
        let c = f.grow();
        assert_eq!(c, 3);
        assert_eq!(f.len(0), 4);
    }

    #[test]
    fn pop_is_lifo_and_empties() {
        let mut f = PaletteFamily::new(1, 2);
        let a = f.pop(0).unwrap();
        let b = f.pop(0).unwrap();
        assert_eq!((a, b), (1, 0));
        assert_eq!(f.pop(0), None);
        assert!(f.is_empty(0));
    }

    #[test]
    fn move_between_levels() {
        let mut f = PaletteFamily::new(3, 1);
        f.move_to(0, 3);
        assert_eq!(f.level_of(0), 3);
        assert!(f.is_empty(0));
        assert_eq!(f.collect(3), vec![0]);
        f.move_to(0, 2);
        f.move_to(0, 1);
        f.move_to(0, 0);
        assert_eq!(f.collect(0), vec![0]);
    }

    #[test]
    fn unlink_from_middle_keeps_order_consistent() {
        let mut f = PaletteFamily::new(0, 5);
        // Recency order (front to back): [4, 3, 2, 1, 0].
        f.unlink(2);
        assert_eq!(f.collect(0), vec![4, 3, 1, 0]);
        assert!(!f.is_linked(2));
        assert_eq!(f.level_of(2), 0);
        f.unlink(4); // front removal
        assert_eq!(f.collect(0), vec![3, 1, 0]);
        f.unlink(0); // back removal
        assert_eq!(f.collect(0), vec![3, 1]);
        f.link(0, 2);
        assert_eq!(f.collect(0), vec![2, 3, 1]);
        assert_eq!(f.len(0), 3);
    }

    #[test]
    fn pop_where_skips_rejected_colors() {
        let mut f = PaletteFamily::new(0, 6);
        // Front to back: [5, 4, 3, 2, 1, 0]; reject anything >= 3.
        assert_eq!(f.pop_where(0, |c| c < 3), Some(2));
        assert_eq!(f.len(0), 5);
        // Nothing matches: level untouched.
        assert_eq!(f.pop_where(0, |c| c > 100), None);
        assert_eq!(f.len(0), 5);
    }

    #[test]
    fn pop_where_predicate_may_be_stateful() {
        let mut f = PaletteFamily::new(0, 4);
        // FnMut scratch: accept the third candidate examined.
        let mut examined = 0u32;
        let got = f.pop_where(0, |_| {
            examined += 1;
            examined == 3
        });
        assert_eq!(got, Some(1));
        assert_eq!(examined, 3);
    }

    #[test]
    fn probe_count_tracks_pops_and_scans() {
        let mut f = PaletteFamily::new(0, 6);
        assert_eq!(f.probe_count(), 0);
        f.pop(0); // 1 probe
        assert_eq!(f.probe_count(), 1);
        // Level is now [4, 3, 2, 1, 0]; scanning for c < 3 examines 4, 3, 2.
        f.pop_where(0, |c| c < 3);
        assert_eq!(f.probe_count(), 4);
        f.pop_where(0, |c| c > 100); // exhaustive scan of [4, 3, 1, 0]
        assert_eq!(f.probe_count(), 8);
    }

    #[test]
    fn word_scans_accumulate_and_reset() {
        let mut f = PaletteFamily::new(1, 4);
        let fill = f.word_scan_count();
        // Four grows: 4 table pushes + 7 link words + 1 backlink each,
        // except the first link into an empty list.
        assert_eq!(fill, 4 * 12 - 1);
        f.pop(0);
        f.pop_where(0, |c| c == 0);
        assert!(f.word_scan_count() > fill);
        f.reset(1, 4);
        assert_eq!(f.word_scan_count(), fill, "reset tallies differ");
    }

    #[test]
    fn reset_matches_fresh_family() {
        let mut f = PaletteFamily::new(2, 3);
        f.pop(0);
        f.move_to(0, 2);
        f.grow();
        f.reset(1, 2);
        let fresh = PaletteFamily::new(1, 2);
        assert_eq!(f.num_levels(), fresh.num_levels());
        assert_eq!(f.pool_size(), fresh.pool_size());
        assert_eq!(f.collect(0), fresh.collect(0));
        assert_eq!(f.probe_count(), 0);
        assert_eq!(f.word_scan_count(), fresh.word_scan_count());
        // Same LIFO pop order as a fresh family.
        assert_eq!(f.pop(0), Some(1));
        assert_eq!(f.pop(0), Some(0));
        assert_eq!(f.pop(0), None);
    }

    #[test]
    fn restart_matches_reset_but_keeps_tallies() {
        let mut f = PaletteFamily::new(2, 3);
        f.pop(0);
        f.move_to(0, 2);
        f.grow();
        let (probes, scans) = (f.probe_count(), f.word_scan_count());
        f.restart(2);
        let fresh = PaletteFamily::new(2, 2);
        assert_eq!(f.num_levels(), fresh.num_levels());
        assert_eq!(f.pool_size(), fresh.pool_size());
        assert_eq!(f.collect(0), fresh.collect(0));
        assert!(f.is_empty(1) && f.is_empty(2));
        assert_eq!(f.probe_count(), probes);
        assert_eq!(f.word_scan_count(), scans + fresh.word_scan_count());
    }

    #[test]
    fn parked_levels_track_without_linking() {
        let mut f = PaletteFamily::new(2, 1);
        f.unlink(0);
        f.set_parked_level(0, 2);
        assert_eq!(f.level_of(0), 2);
        assert!(f.is_empty(2));
        f.link(2, 0);
        assert_eq!(f.len(2), 1);
    }
}
