//! Reusable scratch arenas for the labeling algorithms.
//!
//! Every A1–A5 call allocates the same shapes of scratch state: a color
//! output buffer, a [`PaletteFamily`] or A2's first-fit bitmap, the
//! interval sweeps' dependency lists, BFS distance arrays, level logs. Each
//! is a flat buffer, so a solve touches a few contiguous arrays whatever
//! its size. On a production workload of heavy repeated traffic (the
//! ROADMAP north-star) those allocations dominate the cheap `O(nt)` sweeps,
//! so this module hoists all of them into a [`Workspace`] arena that
//! solvers borrow from:
//!
//! * **One-shot callers** keep the plain entry points
//!   (`l1_coloring(...)` etc.), which call the `*_ws` form on a transient
//!   workspace with telemetry disabled.
//! * **Repeated callers** (the bench runner, the CLI, the netsim sweep)
//!   hold a workspace across solves via the `*_ws(..., &mut Workspace,
//!   &Metrics)` variants or [`crate::solver::Solver::solve_with`]. After
//!   the first (cold) solve, repeated same-sized solves perform **zero
//!   heap allocation**: every buffer is `clear()`ed and refilled in place,
//!   never dropped or regrown.
//!
//! The zero-allocation claim is asserted in debug-friendly safe code (the
//! crates forbid `unsafe`, so a counting global allocator is off the
//! table) by two tallies that any test can check across solves:
//! [`Workspace::capacity_footprint`] (sum of all buffer capacities — equal
//! footprints mean no buffer regrew) and [`Workspace::grow_events`]
//! (incremented whenever a buffer had to grow past its capacity).
//!
//! Reuse is visible in telemetry: [`Workspace::begin_solve`] records one
//! [`Counter::WorkspaceReuses`] for every solve after the first, which
//! surfaces in `ssg bench --repeat N` reports.
//!
//! ## Arena ownership rules
//!
//! * A `Workspace` is exclusively borrowed for the duration of one solve;
//!   solvers never stash references into it.
//! * Output `Labeling`s are *moved out* of the arena (via the internal
//!   `take_colors` free list); callers that want the warm path
//!   allocation-free hand the buffer back with [`Workspace::recycle`].
//! * Steps of one solve (A2's `λ*_{G,t}` count before its sweep) share the
//!   arena with it and do **not** call `begin_solve`, so one public solve
//!   records at most one reuse event.
//! * For parallel sweeps, a [`WorkspacePool`] hands each rayon worker an
//!   exclusive warm workspace (checkout/checkin behind a mutex: the
//!   vendored rayon exposes no worker identity, and the checkout cost is
//!   trivial next to a solve).

use crate::palette::{DepLists, FirstFitPalette, PaletteFamily};
use crate::spec::Labeling;
use ssg_graph::scratch::BfsScratch;
use ssg_graph::Vertex;
use ssg_simplicial::PeelScratch;
use ssg_telemetry::{Counter, Metrics};
use std::sync::Mutex;

/// Scratch arena shared by all solvers in this crate (and, through the
/// embedded [`PeelScratch`], the Lemma-2 peel). See the module docs for
/// the ownership rules.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Palette family reused across solves via [`PaletteFamily::reset`].
    pub(crate) palette: PaletteFamily,
    /// Dependency lists `L_v` of Figure 1 / §3.2.
    pub(crate) deps: DepLists,
    /// First-fit palette of the §3.2 approximation.
    pub(crate) first_fit: FirstFitPalette,
    /// Rank-indexed scratch of the interval `λ*_{G,t}` count: furthest
    /// reaches, then closing tallies.
    pub(crate) ranks: Vec<u32>,
    /// Per-level extraction log of the Figure 5 tree sweep.
    pub(crate) level_log: Vec<u32>,
    /// Vertex-order buffer (greedy BFS order, default orders).
    pub(crate) order: Vec<Vertex>,
    /// Seen/visited marks for order construction.
    pub(crate) seen: Vec<bool>,
    /// Forbidden-color bitmap (greedy first fit).
    pub(crate) forbidden: Vec<bool>,
    /// Truncated-BFS distance array + queue (greedy baselines).
    pub(crate) bfs: BfsScratch,
    /// Scratch of the Lemma-2 peel (`ssg-simplicial`).
    pub(crate) peel: PeelScratch,
    /// Free list of recycled color buffers.
    free: Vec<Vec<u32>>,
    /// Growth tally shared with borrow-split solver bodies.
    pub(crate) grow_events: u64,
    solves: u64,
}

impl Workspace {
    /// An empty arena; every buffer is grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of one public solve. The second and later calls on
    /// the same workspace record one [`Counter::WorkspaceReuses`] each:
    /// the arena is warm and the solve amortizes its allocations.
    ///
    /// Called exactly once per *public* `*_ws` entry point; internal
    /// subruns share the arena without re-announcing it, so counters stay
    /// bit-identical to the transient-workspace wrappers.
    pub fn begin_solve(&mut self, metrics: &Metrics) {
        if self.solves > 0 && metrics.is_enabled() {
            metrics.add(Counter::WorkspaceReuses, 1);
        }
        self.solves += 1;
    }

    /// Number of solves started on this workspace (including the embedded
    /// peel scratch's solves).
    pub fn solve_count(&self) -> u64 {
        self.solves + self.peel.solve_count()
    }

    /// How many times any buffer had to grow beyond its capacity.
    /// Repeated same-sized solves on a warm workspace keep this constant —
    /// the debug-mode allocation tally of the zero-alloc contract.
    pub fn grow_events(&self) -> u64 {
        self.grow_events + self.bfs.grow_events() + self.peel.grow_events()
    }

    /// Sum of all buffer capacities, in elements. Equal footprints across
    /// repeated solves certify that no buffer was dropped and reallocated.
    pub fn capacity_footprint(&self) -> usize {
        self.palette.capacity_footprint()
            + self.deps.capacity_footprint()
            + self.first_fit.capacity_footprint()
            + self.ranks.capacity()
            + self.level_log.capacity()
            + self.order.capacity()
            + self.seen.capacity()
            + self.forbidden.capacity()
            + self.bfs.capacity_footprint()
            + self.peel.capacity_footprint()
            + self.free.capacity()
            + self.free.iter().map(Vec::capacity).sum::<usize>()
    }

    /// A color buffer of length `n` filled with `fill`, drawn from the
    /// free list when possible.
    pub(crate) fn take_colors(&mut self, n: usize, fill: u32) -> Vec<u32> {
        let mut v = match self.free.pop() {
            Some(v) => v,
            None => {
                self.grow_events += 1;
                Vec::new()
            }
        };
        if v.capacity() < n {
            self.grow_events += 1;
        }
        v.clear();
        v.resize(n, fill);
        v
    }

    /// Returns a solve's output to the arena's free list, so the next
    /// solve can reuse the buffer instead of allocating.
    pub fn recycle(&mut self, labeling: Labeling) {
        self.recycle_colors(labeling.into_colors());
    }

    /// [`recycle`](Self::recycle) for a raw color buffer.
    pub fn recycle_colors(&mut self, mut colors: Vec<u32>) {
        colors.clear();
        self.free.push(colors);
    }
}

/// Grows-and-clears a `u32` buffer to length `n`, tallying capacity growth.
pub(crate) fn ensure_u32(buf: &mut Vec<u32>, n: usize, fill: u32, grows: &mut u64) {
    if buf.capacity() < n {
        *grows += 1;
    }
    buf.clear();
    buf.resize(n, fill);
}

/// Grows-and-clears a `bool` buffer to length `n`, tallying capacity growth.
pub(crate) fn ensure_bool(buf: &mut Vec<bool>, n: usize, grows: &mut u64) {
    if buf.capacity() < n {
        *grows += 1;
    }
    buf.clear();
    buf.resize(n, false);
}

/// A checkout/checkin pool of warm [`Workspace`]s for parallel sweeps.
///
/// The vendored rayon stub shares one `Fn` closure across workers with no
/// worker identity, so per-worker arenas are modeled as a mutex-guarded
/// free list: each cell checks a workspace out, solves, and checks it back
/// in. Steady state holds one workspace per concurrently running worker,
/// each staying warm across the cells it serves.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with an exclusive workspace checked out of the pool,
    /// creating a fresh one only when every pooled workspace is in use.
    pub fn with<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut ws = self
            .free
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        let result = f(&mut ws);
        self.free
            .lock()
            .expect("workspace pool poisoned")
            .push(ws);
        result
    }

    /// Number of workspaces currently checked in.
    pub fn len(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }

    /// Whether the pool currently holds no checked-in workspace.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total solves served by the checked-in workspaces — `total_solves() -
    /// len()` extra solves were amortized onto warm arenas.
    pub fn total_solves(&self) -> u64 {
        self.free
            .lock()
            .expect("workspace pool poisoned")
            .iter()
            .map(Workspace::solve_count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_solve_records_reuses_after_first() {
        let mut ws = Workspace::new();
        let m = Metrics::enabled();
        ws.begin_solve(&m);
        assert_eq!(m.snapshot().counter(Counter::WorkspaceReuses), 0);
        ws.begin_solve(&m);
        ws.begin_solve(&m);
        assert_eq!(m.snapshot().counter(Counter::WorkspaceReuses), 2);
        assert_eq!(ws.solve_count(), 3);
    }

    #[test]
    fn take_and_recycle_reuse_the_same_buffer() {
        let mut ws = Workspace::new();
        let a = ws.take_colors(100, 0);
        ws.recycle_colors(a);
        let grows = ws.grow_events();
        let footprint = ws.capacity_footprint();
        for _ in 0..5 {
            let b = ws.take_colors(100, u32::MAX);
            assert_eq!(b.len(), 100);
            ws.recycle_colors(b);
        }
        assert_eq!(ws.grow_events(), grows);
        assert_eq!(ws.capacity_footprint(), footprint);
    }

    #[test]
    fn pool_checkout_reuses_warm_workspaces() {
        let pool = WorkspacePool::new();
        pool.with(|ws| ws.begin_solve(&Metrics::disabled()));
        pool.with(|ws| ws.begin_solve(&Metrics::disabled()));
        // Sequential checkouts reuse the single pooled workspace.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total_solves(), 2);
    }
}
