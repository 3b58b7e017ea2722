//! Rayon-parallel experiment harness: run a parameter grid across many
//! seeds, aggregate the per-run reports, and emit CSV rows for
//! EXPERIMENTS.md. This is the "evaluation section" machinery the paper
//! itself never had.

use rayon::prelude::*;
use ssg_labeling::{Workspace, WorkspacePool};
use ssg_telemetry::{Metrics, Phase};
use std::io::Write;

/// Aggregate statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarizes a (non-empty or empty) sample.
    pub fn of(values: &[f64]) -> Summary {
        let count = values.len();
        if count == 0 {
            return Summary {
                count,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            min,
            max,
            stddev: var.sqrt(),
        }
    }
}

/// Execution backend of a [`GridRunner`].
///
/// One enum replaces what used to be five separate `run_grid*` entry
/// points: pick where the cells run, the grid semantics stay identical
/// (results grouped by parameter in input order, seeds in order, each cell
/// timed under [`Phase::Cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridBackend {
    /// Cells run in order on the calling thread, sharing one warm
    /// [`Workspace`] for the whole grid. The reference backend every other
    /// backend must agree with bit-for-bit.
    Sequential,
    /// Cells run rayon-parallel, each on an exclusive warm [`Workspace`]
    /// checked out of a [`WorkspacePool`].
    Pooled,
    /// Cells are shipped to a sharded [`Engine`](ssg_engine::Engine) with
    /// `workers` worker threads (or to an externally supplied engine, see
    /// [`GridRunner::engine`]), sharing its queues, stealing, backpressure,
    /// and per-worker warm workspaces with batch labeling traffic.
    Engine {
        /// Worker threads of the internally built engine. Ignored when an
        /// external engine is attached.
        workers: usize,
    },
}

impl GridBackend {
    /// Canonical lowercase rendering (`sequential`, `pooled`, `engine:K`)
    /// — the token format `ssg lab` specs use for their backend axis.
    pub fn render(&self) -> String {
        match self {
            GridBackend::Sequential => "sequential".into(),
            GridBackend::Pooled => "pooled".into(),
            GridBackend::Engine { workers } => format!("engine:{workers}"),
        }
    }

    /// Parses the [`render`](Self::render) token format.
    ///
    /// ```
    /// use ssg_netsim::GridBackend;
    /// assert_eq!(GridBackend::parse("engine:4"), Some(GridBackend::Engine { workers: 4 }));
    /// assert_eq!(GridBackend::parse("engine:0"), None);
    /// assert_eq!(GridBackend::parse("pooled"), Some(GridBackend::Pooled));
    /// ```
    pub fn parse(token: &str) -> Option<GridBackend> {
        match token {
            "sequential" => Some(GridBackend::Sequential),
            "pooled" => Some(GridBackend::Pooled),
            _ => {
                let workers: usize = token.strip_prefix("engine:")?.parse().ok()?;
                (workers >= 1).then_some(GridBackend::Engine { workers })
            }
        }
    }
}

/// Unified builder over the experiment-grid execution backends.
///
/// ```
/// use ssg_netsim::{GridBackend, GridRunner};
/// let rows = GridRunner::new()
///     .backend(GridBackend::Sequential)
///     .run(&[10u32, 20], &[1, 2, 3], |p, s, _ws| u64::from(*p) + s);
/// assert_eq!(rows, vec![vec![11, 12, 13], vec![21, 22, 23]]);
/// ```
///
/// The cell closure always receives a warm [`Workspace`] (ignore it for
/// workspace-free cells) and must be deterministic in `(param, seed)`; the
/// engine backend additionally requires `'static` captures because cells
/// outlive the submitting stack frame, so the unified [`run`] carries the
/// superset bounds. Attach a [`Metrics`] handle to time every cell under
/// [`Phase::Cell`], a caller-owned [`WorkspacePool`] to observe warm-reuse
/// accounting, or a caller-owned [`Engine`](ssg_engine::Engine) to share
/// shards with live traffic.
///
/// [`run`]: GridRunner::run
#[derive(Clone)]
pub struct GridRunner<'a> {
    backend: GridBackend,
    metrics: Metrics,
    pool: Option<&'a WorkspacePool>,
    engine: Option<&'a ssg_engine::Engine>,
}

impl Default for GridRunner<'_> {
    fn default() -> Self {
        GridRunner::new()
    }
}

impl<'a> GridRunner<'a> {
    /// A runner on the default [`GridBackend::Pooled`] backend with
    /// disabled metrics.
    pub fn new() -> Self {
        GridRunner {
            backend: GridBackend::Pooled,
            metrics: Metrics::disabled(),
            pool: None,
            engine: None,
        }
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: GridBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a metrics handle; every cell is timed under
    /// [`Phase::Cell`] on it.
    #[must_use]
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Uses `pool` for the [`GridBackend::Pooled`] backend instead of an
    /// internal throwaway pool, so the caller can inspect
    /// [`WorkspacePool::total_solves`] afterwards.
    #[must_use]
    pub fn pool(mut self, pool: &'a WorkspacePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Ships cells to `engine` (and forces the backend to
    /// [`GridBackend::Engine`]) instead of building a private engine, so
    /// sweeps share shards with live batch traffic. The `workers` field of
    /// the backend is ignored — the attached engine already has its own.
    #[must_use]
    pub fn engine(mut self, engine: &'a ssg_engine::Engine) -> Self {
        self.backend = GridBackend::Engine {
            workers: engine.workers(),
        };
        self.engine = Some(engine);
        self
    }

    /// Runs `f` over every `(param, seed)` pair on the configured backend
    /// and returns the results grouped by parameter (input order, seeds in
    /// order).
    ///
    /// # Panics
    ///
    /// On the engine backend, panics if a cell's closure panicked on a
    /// worker (the engine isolates the panic; this harness refuses to
    /// return a grid with holes) or if the engine is shutting down.
    pub fn run<P, R, F>(&self, params: &[P], seeds: &[u64], f: F) -> Vec<Vec<R>>
    where
        P: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&P, u64, &mut Workspace) -> R + Send + Sync + 'static,
    {
        match self.backend {
            GridBackend::Sequential => grid_sequential_impl(params, seeds, &self.metrics, f),
            GridBackend::Pooled => match self.pool {
                Some(pool) => grid_pooled_impl(params, seeds, pool, &self.metrics, f),
                None => grid_pooled_impl(params, seeds, &WorkspacePool::new(), &self.metrics, f),
            },
            GridBackend::Engine { workers } => match self.engine {
                Some(engine) => grid_engine_impl(params, seeds, engine, &self.metrics, f),
                None => {
                    let engine = ssg_engine::Engine::builder()
                        .workers(workers)
                        .metrics(self.metrics.clone())
                        .build();
                    let grid = grid_engine_impl(params, seeds, &engine, &self.metrics, f);
                    engine.shutdown();
                    grid
                }
            },
        }
    }
}

/// [`GridBackend::Sequential`] body: in-order cells on one warm workspace.
/// Bounds stay relaxed (no `Sync`/`'static`) because nothing leaves the
/// calling thread.
fn grid_sequential_impl<P, R, F>(params: &[P], seeds: &[u64], metrics: &Metrics, f: F) -> Vec<Vec<R>>
where
    F: Fn(&P, u64, &mut Workspace) -> R,
{
    let mut ws = Workspace::new();
    params
        .iter()
        .map(|p| {
            seeds
                .iter()
                .map(|&s| {
                    let _cell = metrics.time(Phase::Cell);
                    f(p, s, &mut ws)
                })
                .collect()
        })
        .collect()
}

/// [`GridBackend::Pooled`] body: rayon-parallel cells over a shared
/// [`WorkspacePool`]. Steady state holds one workspace per concurrently
/// running worker; after the run, `pool.total_solves() - pool.len()` cells
/// were served warm. `f` must not depend on *which* pooled workspace it
/// receives (every solver in `ssg-labeling` resets its scratch per solve,
/// so this holds for free).
fn grid_pooled_impl<P, R, F>(
    params: &[P],
    seeds: &[u64],
    pool: &WorkspacePool,
    metrics: &Metrics,
    f: F,
) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, u64, &mut Workspace) -> R + Sync,
{
    params
        .par_iter()
        .map(|p| {
            seeds
                .par_iter()
                .map(|&s| {
                    pool.with(|ws| {
                        let _cell = metrics.time(Phase::Cell);
                        f(p, s, ws)
                    })
                })
                .collect()
        })
        .collect()
}

/// [`GridBackend::Engine`] body: every `(param, seed)` cell is shipped to
/// the engine's sharded workers via
/// [`Engine::execute`](ssg_engine::Engine::execute). Requires `'static`
/// captures (cells outlive the submitting stack frame), so parameters are
/// cloned into their cells.
fn grid_engine_impl<P, R, F>(
    params: &[P],
    seeds: &[u64],
    engine: &ssg_engine::Engine,
    metrics: &Metrics,
    f: F,
) -> Vec<Vec<R>>
where
    P: Clone + Send + 'static,
    R: Send + 'static,
    F: Fn(&P, u64, &mut Workspace) -> R + Send + Sync + 'static,
{
    let f = std::sync::Arc::new(f);
    let (tx, rx) = std::sync::mpsc::channel();
    for (pi, p) in params.iter().enumerate() {
        for (si, &s) in seeds.iter().enumerate() {
            let f = std::sync::Arc::clone(&f);
            let p = p.clone();
            let tx = tx.clone();
            let cell_metrics = metrics.clone();
            engine
                .execute(move |ws| {
                    let _cell = cell_metrics.time(Phase::Cell);
                    let _ = tx.send((pi, si, f(&p, s, ws)));
                })
                .expect("engine refused a sweep cell (shutting down?)");
        }
    }
    drop(tx);
    let mut grid: Vec<Vec<Option<R>>> = params
        .iter()
        .map(|_| seeds.iter().map(|_| None).collect())
        .collect();
    // The iterator ends once every cell has reported or dropped its sender
    // (a panicked cell drops without sending — detected below).
    for (pi, si, r) in rx {
        grid[pi][si] = Some(r);
    }
    grid.into_iter()
        .enumerate()
        .map(|(pi, row)| {
            row.into_iter()
                .enumerate()
                .map(|(si, cell)| {
                    cell.unwrap_or_else(|| {
                        panic!("sweep cell (param {pi}, seed index {si}) panicked on a worker")
                    })
                })
                .collect()
        })
        .collect()
}

/// One row of an experiment table: a parameter label plus named metric
/// summaries.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Human-readable parameter cell (e.g. `"n=4096 t=2"`).
    pub params: String,
    /// `(metric name, summary)` pairs, in column order.
    pub metrics: Vec<(String, Summary)>,
}

impl ExperimentRow {
    /// Builds a row from raw metric samples.
    pub fn new(params: impl Into<String>, metrics: &[(&str, &[f64])]) -> Self {
        ExperimentRow {
            params: params.into(),
            metrics: metrics
                .iter()
                .map(|(name, vals)| (name.to_string(), Summary::of(vals)))
                .collect(),
        }
    }
}

/// Writes rows as CSV (params column + `<metric>_mean`, `<metric>_min`,
/// `<metric>_max` columns) to any writer.
pub fn write_csv<W: Write>(mut w: W, rows: &[ExperimentRow]) -> std::io::Result<()> {
    let Some(first) = rows.first() else {
        return Ok(());
    };
    write!(w, "params")?;
    for (name, _) in &first.metrics {
        write!(w, ",{name}_mean,{name}_min,{name}_max")?;
    }
    writeln!(w)?;
    for row in rows {
        write!(w, "{}", row.params)?;
        for (_, s) in &row.metrics {
            write!(w, ",{:.4},{:.4},{:.4}", s.mean, s.min, s.max)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Renders rows as a GitHub-flavored markdown table (mean ± stddev).
pub fn to_markdown(rows: &[ExperimentRow]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut out = String::from("| params |");
    for (name, _) in &first.metrics {
        out.push_str(&format!(" {name} |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &first.metrics {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("| {} |", row.params));
        for (_, s) in &row.metrics {
            if s.stddev > 1e-9 {
                out.push_str(&format!(" {:.2} ± {:.2} |", s.mean, s.stddev));
            } else {
                out.push_str(&format!(" {:.2} |", s.mean));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }

    /// The grid cell every parity test below solves: corridor network of
    /// `n` transceivers, L(1,1) span via the interval solver.
    fn corridor_span(&n: &usize, s: u64, ws: &mut Workspace) -> u32 {
        use crate::scenario::CorridorNetwork;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use ssg_labeling::solver::{default_registry, Problem};
        use ssg_labeling::SeparationVector;

        let mut rng = StdRng::seed_from_u64(s);
        let net = CorridorNetwork::generate(n, 1.0, 1.0, 4.0, &mut rng);
        let sep = SeparationVector::all_ones(2);
        let lab = default_registry().solve(
            "interval_l1",
            &Problem::interval(net.representation(), &sep),
            ws,
            &Metrics::disabled(),
        );
        let span = lab.span();
        ws.recycle(lab);
        span
    }

    #[test]
    fn backend_tokens_round_trip() {
        for backend in [
            GridBackend::Sequential,
            GridBackend::Pooled,
            GridBackend::Engine { workers: 3 },
        ] {
            assert_eq!(GridBackend::parse(&backend.render()), Some(backend));
        }
        assert_eq!(GridBackend::parse("engine:0"), None);
        assert_eq!(GridBackend::parse("engine:x"), None);
        assert_eq!(GridBackend::parse("threads"), None);
    }

    #[test]
    fn pooled_backend_matches_sequential() {
        let params = vec![1u64, 2, 3];
        let seeds = vec![10u64, 20];
        let f = |p: &u64, s: u64, _ws: &mut Workspace| p * 1000 + s;
        let par = GridRunner::new().run(&params, &seeds, f);
        let seq = GridRunner::new()
            .backend(GridBackend::Sequential)
            .run(&params, &seeds, f);
        assert_eq!(par, seq);
        assert_eq!(par[2][1], 3020);
    }

    #[test]
    fn instrumented_grid_times_every_cell() {
        let params = vec![1u64, 2];
        let seeds = vec![10u64, 20, 30];
        let f = |p: &u64, s: u64, _ws: &mut Workspace| p * 1000 + s;
        let metrics = Metrics::enabled();
        let timed = GridRunner::new()
            .metrics(metrics.clone())
            .run(&params, &seeds, f);
        assert_eq!(
            timed,
            GridRunner::new()
                .backend(GridBackend::Sequential)
                .run(&params, &seeds, f)
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.phase_count(Phase::Cell), 6);
        // Disabled handle (the default): same results, nothing recorded.
        let off = Metrics::disabled();
        GridRunner::new()
            .metrics(off.clone())
            .run(&params, &seeds, f);
        assert_eq!(off.snapshot().phase_count(Phase::Cell), 0);
    }

    #[test]
    fn pooled_grid_matches_sequential_and_reuses_workspaces() {
        let params = vec![20usize, 35];
        let seeds = vec![7u64, 8, 9];
        let pool = WorkspacePool::new();
        let metrics = Metrics::enabled();
        let pooled = GridRunner::new()
            .pool(&pool)
            .metrics(metrics.clone())
            .run(&params, &seeds, corridor_span);
        let plain = GridRunner::new()
            .backend(GridBackend::Sequential)
            .run(&params, &seeds, corridor_span);
        assert_eq!(pooled, plain);
        assert_eq!(metrics.snapshot().phase_count(Phase::Cell), 6);
        // All six cells were served by the pool; the workspaces it retired
        // account for every solve, and any worker that handled more than
        // one cell did so on a warm arena.
        assert!(!pool.is_empty());
        assert_eq!(pool.total_solves(), 6);
    }

    #[test]
    fn engine_backend_matches_sequential() {
        let params = vec![18usize, 28];
        let seeds = vec![3u64, 4, 5];
        let plain = GridRunner::new()
            .backend(GridBackend::Sequential)
            .run(&params, &seeds, corridor_span);
        // Internally built engine, selected by backend token.
        let built = GridRunner::new()
            .backend(GridBackend::Engine { workers: 2 })
            .run(&params, &seeds, corridor_span);
        assert_eq!(built, plain);
        // Caller-owned engine: sweeps share its shards and show up in its
        // stats.
        let engine = ssg_engine::Engine::builder().workers(2).build();
        let metrics = Metrics::enabled();
        let via_engine = GridRunner::new()
            .engine(&engine)
            .metrics(metrics.clone())
            .run(&params, &seeds, corridor_span);
        assert_eq!(via_engine, plain);
        assert_eq!(metrics.snapshot().phase_count(Phase::Cell), 6);
        // A closure job counts as completed only after it returns, which
        // can lag the result arriving on the channel — drain first.
        engine.drain();
        assert_eq!(engine.stats().completed, 6);
        engine.shutdown();
    }

    #[test]
    fn csv_and_markdown_render() {
        let rows = vec![
            ExperimentRow::new("n=10", &[("span", &[4.0, 6.0][..]), ("ratio", &[1.0][..])]),
            ExperimentRow::new("n=20", &[("span", &[8.0][..]), ("ratio", &[1.5][..])]),
        ];
        let mut buf = Vec::new();
        write_csv(&mut buf, &rows).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.starts_with("params,span_mean,span_min,span_max,ratio_mean"));
        assert!(csv.contains("n=10,5.0000,4.0000,6.0000"));
        let md = to_markdown(&rows);
        assert!(md.contains("| n=20 |"));
        assert!(md.contains("±"));
        assert!(write_csv(&mut Vec::new(), &[]).is_ok());
        assert_eq!(to_markdown(&[]), "");
    }
}
