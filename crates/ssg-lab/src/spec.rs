//! The scenario-spec file format and its grid expansion.
//!
//! A spec is a line-based text file: a `name = <slug>` header followed by
//! one or more `[grid]` sections, each declaring axis value lists. The
//! cross product of every grid's axes — in file order, axes nested
//! class → n → sep → solver → backend → churn — is the cell
//! list of the run. Blank lines and `#` comments are skipped.
//!
//! ```text
//! name = demo
//!
//! [grid]
//! class   = corridor platoon
//! n       = 48 96
//! sep     = 1,1 4,1
//! solver  = auto
//! backend = sequential engine:2
//! ```
//!
//! Every cell is pinned by its *canonical key* (the rendered coordinates),
//! from which both its deterministic seed and its position in a baseline
//! table derive; the whole spec is pinned by a fingerprint over the name
//! and every key, which is what makes interrupted runs safely resumable.

use ssg_error::SsgError;
use ssg_netsim::GridBackend;

/// Hard cap on the number of cells a single spec may expand to.
pub const MAX_CELLS: usize = 4096;

/// Churn-capable solver tokens (the `churn` axis simulates corridor
/// dynamics, whose policies differ from the static registry names).
pub const CHURN_SOLVERS: [&str; 4] = ["auto", "optimal_l1", "greedy", "incremental"];

/// FNV-1a 64-bit hash — the workspace-standard way the lab derives seeds
/// and fingerprints from canonical strings (stable across platforms and
/// releases, unlike `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scenario family of a cell — the graph classes the paper's algorithms
/// are exact on, via their `ssg-netsim` generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// [`CorridorNetwork`](ssg_netsim::CorridorNetwork) → interval graph.
    Corridor,
    /// [`VehicularNetwork`](ssg_netsim::VehicularNetwork) → unit interval.
    Platoon,
    /// [`BackboneNetwork`](ssg_netsim::BackboneNetwork) → tree.
    Backbone,
}

impl Class {
    /// Parses the spec token.
    pub fn parse(token: &str) -> Option<Class> {
        match token {
            "corridor" => Some(Class::Corridor),
            "platoon" => Some(Class::Platoon),
            "backbone" => Some(Class::Backbone),
            _ => None,
        }
    }

    /// The spec token.
    pub fn name(self) -> &'static str {
        match self {
            Class::Corridor => "corridor",
            Class::Platoon => "platoon",
            Class::Backbone => "backbone",
        }
    }
}

/// One fully expanded grid cell: a point in the scenario matrix.
///
/// `sep`, `backend`, and `churn` keep their *raw spec tokens* (validated
/// at parse time) so the canonical key — and therefore the seed and the
/// fingerprint — can never drift through re-rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Expansion index: position in the spec's cross product.
    pub id: usize,
    /// Scenario family.
    pub class: Class,
    /// Station count.
    pub n: usize,
    /// Separation vector token, e.g. `1,1` or `4,1`.
    pub sep: String,
    /// `auto` or a registry solver name (churn cells: a policy name).
    pub solver: String,
    /// Execution backend token (see [`GridBackend::parse`]).
    pub backend: String,
    /// `none`, or a per-epoch departure rate in `(0, 1)`.
    pub churn: String,
}

impl Cell {
    /// The canonical key: coordinates in a fixed order, the identity of
    /// this cell in row logs and baseline tables.
    pub fn key(&self) -> String {
        format!(
            "class={} n={} sep={} solver={} backend={} churn={}",
            self.class.name(),
            self.n,
            self.sep,
            self.solver,
            self.backend,
            self.churn
        )
    }

    /// Deterministic seed, derived from the canonical [`key`](Self::key)
    /// alone — stable under spec reordering, grid splitting, and
    /// resumption.
    pub fn seed(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// Whether this cell runs the dynamic-churn simulation instead of a
    /// one-shot static assignment.
    pub fn is_churn(&self) -> bool {
        self.churn != "none"
    }
}

/// The axis value lists of one `[grid]` section.
#[derive(Debug, Clone)]
struct GridAxes {
    class: Vec<Class>,
    n: Vec<usize>,
    sep: Vec<String>,
    solver: Vec<String>,
    backend: Vec<String>,
    churn: Vec<String>,
}

/// A parsed, validated scenario spec.
#[derive(Debug, Clone)]
pub struct LabSpec {
    /// The `name = ...` header.
    pub name: String,
    cells: Vec<Cell>,
    text: String,
}

fn perr(line: usize, msg: impl std::fmt::Display) -> SsgError {
    SsgError::parse("lab spec", format!("line {line}: {msg}"))
}

impl LabSpec {
    /// Parses and validates a spec, expanding its grids into cells.
    ///
    /// Rejects unknown keys and sections, duplicate keys, empty or
    /// malformed axis values, cross-axis combinations the lab cannot run
    /// (a churn axis outside sequential corridor `L(1,...,1)` cells),
    /// duplicate cells, and expansions beyond [`MAX_CELLS`].
    pub fn parse(text: &str) -> Result<LabSpec, SsgError> {
        let mut name: Option<String> = None;
        let mut grids: Vec<(usize, GridAxes)> = Vec::new();
        let mut current: Option<(usize, RawGrid)> = None;

        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let section = section
                    .strip_suffix(']')
                    .ok_or_else(|| perr(lineno, "unterminated section header"))?;
                if section != "grid" {
                    return Err(perr(lineno, format!("unknown section `[{section}]`")));
                }
                if let Some((at, raw)) = current.take() {
                    grids.push((at, raw.validate(at)?));
                }
                current = Some((lineno, RawGrid::default()));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| perr(lineno, format!("expected `key = values`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match &mut current {
                None => {
                    if key != "name" {
                        return Err(perr(
                            lineno,
                            format!("unknown key `{key}` before the first [grid] (only `name`)"),
                        ));
                    }
                    if name.is_some() {
                        return Err(perr(lineno, "duplicate `name`"));
                    }
                    if value.is_empty() || value.split_whitespace().count() != 1 {
                        return Err(perr(lineno, "`name` needs exactly one token"));
                    }
                    name = Some(value.to_string());
                }
                Some((_, raw)) => raw.set(lineno, key, value)?,
            }
        }
        if let Some((at, raw)) = current.take() {
            grids.push((at, raw.validate(at)?));
        }
        let name = name.ok_or_else(|| {
            SsgError::parse("lab spec", "missing `name` header (`name = <slug>`)".to_string())
        })?;
        if grids.is_empty() {
            return Err(SsgError::parse(
                "lab spec",
                "a spec needs at least one [grid] section".to_string(),
            ));
        }

        let mut cells = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (at, grid) in &grids {
            for &class in &grid.class {
                for &n in &grid.n {
                    for sep in &grid.sep {
                        for solver in &grid.solver {
                            for backend in &grid.backend {
                                for churn in &grid.churn {
                                    let cell = Cell {
                                        id: cells.len(),
                                        class,
                                        n,
                                        sep: sep.clone(),
                                        solver: solver.clone(),
                                        backend: backend.clone(),
                                        churn: churn.clone(),
                                    };
                                    if !seen.insert(cell.key()) {
                                        return Err(perr(
                                            *at,
                                            format!("duplicate cell `{}`", cell.key()),
                                        ));
                                    }
                                    if cells.len() >= MAX_CELLS {
                                        return Err(perr(
                                            *at,
                                            format!("spec expands past {MAX_CELLS} cells"),
                                        ));
                                    }
                                    cells.push(cell);
                                }
                            }
                        }
                    }
                }
            }
        }

        Ok(LabSpec {
            name,
            cells,
            text: text.to_string(),
        })
    }

    /// The expanded cells, in expansion (id) order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The verbatim spec text this value was parsed from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Fingerprint over the name and every cell key, rendered as 16 hex
    /// digits. Two specs with the same fingerprint expand to the same
    /// matrix, whatever their comments or formatting — the pin a run
    /// directory checks before resuming.
    pub fn fingerprint(&self) -> String {
        let mut canon = self.name.clone();
        for cell in &self.cells {
            canon.push('\n');
            canon.push_str(&cell.key());
        }
        format!("{:016x}", fnv1a64(canon.as_bytes()))
    }
}

/// Axis lists as written, before validation.
#[derive(Debug, Default)]
struct RawGrid {
    class: Option<(usize, String)>,
    n: Option<(usize, String)>,
    sep: Option<(usize, String)>,
    solver: Option<(usize, String)>,
    backend: Option<(usize, String)>,
    churn: Option<(usize, String)>,
}

impl RawGrid {
    fn set(&mut self, lineno: usize, key: &str, value: &str) -> Result<(), SsgError> {
        let slot = match key {
            "class" => &mut self.class,
            "n" => &mut self.n,
            "sep" => &mut self.sep,
            "solver" => &mut self.solver,
            "backend" => &mut self.backend,
            "churn" => &mut self.churn,
            other => {
                return Err(perr(
                    lineno,
                    format!(
                        "unknown key `{other}` (grid keys: class, n, sep, solver, backend, churn)"
                    ),
                ))
            }
        };
        if slot.is_some() {
            return Err(perr(lineno, format!("duplicate key `{key}` in [grid]")));
        }
        if value.is_empty() {
            return Err(perr(lineno, format!("`{key}` needs at least one value")));
        }
        *slot = Some((lineno, value.to_string()));
        Ok(())
    }

    fn validate(self, grid_line: usize) -> Result<GridAxes, SsgError> {
        let (class_line, class_raw) = self
            .class
            .ok_or_else(|| perr(grid_line, "[grid] is missing `class`"))?;
        let class = class_raw
            .split_whitespace()
            .map(|t| {
                Class::parse(t).ok_or_else(|| {
                    perr(
                        class_line,
                        format!("unknown class `{t}` (corridor|platoon|backbone)"),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        let (n_line, n_raw) = self
            .n
            .ok_or_else(|| perr(grid_line, "[grid] is missing `n`"))?;
        let n = n_raw
            .split_whitespace()
            .map(|t| match t.parse::<usize>() {
                Ok(v) if (2..=100_000).contains(&v) => Ok(v),
                _ => Err(perr(n_line, format!("`n` got `{t}`, expected 2..=100000"))),
            })
            .collect::<Result<Vec<_>, _>>()?;

        let sep = match self.sep {
            None => vec!["1,1".to_string()],
            Some((line, raw)) => raw
                .split_whitespace()
                .map(|t| {
                    let all_valid = !t.is_empty()
                        && t.split(',').all(|d| matches!(d.parse::<u32>(), Ok(v) if v >= 1));
                    if all_valid {
                        Ok(t.to_string())
                    } else {
                        Err(perr(
                            line,
                            format!("`sep` got `{t}`, expected d1[,d2,...] with every d >= 1"),
                        ))
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let solver = match self.solver {
            None => vec!["auto".to_string()],
            Some((_, raw)) => raw.split_whitespace().map(str::to_string).collect(),
        };
        let solver_line = grid_line;

        let backend = match self.backend {
            None => vec!["sequential".to_string()],
            Some((line, raw)) => raw
                .split_whitespace()
                .map(|t| {
                    GridBackend::parse(t).map(|_| t.to_string()).ok_or_else(|| {
                        perr(
                            line,
                            format!("`backend` got `{t}`, expected sequential|pooled|engine:K"),
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let (churn_line, churn) = match self.churn {
            None => (grid_line, vec!["none".to_string()]),
            Some((line, raw)) => {
                let values = raw
                    .split_whitespace()
                    .map(|t| {
                        let ok = t == "none"
                            || matches!(t.parse::<f64>(), Ok(r) if r > 0.0 && r < 1.0);
                        if ok {
                            Ok(t.to_string())
                        } else {
                            Err(perr(
                                line,
                                format!("`churn` got `{t}`, expected `none` or a rate in (0, 1)"),
                            ))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (line, values)
            }
        };

        // Cross-axis rules. The churn simulation is a sequential corridor
        // dynamics loop at L(1,...,1); a grid that mixes a churn rate into
        // other classes or backends would silently mean something else, so
        // it is rejected here instead.
        let has_rate = churn.iter().any(|c| c != "none");
        let has_static = churn.iter().any(|c| c == "none");
        if has_rate {
            if class != [Class::Corridor] {
                return Err(perr(churn_line, "a churn rate requires `class = corridor`"));
            }
            if backend != ["sequential"] {
                return Err(perr(
                    churn_line,
                    "a churn rate requires `backend = sequential`",
                ));
            }
            if let Some(bad) = sep.iter().find(|s| s.split(',').any(|d| d != "1")) {
                return Err(perr(
                    churn_line,
                    format!("a churn rate requires all-ones `sep`, got `{bad}`"),
                ));
            }
            if let Some(bad) = solver.iter().find(|s| !CHURN_SOLVERS.contains(&s.as_str())) {
                return Err(perr(
                    churn_line,
                    format!(
                        "solver `{bad}` cannot run under churn (one of {})",
                        CHURN_SOLVERS.join("|")
                    ),
                ));
            }
        }
        if has_static {
            let known = ssg_labeling::solver::default_registry().names();
            if let Some(bad) = solver
                .iter()
                .find(|s| s.as_str() != "auto" && !known.contains(&s.as_str()))
            {
                return Err(perr(
                    solver_line,
                    format!("unknown solver `{bad}` (auto or one of {known:?})"),
                ));
            }
        }

        Ok(GridAxes {
            class,
            n,
            sep,
            solver,
            backend,
            churn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
# exercise two grids
name = demo

[grid]
class   = corridor platoon
n       = 48 96
sep     = 1,1 4,1
solver  = auto
backend = sequential engine:2

[grid]
class  = corridor
n      = 64
solver = auto incremental
churn  = 0.05
";

    #[test]
    fn demo_expands_to_the_cross_product() {
        let spec = LabSpec::parse(DEMO).unwrap();
        assert_eq!(spec.name, "demo");
        // grid 1: 2 classes x 2 n x 2 sep x 1 solver x 2 backends = 16;
        // grid 2: 1 x 1 x 1 x 2 solvers x 1 x 1 churn = 2.
        assert_eq!(spec.cells().len(), 18);
        assert_eq!(spec.cells()[0].id, 0);
        assert_eq!(
            spec.cells()[0].key(),
            "class=corridor n=48 sep=1,1 solver=auto backend=sequential churn=none"
        );
        let churn_cells: Vec<_> = spec.cells().iter().filter(|c| c.is_churn()).collect();
        assert_eq!(churn_cells.len(), 2);
        assert!(churn_cells.iter().all(|c| c.backend == "sequential"));
    }

    #[test]
    fn seeds_depend_only_on_the_canonical_key() {
        let spec = LabSpec::parse(DEMO).unwrap();
        // Re-parsing yields identical seeds; the seed is a pure function
        // of the key, not of expansion order.
        let again = LabSpec::parse(DEMO).unwrap();
        for (a, b) in spec.cells().iter().zip(again.cells()) {
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.seed(), fnv1a64(a.key().as_bytes()));
        }
        // Distinct cells get distinct seeds (no collision in this matrix).
        let mut seeds: Vec<u64> = spec.cells().iter().map(Cell::seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), spec.cells().len());
    }

    #[test]
    fn fingerprint_ignores_formatting_but_not_the_matrix() {
        let spec = LabSpec::parse(DEMO).unwrap();
        let reformatted = DEMO.replace("# exercise two grids\n", "").replace("   ", " ");
        assert_eq!(
            spec.fingerprint(),
            LabSpec::parse(&reformatted).unwrap().fingerprint()
        );
        let grown = DEMO.replace("n       = 48 96", "n       = 48 96 128");
        assert_ne!(
            spec.fingerprint(),
            LabSpec::parse(&grown).unwrap().fingerprint()
        );
        assert_eq!(spec.fingerprint().len(), 16);
    }

    fn parse_err(text: &str) -> String {
        LabSpec::parse(text).unwrap_err().to_string()
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let err = parse_err("name = x\n[grid]\nclass = corridor\nn = 8\nthreads = 4\n");
        assert!(err.contains("unknown key `threads`"), "{err}");
        let err = parse_err("name = x\n[matrix]\n");
        assert!(err.contains("unknown section `[matrix]`"), "{err}");
        let err = parse_err("owner = x\n");
        assert!(err.contains("unknown key `owner`"), "{err}");
    }

    #[test]
    fn malformed_grids_are_rejected() {
        // Missing name / missing grid / missing required axes.
        assert!(parse_err("[grid]\nclass = corridor\nn = 8\n").contains("missing `name`"));
        assert!(parse_err("name = x\n").contains("at least one [grid]"));
        assert!(parse_err("name = x\n[grid]\nn = 8\n").contains("missing `class`"));
        assert!(parse_err("name = x\n[grid]\nclass = corridor\n").contains("missing `n`"));
        // Bad axis values.
        assert!(parse_err("name = x\n[grid]\nclass = mesh\nn = 8\n").contains("unknown class"));
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nn = 1\n").contains("expected 2..="));
        assert!(
            parse_err("name = x\n[grid]\nclass = corridor\nn = 8\nsep = 0,1\n").contains("`sep`")
        );
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nn = 8\nbackend = engine:0\n")
            .contains("`backend`"));
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nn = 8\nchurn = 1.5\n")
            .contains("`churn`"));
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nn = 8\nsolver = nope\n")
            .contains("unknown solver `nope`"));
        // Duplicates.
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nclass = platoon\nn = 8\n")
            .contains("duplicate key `class`"));
        assert!(parse_err("name = x\n[grid]\nclass = corridor\nn = 8\n[grid]\nclass = corridor\nn = 8\n")
            .contains("duplicate cell"));
        // Not `key = value` at all.
        assert!(parse_err("name = x\n[grid]\nclass corridor\n").contains("expected `key = values`"));
    }

    #[test]
    fn churn_cross_axis_rules() {
        let base = "name = x\n[grid]\nclass = CLASS\nn = 8\nsolver = SOLVER\nbackend = BACKEND\nchurn = 0.1\n";
        let ok = base
            .replace("CLASS", "corridor")
            .replace("SOLVER", "greedy")
            .replace("BACKEND", "sequential");
        assert!(LabSpec::parse(&ok).is_ok());
        let err = parse_err(
            &base
                .replace("CLASS", "platoon")
                .replace("SOLVER", "greedy")
                .replace("BACKEND", "sequential"),
        );
        assert!(err.contains("requires `class = corridor`"), "{err}");
        let err = parse_err(
            &base
                .replace("CLASS", "corridor")
                .replace("SOLVER", "greedy")
                .replace("BACKEND", "engine:2"),
        );
        assert!(err.contains("requires `backend = sequential`"), "{err}");
        let err = parse_err(
            &base
                .replace("CLASS", "corridor")
                .replace("SOLVER", "interval_l1")
                .replace("BACKEND", "sequential"),
        );
        assert!(err.contains("cannot run under churn"), "{err}");
        // Mixing churn rates with a non-all-ones separation is rejected.
        let err = parse_err(
            "name = x\n[grid]\nclass = corridor\nn = 8\nsep = 2,1\nchurn = 0.1\n",
        );
        assert!(err.contains("all-ones `sep`"), "{err}");
    }

    #[test]
    fn retired_palette_key_is_a_typed_parse_error_with_its_line() {
        // Run directories written while the lab had a `palette` axis pin
        // their spec text; resuming one must fail cleanly, not panic.
        let old = "name = p\n[grid]\nclass = corridor\nn = 32\npalette = list\n";
        match LabSpec::parse(old) {
            Err(SsgError::Parse { what, message }) => {
                assert_eq!(what, "lab spec");
                assert!(
                    message.starts_with("line 5: unknown key `palette`"),
                    "{message}"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn cell_cap_is_enforced() {
        // 3 classes x 40 n values x 5 seps x 9 solvers -> way past 4096.
        let ns: Vec<String> = (2..42).map(|n| n.to_string()).collect();
        let text = format!(
            "name = big\n[grid]\nclass = corridor platoon backbone\nn = {}\nsep = 1,1 1,1,1 2,1 3,1 4,1\nsolver = auto greedy_bfs interval_l1 interval_approx_delta1 tree_l1 tree_approx_delta1 forest_l1 lemma2_peel exact_bb\n",
            ns.join(" ")
        );
        let err = LabSpec::parse(&text).unwrap_err().to_string();
        assert!(err.contains("expands past 4096 cells"), "{err}");
    }
}
