//! Resumable run directories: the append-only row log, the spec pin, and
//! the run loop that executes whatever cells are still missing.
//!
//! A run directory holds three kinds of files:
//!
//! * `spec.lab` — the verbatim spec the run was started from. Re-running
//!   checks its fingerprint, so a directory can never silently mix rows
//!   from two different matrices.
//! * `cells.jsonl` — one compact `ssg-lab/v1` JSON row per completed
//!   cell, appended and flushed as each cell finishes. Resuming re-reads
//!   this log and skips every cell that already has a row; a torn final
//!   line (the process died mid-write) is discarded and the cell re-run.
//! * `cell-<id>.trace.json` — an `ssg-trace/v1` flight-recorder dump,
//!   written next to the row for every failing cell and for every cell
//!   that regressed against the baseline, paired with a
//!   `cell-<id>.profile.json` self-time tree (`ssg-profile/v1`) so the
//!   regression comes pre-attributed to an engine phase.

use crate::cell::{execute_cell, CellOutcome};
use crate::spec::{Cell, LabSpec};
use crate::table::{build_table, compare_tables, Drift, LAB_ENVELOPE};
use ssg_error::SsgError;
use ssg_telemetry::json::Json;
use ssg_telemetry::{Profile, TraceDump};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File names inside a run directory.
pub const SPEC_FILE: &str = "spec.lab";
/// See [`SPEC_FILE`].
pub const ROWS_FILE: &str = "cells.jsonl";

/// What a [`run_lab`] invocation did.
#[derive(Debug)]
pub struct LabSummary {
    /// Spec name.
    pub name: String,
    /// Spec fingerprint.
    pub fingerprint: String,
    /// Cells in the matrix.
    pub total: usize,
    /// Cells executed by *this* invocation.
    pub ran: usize,
    /// Cells skipped because a previous invocation already logged them.
    pub skipped: usize,
    /// Ids of cells whose row has `ok = false`.
    pub failed: Vec<usize>,
    /// Baseline drifts (empty when no baseline was given or it was clean).
    pub drifts: Vec<Drift>,
    /// The deterministic result table.
    pub table: Json,
}

impl LabSummary {
    /// `true` iff every cell is ok and the baseline (if any) was clean.
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty() && self.drifts.is_empty()
    }

    /// One-line verdict: `lab demo: ran 4 cell(s), skipped 20 (of 24)`.
    pub fn verdict(&self) -> String {
        format!(
            "lab {}: ran {} cell(s), skipped {} (of {})",
            self.name, self.ran, self.skipped, self.total
        )
    }
}

/// The trace-dump path for a cell id.
pub fn trace_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("cell-{id}.trace.json"))
}

/// The self-time-profile path for a cell id.
pub fn profile_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("cell-{id}.profile.json"))
}

/// Reads and parses the spec a run directory is pinned to.
pub fn load_dir_spec(dir: &Path) -> Result<LabSpec, SsgError> {
    let path = dir.join(SPEC_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| SsgError::io(path.display().to_string(), &e))?;
    LabSpec::parse(&text)
}

/// Loads the completed rows of a run directory, keyed by cell id.
///
/// Validation is strict except at the tail: every row must carry the
/// `ssg-lab/v1` header, the spec's fingerprint, and the key the spec
/// expands that cell id to; a malformed *final* line is treated as a torn
/// write from an interrupted run and discarded (the cell simply re-runs),
/// while a malformed line anywhere else is corruption and errors out.
/// Duplicate rows for a cell keep the first, so a re-run after a crash
/// between write and bookkeeping cannot change the table.
pub fn load_rows(dir: &Path, spec: &LabSpec) -> Result<BTreeMap<usize, Json>, SsgError> {
    let path = dir.join(ROWS_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(SsgError::io(path.display().to_string(), &e)),
    };
    let what = path.display().to_string();
    let fingerprint = spec.fingerprint();
    let lines: Vec<&str> = text.lines().collect();
    let mut rows = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let last = i + 1 == lines.len();
        let row = match Json::parse(line) {
            Ok(row) => row,
            // A torn tail is expected after a kill; anything earlier is
            // real corruption.
            Err(_) if last => break,
            Err(e) => {
                return Err(SsgError::parse(
                    what,
                    format!("row {}: not valid JSON: {e}", i + 1),
                ))
            }
        };
        LAB_ENVELOPE
            .expect(&row)
            .map_err(|e| SsgError::parse(what.clone(), format!("row {}: {e}", i + 1)))?;
        let row_fp = row.get("fingerprint").and_then(Json::as_str).unwrap_or("");
        if row_fp != fingerprint {
            return Err(SsgError::parse(
                what,
                format!(
                    "row {}: fingerprint {row_fp} does not match spec {fingerprint}",
                    i + 1
                ),
            ));
        }
        let id = row
            .get("cell")
            .and_then(Json::as_u64)
            .ok_or_else(|| SsgError::parse(what.clone(), format!("row {}: no 'cell'", i + 1)))?
            as usize;
        let key = row.get("key").and_then(Json::as_str).unwrap_or("");
        match spec.cells().get(id) {
            Some(cell) if cell.key() == key => {}
            _ => {
                return Err(SsgError::parse(
                    what,
                    format!("row {}: cell {id} does not match the spec", i + 1),
                ));
            }
        }
        rows.entry(id).or_insert(row);
    }
    Ok(rows)
}

/// Renders a cell's outcome as its compact one-line `ssg-lab/v1` row.
pub fn row_json(fingerprint: &str, cell: &Cell, out: &CellOutcome) -> Json {
    let error = match &out.error {
        Some(e) => Json::Str(e.clone()),
        None => Json::Null,
    };
    LAB_ENVELOPE.stamp(vec![
        ("fingerprint".into(), Json::Str(fingerprint.to_string())),
        ("cell".into(), Json::U64(cell.id as u64)),
        ("key".into(), Json::Str(cell.key())),
        ("seed".into(), Json::U64(cell.seed())),
        ("ok".into(), Json::Bool(out.ok)),
        ("span".into(), Json::U64(out.span)),
        ("spans_match".into(), Json::Bool(out.spans_match)),
        ("error".into(), error),
        ("wall_ns".into(), Json::U64(out.wall_ns)),
        ("counters".into(), out.counters.clone()),
        ("quantiles".into(), out.quantiles.clone()),
    ])
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> SsgError + '_ {
    move |e| SsgError::io(path.display().to_string(), &e)
}

/// Drops a torn trailing line before appending resumes: a kill mid-write
/// leaves a partial row with no newline, and appending straight after it
/// would glue the next row onto the torn bytes.
fn truncate_torn_tail(path: &Path) -> Result<(), SsgError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io_err(path)(e)),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err(path))?;
    file.set_len(keep as u64).map_err(io_err(path))
}

/// Writes the raw trace dump and, when the dump parses as `ssg-trace/v1`,
/// the derived `ssg-profile/v1` self-time tree next to it — so a failing
/// or regressing cell ships with its own attribution, no CLI step needed.
fn write_trace(dir: &Path, id: usize, trace: &Json) -> Result<(), SsgError> {
    let path = trace_path(dir, id);
    std::fs::write(&path, trace.render_pretty()).map_err(io_err(&path))?;
    if let Ok(dump) = TraceDump::from_json(trace) {
        let path = profile_path(dir, id);
        let profile = Profile::from_dump(&dump).to_json().render_pretty();
        std::fs::write(&path, profile).map_err(io_err(&path))?;
    }
    Ok(())
}

/// Runs (or resumes) `spec` in `dir`: pins the spec, skips every cell the
/// row log already covers, executes the rest appending one flushed row
/// each, and builds the deterministic table. With a baseline, applies the
/// span-drift gate and writes a flight-recorder dump next to every
/// regressing row; failing cells always dump.
pub fn run_lab(
    dir: &Path,
    spec: &LabSpec,
    baseline: Option<&Json>,
) -> Result<LabSummary, SsgError> {
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let spec_path = dir.join(SPEC_FILE);
    if spec_path.exists() {
        let pinned = load_dir_spec(dir)?;
        if pinned.fingerprint() != spec.fingerprint() {
            return Err(SsgError::Spec(format!(
                "run directory {} is pinned to spec `{}` (fingerprint {}), not `{}` ({})",
                dir.display(),
                pinned.name,
                pinned.fingerprint(),
                spec.name,
                spec.fingerprint()
            )));
        }
    } else {
        std::fs::write(&spec_path, spec.text()).map_err(io_err(&spec_path))?;
    }

    let fingerprint = spec.fingerprint();
    let mut rows = load_rows(dir, spec)?;
    let skipped = rows.len();
    let todo: Vec<&Cell> = spec
        .cells()
        .iter()
        .filter(|c| !rows.contains_key(&c.id))
        .collect();

    let rows_path = dir.join(ROWS_FILE);
    truncate_torn_tail(&rows_path)?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&rows_path)
        .map_err(io_err(&rows_path))?;
    let mut ran = 0usize;
    let mut traces: BTreeMap<usize, Json> = BTreeMap::new();
    for cell in todo {
        let out = execute_cell(cell);
        let row = row_json(&fingerprint, cell, &out);
        // One write + flush per row: a kill leaves at most one torn line,
        // which `load_rows` discards on resume.
        log.write_all(format!("{}\n", row.render()).as_bytes())
            .map_err(io_err(&rows_path))?;
        log.flush().map_err(io_err(&rows_path))?;
        ran += 1;
        if !out.ok {
            write_trace(dir, cell.id, &out.trace)?;
        }
        traces.insert(cell.id, out.trace);
        rows.insert(cell.id, row);
    }

    let ordered: Vec<&Json> = rows.values().collect();
    let table = build_table(&spec.name, &fingerprint, &ordered)?;
    let failed: Vec<usize> = rows
        .iter()
        .filter(|(_, row)| !matches!(row.get("ok"), Some(Json::Bool(true))))
        .map(|(&id, _)| id)
        .collect();

    let mut drifts = Vec::new();
    if let Some(baseline) = baseline {
        drifts = compare_tables(&table, baseline)?;
        for drift in &drifts {
            let Some(id) = drift.cell else { continue };
            // A regressed cell that was resumed (not run now) is re-executed
            // once to capture a fresh recorder dump — cells are
            // deterministic, so the reproduced trace is the failing one.
            let trace = match traces.get(&id) {
                Some(trace) => trace.clone(),
                None => spec
                    .cells()
                    .get(id)
                    .map(|c| execute_cell(c).trace)
                    .unwrap_or(Json::Null),
            };
            write_trace(dir, id, &trace)?;
        }
    }

    Ok(LabSummary {
        name: spec.name.clone(),
        fingerprint,
        total: spec.cells().len(),
        ran,
        skipped,
        failed,
        drifts,
        table,
    })
}

/// Builds the table of an existing run directory without executing
/// anything: whatever cells have rows are reported, in id order.
pub fn report_dir(dir: &Path) -> Result<LabSummary, SsgError> {
    let spec = load_dir_spec(dir)?;
    let rows = load_rows(dir, &spec)?;
    let ordered: Vec<&Json> = rows.values().collect();
    let table = build_table(&spec.name, &spec.fingerprint(), &ordered)?;
    let failed: Vec<usize> = rows
        .iter()
        .filter(|(_, row)| !matches!(row.get("ok"), Some(Json::Bool(true))))
        .map(|(&id, _)| id)
        .collect();
    Ok(LabSummary {
        name: spec.name.clone(),
        fingerprint: spec.fingerprint(),
        total: spec.cells().len(),
        ran: 0,
        skipped: rows.len(),
        failed,
        drifts: Vec::new(),
        table,
    })
}
