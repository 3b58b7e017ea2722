//! # ssg-lab
//!
//! The declarative scenario lab of the `ssg` workspace: parameter-grid
//! specs over graph class × size × separation vector × solver × execution
//! backend × churn rate, expanded into deterministic cells and run into
//! a resumable on-disk row log with a committed-baseline regression gate.
//!
//! The lab is the standing driver that turns one-off bench invocations
//! into a matrix that runs on every change:
//!
//! * [`spec`] parses the zero-dependency spec format and expands grids
//!   into [`Cell`]s, each pinned by a canonical key from which its seed
//!   and the spec fingerprint derive.
//! * [`cell`] executes one cell — static assignments ride the shared
//!   [`ssg_netsim::GridRunner`] on the cell's backend, churn
//!   cells ride the corridor dynamics simulation — always under a tracing
//!   metrics handle so a flight-recorder dump is on hand.
//! * [`run`] owns the run directory: `spec.lab` pin, append-only
//!   `cells.jsonl` row log (one flushed `ssg-lab/v1` row per cell, which
//!   is what makes interrupted runs resumable), and `cell-<id>.trace.json`
//!   dumps next to failing or regressing rows.
//! * [`table`] projects the rows onto their deterministic columns — the
//!   byte-stable table that is committed as a baseline and diffed with
//!   the same span-drift discipline as `ssg bench --compare`.
//!
//! The CLI front ends are `ssg lab run|resume|report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod run;
pub mod spec;
pub mod table;

pub use cell::{execute_cell, CellOutcome, CHURN_EPOCHS};
pub use run::{
    load_dir_spec, profile_path, report_dir, run_lab, trace_path, LabSummary, ROWS_FILE, SPEC_FILE,
};
pub use spec::{fnv1a64, Cell, Class, LabSpec, MAX_CELLS};
pub use table::{compare_tables, render_drifts, render_table_text, Drift, LAB_ENVELOPE};
