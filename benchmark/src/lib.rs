//! # ssg-benchmark
//!
//! The repository benchmark. End-to-end runs drive the shipped binary,
//! `ssg serve --addr 127.0.0.1:0 --workers 2`, as a child process over
//! loopback (workloads `interval`, `tree`, `small`), or call the
//! incremental churn simulation in process (`churn`). A separate traced
//! run (`--trace 1`) times each layer by calling its public functions from
//! here. Run it through `run.sh`; see `README.md` for the workloads,
//! metrics and baseline.

#![forbid(unsafe_code)]

mod check;
mod child;
pub mod churn;
mod client;
pub mod layers;
pub mod report;
pub mod serve;
mod stats;
pub mod summary;
pub mod workload;
