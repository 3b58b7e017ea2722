//! # ssg-netsim
//!
//! Synthetic wireless-network workloads and the parallel experiment harness
//! for the strongly-simplicial channel-assignment library.
//!
//! The paper (IPPS 2003) is purely theoretical; its motivation — assigning
//! channels to stations so that nearby stations get well-separated
//! frequencies — is reproduced here as three scenario families whose
//! conflict graphs fall exactly in the paper's graph classes (corridor →
//! interval, vehicular platoon → unit interval, backbone → tree), plus a
//! rayon-based sweep harness that regenerates every experiment table in
//! EXPERIMENTS.md from seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod incremental;
pub mod scenario;
pub mod sweep;

pub use dynamics::{simulate_corridor, ChurnReport, DynamicsConfig, Policy};
pub use incremental::simulate_corridor_incremental_with;
pub use scenario::{AssignmentReport, BackboneNetwork, CorridorNetwork, Station, VehicularNetwork};
pub use sweep::{to_markdown, write_csv, ExperimentRow, GridBackend, GridRunner, Summary};
