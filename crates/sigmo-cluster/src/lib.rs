//! Multi-rank weak-scaling simulation (paper §5.4.2, Figures 13–14).
//!
//! The paper runs SIGMo on an HPC cluster of up to 256 NVIDIA A100 GPUs:
//! one MPI process per GPU, **static partitioning** of 500,000 molecules
//! per GPU, a fixed query set, and per-rank runtimes whose spread (CoV of
//! 4–8%) comes from workload differences between partitions. This crate
//! reproduces that protocol with *virtual ranks*: each rank runs the full
//! SIGMo pipeline on its partition and is timed by the analytical device
//! model (A100 profile), so 256 ranks fit on one workstation.
//!
//! Recovery lives in one place: [`ShardRouter`], the integer-tick dispatch
//! state machine (replica retry under a [`FaultPlan`] and [`RetryPolicy`],
//! work-stealing, degradation). It has two clients:
//! [`ClusterSim::run_with_faults`], which replays a batch run's shards
//! through it, and `sigmo-serve`'s sharded server.

pub mod dynamic;
pub mod fault;
pub mod partition;
pub mod router;
pub mod sim;
pub mod topology;

pub use dynamic::{run_dynamic, DynamicConfig, DynamicReport};
pub use fault::{splitmix64, FaultClusterReport, FaultPlan, RetryPolicy};
pub use partition::static_block_partition;
pub use router::{ShardConfig, ShardRouter, ShardStats, SliceDispatch};
pub use sim::{ClusterConfig, ClusterReport, ClusterSim, RankResult};
pub use topology::{replica_placement, run_on_topology, CommModel, Topology, TopologyReport};
