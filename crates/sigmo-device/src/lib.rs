//! SYCL-flavoured data-parallel execution substrate.
//!
//! SIGMo's kernels are written in SYCL and dispatched to NVIDIA, AMD, and
//! Intel GPUs. No GPU is available here (and Rust GPU kernel crates are
//! immature), so this crate provides a faithful CPU stand-in that preserves
//! the programming model the paper's kernels are written against:
//!
//! * [`Queue::parallel_for`] — an ND-range of independent *work-items*
//!   (one GPU thread each), scheduled across CPU cores by rayon;
//! * [`Queue::parallel_for_work_group`] — *work-groups* that own local
//!   memory and iterate their work-items, matching the paper's join phase
//!   ("each data graph is assigned to a work-group; the work-items within
//!   that group iterate over all valid query graphs");
//! * [`KernelCounters`] — per-kernel instruction / byte / atomic counters
//!   accumulated by the kernels themselves, mirroring what Nsight/VTune/
//!   Rocprof measure;
//! * [`DeviceProfile`] + [`CostModel`] — an analytical model of three GPU
//!   platforms (V100S / MI100 / Max 1100) used to regenerate the paper's
//!   occupancy, roofline, and portability figures from the counters.
//!
//! The terminology follows the paper's §4 glossary: work-item = CUDA
//! thread, work-group = CUDA block, sub-group = warp/wavefront.

pub mod cost;
pub mod counters;
pub mod profile;
pub mod queue;
pub mod summary;

pub use cost::{CostModel, KernelCost, OccupancySample, RooflinePoint};
pub use counters::{CounterSnapshot, KernelCounters};
pub use profile::{DeviceKind, DeviceProfile};
pub use queue::{FusedLaunch, KernelRecord, LocalMem, Queue, StageClock, WorkGroupCtx};
pub use summary::{render_table, summarize, KernelSummary};
