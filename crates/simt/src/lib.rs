//! # maxwarp-simt — a trace-driven SIMT GPU simulator
//!
//! This crate is the hardware substrate for the `maxwarp` reproduction of
//! *"Accelerating CUDA Graph Algorithms at Maximum Warp"* (Hong, Kim,
//! Oguntebi, Olukotun — PPoPP 2011). The paper's phenomena are
//! architectural: intra-warp workload imbalance, SIMD-lane (ALU)
//! underutilization, memory-coalescing quality, and atomic serialization.
//! This simulator models exactly those mechanisms:
//!
//! * **Warp-synchronous functional execution** — kernels manipulate 32-wide
//!   [`Lanes`] registers under active [`Mask`]s; divergence is explicit
//!   mask narrowing, like the hardware's SIMT stack.
//! * **Instruction traces** — every operation records its active lane
//!   count, coalesced transaction count ([`coalesce`]), shared-memory bank
//!   conflicts ([`shared`]), and atomic replays.
//! * **A cycle-level timing engine** ([`timing`]) — SMs issue from their
//!   ready resident warps, lowest index first (latency hiding), a
//!   device-wide DRAM channel bounds transaction bandwidth, barriers
//!   rendezvous blocks, and blocks queue for occupancy-limited SM slots.
//! * **Dynamic work queues** — warp-sized tasks can be scheduled statically
//!   or pulled from an atomic work counter ([`TaskSchedule`]), the
//!   mechanism behind the paper's dynamic workload distribution.
//! * **Asynchronous launches** — [`Gpu::submit`] returns once the functional
//!   pass has run; the timing replay settles beside the next launch's
//!   functional pass, and [`Gpu::synchronize`] hands out the cycles.
//!   [`Gpu::launch`] is the synchronous form.
//!
//! ## Quick start
//!
//! ```
//! use maxwarp_simt::{BlockCtx, Gpu, GpuConfig, Mask};
//!
//! let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
//! let input = gpu.mem.alloc_from(&(0..256u32).collect::<Vec<_>>());
//! let output = gpu.mem.alloc::<u32>(256);
//!
//! let stats = gpu
//!     .launch(2, 128, &|b: &mut BlockCtx<'_>| {
//!         b.phase(|w| {
//!             let tid = w.global_thread_ids();
//!             let m = w.lt_scalar(Mask::FULL, &tid, 256);
//!             let v = w.ld(m, input, &tid);
//!             let sq = w.alu1(m, &v, |x| x * x);
//!             w.st(m, output, &tid, &sq);
//!         });
//!     })
//!     .unwrap();
//!
//! assert_eq!(gpu.mem.download(output)[9], 81);
//! println!(
//!     "cycles={} lane-utilization={:.2}",
//!     stats.cycles,
//!     stats.lane_utilization()
//! );
//! ```

pub mod analyze;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod device;
pub(crate) mod event;
pub mod fault;
pub mod kernel;
pub mod lanes;
pub mod mask;
pub mod mem;
pub(crate) mod obs;
pub mod profile;
pub mod sanitize;
pub mod shared;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod warp;

pub use analyze::{Analyzer, FindKind, Finding};
pub use cache::CacheModel;
pub use config::GpuConfig;
pub use device::{
    cores, fan_out, Gpu, LaunchError, SimulatingThread, Submitted, TaskSchedule, Ticket,
};
pub use fault::{
    AddressSpace, ChaosState, FaultConfig, SimtError, WatchdogConfig, WatchdogKind, XorShift64,
};
pub use kernel::{BlockCtx, Kernel};
pub use lanes::{DeviceWord, Lanes, LOG_WARP_SIZE, WARP_SIZE};
pub use mask::Mask;
pub use mem::{DevPtr, DeviceMem};
pub use profile::{LaunchProfile, ProfileReport, Profiler, SiteReport};
pub use sanitize::{DiagKind, Diagnostic, Sanitizer, Severity};
pub use shared::{SharedMem, SharedPtr};
pub use stats::KernelStats;
pub use timing::{StallBreakdown, TimingError, TimingInput, TimingReport, WarpSpan};
pub use trace::{BlockTrace, KernelTrace, Op, WarpTrace};
pub use warp::{AtomicArith, WarpCtx, WarpId};
