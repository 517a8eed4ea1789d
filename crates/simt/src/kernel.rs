//! Block-level kernel execution.
//!
//! A [`Kernel`] describes what one thread block does. The functional
//! executor calls [`Kernel::run_block`] once per launched block with a
//! [`BlockCtx`]; the kernel structures its work as *phases* — closures run
//! once per warp of the block — separated by [`BlockCtx::barrier`] calls.
//! This phase structure is how `__syncthreads` semantics are expressed: all
//! memory effects of a phase are visible after the barrier, and the timing
//! model makes the block's warps rendezvous there.

use crate::cache::CacheModel;
use crate::config::GpuConfig;
use crate::event::{Observers, OpSite};
use crate::fault::{LaunchFaults, SimtError};
use crate::lanes::{DeviceWord, WARP_SIZE};
use crate::mem::DeviceMem;
use crate::shared::{SharedMem, SharedPtr};
use crate::trace::{BlockTrace, Op, WarpTrace};
use crate::warp::{WarpCtx, WarpId};
use std::panic::Location;

/// A device kernel: the code one thread block runs.
pub trait Kernel {
    /// Execute one block. Called once per block in the launch grid.
    fn run_block(&self, block: &mut BlockCtx<'_>);
}

impl<F: Fn(&mut BlockCtx<'_>)> Kernel for F {
    fn run_block(&self, block: &mut BlockCtx<'_>) {
        self(block)
    }
}

/// Execution context of one thread block.
pub struct BlockCtx<'a> {
    mem: &'a mut DeviceMem,
    cache: &'a mut CacheModel,
    shared: SharedMem,
    trace: BlockTrace,
    cfg: &'a GpuConfig,
    /// The block's coordinates, as the id of its warp 0.
    id: WarpId,
    /// This block's handle on the launch's observers (it carries the
    /// block's barrier epoch); `None` when all are off.
    obs: Option<Observers<'a>>,
    faults: Option<&'a mut LaunchFaults>,
}

impl<'a> BlockCtx<'a> {
    /// Context for the block `id.block` of a `id.num_blocks` ×
    /// `id.warps_per_block` grid.
    pub(crate) fn new(
        mem: &'a mut DeviceMem,
        cache: &'a mut CacheModel,
        cfg: &'a GpuConfig,
        id: WarpId,
        obs: Option<Observers<'a>>,
        faults: Option<&'a mut LaunchFaults>,
    ) -> Self {
        BlockCtx {
            mem,
            cache,
            shared: SharedMem::new(cfg.shared_words_per_sm),
            trace: BlockTrace {
                warps: vec![WarpTrace::new(); id.warps_per_block as usize],
            },
            cfg,
            id,
            obs,
            faults,
        }
    }

    /// This block's index in the grid.
    #[inline]
    pub fn block_id(&self) -> u32 {
        self.id.block
    }

    /// Number of blocks in the grid.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.id.num_blocks
    }

    /// Warps per block.
    #[inline]
    pub fn warps_per_block(&self) -> u32 {
        self.id.warps_per_block
    }

    /// Threads per block.
    #[inline]
    pub fn threads_per_block(&self) -> u32 {
        self.id.warps_per_block * WARP_SIZE as u32
    }

    /// Allocate zero-initialized block shared memory. Must be called outside
    /// phases (at block scope), like a `__shared__` declaration.
    ///
    /// Overflowing the block's shared-memory budget records a
    /// [`SimtError::SharedMemoryOverflow`] fault (failing the launch) and
    /// hands back a zero-length placeholder so the kernel can keep executing;
    /// outside a launch it panics, as CUDA would fail the launch outright.
    #[track_caller]
    pub fn shared_alloc<T: DeviceWord>(&mut self, len: u32) -> SharedPtr<T> {
        let site = Location::caller();
        match self.shared.try_alloc(len) {
            Ok(p) => p,
            Err((requested_words, used_words, capacity_words)) => {
                let err = SimtError::SharedMemoryOverflow {
                    requested_words,
                    used_words,
                    capacity_words,
                    block: self.id.block,
                    site,
                };
                match &mut self.faults {
                    Some(faults) => {
                        faults.record(err);
                        SharedMem::null_ptr()
                    }
                    None => panic!("{err}"),
                }
            }
        }
    }

    /// Run a phase: `f` is invoked once per warp of the block, in warp-id
    /// order. Within a phase, warps may interleave arbitrarily on real
    /// hardware — kernels must not rely on cross-warp ordering inside a
    /// phase; cross-warp communication goes through a [`barrier`].
    ///
    /// [`barrier`]: BlockCtx::barrier
    pub fn phase(&mut self, mut f: impl FnMut(&mut WarpCtx<'_>)) {
        for w in 0..self.id.warps_per_block {
            let mut ctx = WarpCtx::new_instrumented(
                self.mem,
                &mut self.shared,
                &mut self.trace.warps[w as usize],
                self.cache,
                self.cfg,
                WarpId {
                    warp_in_block: w,
                    ..self.id
                },
                self.obs.as_mut().map(Observers::reborrow),
                self.faults.as_deref_mut(),
            );
            f(&mut ctx);
        }
    }

    /// `__syncthreads()`: every warp of the block rendezvouses here.
    #[track_caller]
    pub fn barrier(&mut self) {
        for w in &mut self.trace.warps {
            w.ops.push(Op::Bar);
        }
        if let Some(obs) = &mut self.obs {
            obs.barrier(self.id, OpSite::caller("barrier"));
        }
    }

    /// Shared-memory words this block has allocated so far.
    pub fn shared_words_used(&self) -> u32 {
        self.shared.used_words()
    }

    pub(crate) fn into_trace(self) -> (BlockTrace, u32) {
        let used = self.shared.used_words();
        (self.trace, used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;
    use crate::mask::Mask;

    /// A bare (unobserved, panic-on-fault) context for block `block` of a
    /// `num_blocks` × `warps_per_block` grid.
    fn block_ctx<'a>(
        mem: &'a mut DeviceMem,
        cache: &'a mut CacheModel,
        cfg: &'a GpuConfig,
        (block, num_blocks, warps_per_block): (u32, u32, u32),
    ) -> BlockCtx<'a> {
        let id = WarpId {
            block,
            warp_in_block: 0,
            warps_per_block,
            num_blocks,
        };
        BlockCtx::new(mem, cache, cfg, id, None, None)
    }

    #[test]
    fn phase_runs_every_warp_in_order() {
        let mut mem = DeviceMem::new();
        let cfg = GpuConfig::tiny_test();
        let mut cache = CacheModel::new(0, 1, 128);
        let mut block = block_ctx(&mut mem, &mut cache, &cfg, (3, 5, 4));
        let mut seen = Vec::new();
        block.phase(|w| seen.push((w.id().block, w.id().warp_in_block)));
        assert_eq!(seen, vec![(3, 0), (3, 1), (3, 2), (3, 3)]);
    }

    #[test]
    fn barrier_recorded_in_every_warp() {
        let mut mem = DeviceMem::new();
        let cfg = GpuConfig::tiny_test();
        let mut cache = CacheModel::new(0, 1, 128);
        let mut block = block_ctx(&mut mem, &mut cache, &cfg, (0, 1, 2));
        block.phase(|w| w.alu_nop(Mask::FULL));
        block.barrier();
        let (trace, _) = block.into_trace();
        for w in &trace.warps {
            assert_eq!(w.ops.last(), Some(&Op::Bar));
            assert_eq!(w.ops.len(), 2);
        }
    }

    #[test]
    fn shared_memory_is_per_block_and_visible_across_phases() {
        let mut mem = DeviceMem::new();
        let cfg = GpuConfig::tiny_test();
        let mut cache = CacheModel::new(0, 1, 128);
        let mut block = block_ctx(&mut mem, &mut cache, &cfg, (0, 1, 2));
        let sp = block.shared_alloc::<u32>(64);
        block.phase(|w| {
            if w.id().warp_in_block == 0 {
                w.sh_st(Mask::FULL, sp, &Lanes::lane_ids(), &Lanes::splat(7u32));
            }
        });
        block.barrier();
        let mut got = 0;
        block.phase(|w| {
            if w.id().warp_in_block == 1 {
                got = w.sh_ld(Mask::lane(0), sp, &Lanes::splat(5u32)).get(0);
            }
        });
        assert_eq!(got, 7);
    }

    #[test]
    fn closure_kernels_implement_kernel() {
        let k = |b: &mut BlockCtx<'_>| {
            b.phase(|w| w.alu_nop(Mask::FULL));
        };
        let mut mem = DeviceMem::new();
        let cfg = GpuConfig::tiny_test();
        let mut cache = CacheModel::new(0, 1, 128);
        let mut block = block_ctx(&mut mem, &mut cache, &cfg, (0, 1, 1));
        k.run_block(&mut block);
        let (trace, used) = block.into_trace();
        assert_eq!(trace.warps[0].ops.len(), 1);
        assert_eq!(used, 0);
    }

    #[test]
    fn global_memory_effects_persist_across_phases() {
        let mut mem = DeviceMem::new();
        let p = mem.alloc::<u32>(64);
        let cfg = GpuConfig::tiny_test();
        let mut cache = CacheModel::new(0, 1, 128);
        let mut block = block_ctx(&mut mem, &mut cache, &cfg, (0, 1, 2));
        block.phase(|w| {
            let ids = w.global_thread_ids();
            w.st(Mask::FULL, p, &ids, &ids);
        });
        let (_, _) = block.into_trace();
        let host = mem.download(p);
        assert_eq!(host[63], 63);
        assert_eq!(host[0], 0);
        assert_eq!(host[33], 33);
    }
}
