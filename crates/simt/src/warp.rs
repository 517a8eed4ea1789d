//! The warp execution context.
//!
//! [`WarpCtx`] is what a kernel's per-warp code runs against. Every method
//! that corresponds to a hardware instruction records one (or, for
//! multi-step primitives like scans, several) [`Op`](crate::trace::Op) in the
//! warp's trace, annotated with active lane count, coalesced transaction
//! count, bank conflicts, or atomic replays. The timing engine later replays
//! these traces.
//!
//! ## Programming model
//!
//! Kernels are written warp-synchronously: values are 32-wide
//! [`Lanes`](crate::lanes::Lanes) registers, control flow is expressed by
//! narrowing [`Mask`](crate::mask::Mask)s, and divergent loops are
//! `while mask.any() { ... }` — exactly the execution the SIMT hardware
//! performs. Costs are charged per *warp instruction*: a divergent loop that
//! runs 100 iterations for one lane and 2 for the rest charges ~100
//! iterations of instructions with mostly one active lane. That is the
//! workload-imbalance pathology the paper studies.
//!
//! ## Cost-model conventions
//!
//! * Register moves, constants, and host-visible scalars (`u32` locals in
//!   kernel code) are free — they model values the compiler keeps in
//!   registers or immediates.
//! * One `alu*` / comparison / ballot / shuffle call = one issued
//!   instruction with the given active mask.
//! * Reductions and scans cost `log2(width)` instructions, matching the
//!   shuffle-tree implementations used on real hardware.
//!
//! ## Observation
//!
//! Ops never call the sanitizer, analyzer or profiler. Each describes what
//! it did as an [`Event`](crate::event::Event) and hands it to the launch's
//! [`Observers`] through `emit`; with no observer on, that is one
//! predictable branch per op and no per-lane marshalling.

use crate::analyze::{AccessKind, Site, Space};
use crate::cache::CacheModel;
use crate::coalesce::{distinct_addrs, transactions};
use crate::config::GpuConfig;
use crate::event::{EventKind, LaneAccess, MemAccess, Observers, OpSite, Region};
use crate::fault::{AddressSpace, AtomicDropPlan, LaunchFaults, SimtError, WatchdogKind};
use crate::lanes::{DeviceWord, Lanes, WARP_SIZE};
use crate::mask::Mask;
use crate::mem::{DevPtr, DeviceMem};
use crate::shared::{bank_conflict_cost, SharedMem, SharedPtr};
use crate::trace::{Op, WarpTrace};
use std::panic::Location;

/// Identification of a warp within its launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpId {
    /// Block index in the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Warps per block at launch.
    pub warps_per_block: u32,
    /// Blocks in the grid.
    pub num_blocks: u32,
}

impl WarpId {
    /// Flat warp index across the whole grid.
    #[inline]
    pub fn global(&self) -> u32 {
        self.block * self.warps_per_block + self.warp_in_block
    }

    /// Total warps in the grid.
    #[inline]
    pub fn total_warps(&self) -> u32 {
        self.num_blocks * self.warps_per_block
    }
}

/// Per-warp execution context handed to kernel code.
pub struct WarpCtx<'a> {
    mem: &'a mut DeviceMem,
    shared: &'a mut SharedMem,
    trace: &'a mut WarpTrace,
    cache: &'a mut CacheModel,
    segment_bytes: u32,
    id: WarpId,
    /// Sanitizer / analyzer / profiler of this launch; `None` when all
    /// three are off.
    obs: Option<Observers<'a>>,
    /// Launch-wide fault state. `Some` on the `Gpu::launch` path: the first
    /// fault is recorded, the offending lanes are dropped, and the launch
    /// returns `Err`. `None` for bare (test-harness) contexts, which keep
    /// the historical panic-on-fault behavior.
    faults: Option<&'a mut LaunchFaults>,
    /// Per-warp functional instruction budget (`watchdog.max_instructions`).
    budget: Option<u64>,
}

impl<'a> WarpCtx<'a> {
    #[cfg(test)]
    pub(crate) fn new(
        mem: &'a mut DeviceMem,
        shared: &'a mut SharedMem,
        trace: &'a mut WarpTrace,
        cache: &'a mut CacheModel,
        cfg: &GpuConfig,
        id: WarpId,
    ) -> Self {
        Self::new_instrumented(mem, shared, trace, cache, cfg, id, None, None)
    }

    /// Append a raw op to the trace, bypassing the functional model — how
    /// tests hand-build traces the API cannot produce (a barrier inside a
    /// warp task).
    #[cfg(test)]
    pub(crate) fn push_op(&mut self, op: Op) {
        self.trace.ops.push(op);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_instrumented(
        mem: &'a mut DeviceMem,
        shared: &'a mut SharedMem,
        trace: &'a mut WarpTrace,
        cache: &'a mut CacheModel,
        cfg: &GpuConfig,
        id: WarpId,
        obs: Option<Observers<'a>>,
        faults: Option<&'a mut LaunchFaults>,
    ) -> Self {
        WarpCtx {
            mem,
            shared,
            trace,
            cache,
            segment_bytes: cfg.segment_bytes,
            id,
            obs,
            faults,
            budget: cfg.watchdog.max_instructions,
        }
    }

    // ---------------------------------------------------------------- ids

    /// This warp's identification.
    #[inline]
    pub fn id(&self) -> WarpId {
        self.id
    }

    /// Lane-id register `[0, 1, .., 31]`.
    #[inline]
    pub fn lane_ids(&self) -> Lanes<u32> {
        Lanes::lane_ids()
    }

    /// Global thread ids of this warp's lanes
    /// (`global_warp * 32 + lane`).
    #[inline]
    pub fn global_thread_ids(&self) -> Lanes<u32> {
        let base = self.id.global() * WARP_SIZE as u32;
        Lanes::from_fn(|l| base + l as u32)
    }

    /// Total threads in the grid.
    #[inline]
    pub fn total_threads(&self) -> u32 {
        self.id.total_warps() * WARP_SIZE as u32
    }

    // ---------------------------------------------------------------- ALU

    /// Record an ALU instruction with the given active mask and no computed
    /// result (control-flow overhead, address arithmetic the model can't
    /// see, etc.).
    #[inline]
    #[track_caller]
    pub fn alu_nop(&mut self, mask: Mask) {
        self.push_alu(mask);
    }

    /// One ALU instruction computing a unary per-lane function.
    #[inline]
    #[track_caller]
    pub fn alu1<T: Copy, U: Copy + Default>(
        &mut self,
        mask: Mask,
        a: &Lanes<T>,
        f: impl FnMut(T) -> U,
    ) -> Lanes<U> {
        self.push_alu(mask);
        a.map(f)
    }

    /// One ALU instruction computing a binary per-lane function.
    #[inline]
    #[track_caller]
    pub fn alu2<T: Copy, U: Copy, V: Copy + Default>(
        &mut self,
        mask: Mask,
        a: &Lanes<T>,
        b: &Lanes<U>,
        f: impl FnMut(T, U) -> V,
    ) -> Lanes<V> {
        self.push_alu(mask);
        a.zip(b, f)
    }

    /// One ALU instruction evaluating a per-lane predicate; the result mask
    /// is the set of active lanes satisfying it (a compare + predicate
    /// register write).
    #[inline]
    #[track_caller]
    pub fn alu_pred<T: Copy>(
        &mut self,
        mask: Mask,
        a: &Lanes<T>,
        pred: impl FnMut(T) -> bool,
    ) -> Mask {
        if self.tripped(Location::caller()) {
            return Mask::NONE;
        }
        self.push_alu(mask);
        a.test(mask, pred)
    }

    /// Lane-wise `a + b` (one instruction).
    #[inline]
    #[track_caller]
    pub fn add(&mut self, mask: Mask, a: &Lanes<u32>, b: &Lanes<u32>) -> Lanes<u32> {
        self.alu2(mask, a, b, |x, y| x.wrapping_add(y))
    }

    /// Lane-wise `a + c` for scalar `c` (one instruction).
    #[inline]
    #[track_caller]
    pub fn add_scalar(&mut self, mask: Mask, a: &Lanes<u32>, c: u32) -> Lanes<u32> {
        self.alu1(mask, a, |x| x.wrapping_add(c))
    }

    /// Active lanes where `a < b` (one compare instruction).
    #[inline]
    #[track_caller]
    pub fn lt(&mut self, mask: Mask, a: &Lanes<u32>, b: &Lanes<u32>) -> Mask {
        if self.tripped(Location::caller()) {
            return Mask::NONE;
        }
        self.push_alu(mask);
        Mask::from_fn(|l| mask.get(l) && a.get(l) < b.get(l))
    }

    /// Active lanes where `a < c` (one compare instruction).
    #[inline]
    #[track_caller]
    pub fn lt_scalar(&mut self, mask: Mask, a: &Lanes<u32>, c: u32) -> Mask {
        self.alu_pred(mask, a, |x| x < c)
    }

    /// Active lanes where `a == c` (one compare instruction).
    #[inline]
    #[track_caller]
    pub fn eq_scalar(&mut self, mask: Mask, a: &Lanes<u32>, c: u32) -> Mask {
        self.alu_pred(mask, a, |x| x == c)
    }

    // ------------------------------------------------------ warp intrinsics

    /// `__ballot`: one instruction; returns the predicate mask itself (the
    /// predicate evaluation is the caller's compare instruction).
    #[inline]
    #[track_caller]
    pub fn ballot(&mut self, mask: Mask, pred: Mask) -> Mask {
        let at = OpSite::caller("ballot");
        if self.tripped(at.site) {
            return Mask::NONE;
        }
        self.collective(at, mask, pred);
        pred & mask
    }

    /// `__any`: one instruction.
    #[inline]
    #[track_caller]
    pub fn any(&mut self, mask: Mask, pred: Mask) -> bool {
        let at = OpSite::caller("any");
        if self.tripped(at.site) {
            return false;
        }
        self.collective(at, mask, pred);
        (pred & mask).any()
    }

    /// `__all`: one instruction.
    #[inline]
    #[track_caller]
    pub fn all(&mut self, mask: Mask, pred: Mask) -> bool {
        let at = OpSite::caller("all");
        if self.tripped(at.site) {
            return false;
        }
        self.collective(at, mask, pred);
        (pred & mask) == mask
    }

    /// `__shfl`: each active lane reads the value of lane `src.get(lane)`
    /// (one instruction). An out-of-range source wraps modulo the warp
    /// width, matching CUDA's `srcLane % width` semantics. A source lane
    /// outside the active mask yields undefined data on hardware; here it
    /// deterministically yields `T::default()`, and the sanitizer flags it
    /// as a divergence hazard.
    #[inline]
    #[track_caller]
    pub fn shfl<T: Copy + Default>(
        &mut self,
        mask: Mask,
        vals: &Lanes<T>,
        src: &Lanes<u32>,
    ) -> Lanes<T> {
        let at = OpSite::caller("shfl");
        self.push_alu(mask);
        let src_of = |l: usize| src.get(l) as usize % WARP_SIZE;
        let reads = mask.iter().map(|l| (l, src_of(l)));
        self.divergent(at, reads.filter(|&(_, s)| !mask.get(s)));
        Lanes::from_fn(|l| {
            let s = src_of(l);
            if mask.get(s) {
                vals.get(s)
            } else {
                T::default()
            }
        })
    }

    /// Broadcast lane `src_lane % 32`'s value to all lanes (one shuffle).
    /// Same inactive-source semantics as [`shfl`](WarpCtx::shfl): the
    /// sanitizer flags it and the result is `T::default()`.
    #[inline]
    #[track_caller]
    pub fn shfl_bcast<T: Copy + Default>(
        &mut self,
        mask: Mask,
        vals: &Lanes<T>,
        src_lane: usize,
    ) -> Lanes<T> {
        let at = OpSite::caller("shfl_bcast");
        self.push_alu(mask);
        let s = src_lane % WARP_SIZE;
        if mask.get(s) {
            return Lanes::splat(vals.get(s));
        }
        match mask.leader() {
            Some(l) => self.divergent(at, std::iter::once((l, s))),
            None => self.emit(at, EventKind::EmptyMask),
        }
        Lanes::splat(T::default())
    }

    /// Warp-wide sum reduction via a shuffle tree: `log2(32) = 5`
    /// instructions. Returns the total of active lanes broadcast to all.
    #[track_caller]
    pub fn reduce_add(&mut self, mask: Mask, vals: &Lanes<u32>) -> u32 {
        self.check_empty_mask(mask, OpSite::caller("reduce_add"));
        self.charge_tree(mask, WARP_SIZE);
        vals.sum_active(mask) as u32
    }

    /// Warp-wide min reduction (5 instructions); `u32::MAX` if mask empty.
    #[track_caller]
    pub fn reduce_min(&mut self, mask: Mask, vals: &Lanes<u32>) -> u32 {
        self.check_empty_mask(mask, OpSite::caller("reduce_min"));
        self.charge_tree(mask, WARP_SIZE);
        vals.min_active(mask).unwrap_or(u32::MAX)
    }

    /// Warp-wide max reduction (5 instructions); 0 if mask empty.
    #[track_caller]
    pub fn reduce_max(&mut self, mask: Mask, vals: &Lanes<u32>) -> u32 {
        self.check_empty_mask(mask, OpSite::caller("reduce_max"));
        self.charge_tree(mask, WARP_SIZE);
        vals.max_active(mask).unwrap_or(0)
    }

    /// Exclusive prefix sum over active lanes (5 instructions). Inactive
    /// lanes receive the running sum of active lanes below them, which is
    /// what compaction code needs.
    #[track_caller]
    pub fn scan_add_exclusive(&mut self, mask: Mask, vals: &Lanes<u32>) -> Lanes<u32> {
        self.check_empty_mask(mask, OpSite::caller("scan_add_exclusive"));
        self.charge_tree(mask, WARP_SIZE);
        let mut acc = 0u32;
        Lanes::from_fn(|l| {
            let out = acc;
            if mask.get(l) {
                acc = acc.wrapping_add(vals.get(l));
            }
            out
        })
    }

    // ----------------------------------------------- segmented (sub-warp) ops

    /// Segmented sum reduction: the warp is split into aligned segments of
    /// `width` lanes (a power of two ≤ 32 — the *virtual warp* width) and
    /// each segment reduces independently. Costs `log2(width)`
    /// instructions; every lane of a segment receives its segment's total.
    #[track_caller]
    pub fn seg_reduce_add(&mut self, mask: Mask, vals: &Lanes<u32>, width: usize) -> Lanes<u32> {
        let at = OpSite::caller("seg_reduce_add");
        if self.tripped(at.site) || !self.check_width(width, at) {
            return Lanes::splat(0u32);
        }
        self.check_empty_mask(mask, at);
        self.charge_tree(mask, width);
        let mut out = Lanes::splat(0u32);
        for seg in 0..WARP_SIZE / width {
            let base = seg * width;
            let mut sum = 0u32;
            for l in base..base + width {
                if mask.get(l) {
                    sum = sum.wrapping_add(vals.get(l));
                }
            }
            for l in base..base + width {
                out.set(l, sum);
            }
        }
        out
    }

    /// Segmented `f32` sum reduction — same shape and cost as
    /// [`seg_reduce_add`](WarpCtx::seg_reduce_add). Lanes sum in ascending
    /// lane order (deterministic despite float non-associativity).
    #[track_caller]
    pub fn seg_reduce_add_f32(
        &mut self,
        mask: Mask,
        vals: &Lanes<f32>,
        width: usize,
    ) -> Lanes<f32> {
        let at = OpSite::caller("seg_reduce_add_f32");
        if self.tripped(at.site) || !self.check_width(width, at) {
            return Lanes::splat(0.0f32);
        }
        self.check_empty_mask(mask, at);
        self.charge_tree(mask, width);
        let mut out = Lanes::splat(0.0f32);
        for seg in 0..WARP_SIZE / width {
            let base = seg * width;
            let mut sum = 0.0f32;
            for l in base..base + width {
                if mask.get(l) {
                    sum += vals.get(l);
                }
            }
            for l in base..base + width {
                out.set(l, sum);
            }
        }
        out
    }

    /// Segmented broadcast: every lane receives the value of its segment's
    /// first lane (one shuffle instruction). If a segment's base lane is
    /// outside the active mask, that segment's lanes receive `T::default()`
    /// (undefined data on hardware) and, when a lane of the segment was
    /// active, the sanitizer flags the divergence hazard.
    #[track_caller]
    pub fn seg_bcast<T: Copy + Default>(
        &mut self,
        mask: Mask,
        vals: &Lanes<T>,
        width: usize,
    ) -> Lanes<T> {
        let at = OpSite::caller("seg_bcast");
        if self.tripped(at.site) || !self.check_width(width, at) {
            return Lanes::splat(T::default());
        }
        self.push_alu(mask);
        // Per segment with an inactive base: its first active lane, if any.
        let orphans = (0..WARP_SIZE).step_by(width).filter_map(|base| {
            let first = (base..base + width).find(|&l| mask.get(l))?;
            (first != base).then_some((first, base))
        });
        self.divergent(at, orphans);
        Lanes::from_fn(|l| {
            let base = l / width * width;
            if mask.get(base) {
                vals.get(base)
            } else {
                T::default()
            }
        })
    }

    /// Segmented ballot: for each aligned `width`-lane segment, true if any
    /// active lane of the segment has its predicate bit set (one
    /// instruction). Result replicated across the segment as a mask.
    #[track_caller]
    pub fn seg_any(&mut self, mask: Mask, pred: Mask, width: usize) -> Mask {
        let at = OpSite::caller("seg_any");
        if self.tripped(at.site) || !self.check_width(width, at) {
            return Mask::NONE;
        }
        self.check_empty_mask(mask, at);
        self.push_alu(mask);
        let hits = pred & mask;
        Mask::from_fn(|l| {
            let base = l / width * width;
            (base..base + width).any(|k| hits.get(k))
        })
    }

    // ---------------------------------------------------------- global memory

    /// Gather load: active lane `l` reads `ptr[idx.get(l)]`. One instruction;
    /// transactions per the coalescing model.
    #[track_caller]
    pub fn ld<T: DeviceWord>(&mut self, mask: Mask, ptr: DevPtr<T>, idx: &Lanes<u32>) -> Lanes<T> {
        let at = OpSite::caller("ld");
        if self.tripped(at.site) {
            return Lanes::splat(T::default());
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        let op = Op::LdGlobal {
            active: mask.count() as u8,
            tx: self.mem_tx(mask, ptr, idx),
        };
        let lanes = mask.iter().map(|l| (l, idx.get(l), 0));
        self.issue_mem(at, op, ptr.into(), AccessKind::Read, true, lanes);
        self.gather(mask, ptr, idx)
    }

    /// Scatter store: active lane `l` writes `vals.get(l)` to
    /// `ptr[idx.get(l)]`. Lanes commit in ascending order, so on address
    /// collisions the highest lane wins (CUDA leaves the winner undefined;
    /// we pick a deterministic one).
    #[track_caller]
    pub fn st<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        vals: &Lanes<T>,
    ) {
        let at = OpSite::caller("st");
        if self.tripped(at.site) {
            return;
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        let op = Op::StGlobal {
            active: mask.count() as u8,
            tx: self.mem_tx(mask, ptr, idx),
        };
        let lanes = mask.iter().map(|l| (l, idx.get(l), vals.get(l).to_word()));
        self.issue_mem(at, op, ptr.into(), AccessKind::Write, true, lanes);
        for l in mask.iter() {
            self.mem.write(ptr, idx.get(l), vals.get(l));
        }
    }

    /// Read-only-cached gather load (the texture-memory path of paper-era
    /// kernels, or Fermi's L2): semantics of [`ld`](WarpCtx::ld), but each
    /// distinct segment probes the device cache; hits skip DRAM.
    #[track_caller]
    pub fn ld_cached<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
    ) -> Lanes<T> {
        let at = OpSite::caller("ld_cached");
        if self.tripped(at.site) {
            return Lanes::splat(T::default());
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        // Distinct segments among the active lanes, like the coalescer.
        let shift = self.segment_bytes.trailing_zeros();
        let mut segs = [0u64; WARP_SIZE];
        let mut n = 0usize;
        'outer: for l in mask.iter() {
            let seg = ptr.byte_addr(idx.get(l)) >> shift;
            for &sv in &segs[..n] {
                if sv == seg {
                    continue 'outer;
                }
            }
            segs[n] = seg;
            n += 1;
        }
        let mut hits = 0u8;
        let mut misses = 0u8;
        for &seg in &segs[..n] {
            if self.cache.access(seg << shift) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let op = Op::LdCached {
            active: mask.count() as u8,
            hits,
            misses,
        };
        let lanes = mask.iter().map(|l| (l, idx.get(l), 0));
        self.issue_mem(at, op, ptr.into(), AccessKind::Read, false, lanes);
        self.gather(mask, ptr, idx)
    }

    /// Uniform load: all active lanes read the same element (one
    /// instruction, one transaction). Models `ptr[c]` with scalar `c`.
    #[track_caller]
    pub fn ld_uniform<T: DeviceWord>(&mut self, mask: Mask, ptr: DevPtr<T>, idx: u32) -> T {
        let at = OpSite::caller("ld_uniform");
        if self.tripped(at.site) {
            return T::default();
        }
        let op = Op::LdGlobal {
            active: mask.count() as u8,
            tx: 1,
        };
        if self.issue_uniform(at, op, mask, ptr, AccessKind::Read, (idx, 0)) {
            self.mem.read(ptr, idx)
        } else {
            T::default()
        }
    }

    /// Uniform store: the warp leader writes one element (one instruction,
    /// one transaction). Models `if (lane == 0) ptr[c] = v`.
    #[track_caller]
    pub fn st_uniform<T: DeviceWord>(&mut self, mask: Mask, ptr: DevPtr<T>, idx: u32, v: T) {
        let at = OpSite::caller("st_uniform");
        if !mask.any() || self.tripped(at.site) {
            return;
        }
        let op = Op::StGlobal { active: 1, tx: 1 };
        if self.issue_uniform(at, op, mask, ptr, AccessKind::Write, (idx, v.to_word())) {
            self.mem.write(ptr, idx, v);
        }
    }

    // ---------------------------------------------------------------- atomics

    /// `atomicAdd` per active lane; returns each lane's fetched (pre-add)
    /// value. Lanes hitting the same address serialize; the replay count is
    /// `max_multiplicity − 1`.
    #[track_caller]
    pub fn atomic_add<T: DeviceWord + AtomicArith>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        vals: &Lanes<T>,
    ) -> Lanes<T> {
        let at = OpSite::caller("atomic_add");
        self.atomic_rmw(mask, ptr, idx, at, |l, old| {
            Some(old.atomic_add(vals.get(l)))
        })
    }

    /// `atomicMin` per active lane; returns fetched values.
    #[track_caller]
    pub fn atomic_min<T: DeviceWord + AtomicArith>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        vals: &Lanes<T>,
    ) -> Lanes<T> {
        let at = OpSite::caller("atomic_min");
        self.atomic_rmw(mask, ptr, idx, at, |l, old| {
            Some(old.atomic_min(vals.get(l)))
        })
    }

    /// `atomicOr` per active lane; returns fetched values. The workhorse
    /// of bitmask-frontier algorithms (multi-source BFS).
    #[track_caller]
    pub fn atomic_or(
        &mut self,
        mask: Mask,
        ptr: DevPtr<u32>,
        idx: &Lanes<u32>,
        vals: &Lanes<u32>,
    ) -> Lanes<u32> {
        let at = OpSite::caller("atomic_or");
        self.atomic_rmw(mask, ptr, idx, at, |l, old| Some(old | vals.get(l)))
    }

    /// `atomicAnd` per active lane; returns fetched values.
    #[track_caller]
    pub fn atomic_and(
        &mut self,
        mask: Mask,
        ptr: DevPtr<u32>,
        idx: &Lanes<u32>,
        vals: &Lanes<u32>,
    ) -> Lanes<u32> {
        let at = OpSite::caller("atomic_and");
        self.atomic_rmw(mask, ptr, idx, at, |l, old| Some(old & vals.get(l)))
    }

    /// `atomicExch` per active lane; returns fetched values.
    #[track_caller]
    pub fn atomic_exch<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        vals: &Lanes<T>,
    ) -> Lanes<T> {
        let at = OpSite::caller("atomic_exch");
        self.atomic_rmw(mask, ptr, idx, at, |l, _| Some(vals.get(l)))
    }

    /// `atomicCAS` per active lane: if `ptr[idx] == cmp` store `new`;
    /// returns fetched values.
    #[track_caller]
    pub fn atomic_cas<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        cmp: &Lanes<T>,
        new: &Lanes<T>,
    ) -> Lanes<T> {
        let at = OpSite::caller("atomic_cas");
        self.atomic_rmw(mask, ptr, idx, at, |l, old| {
            (old == cmp.get(l)).then(|| new.get(l))
        })
    }

    /// Leader-only `atomicAdd` on a single counter, broadcast to the caller
    /// as a scalar. One instruction, one transaction, no replays. This is
    /// the work-queue fetch idiom from the paper's dynamic workload
    /// distribution.
    #[track_caller]
    pub fn atomic_add_uniform(&mut self, mask: Mask, ptr: DevPtr<u32>, idx: u32, v: u32) -> u32 {
        let at = OpSite::caller("atomic_add_uniform");
        if !mask.any() || self.tripped(at.site) {
            return 0;
        }
        let op = Op::Atomic {
            active: 1,
            tx: 1,
            replays: 0,
        };
        if !self.issue_uniform(at, op, mask, ptr, AccessKind::Atomic, (idx, 0)) {
            return 0;
        }
        let old = self.mem.read(ptr, idx);
        if !self.chaos_drop() {
            self.mem.write(ptr, idx, old.wrapping_add(v));
        }
        old
    }

    /// The lane-wise atomics: each active lane fetches `ptr[idx]` and stores
    /// `f(lane, fetched)` unless that is `None` (a failed compare-and-swap).
    fn atomic_rmw<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: DevPtr<T>,
        idx: &Lanes<u32>,
        at: OpSite,
        mut f: impl FnMut(usize, T) -> Option<T>,
    ) -> Lanes<T> {
        if self.tripped(at.site) {
            return Lanes::splat(T::default());
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        let op = Op::Atomic {
            active: mask.count() as u8,
            tx: self.mem_tx(mask, ptr, idx),
            replays: atomic_replays(mask, idx),
        };
        let lanes = mask.iter().map(|l| (l, idx.get(l), 0));
        self.issue_mem(at, op, ptr.into(), AccessKind::Atomic, true, lanes);
        let dropped_lane = self.chaos_drop().then(|| mask.leader()).flatten();
        let mut out = Lanes::splat(T::default());
        for l in mask.iter() {
            let i = idx.get(l);
            let old = self.mem.read(ptr, i);
            out.set(l, old);
            if dropped_lane != Some(l) {
                if let Some(new) = f(l, old) {
                    self.mem.write(ptr, i, new);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------ shared mem

    /// Shared-memory gather load with bank-conflict accounting.
    #[track_caller]
    pub fn sh_ld<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: SharedPtr<T>,
        idx: &Lanes<u32>,
    ) -> Lanes<T> {
        let at = OpSite::caller("sh_ld");
        if self.tripped(at.site) {
            return Lanes::splat(T::default());
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        self.issue_shared(at, mask, ptr, idx, None);
        let mut out = Lanes::splat(T::default());
        for l in mask.iter() {
            out.set(l, T::from_word(self.shared.word(ptr.word_of(idx.get(l)))));
        }
        out
    }

    /// Shared-memory scatter store with bank-conflict accounting. Ascending
    /// lane order on collisions.
    #[track_caller]
    pub fn sh_st<T: DeviceWord>(
        &mut self,
        mask: Mask,
        ptr: SharedPtr<T>,
        idx: &Lanes<u32>,
        vals: &Lanes<T>,
    ) {
        let at = OpSite::caller("sh_st");
        if self.tripped(at.site) {
            return;
        }
        let mask = self.guard(mask, ptr.into(), idx, at);
        self.issue_shared(at, mask, ptr, idx, Some(vals));
        for l in mask.iter() {
            let w = ptr.word_of(idx.get(l));
            self.shared.set_word(w, vals.get(l).to_word());
        }
    }

    // ------------------------------------------------------- the observer seam

    /// Hand one event to the launch's observers, if there are any. This is
    /// the only way an op reaches the sanitizer, analyzer or profiler.
    #[inline]
    fn emit(&mut self, at: OpSite, kind: EventKind<'_>) {
        if let Some(obs) = &mut self.obs {
            obs.emit(self.id, at, kind);
        }
    }

    /// Issue one instruction: into the trace, and to the observers.
    #[inline]
    fn issue(&mut self, at: OpSite, op: Op) {
        self.trace.ops.push(op);
        self.emit(at, EventKind::Issue(op));
    }

    /// Issue one memory instruction and describe its (guarded) per-lane
    /// accesses. `lanes` yields `(lane, element index, stored bits)` in
    /// ascending lane order and is only walked when an observer is on;
    /// `sampled` marks the op classes the coalescing lints sample.
    #[inline]
    fn issue_mem(
        &mut self,
        at: OpSite,
        op: Op,
        region: Region,
        access: AccessKind,
        sampled: bool,
        lanes: impl Iterator<Item = (usize, u32, u32)>,
    ) {
        self.trace.ops.push(op);
        if self.obs.is_some() {
            self.observe_mem(at, op, region, access, sampled, lanes);
        }
    }

    /// The observed half of [`issue_mem`](Self::issue_mem): marshal the
    /// lanes into one `Mem` event behind the instruction's `Issue`.
    #[cold]
    #[inline(never)]
    fn observe_mem(
        &mut self,
        at: OpSite,
        op: Op,
        region: Region,
        access: AccessKind,
        sampled: bool,
        lanes: impl Iterator<Item = (usize, u32, u32)>,
    ) {
        self.emit(at, EventKind::Issue(op));
        let mut buf = [LaneAccess::default(); WARP_SIZE];
        let mut n = 0;
        let global_read = region.space == Space::Global && access == AccessKind::Read;
        for (lane, i, value) in lanes {
            let word = region.base + i;
            buf[n] = LaneAccess {
                lane: lane as u32,
                word,
                value,
                valid: !global_read || self.mem.word_valid(word),
            };
            n += 1;
        }
        let lanes = &buf[..n];
        let footprint = || distinct_addrs(lanes.iter().map(|a| a.word as u64));
        self.emit(
            at,
            EventKind::Mem(MemAccess {
                space: region.space,
                access,
                base: region.base,
                lanes,
                coalesce: sampled.then(|| (op.transactions(), footprint())),
                segment_words: self.segment_bytes / 4,
                bank_cost: match op {
                    Op::Shared { cost, .. } => cost as u32,
                    _ => 1,
                },
            }),
        );
    }

    /// Issue a uniform (scalar-index) global op on element `(index, stored
    /// bits)`: bounds-check it against `ptr`, trace `op` either way, and
    /// describe the access as the leader lane's. False means out of bounds
    /// and suppressed.
    fn issue_uniform<T: DeviceWord>(
        &mut self,
        at: OpSite,
        op: Op,
        mask: Mask,
        ptr: DevPtr<T>,
        access: AccessKind,
        (idx, value): (u32, u32),
    ) -> bool {
        let lane = mask.leader().unwrap_or(0);
        let ok = self.in_bounds(ptr.into(), lane, idx, at);
        let lanes = ok.then_some((lane, idx, value)).into_iter();
        self.issue_mem(at, op, ptr.into(), access, false, lanes);
        ok
    }

    /// Issue a shared-memory load, or a store of `vals`, with its
    /// bank-conflict cost.
    fn issue_shared<T: DeviceWord>(
        &mut self,
        at: OpSite,
        mask: Mask,
        ptr: SharedPtr<T>,
        idx: &Lanes<u32>,
        vals: Option<&Lanes<T>>,
    ) {
        let cost = bank_conflict_cost(mask.iter().map(|l| ptr.word_of(idx.get(l)) as u32));
        let op = Op::Shared {
            active: mask.count() as u8,
            cost: cost.max(1) as u8,
        };
        let access = match vals {
            Some(_) => AccessKind::Write,
            None => AccessKind::Read,
        };
        let stored = |l| vals.map_or(0, |v| v.get(l).to_word());
        let lanes = mask.iter().map(|l| (l, idx.get(l), stored(l)));
        self.issue_mem(at, op, ptr.into(), access, false, lanes);
    }

    /// Report shuffle reads whose source lane is outside the active mask:
    /// `(reading lane, source lane)` pairs, walked only when observed.
    #[inline]
    fn divergent(&mut self, at: OpSite, reads: impl Iterator<Item = (usize, usize)>) {
        if self.obs.is_some() {
            self.observe_divergent(at, reads);
        }
    }

    #[cold]
    #[inline(never)]
    fn observe_divergent(&mut self, at: OpSite, reads: impl Iterator<Item = (usize, usize)>) {
        let mut buf = [(0u32, 0u32); WARP_SIZE];
        let mut n = 0;
        for (lane, src) in reads {
            buf[n] = (lane as u32, src as u32);
            n += 1;
        }
        if n > 0 {
            self.emit(at, EventKind::DivergentShuffle { lanes: &buf[..n] });
        }
    }

    /// `ballot`/`any`/`all`: the empty-mask check, the collective's
    /// predicate statistics, and its one instruction.
    #[inline]
    #[track_caller]
    fn collective(&mut self, at: OpSite, mask: Mask, pred: Mask) {
        self.check_empty_mask(mask, at);
        let (active, pred) = (mask.count(), (pred & mask).count());
        self.emit(at, EventKind::Collective { active, pred });
        self.push_alu(mask);
    }

    /// Report a warp collective executed under an empty active mask.
    fn check_empty_mask(&mut self, mask: Mask, at: OpSite) {
        if mask.none() {
            self.emit(at, EventKind::EmptyMask);
        }
    }

    // ---------------------------------------------------------------- private

    /// Route a fault to the launch's fault state (keeping the first), or —
    /// for bare test contexts with none — abort like the hardware would.
    fn record_fault(&mut self, e: SimtError) {
        match &mut self.faults {
            Some(faults) => faults.record(e),
            None => panic!("{e}"),
        }
    }

    /// Chaos mode: true if this atomic warp-op is the launch's designated
    /// victim and loses an update.
    fn chaos_drop(&mut self) -> bool {
        let plan = self.faults.as_mut().and_then(|f| f.drop_plan.as_mut());
        plan.is_some_and(AtomicDropPlan::should_drop)
    }

    /// Watchdog: true once this warp's trace has hit its instruction budget.
    /// Records the trip as a fault the first time; afterwards every op is
    /// suppressed and mask-producing ops return empty results, so kernel
    /// `while mask.any()` loops unwind instead of spinning forever.
    #[inline]
    fn tripped(&mut self, site: Site) -> bool {
        let Some(budget) = self.budget else {
            return false;
        };
        let n = self.trace.ops.len() as u64;
        if n < budget {
            return false;
        }
        let e = SimtError::Watchdog(WatchdogKind::InstructionBudget {
            instructions: n,
            budget,
            block: self.id.block,
            warp: self.id.warp_in_block,
            site,
        });
        self.record_fault(e);
        true
    }

    /// Validate a virtual-warp width; on failure records
    /// [`SimtError::InvalidShuffle`] and tells the caller to bail out with a
    /// neutral result.
    fn check_width(&mut self, width: usize, at: OpSite) -> bool {
        if width.is_power_of_two() && width <= WARP_SIZE {
            return true;
        }
        let e = SimtError::InvalidShuffle {
            width: width as u32,
            block: self.id.block,
            warp: self.id.warp_in_block,
            op: at.op,
            site: at.site,
        };
        self.record_fault(e);
        false
    }

    #[inline]
    #[track_caller]
    fn push_alu(&mut self, mask: Mask) {
        let at = OpSite::caller("alu");
        if self.tripped(at.site) {
            return;
        }
        let active = mask.count() as u8;
        self.issue(at, Op::Alu { active });
    }

    /// The one bounds check, for every address space and op shape. An
    /// out-of-bounds lane is always dropped from the access and reported
    /// through the seam; with the sanitizer on that report becomes a
    /// structured diagnostic and the launch runs on, with it off the first
    /// offender is recorded as a [`SimtError::OutOfBounds`] launch fault (the
    /// moral equivalent of `cudaErrorIllegalAddress`).
    #[inline]
    fn in_bounds(&mut self, region: Region, lane: usize, index: u32, at: OpSite) -> bool {
        if index < region.len {
            return true;
        }
        self.out_of_bounds(region, lane as u32, index, at);
        false
    }

    #[cold]
    fn out_of_bounds(&mut self, region: Region, lane: u32, index: u32, at: OpSite) {
        if !self.obs.as_ref().is_some_and(Observers::sanitizing) {
            self.record_fault(SimtError::OutOfBounds {
                space: match region.space {
                    Space::Global => AddressSpace::Global,
                    Space::Shared => AddressSpace::Shared,
                },
                block: self.id.block,
                warp: self.id.warp_in_block,
                lane: Some(lane),
                index: index as u64,
                len: region.len as u64,
                op: at.op,
                site: at.site,
            });
        }
        let (space, len) = (region.space, region.len);
        let word = region.base.wrapping_add(index);
        self.emit(
            at,
            EventKind::Oob {
                space,
                lane,
                index,
                len,
                word,
            },
        );
    }

    /// Bounds-check a lane-wise access; returns `mask` without the
    /// out-of-bounds lanes.
    fn guard(&mut self, mask: Mask, region: Region, idx: &Lanes<u32>, at: OpSite) -> Mask {
        let mut ok = mask;
        for l in mask.iter() {
            if !self.in_bounds(region, l, idx.get(l), at) {
                ok = ok.with(l, false);
            }
        }
        ok
    }

    /// Charge a `log2(width)` shuffle tree.
    #[track_caller]
    fn charge_tree(&mut self, mask: Mask, width: usize) {
        for _ in 0..width.trailing_zeros() {
            self.push_alu(mask);
        }
    }

    /// The value of `ptr[idx]` for every (guarded) active lane.
    fn gather<T: DeviceWord>(&self, mask: Mask, ptr: DevPtr<T>, idx: &Lanes<u32>) -> Lanes<T> {
        let mut out = Lanes::splat(T::default());
        for l in mask.iter() {
            out.set(l, self.mem.read(ptr, idx.get(l)));
        }
        out
    }

    fn mem_tx<T: DeviceWord>(&self, mask: Mask, ptr: DevPtr<T>, idx: &Lanes<u32>) -> u8 {
        transactions(
            mask.iter().map(|l| ptr.byte_addr(idx.get(l))),
            self.segment_bytes,
        ) as u8
    }
}

/// Max same-address multiplicity − 1 of an atomic's active lanes: the
/// hardware serializes lanes that update the same location. Sorted, the
/// lanes of one address form a run.
fn atomic_replays(mask: Mask, idx: &Lanes<u32>) -> u8 {
    let mut addrs = [0u32; WARP_SIZE];
    let mut n = 0;
    for l in mask.iter() {
        addrs[n] = idx.get(l);
        n += 1;
    }
    let addrs = &mut addrs[..n];
    addrs.sort_unstable();
    let longest = addrs.chunk_by(|a, b| a == b).map(<[u32]>::len).max();
    longest.unwrap_or(1).saturating_sub(1) as u8
}

/// Arithmetic used by atomic read-modify-write ops.
pub trait AtomicArith: Copy {
    /// `self + v` with wrapping semantics for integers.
    fn atomic_add(self, v: Self) -> Self;
    /// `min(self, v)`.
    fn atomic_min(self, v: Self) -> Self;
}

impl AtomicArith for u32 {
    #[inline]
    fn atomic_add(self, v: Self) -> Self {
        self.wrapping_add(v)
    }
    #[inline]
    fn atomic_min(self, v: Self) -> Self {
        self.min(v)
    }
}

impl AtomicArith for i32 {
    #[inline]
    fn atomic_add(self, v: Self) -> Self {
        self.wrapping_add(v)
    }
    #[inline]
    fn atomic_min(self, v: Self) -> Self {
        self.min(v)
    }
}

impl AtomicArith for f32 {
    #[inline]
    fn atomic_add(self, v: Self) -> Self {
        self + v
    }
    #[inline]
    fn atomic_min(self, v: Self) -> Self {
        self.min(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn ctx_parts() -> (DeviceMem, SharedMem, WarpTrace, CacheModel, GpuConfig) {
        let cfg = GpuConfig::fermi_c2050();
        (
            DeviceMem::new(),
            SharedMem::new(1024),
            WarpTrace::new(),
            CacheModel::new(cfg.l2_lines, cfg.l2_ways, cfg.segment_bytes),
            cfg,
        )
    }

    fn wid() -> WarpId {
        WarpId {
            block: 1,
            warp_in_block: 2,
            warps_per_block: 4,
            num_blocks: 3,
        }
    }

    proptest::proptest! {
        /// The sorted run count equals a pairwise scan of the active
        /// addresses, on masks and addresses drawn from a few values so
        /// that lanes collide.
        #[test]
        fn atomic_replays_match_a_pairwise_scan(
            mask in proptest::prelude::any::<u32>(),
            addrs in proptest::collection::vec(0u32..6, WARP_SIZE),
            spread in 0u32..3,
        ) {
            let idx = Lanes::from_fn(|l| (addrs[l] << (8 * spread)) | (l as u32 * (spread / 2)));
            let mask = Mask(mask);
            let lanes: Vec<u32> = mask.iter().map(|l| idx.get(l)).collect();
            let scan = lanes
                .iter()
                .map(|a| lanes.iter().filter(|b| *b == a).count())
                .max()
                .map_or(0, |m| m - 1);
            proptest::prop_assert_eq!(atomic_replays(mask, &idx) as usize, scan);
        }
    }

    #[test]
    fn warp_id_math() {
        let id = wid();
        assert_eq!(id.global(), 6);
        assert_eq!(id.total_warps(), 12);
    }

    #[test]
    fn global_thread_ids() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        assert_eq!(w.global_thread_ids().get(0), 6 * 32);
        assert_eq!(w.global_thread_ids().get(31), 6 * 32 + 31);
        assert_eq!(w.total_threads(), 12 * 32);
    }

    #[test]
    fn coalesced_load_one_tx() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc_from(&(0..32u32).collect::<Vec<_>>());
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let vals = w.ld(Mask::FULL, p, &Lanes::lane_ids());
        assert_eq!(vals.get(17), 17);
        assert_eq!(t.ops, vec![Op::LdGlobal { active: 32, tx: 1 }]);
    }

    #[test]
    fn scattered_load_many_tx() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(32 * 32);
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let idx = Lanes::from_fn(|l| (l * 32) as u32); // one segment per lane
        let _ = w.ld(Mask::FULL, p, &idx);
        assert_eq!(t.ops, vec![Op::LdGlobal { active: 32, tx: 32 }]);
    }

    #[test]
    fn masked_store_only_writes_active() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(32);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            w.st(Mask::first(4), p, &Lanes::lane_ids(), &Lanes::splat(9u32));
        }
        let host = m.download(p);
        assert_eq!(&host[..6], &[9, 9, 9, 9, 0, 0]);
    }

    #[test]
    fn store_collision_highest_lane_wins() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(4);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            let idx = Lanes::splat(2u32);
            let vals = Lanes::from_fn(|l| l as u32);
            w.st(Mask::FULL, p, &idx, &vals);
        }
        assert_eq!(m.read(p, 2), 31);
    }

    #[test]
    fn atomic_add_returns_old_and_counts_replays() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(4);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            // All 32 lanes add 1 to the same counter: 31 replays.
            let old = w.atomic_add(Mask::FULL, p, &Lanes::splat(0u32), &Lanes::splat(1u32));
            assert_eq!(old.get(0), 0);
            assert_eq!(old.get(31), 31);
        }
        assert_eq!(m.read(p, 0), 32);
        match t.ops[0] {
            Op::Atomic { replays, .. } => assert_eq!(replays, 31),
            ref o => panic!("unexpected op {o:?}"),
        }
    }

    #[test]
    fn atomic_min_and_cas() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc_from(&[10u32, 20, 30, 40]);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            let idx = Lanes::from_fn(|l| (l % 4) as u32);
            let m4 = Mask::first(4);
            let _ = w.atomic_min(m4, p, &idx, &Lanes::splat(25u32));
            let old = w.atomic_cas(m4, p, &idx, &Lanes::splat(25u32), &Lanes::splat(0u32));
            assert_eq!(old.get(0), 10);
        }
        assert_eq!(m.download(p), vec![10, 20, 0, 0]); // 25s CAS'd to 0
    }

    #[test]
    fn atomic_or_and() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(2);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            // Each lane ORs its own bit into word 0.
            let bits = Lanes::from_fn(|l| 1u32 << l);
            let old = w.atomic_or(Mask::FULL, p, &Lanes::splat(0u32), &bits);
            assert_eq!(old.get(0), 0);
            assert_eq!(old.get(1), 1); // saw lane 0's bit
            let _ = w.atomic_and(
                Mask::first(1),
                p,
                &Lanes::splat(0u32),
                &Lanes::splat(0xFFu32),
            );
        }
        assert_eq!(m.read(p, 0), 0xFF);
    }

    #[test]
    fn atomic_add_uniform_fetches_once() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(1);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            assert_eq!(w.atomic_add_uniform(Mask::FULL, p, 0, 128), 0);
            assert_eq!(w.atomic_add_uniform(Mask::FULL, p, 0, 128), 128);
        }
        assert_eq!(m.read(p, 0), 256);
        assert_eq!(t.ops.len(), 2);
    }

    #[test]
    fn ballot_any_all() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let pred = Mask::first(8);
        assert_eq!(w.ballot(Mask::FULL, pred), pred);
        assert!(w.any(Mask::FULL, pred));
        assert!(!w.all(Mask::FULL, pred));
        assert!(w.all(Mask::first(8), pred));
        assert_eq!(t.ops.len(), 4);
    }

    #[test]
    fn reductions_and_scan() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let ids = Lanes::lane_ids();
        assert_eq!(w.reduce_add(Mask::FULL, &ids), (0..32).sum::<u32>());
        assert_eq!(w.reduce_min(Mask::first(8).not(), &ids), 8);
        assert_eq!(w.reduce_max(Mask::first(8), &ids), 7);
        let sc = w.scan_add_exclusive(Mask::FULL, &Lanes::splat(1u32));
        assert_eq!(sc.get(0), 0);
        assert_eq!(sc.get(31), 31);
        // 4 tree primitives × 5 instructions each.
        assert_eq!(t.ops.len(), 20);
    }

    #[test]
    fn segmented_ops() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let ids = Lanes::lane_ids();
        // Segments of 8: segment k sums 8 consecutive lane ids.
        let r = w.seg_reduce_add(Mask::FULL, &Lanes::splat(1u32), 8);
        for l in 0..WARP_SIZE {
            assert_eq!(r.get(l), 8);
        }
        let b = w.seg_bcast(Mask::FULL, &ids, 8);
        assert_eq!(b.get(0), 0);
        assert_eq!(b.get(7), 0);
        assert_eq!(b.get(8), 8);
        assert_eq!(b.get(31), 24);
        let a = w.seg_any(Mask::FULL, Mask::lane(9), 8);
        assert!(!a.get(0));
        assert!(a.get(8) && a.get(15));
        assert!(!a.get(16));
        // seg_reduce over width 8 = 3 instrs; bcast 1; seg_any 1.
        assert_eq!(t.ops.len(), 5);
    }

    #[test]
    fn shfl_and_bcast() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let ids = Lanes::lane_ids();
        let rev = Lanes::from_fn(|l| 31 - l as u32);
        let shuf = w.shfl(Mask::FULL, &ids, &rev);
        assert_eq!(shuf.get(0), 31);
        assert_eq!(shuf.get(31), 0);
        let b = w.shfl_bcast(Mask::FULL, &ids, 5);
        assert_eq!(b.get(0), 5);
        assert_eq!(b.get(31), 5);
    }

    #[test]
    fn shared_roundtrip_and_conflicts() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let sp = s.alloc::<u32>(64);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            let ids = Lanes::lane_ids();
            w.sh_st(Mask::FULL, sp, &ids, &ids);
            let v = w.sh_ld(Mask::FULL, sp, &ids);
            assert_eq!(v.get(13), 13);
            // Stride-2: two-way conflict.
            let idx2 = Lanes::from_fn(|l| (l as u32 * 2) % 64);
            let _ = w.sh_ld(Mask::FULL, sp, &idx2);
        }
        match (t.ops[0], t.ops[1], t.ops[2]) {
            (
                Op::Shared { cost: 1, .. },
                Op::Shared { cost: 1, .. },
                Op::Shared { cost: 2, .. },
            ) => {}
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn ld_uniform_and_st_uniform() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc_from(&[7u32, 8]);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            assert_eq!(w.ld_uniform(Mask::FULL, p, 1), 8);
            w.st_uniform(Mask::first(3), p, 0, 99);
            // Empty mask: no write.
            w.st_uniform(Mask::NONE, p, 1, 1000);
        }
        assert_eq!(m.read(p, 0), 99);
        assert_eq!(m.read(p, 1), 8);
    }

    #[test]
    fn shfl_wraps_out_of_range_src() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let ids = Lanes::lane_ids();
        // CUDA __shfl reads srcLane % width, so 32 wraps to lane 0,
        // 33 to lane 1, and so on — not the reading lane's own value.
        let src = Lanes::from_fn(|l| (l as u32) + 32);
        let shuf = w.shfl(Mask::FULL, &ids, &src);
        for l in 0..WARP_SIZE {
            assert_eq!(shuf.get(l), l as u32, "lane {l} must wrap to {l}");
        }
        let far = w.shfl(Mask::FULL, &ids, &Lanes::splat(97u32)); // 97 % 32 = 1
        assert_eq!(far.get(0), 1);
        assert_eq!(far.get(31), 1);
    }

    #[test]
    fn empty_mask_uniform_ops_trace_nothing() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc_from(&[41u32, 7]);
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            w.st_uniform(Mask::NONE, p, 0, 1000);
            assert_eq!(w.atomic_add_uniform(Mask::NONE, p, 0, 5), 0);
        }
        // A fully predicated-off uniform op must not reach the device:
        // no trace entries, no transactions, and memory untouched.
        assert!(
            t.ops.is_empty(),
            "empty-mask uniform ops traced {:?}",
            t.ops
        );
        assert_eq!(m.read(p, 0), 41);
    }

    #[test]
    #[should_panic(expected = "illegal device address")]
    fn oob_load_panics() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc::<u32>(4);
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let _ = w.ld(Mask::FULL, p, &Lanes::splat(4u32));
    }

    #[test]
    fn alu_ops_record_active_counts() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            let ids = Lanes::lane_ids();
            let _ = w.add_scalar(Mask::first(5), &ids, 1);
            let _ = w.lt_scalar(Mask::first(10), &ids, 100);
        }
        assert_eq!(t.ops, vec![Op::Alu { active: 5 }, Op::Alu { active: 10 }]);
    }

    #[test]
    fn cached_load_hits_on_reuse() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let p = m.alloc_from(&(0..64u32).collect::<Vec<_>>());
        {
            let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
            let v1 = w.ld_cached(Mask::FULL, p, &Lanes::lane_ids());
            assert_eq!(v1.get(5), 5);
            let _ = w.ld_cached(Mask::FULL, p, &Lanes::lane_ids());
        }
        match (t.ops[0], t.ops[1]) {
            (
                Op::LdCached {
                    hits: 0, misses: 1, ..
                },
                Op::LdCached {
                    hits: 1, misses: 0, ..
                },
            ) => {}
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn lt_and_eq_masks() {
        let (mut m, mut s, mut t, mut ch, cfg) = ctx_parts();
        let mut w = WarpCtx::new(&mut m, &mut s, &mut t, &mut ch, &cfg, wid());
        let ids = Lanes::lane_ids();
        let m1 = w.lt_scalar(Mask::FULL, &ids, 4);
        assert_eq!(m1, Mask::first(4));
        let m2 = w.eq_scalar(Mask::first(8), &ids, 9);
        assert!(m2.none());
        let m3 = w.lt(Mask::FULL, &ids, &Lanes::splat(2u32));
        assert_eq!(m3, Mask::first(2));
    }
}
