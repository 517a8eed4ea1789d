//! Cycle-level timing engine.
//!
//! Replays instruction traces through a machine model:
//!
//! * blocks are dispatched to SMs as occupancy slots free up;
//! * each SM issues up to `issue_width` instructions per cycle from its
//!   ready warps, lowest warp index first (ready = previous instruction's
//!   latency has elapsed) — this is the latency-hiding mechanism that makes
//!   resident-warp count matter;
//! * global-memory transactions are serviced by a device-wide DRAM channel
//!   at `dram_cycles_per_transaction` each (the bandwidth limit), then incur
//!   `mem_latency` before the warp may continue;
//! * shared-memory accesses pay `shared_latency` plus bank-conflict passes;
//! * atomics pay DRAM service plus `atomic_replay_cycles` per same-address
//!   replay;
//! * barriers rendezvous all live warps of a block.
//!
//! The engine also supports *dynamic work queues* (the paper's dynamic
//! workload distribution): a shared FIFO of warp-sized task traces that
//! resident warps drain as they go idle, modeling `atomicAdd`-based chunk
//! fetching. Static chunk schedules are expressed as fixed per-warp streams
//! of the same task traces.
//!
//! Events are processed in global `(cycle, warp index)` order, which is
//! also the DRAM channel's FIFO order. A warp refused by its SM's issue
//! port waits in that SM's wait set; one *port token* per SM stands in the
//! event queue for the whole set, so a waiting warp costs no queue work per
//! cycle it waits.
//!
//! The event queue is bucketed by cycle, as no event lands before the one
//! being processed: the cycle being drained is a sorted buffer, every
//! later cycle of its aligned 1 024-cycle span an unsorted slot, every one
//! of the next 1 023 spans another, and the rest a binary heap. Occupancy
//! bitmaps find the next non-empty slot, and an event is re-filed at most
//! once (from its span's slot into its cycle's) before it is sorted.

use crate::config::GpuConfig;
use crate::trace::{KernelTrace, Op, WarpTrace};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Errors detected while setting up the timing simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimingError {
    /// Block cannot fit on an SM at all (too many warps or too much shared
    /// memory) — a real launch would fail with `cudaErrorInvalidValue`.
    ZeroOccupancy {
        block_threads: u32,
        shared_words: u32,
    },
    /// A dynamic-queue task trace contains a barrier, which has no defined
    /// semantics for warp-level tasks.
    BarrierInQueueTask,
    /// Some warps of a block parked at a `__syncthreads` that the block's
    /// other warps retired without ever reaching — on hardware the block
    /// hangs until the driver's watchdog kills it. `parked_warps` are
    /// in-block warp ids.
    BarrierDeadlock {
        block: u32,
        parked_warps: Vec<u32>,
        retired_warps: u32,
    },
    /// An event fell past the cycle range of the engine's packed event key.
    /// A key holds the warp index in its low `bits(warps)` bits and the
    /// cycle in the rest, so a launch of `W` warps can run to cycle
    /// `2^(64 - bits(W)) - 1` (over 10^13 for a million warps).
    CycleRange { cycle: u64, limit: u64 },
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::ZeroOccupancy {
                block_threads,
                shared_words,
            } => write!(
                f,
                "block of {block_threads} threads with {shared_words} shared words fits on no SM"
            ),
            TimingError::BarrierInQueueTask => {
                write!(f, "dynamic-queue task traces must not contain barriers")
            }
            TimingError::BarrierDeadlock {
                block,
                parked_warps,
                retired_warps,
            } => write!(
                f,
                "barrier deadlock in block {block}: warps {parked_warps:?} parked at a barrier \
                 {retired_warps} other warp(s) retired without reaching"
            ),
            TimingError::CycleRange { cycle, limit } => write!(
                f,
                "event at cycle {cycle} is past the timing engine's range of {limit} cycles \
                 for this launch's warp count"
            ),
        }
    }
}

impl std::error::Error for TimingError {}

/// Workload description for the timing engine. The warps' fixed streams
/// are held back to back in one buffer, so an input costs a few
/// allocations whatever its warp count.
pub struct TimingInput<'a> {
    /// Every warp's fixed stream of traces, block by block, warp by warp.
    traces: Vec<&'a WarpTrace>,
    /// Warp `i` runs `traces[warp_ends[i - 1]..warp_ends[i]]` (from 0 for
    /// warp 0).
    warp_ends: Vec<u32>,
    /// Block `b` holds warps `block_ends[b - 1]..block_ends[b]` (from 0 for
    /// block 0).
    block_ends: Vec<u32>,
    /// Threads per block (for occupancy).
    pub block_threads: u32,
    /// Shared-memory words per block (for occupancy).
    pub shared_words_per_block: u32,
    /// Shared dynamic work queue: after a warp exhausts its fixed stream it
    /// pulls task traces from this FIFO until empty. Empty vec = pure
    /// static execution.
    pub queue: Vec<&'a WarpTrace>,
}

impl<'a> TimingInput<'a> {
    /// A launch whose block `b` has one warp per stream of `blocks`'s
    /// `b`-th item, each stream the traces that warp executes in order.
    /// For an ordinary kernel launch each warp has exactly one trace.
    pub fn new<B, W>(
        blocks: impl IntoIterator<Item = B>,
        block_threads: u32,
        shared_words_per_block: u32,
        queue: Vec<&'a WarpTrace>,
    ) -> Self
    where
        B: IntoIterator<Item = W>,
        W: IntoIterator<Item = &'a WarpTrace>,
    {
        let mut input = TimingInput {
            traces: Vec::new(),
            warp_ends: Vec::new(),
            block_ends: Vec::new(),
            block_threads,
            shared_words_per_block,
            queue,
        };
        for block in blocks {
            for stream in block {
                input.traces.extend(stream);
                input.warp_ends.push(input.traces.len() as u32);
            }
            input.block_ends.push(input.warp_ends.len() as u32);
        }
        input
    }
}

/// Where one SM's cycles went, partitioned exactly: the six buckets of any
/// SM sum to the launch's total cycles. Every cycle of the launch interval
/// is either an issue cycle (the SM issued at least one instruction), a
/// *stall* gap between two issues — attributed to whatever latency the
/// gap-ending warp was waiting out — or idle time before the SM's first /
/// after its last issue (dispatch wait, drain, and chip-level imbalance:
/// SMs that run out of work sit in `idle` until the slowest SM finishes,
/// which is the paper's Figure-1 inter-warp/inter-SM imbalance made
/// visible).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Cycles with at least one instruction issued, plus gaps spent waiting
    /// on ALU pipeline latency (issue/compute-bound time).
    pub issue: u64,
    /// Gaps ended by a warp returning from a global-memory access (DRAM
    /// service + round-trip latency), including dynamic-queue task fetches.
    pub mem_stall: u64,
    /// Gaps ended by a warp serializing same-address atomic replays.
    pub atomic_stall: u64,
    /// Gaps ended by a warp replaying shared-memory bank conflicts.
    pub bank_stall: u64,
    /// Gaps ended by a warp released from a block-wide barrier.
    pub barrier_stall: u64,
    /// Cycles before the SM's first issue and after its last: block
    /// dispatch wait, final-latency drain, and tail/imbalance idling.
    pub idle: u64,
}

impl StallBreakdown {
    /// Sum of all buckets — equals the launch's total cycles for every SM.
    pub fn total(&self) -> u64 {
        self.issue
            + self.mem_stall
            + self.atomic_stall
            + self.bank_stall
            + self.barrier_stall
            + self.idle
    }

    /// Bucket-wise addition (for accumulating reports across launches).
    pub fn add(&mut self, other: &StallBreakdown) {
        self.issue += other.issue;
        self.mem_stall += other.mem_stall;
        self.atomic_stall += other.atomic_stall;
        self.bank_stall += other.bank_stall;
        self.barrier_stall += other.barrier_stall;
        self.idle += other.idle;
    }
}

/// One warp's lifetime within a launch, for timeline (Chrome-trace) export:
/// first issue to retirement, with the instructions it issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpSpan {
    /// SM the warp's block ran on.
    pub sm: u32,
    /// Block index in the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Cycle of the warp's first instruction issue.
    pub start: u64,
    /// Cycle the warp retired (last completion it contributed).
    pub end: u64,
    /// Instructions the warp issued.
    pub instructions: u64,
}

/// Detailed output of a timing simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Total execution cycles (max completion over all warps).
    pub cycles: u64,
    /// Instructions issued per SM — the load-balance view across the chip.
    pub sm_instructions: Vec<u64>,
    /// Cycles the DRAM channel spent servicing transactions.
    pub dram_busy_cycles: u64,
    /// Per-SM cycle attribution; each entry's buckets sum to `cycles`.
    pub sm_breakdown: Vec<StallBreakdown>,
}

impl TimingReport {
    /// Fraction of cycles the DRAM channel was busy (1.0 = bandwidth
    /// bound).
    pub fn dram_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.dram_busy_cycles as f64 / self.cycles as f64
    }

    /// Max-over-mean of per-SM issued instructions (1.0 = perfectly
    /// balanced chip).
    pub fn sm_imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.sm_instructions.to_vec();
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / busy.len() as f64;
        busy.iter().max().copied().unwrap_or(0) as f64 / mean
    }

    /// Bucket-wise sum of every SM's stall breakdown. Totals
    /// `cycles × num_sms` (each SM's buckets partition the launch interval).
    pub fn breakdown_total(&self) -> StallBreakdown {
        let mut total = StallBreakdown::default();
        for b in &self.sm_breakdown {
            total.add(b);
        }
        total
    }

    /// Fold another launch's report into this one: cycles and DRAM busy
    /// time add up, per-SM instruction counts and stall buckets add
    /// element-wise. This is the multi-launch (e.g. one BFS level per
    /// launch) aggregation; the buckets-sum-to-cycles invariant holds for
    /// the accumulated report too.
    pub fn accumulate(&mut self, other: &TimingReport) {
        self.cycles += other.cycles;
        self.dram_busy_cycles += other.dram_busy_cycles;
        if self.sm_instructions.len() < other.sm_instructions.len() {
            self.sm_instructions.resize(other.sm_instructions.len(), 0);
        }
        for (a, b) in self.sm_instructions.iter_mut().zip(&other.sm_instructions) {
            *a += b;
        }
        if self.sm_breakdown.len() < other.sm_breakdown.len() {
            self.sm_breakdown
                .resize(other.sm_breakdown.len(), StallBreakdown::default());
        }
        for (a, b) in self.sm_breakdown.iter_mut().zip(&other.sm_breakdown) {
            a.add(b);
        }
    }
}

/// Simulate the workload; returns total execution cycles.
pub fn simulate(input: &TimingInput<'_>, cfg: &GpuConfig) -> Result<u64, TimingError> {
    Ok(simulate_report(input, cfg)?.cycles)
}

/// Simulate the workload and return the detailed [`TimingReport`].
pub fn simulate_report(
    input: &TimingInput<'_>,
    cfg: &GpuConfig,
) -> Result<TimingReport, TimingError> {
    let mut eng = Engine::new(input, cfg)?;
    eng.replay()?;
    Ok(eng.report())
}

/// Simulate the workload and return the report plus one [`WarpSpan`] per
/// resident warp that issued at least one instruction — the timeline view.
pub fn simulate_spans(
    input: &TimingInput<'_>,
    cfg: &GpuConfig,
) -> Result<(TimingReport, Vec<WarpSpan>), TimingError> {
    let mut eng = Engine::new(input, cfg)?;
    eng.replay()?;
    Ok((eng.report(), eng.spans()))
}

/// The timing workload of an ordinary kernel launch: one single-trace
/// stream per warp, no dynamic queue.
pub fn kernel_input(trace: &KernelTrace) -> TimingInput<'_> {
    TimingInput::new(
        trace
            .blocks
            .iter()
            .map(|b| b.warps.iter().map(std::slice::from_ref)),
        trace.block_threads,
        trace.shared_words_per_block,
        Vec::new(),
    )
}

/// Convenience wrapper: time an ordinary kernel launch trace.
pub fn time_kernel_trace(trace: &KernelTrace, cfg: &GpuConfig) -> Result<u64, TimingError> {
    simulate(&kernel_input(trace), cfg)
}

/// What a warp that is not ready to issue is waiting on. Set when the
/// warp's next event is scheduled; read when it next issues, to attribute
/// the preceding no-issue gap on its SM to a stall bucket.
#[derive(Clone, Copy, Debug)]
enum Wait {
    /// Waiting for its block to be dispatched to an SM.
    Dispatch,
    /// ALU pipeline latency.
    Compute,
    /// Global-memory round trip (loads, stores, cached-load misses, and
    /// dynamic-queue task fetches).
    Mem,
    /// Atomic DRAM access plus same-address replay serialization.
    Atomic,
    /// Shared-memory latency and bank-conflict replay passes.
    Shared,
    /// Block-wide barrier rendezvous.
    Barrier,
}

impl Wait {
    fn of_op(op: Op) -> Wait {
        match op {
            Op::Alu { .. } => Wait::Compute,
            Op::LdGlobal { .. } | Op::StGlobal { .. } | Op::LdCached { .. } => Wait::Mem,
            Op::Atomic { .. } => Wait::Atomic,
            Op::Shared { .. } => Wait::Shared,
            Op::Bar => Wait::Compute,
        }
    }
}

struct WarpRt<'a> {
    stream: Vec<&'a WarpTrace>,
    cur_trace: usize,
    cur_op: usize,
    block: u32,
    /// SM the warp's block was dispatched to.
    sm: u32,
    finished: bool,
    /// Why the warp is not ready (attribution for the gap its next issue ends).
    wait: Wait,
    /// Cycle of the warp's first instruction issue, if any.
    first_issue: Option<u64>,
    /// Latest completion time the warp contributed.
    last_time: u64,
    /// Instructions the warp issued.
    instructions: u64,
}

impl<'a> WarpRt<'a> {
    fn current_op(&self) -> Option<Op> {
        self.stream
            .get(self.cur_trace)
            .and_then(|t| t.ops.get(self.cur_op))
            .copied()
    }

    /// Advance past the current op, skipping empty traces. Returns true if
    /// another op exists in the fixed stream.
    fn advance(&mut self) -> bool {
        self.cur_op += 1;
        self.normalize()
    }

    /// Position at the next op, skipping empty traces; false if none.
    fn normalize(&mut self) -> bool {
        loop {
            match self.stream.get(self.cur_trace) {
                None => return false,
                Some(t) if self.cur_op >= t.ops.len() => {
                    self.cur_trace += 1;
                    self.cur_op = 0;
                }
                Some(_) => return true,
            }
        }
    }
}

struct BlockRt {
    /// The block's warps are `first_warp..first_warp + num_warps`.
    first_warp: u32,
    num_warps: u32,
    sm: u32,
    live: u32,
    barrier_arrived: u32,
    barrier_waiting: Vec<u32>,
}

/// One SM: its issue port, its wait set, and its books.
struct SmRt {
    /// Cycle of the most recent issue, if any — the port's current cycle
    /// and the gap-attribution anchor.
    last_issue: Option<u64>,
    /// Instructions issued in cycle `last_issue`.
    issued_in_cycle: u32,
    free_slots: u32,
    instructions: u64,
    breakdown: StallBreakdown,
    /// Ready warps the port refused, smallest warp index on top.
    waiting: BinaryHeap<Reverse<u32>>,
    /// Sequence number of the SM's live port token. Queued tokens that
    /// carry an older number were superseded and are dropped on pop.
    token: u64,
}

impl SmRt {
    /// The earliest cycle from `t` on at which the port accepts an issue.
    /// Events arrive in cycle order, so `t` is never before `last_issue`.
    fn next_slot(&self, t: u64, issue_width: u32) -> u64 {
        if self.last_issue == Some(t) && self.issued_in_cycle >= issue_width {
            t + 1
        } else {
            t
        }
    }
}

/// Event tag of a warp's own issue attempt; port tokens carry their SM's
/// sequence number instead, which starts at 1.
const WARP_EVENT: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    /// `cycle << warp_bits | warp index`, so integer order is
    /// `(cycle, warp index)` order.
    key: u64,
    tag: u64,
}

/// Cycles per span, and slots per wheel, of [`CycleQueue`].
const SPAN: u64 = 1 << 10;

/// Min-queue of events, bucketed by cycle, for keys that never decrease:
/// every key pushed is at least the last key popped, because completions,
/// barrier releases, dispatches and port retries all land at or after the
/// event being processed.
///
/// Cycles fall into aligned spans of `SPAN` cycles. The events of the
/// cycle being drained (`now`) are held sorted; a push into that cycle is
/// a sorted insert. Later cycles of `now`'s span each have an unsorted
/// *near* slot, and each of the next `SPAN - 1` spans an unsorted *far*
/// slot, with one occupancy bit per slot. Moving to a new span spreads
/// its far slot into near slots, so an event moves at most once before
/// it is sorted with its cycle. A saturated DRAM channel schedules
/// completions thousands to hundreds of thousands of cycles ahead, which
/// the far slots cover; only events more than `SPAN²` cycles ahead wait
/// in a heap. Moving to the next cycle swaps its near slot's buffer with
/// the drained one, so no event is copied to be popped.
struct CycleQueue {
    /// Low bits of a key that hold the warp index.
    warp_bits: u32,
    /// The cycle being drained.
    now: u64,
    /// Events of cycle `now` in `(key, tag)` order; `current[head..]` are
    /// yet to pop.
    current: Vec<Event>,
    head: usize,
    /// Near slot `c % SPAN` for cycle `c` of `now`'s span, then far slot
    /// `s % SPAN` for a later span `s`.
    slots: Vec<Vec<Event>>,
    /// One bit per entry of `slots`: the slot is not empty.
    occupied: Vec<u64>,
    /// Events `SPAN` or more spans past `now`'s.
    overflow: BinaryHeap<Reverse<Event>>,
}

impl CycleQueue {
    fn new(warp_bits: u32) -> Self {
        CycleQueue {
            warp_bits,
            now: 0,
            current: Vec::new(),
            head: 0,
            slots: (0..2 * SPAN).map(|_| Vec::new()).collect(),
            occupied: vec![0; 2 * SPAN as usize / 64],
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, e: Event) {
        let c = e.key >> self.warp_bits;
        debug_assert!(
            c >= self.now && (self.head == 0 || e.key >= self.current[self.head - 1].key),
            "event keys must not decrease"
        );
        let (span, ahead) = (c / SPAN, c / SPAN - self.now / SPAN);
        if c == self.now {
            self.insert_current(e);
        } else if ahead < SPAN {
            let slot = if ahead == 0 {
                c % SPAN
            } else {
                SPAN + span % SPAN
            } as usize;
            self.slots[slot].push(e);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Insert `e`, of cycle `now`, among the events yet to pop.
    fn insert_current(&mut self, e: Event) {
        let at = self.head + self.current[self.head..].partition_point(|x| *x <= e);
        self.current.insert(at, e);
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if self.head == self.current.len() && !self.advance() {
            return None;
        }
        self.head += 1;
        Some(self.current[self.head - 1])
    }

    /// Move `now` to the next cycle that holds events and sort them into
    /// `current`; false when no event is left.
    fn advance(&mut self) -> bool {
        self.current.clear();
        self.head = 0;
        let mut from = self.now % SPAN + 1;
        loop {
            let span = self.now / SPAN;
            if let Some(i) = self.next_occupied(from, SPAN) {
                self.now = span * SPAN + i;
                self.clear_bit(i as usize);
                std::mem::swap(&mut self.current, &mut self.slots[i as usize]);
                if self.current.len() > 1 {
                    self.current.sort_unstable();
                }
                return true;
            }
            // The span is drained: open the next one that holds events.
            let far = span % SPAN + 1;
            let next = match self
                .next_occupied(SPAN + far, 2 * SPAN)
                .or_else(|| self.next_occupied(SPAN, SPAN + far))
            {
                Some(i) => span + (i - SPAN + SPAN - span % SPAN) % SPAN,
                None => match self.overflow.peek() {
                    Some(Reverse(e)) => (e.key >> self.warp_bits) / SPAN,
                    None => return false,
                },
            };
            self.now = next * SPAN;
            // The far slot's buffer is dropped rather than kept: a span
            // can hold thousands of events, and there are `SPAN` of them.
            let slot = (SPAN + next % SPAN) as usize;
            self.clear_bit(slot);
            for e in std::mem::take(&mut self.slots[slot]) {
                self.push(e);
            }
            while let Some(&Reverse(e)) = self.overflow.peek() {
                if (e.key >> self.warp_bits) / SPAN - next >= SPAN {
                    break;
                }
                self.overflow.pop();
                self.push(e);
            }
            if !self.current.is_empty() {
                return true;
            }
            from = 1;
        }
    }

    /// Mark slot `slot` empty; the caller empties it.
    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// The first occupied slot in `from..to`.
    fn next_occupied(&self, from: u64, to: u64) -> Option<u64> {
        let mut i = from;
        while i < to {
            let word = self.occupied[(i / 64) as usize] >> (i % 64);
            if word != 0 {
                let hit = i + word.trailing_zeros() as u64;
                return (hit < to).then_some(hit);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }
}

struct Engine<'a> {
    cfg: &'a GpuConfig,
    warps: Vec<WarpRt<'a>>,
    blocks: Vec<BlockRt>,
    sms: Vec<SmRt>,
    queue: VecDeque<&'a WarpTrace>,
    events: CycleQueue,
    /// Low bits of an event key that hold the warp index.
    warp_bits: u32,
    pending_blocks: VecDeque<u32>,
    dram_free: u64,
    dram_busy: u64,
    end_time: u64,
    /// Events popped, superseded port tokens included.
    pops: u64,
    /// First error raised mid-replay (a barrier deadlock or a cycle past
    /// the key range). The replay stops after the event that raised it:
    /// nothing later can change the error.
    fault: Option<TimingError>,
}

impl<'a> Engine<'a> {
    fn new(input: &TimingInput<'a>, cfg: &'a GpuConfig) -> Result<Self, TimingError> {
        for t in &input.queue {
            if t.ops.iter().any(|o| matches!(o, Op::Bar)) {
                return Err(TimingError::BarrierInQueueTask);
            }
        }
        let slots = cfg.blocks_per_sm(input.block_threads, input.shared_words_per_block);
        if slots == 0 && !input.block_ends.is_empty() {
            return Err(TimingError::ZeroOccupancy {
                block_threads: input.block_threads,
                shared_words: input.shared_words_per_block,
            });
        }

        let mut warps = Vec::with_capacity(input.warp_ends.len());
        let mut blocks = Vec::with_capacity(input.block_ends.len());
        let (mut first_warp, mut first_trace) = (0, 0);
        for (b, &warps_end) in input.block_ends.iter().enumerate() {
            let num_warps = warps_end - first_warp;
            blocks.push(BlockRt {
                first_warp,
                num_warps,
                sm: u32::MAX,
                live: num_warps,
                barrier_arrived: 0,
                barrier_waiting: Vec::new(),
            });
            for &traces_end in &input.warp_ends[first_warp as usize..warps_end as usize] {
                warps.push(WarpRt {
                    // Each warp owns a copy of its stream. Borrowing it
                    // from `input` saves an allocation per warp, but on a
                    // 2-vCPU host, with the replay overlapping the next
                    // functional pass, it measured 10-20 % slower p90
                    // latency on the benchmark's family_sweep.
                    stream: input.traces[first_trace..traces_end as usize].to_vec(),
                    cur_trace: 0,
                    cur_op: 0,
                    block: b as u32,
                    sm: u32::MAX,
                    finished: false,
                    wait: Wait::Dispatch,
                    first_issue: None,
                    last_time: 0,
                    instructions: 0,
                });
                first_trace = traces_end as usize;
            }
            first_warp = warps_end;
        }

        let warp_bits = usize::BITS - warps.len().leading_zeros();
        let mut eng = Engine {
            cfg,
            warp_bits,
            warps,
            blocks,
            sms: (0..cfg.num_sms)
                .map(|_| SmRt {
                    last_issue: None,
                    issued_in_cycle: 0,
                    free_slots: slots,
                    instructions: 0,
                    breakdown: StallBreakdown::default(),
                    waiting: BinaryHeap::new(),
                    token: 0,
                })
                .collect(),
            queue: input.queue.iter().copied().collect(),
            events: CycleQueue::new(warp_bits),
            pending_blocks: (0..input.block_ends.len() as u32).collect(),
            dram_free: 0,
            dram_busy: 0,
            end_time: 0,
            pops: 0,
            fault: None,
        };

        // Initial dispatch: fill SMs round-robin at t = 0.
        let mut sm = 0u32;
        let mut scanned_full_round = 0;
        while !eng.pending_blocks.is_empty() && scanned_full_round < cfg.num_sms {
            if eng.sms[sm as usize].free_slots > 0 {
                let Some(b) = eng.pending_blocks.pop_front() else {
                    break;
                };
                eng.dispatch_block(b, sm, 0);
                scanned_full_round = 0;
            } else {
                scanned_full_round += 1;
            }
            sm = (sm + 1) % cfg.num_sms;
        }
        Ok(eng)
    }

    fn dispatch_block(&mut self, b: u32, sm: u32, t: u64) {
        self.sms[sm as usize].free_slots -= 1;
        let block = &mut self.blocks[b as usize];
        block.sm = sm;
        let warps = block.first_warp..block.first_warp + block.num_warps;
        for wi in warps {
            self.warps[wi as usize].sm = sm;
            self.start_or_finish_warp(wi, t);
        }
    }

    /// Queue an event for warp `wi` at cycle `t`: its own issue attempt
    /// (`tag == WARP_EVENT`) or its SM's port token. A cycle past the key
    /// range is a fault rather than a wrapped key.
    fn schedule(&mut self, t: u64, wi: u32, tag: u64) {
        let limit = u64::MAX >> self.warp_bits;
        if t > limit {
            self.fault
                .get_or_insert(TimingError::CycleRange { cycle: t, limit });
            return;
        }
        self.events.push(Event {
            key: t << self.warp_bits | wi as u64,
            tag,
        });
    }

    /// Point SM `sm`'s port token at its smallest waiting warp, at the
    /// port's next legal slot from cycle `t`. A token already queued for
    /// the SM becomes stale.
    fn arm_token(&mut self, sm: usize, t: u64) {
        let s = &mut self.sms[sm];
        let Some(&Reverse(wi)) = s.waiting.peek() else {
            return;
        };
        s.token += 1;
        let (slot, tag) = (s.next_slot(t, self.cfg.issue_width), s.token);
        self.schedule(slot, wi, tag);
    }

    /// Give warp `wi` something to run at time `t`, pulling from the dynamic
    /// queue if its fixed stream is exhausted; otherwise retire it. A queue
    /// pull models the global-counter `atomicAdd` fetch of the paper's
    /// dynamic workload distribution, so it costs one DRAM transaction plus
    /// the round-trip memory latency before the pulled task can issue.
    fn start_or_finish_warp(&mut self, wi: u32, t: u64) {
        enum Next {
            Resume,
            Pulled,
            Done,
        }
        let next = {
            let w = &mut self.warps[wi as usize];
            if w.normalize() {
                Next::Resume
            } else if let Some(task) = self.queue.pop_front() {
                w.stream.push(task);
                if w.normalize() {
                    Next::Pulled
                } else {
                    Next::Done
                }
            } else {
                Next::Done
            }
        };
        match next {
            Next::Resume => self.schedule(t, wi, WARP_EVENT),
            Next::Pulled => {
                // The task fetch is a global-memory round trip.
                self.warps[wi as usize].wait = Wait::Mem;
                let ready = self.dram_service(t, 1) + self.cfg.mem_latency;
                self.schedule(ready, wi, WARP_EVENT);
            }
            Next::Done => self.finish_warp(wi, t),
        }
    }

    fn finish_warp(&mut self, wi: u32, t: u64) {
        let w = &mut self.warps[wi as usize];
        debug_assert!(!w.finished);
        w.finished = true;
        w.last_time = w.last_time.max(t);
        let b = w.block as usize;
        self.end_time = self.end_time.max(t);
        let block = &mut self.blocks[b];
        block.live -= 1;
        if block.live == 0 {
            // Block retires; its SM slot frees and a pending block launches.
            let sm = block.sm;
            self.sms[sm as usize].free_slots += 1;
            if let Some(nb) = self.pending_blocks.pop_front() {
                self.dispatch_block(nb, sm, t);
            }
        } else if block.barrier_arrived == block.live && block.barrier_arrived > 0 {
            // The finished warp was the last one others were waiting on:
            // the parked warps would wait forever.
            let first = block.first_warp;
            let parked_warps = block.barrier_waiting.iter().map(|&wi| wi - first).collect();
            let retired_warps = block.num_warps - block.live;
            self.fault.get_or_insert(TimingError::BarrierDeadlock {
                block: b as u32,
                parked_warps,
                retired_warps,
            });
        }
    }

    fn release_barrier(&mut self, b: usize, t: u64) {
        let waiting = std::mem::take(&mut self.blocks[b].barrier_waiting);
        self.blocks[b].barrier_arrived = 0;
        for wi in waiting {
            self.warps[wi as usize].wait = Wait::Barrier;
            let has_more = self.warps[wi as usize].advance();
            if has_more {
                self.schedule(t, wi, WARP_EVENT);
            } else {
                self.start_or_finish_warp(wi, t);
            }
        }
    }

    /// Process events in `(cycle, warp index)` order until none are left.
    ///
    /// The issue port: at each cycle an SM issues up to `issue_width` of
    /// its ready warps, lowest index first. A warp event that finds the
    /// port full parks the warp in the SM's wait set instead of retrying
    /// every cycle; the SM's single port token, keyed by the port's next
    /// legal slot and the smallest waiting index, pops exactly where that
    /// warp's retry would have, and either issues it or moves to the next
    /// slot. Each issued instruction so costs a bounded number of queue
    /// operations however many warps wait.
    fn replay(&mut self) -> Result<(), TimingError> {
        let width = self.cfg.issue_width;
        while let Some(Event { key, tag }) = self.events.pop() {
            self.pops += 1;
            let t = key >> self.warp_bits;
            let wi = (key & !(u64::MAX << self.warp_bits)) as u32;
            let sm = self.warps[wi as usize].sm as usize;
            let full = self.sms[sm].next_slot(t, width) > t;
            if tag != WARP_EVENT {
                if tag != self.sms[sm].token {
                    continue; // superseded by a token for a smaller warp
                }
                if !full {
                    let parked = self.sms[sm].waiting.pop();
                    debug_assert_eq!(parked, Some(Reverse(wi)), "token names the smallest");
                    self.issue(sm, wi, t);
                }
                self.arm_token(sm, t);
            } else if full {
                let s = &mut self.sms[sm];
                let smallest = s.waiting.peek().is_none_or(|&Reverse(m)| wi < m);
                s.waiting.push(Reverse(wi));
                if smallest {
                    self.arm_token(sm, t);
                }
            } else {
                self.issue(sm, wi, t);
            }
            if let Some(e) = self.fault.take() {
                return Err(e);
            }
        }
        debug_assert!(
            self.pending_blocks.is_empty(),
            "all blocks must have been dispatched"
        );
        debug_assert!(
            self.warps.iter().all(|w| w.finished),
            "all warps must retire"
        );
        Ok(())
    }

    /// Issue warp `wi`'s current instruction on SM `sm` at cycle `t` (the
    /// port has room) and schedule what follows it.
    fn issue(&mut self, sm: usize, wi: u32, t: u64) {
        // A scheduled warp always has a current op; a depleted warp would
        // have been retired instead. Drop it if the invariant is ever
        // violated rather than poisoning the engine.
        let Some(op) = self.warps[wi as usize].current_op() else {
            debug_assert!(false, "scheduled warp must have a current op");
            return;
        };
        let b = self.warps[wi as usize].block as usize;
        let s = &mut self.sms[sm];
        // Cycle attribution: the first issue of an SM cycle closes the
        // preceding no-issue gap. During that gap every resident warp was
        // waiting out some latency (had one been ready, it would have
        // issued — the port was free), so charge the whole gap to what the
        // gap-ending warp was waiting on. One refinement: if the gap ends
        // with a straggler arriving at a barrier that already has warps
        // parked, the gap is barrier imbalance — the early arrivers were
        // done and waiting; the straggler's exposed latency is the
        // rendezvous cost (the paper's inter-warp imbalance at
        // synchronization points).
        if s.last_issue != Some(t) {
            let gap = match s.last_issue {
                Some(prev) => t - prev - 1,
                None => t,
            };
            if gap > 0 {
                let straggler_bar = matches!(op, Op::Bar) && self.blocks[b].barrier_arrived > 0;
                let bucket = &mut s.breakdown;
                if straggler_bar {
                    bucket.barrier_stall += gap;
                } else {
                    match self.warps[wi as usize].wait {
                        Wait::Dispatch => bucket.idle += gap,
                        Wait::Compute => bucket.issue += gap,
                        Wait::Mem => bucket.mem_stall += gap,
                        Wait::Atomic => bucket.atomic_stall += gap,
                        Wait::Shared => bucket.bank_stall += gap,
                        Wait::Barrier => bucket.barrier_stall += gap,
                    }
                }
            }
            s.breakdown.issue += 1;
            s.last_issue = Some(t);
            s.issued_in_cycle = 0;
        }
        s.issued_in_cycle += 1;
        s.instructions += 1;

        let w = &mut self.warps[wi as usize];
        w.first_issue.get_or_insert(t);
        w.instructions += 1;
        w.wait = Wait::of_op(op);

        match op {
            Op::Bar => {
                let block = &mut self.blocks[b];
                block.barrier_arrived += 1;
                block.barrier_waiting.push(wi);
                let release = block.barrier_arrived == block.live;
                self.end_time = self.end_time.max(t + 1);
                self.warps[wi as usize].last_time = t + 1;
                if release {
                    self.release_barrier(b, t + 1);
                }
            }
            _ => {
                let done = self.completion_time(t, op);
                self.end_time = self.end_time.max(done);
                self.warps[wi as usize].last_time = done;
                if self.warps[wi as usize].advance() {
                    self.schedule(done, wi, WARP_EVENT);
                } else {
                    self.start_or_finish_warp(wi, done);
                }
            }
        }
    }

    /// The report of a finished replay. Every SM's books close here:
    /// everything after its last issue (or the whole launch, if it never
    /// issued) is drain/imbalance idle time.
    fn report(&self) -> TimingReport {
        TimingReport {
            cycles: self.end_time,
            sm_instructions: self.sms.iter().map(|s| s.instructions).collect(),
            dram_busy_cycles: self.dram_busy,
            sm_breakdown: self
                .sms
                .iter()
                .map(|s| StallBreakdown {
                    idle: s.breakdown.idle
                        + match s.last_issue {
                            Some(prev) => self.end_time.saturating_sub(prev + 1),
                            None => self.end_time,
                        },
                    ..s.breakdown
                })
                .collect(),
        }
    }

    /// One span per warp that issued at least one instruction.
    fn spans(&self) -> Vec<WarpSpan> {
        self.warps
            .iter()
            .enumerate()
            .filter_map(|(wi, w)| {
                let start = w.first_issue?;
                Some(WarpSpan {
                    sm: w.sm,
                    block: w.block,
                    warp_in_block: wi as u32 - self.blocks[w.block as usize].first_warp,
                    start,
                    end: w.last_time.max(start + 1),
                    instructions: w.instructions,
                })
            })
            .collect()
    }

    fn completion_time(&mut self, t_iss: u64, op: Op) -> u64 {
        let cfg = self.cfg;
        match op {
            Op::Alu { .. } => t_iss + cfg.alu_latency,
            Op::LdGlobal { tx, .. } | Op::StGlobal { tx, .. } => {
                self.dram_service(t_iss, tx as u64) + cfg.mem_latency
            }
            Op::LdCached { hits, misses, .. } => {
                let hit_done = if hits > 0 {
                    t_iss + cfg.l2_hit_latency
                } else {
                    t_iss
                };
                let miss_done = if misses > 0 {
                    self.dram_service(t_iss, misses as u64) + cfg.mem_latency
                } else {
                    t_iss
                };
                hit_done.max(miss_done).max(t_iss + 1)
            }
            Op::Shared { cost, .. } => t_iss + cfg.shared_latency + (cost as u64).saturating_sub(1),
            Op::Atomic { tx, replays, .. } => {
                self.dram_service(t_iss, tx as u64)
                    + cfg.mem_latency
                    + replays as u64 * cfg.atomic_replay_cycles
            }
            Op::Bar => unreachable!("barriers handled by caller"),
        }
    }

    /// Occupy the device-wide DRAM channel for `tx` transactions starting no
    /// earlier than `t`; returns the service completion time.
    fn dram_service(&mut self, t: u64, tx: u64) -> u64 {
        let service = tx * self.cfg.dram_cycles_per_transaction;
        self.dram_free = self.dram_free.max(t) + service;
        self.dram_busy += service;
        self.dram_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BlockTrace, WarpTrace};

    fn alu_trace(n: usize) -> WarpTrace {
        WarpTrace {
            ops: vec![Op::Alu { active: 32 }; n],
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::tiny_test()
    }

    fn one_block_input<'a>(warps: &'a [WarpTrace], threads: u32) -> TimingInput<'a> {
        TimingInput::new(
            [warps.iter().map(std::slice::from_ref)],
            threads,
            0,
            Vec::new(),
        )
    }

    #[test]
    fn empty_workload_is_zero_cycles() {
        let input = TimingInput::new(Vec::<Vec<Vec<&WarpTrace>>>::new(), 32, 0, Vec::new());
        assert_eq!(simulate(&input, &cfg()).unwrap(), 0);
    }

    #[test]
    fn single_warp_alu_chain_is_serial() {
        let t = [alu_trace(10)];
        let input = one_block_input(&t, 32);
        // Each ALU op: issue then alu_latency (4) before the next; final op
        // completes at ~10*4.
        let cycles = simulate(&input, &cfg()).unwrap();
        assert!((10 * 4..=10 * 4 + 10).contains(&cycles), "{cycles}");
    }

    #[test]
    fn more_warps_hide_alu_latency() {
        let one = [alu_trace(100)];
        let four: Vec<WarpTrace> = (0..4).map(|_| alu_trace(100)).collect();
        let c1 = simulate(&one_block_input(&one, 32), &cfg()).unwrap();
        let c4 = simulate(&one_block_input(&four, 128), &cfg()).unwrap();
        // 4 warps interleave in the latency shadow: far less than 4x slower.
        assert!(c4 < c1 * 2, "c1={c1} c4={c4}");
        assert!(
            c4 >= c1,
            "more total work cannot be faster: c1={c1} c4={c4}"
        );
    }

    #[test]
    fn memory_bound_workload_limited_by_dram() {
        // One warp, 50 loads of 32 transactions each = 1600 tx at 2
        // cycles/tx = 3200 cycles of pure DRAM service.
        let t = [WarpTrace {
            ops: vec![Op::LdGlobal { active: 32, tx: 32 }; 50],
        }];
        let cycles = simulate(&one_block_input(&t, 32), &cfg()).unwrap();
        assert!(cycles >= 3200, "{cycles}");
    }

    #[test]
    fn coalesced_loads_cheaper_than_scattered() {
        let coalesced = [WarpTrace {
            ops: vec![Op::LdGlobal { active: 32, tx: 1 }; 200],
        }];
        let scattered = [WarpTrace {
            ops: vec![Op::LdGlobal { active: 32, tx: 32 }; 200],
        }];
        let cc = simulate(&one_block_input(&coalesced, 32), &cfg()).unwrap();
        let cs = simulate(&one_block_input(&scattered, 32), &cfg()).unwrap();
        assert!(cs > cc, "scattered {cs} must exceed coalesced {cc}");
    }

    #[test]
    fn barrier_synchronizes_block() {
        // Warp 0 does 100 ALU ops then hits the barrier; warp 1 hits it
        // immediately. Both then do 1 op. Total must reflect warp 1 waiting.
        let mut w0 = alu_trace(100);
        w0.ops.push(Op::Bar);
        w0.ops.push(Op::Alu { active: 32 });
        let mut w1 = alu_trace(0);
        w1.ops.push(Op::Bar);
        w1.ops.push(Op::Alu { active: 32 });
        let warps = [w0, w1];
        let cycles = simulate(&one_block_input(&warps, 64), &cfg()).unwrap();
        assert!(cycles > 100, "{cycles}");
    }

    #[test]
    fn blocks_spread_across_sms() {
        // tiny_test has 2 SMs. Two 1-warp blocks with identical heavy work
        // should take about as long as one (they run on different SMs).
        let w = [alu_trace(1000)];
        let c1 = simulate(&one_block_input(&w, 32), &cfg()).unwrap();
        let t0 = alu_trace(1000);
        let t1 = alu_trace(1000);
        let input2 = TimingInput::new(vec![vec![vec![&t0]], vec![vec![&t1]]], 32, 0, Vec::new());
        let c2 = simulate(&input2, &cfg()).unwrap();
        assert!(c2 <= c1 + c1 / 4, "c1={c1} c2={c2}");
    }

    #[test]
    fn excess_blocks_queue_for_slots() {
        // 2 SMs x 4 slots = 8 resident blocks; 16 blocks must take ~2x the
        // time of 8.
        let t = alu_trace(500);
        let mk = |n: usize| TimingInput::new((0..n).map(|_| [[&t]]), 32, 0, Vec::new());
        let c8 = simulate(&mk(8), &cfg()).unwrap();
        let c16 = simulate(&mk(16), &cfg()).unwrap();
        assert!(c16 > c8, "c8={c8} c16={c16}");
        assert!(c16 <= 2 * c8 + 100, "c8={c8} c16={c16}");
    }

    #[test]
    fn zero_occupancy_is_error() {
        let t = [alu_trace(1)];
        let mut input = one_block_input(&t, 32);
        input.shared_words_per_block = u32::MAX;
        assert!(matches!(
            simulate(&input, &cfg()),
            Err(TimingError::ZeroOccupancy { .. })
        ));
    }

    #[test]
    fn barrier_in_queue_task_rejected() {
        let task = WarpTrace { ops: vec![Op::Bar] };
        let input = TimingInput::new(vec![vec![vec![]]], 32, 0, vec![&task]);
        assert!(matches!(
            simulate(&input, &cfg()),
            Err(TimingError::BarrierInQueueTask)
        ));
    }

    #[test]
    fn dynamic_queue_is_drained_and_balances() {
        // 8 imbalanced tasks; 2 resident warps pulling dynamically should
        // finish faster than a static split that puts all heavy tasks on one
        // warp.
        let heavy = alu_trace(400);
        let light = alu_trace(10);
        let tasks: Vec<&WarpTrace> = vec![
            &heavy, &heavy, &heavy, &heavy, &light, &light, &light, &light,
        ];
        let dynamic = TimingInput::new(vec![vec![vec![], vec![]]], 64, 0, tasks.clone());
        let static_bad = TimingInput::new(
            vec![vec![
                vec![&heavy, &heavy, &heavy, &heavy],
                vec![&light, &light, &light, &light],
            ]],
            64,
            0,
            Vec::new(),
        );
        let cd = simulate(&dynamic, &cfg()).unwrap();
        let cs = simulate(&static_bad, &cfg()).unwrap();
        assert!(cd < cs, "dynamic {cd} should beat bad static {cs}");
        // Pulling is not free: the 8 pulls split across 2 warps, so one
        // warp serializes at least 4 counter fetches into its chain.
        let fetch = cfg().mem_latency;
        assert!(
            cd >= 4 * fetch,
            "dynamic {cd} must include queue-fetch cost"
        );
    }

    #[test]
    fn queue_pull_charges_memory_fetch() {
        // One warp, empty fixed stream, 8 one-op tasks: every task arrives
        // via a queue pull, and each pull is a global atomicAdd fetch that
        // costs a DRAM transaction plus the full memory round-trip. The
        // compute itself (~8 ALU ops) is noise next to 8 fetches.
        let task = alu_trace(1);
        let input = TimingInput::new(vec![vec![vec![]]], 32, 0, vec![&task; 8]);
        let c = cfg();
        let cycles = simulate(&input, &c).unwrap();
        assert!(
            cycles >= 8 * c.mem_latency,
            "8 queue pulls must cost at least 8 memory fetches: {cycles}"
        );
    }

    #[test]
    fn time_kernel_trace_wrapper() {
        let kt = KernelTrace {
            blocks: vec![BlockTrace {
                warps: vec![alu_trace(5), alu_trace(5)],
            }],
            block_threads: 64,
            shared_words_per_block: 0,
        };
        let cycles = time_kernel_trace(&kt, &cfg()).unwrap();
        assert!(cycles > 0);
    }

    #[test]
    fn monotone_in_work() {
        let short = [alu_trace(10)];
        let long = [alu_trace(20)];
        let cs = simulate(&one_block_input(&short, 32), &cfg()).unwrap();
        let cl = simulate(&one_block_input(&long, 32), &cfg()).unwrap();
        assert!(cl > cs);
    }

    #[test]
    fn report_conserves_instructions_and_dram() {
        let t = WarpTrace {
            ops: vec![
                Op::Alu { active: 32 },
                Op::LdGlobal { active: 32, tx: 4 },
                Op::Atomic {
                    active: 8,
                    tx: 2,
                    replays: 1,
                },
                Op::Alu { active: 16 },
            ],
        };
        let input = TimingInput::new((0..6).map(|_| [[&t], [&t]]), 64, 0, Vec::new());
        let cfg = cfg();
        let report = simulate_report(&input, &cfg).unwrap();
        let total: u64 = report.sm_instructions.iter().sum();
        assert_eq!(total, 12 * 4, "every op issued exactly once");
        // 12 warps x 6 tx each at 2 cycles/tx.
        assert_eq!(report.dram_busy_cycles, 12 * 6 * 2);
        assert!(report.dram_utilization() > 0.0 && report.dram_utilization() <= 1.0);
        assert!(report.sm_imbalance() >= 1.0);
    }

    #[test]
    fn report_on_empty_workload() {
        let input = TimingInput::new(Vec::<Vec<Vec<&WarpTrace>>>::new(), 32, 0, Vec::new());
        let r = simulate_report(&input, &cfg()).unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.dram_utilization(), 0.0);
        assert_eq!(r.sm_imbalance(), 1.0);
    }

    #[test]
    fn single_sm_takes_all_instructions() {
        let mut one_sm = cfg();
        one_sm.num_sms = 1;
        let t = alu_trace(50);
        let input = TimingInput::new(vec![vec![vec![&t]]], 32, 0, Vec::new());
        let r = simulate_report(&input, &one_sm).unwrap();
        assert_eq!(r.sm_instructions, vec![50]);
    }

    #[test]
    fn cached_hits_are_faster_than_misses() {
        let cfg = cfg();
        let hit = WarpTrace {
            ops: vec![
                Op::LdCached {
                    active: 32,
                    hits: 1,
                    misses: 0
                };
                50
            ],
        };
        let miss = WarpTrace {
            ops: vec![
                Op::LdCached {
                    active: 32,
                    hits: 0,
                    misses: 1
                };
                50
            ],
        };
        let time = |t: &WarpTrace| {
            simulate(
                &TimingInput::new(vec![vec![vec![t]]], 32, 0, Vec::new()),
                &cfg,
            )
            .unwrap()
        };
        assert!(
            time(&hit) < time(&miss),
            "hit {} vs miss {}",
            time(&hit),
            time(&miss)
        );
        // Misses consume DRAM bandwidth; hits must not.
        let report = simulate_report(
            &TimingInput::new(vec![vec![vec![&hit]]], 32, 0, Vec::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.dram_busy_cycles, 0);
    }

    #[test]
    fn wider_issue_port_helps_issue_bound_workloads() {
        // 8 warps of pure ALU work saturate a single-issue SM; doubling the
        // issue width should cut the time nearly in half.
        let t = alu_trace(500);
        let mk_cfg = |w: u32| {
            let mut c = cfg();
            c.num_sms = 1;
            c.max_warps_per_sm = 8;
            c.issue_width = w;
            c
        };
        let input = || TimingInput::new([(0..8).map(|_| [&t])], 256, 0, Vec::new());
        let c1 = simulate(&input(), &mk_cfg(1)).unwrap();
        let c2 = simulate(&input(), &mk_cfg(2)).unwrap();
        assert!(c2 < c1, "dual issue {c2} vs single {c1}");
        assert!(c2 * 3 > c1, "speedup bounded by 2x: {c1} -> {c2}");
    }

    /// Every SM's stall buckets must sum exactly to the reported cycles.
    fn assert_buckets_partition(report: &TimingReport) {
        assert_eq!(
            report.sm_breakdown.len(),
            report.sm_instructions.len(),
            "one breakdown per SM"
        );
        for (sm, b) in report.sm_breakdown.iter().enumerate() {
            assert_eq!(
                b.total(),
                report.cycles,
                "SM {sm} buckets {b:?} must sum to {} cycles",
                report.cycles
            );
        }
    }

    #[test]
    fn stall_buckets_partition_cycles_across_workloads() {
        let cfg = cfg();
        // A mixed trace exercising every bucket source: ALU, global loads,
        // atomics with replays, shared-memory conflicts, and a barrier.
        let mut w0 = WarpTrace {
            ops: vec![
                Op::Alu { active: 32 },
                Op::LdGlobal { active: 32, tx: 8 },
                Op::Atomic {
                    active: 16,
                    tx: 4,
                    replays: 6,
                },
                Op::Shared {
                    active: 32,
                    cost: 7,
                },
            ],
        };
        w0.ops.push(Op::Bar);
        w0.ops.push(Op::Alu { active: 32 });
        let mut w1 = alu_trace(3);
        w1.ops.push(Op::Bar);
        w1.ops.push(Op::LdGlobal { active: 32, tx: 2 });
        let warps = [w0, w1];
        let report = simulate_report(&one_block_input(&warps, 64), &cfg).unwrap();
        assert_buckets_partition(&report);
        let total = report.breakdown_total();
        assert!(total.mem_stall > 0, "loads must show up as memory stalls");
        assert!(total.barrier_stall > 0, "barrier wait must be attributed");
        // The idle bucket absorbs the other SM (no block to run) entirely.
        assert!(total.idle >= report.cycles, "second SM idles the whole run");
    }

    #[test]
    fn stall_buckets_partition_with_dynamic_queue() {
        let heavy = alu_trace(400);
        let light = alu_trace(10);
        let tasks: Vec<&WarpTrace> = vec![&heavy, &heavy, &light, &light, &light];
        let input = TimingInput::new(vec![vec![vec![], vec![]]], 64, 0, tasks);
        let report = simulate_report(&input, &cfg()).unwrap();
        assert_buckets_partition(&report);
        // Queue pulls are memory fetches: they must be attributed.
        assert!(report.breakdown_total().mem_stall > 0);
    }

    #[test]
    fn stall_buckets_partition_on_empty_workload() {
        let input = TimingInput::new(Vec::<Vec<Vec<&WarpTrace>>>::new(), 32, 0, Vec::new());
        let report = simulate_report(&input, &cfg()).unwrap();
        assert_buckets_partition(&report);
        assert_eq!(report.breakdown_total(), StallBreakdown::default());
    }

    #[test]
    fn memory_bound_run_attributes_mem_stalls() {
        let t = [WarpTrace {
            ops: vec![Op::LdGlobal { active: 32, tx: 32 }; 20],
        }];
        let report = simulate_report(&one_block_input(&t, 32), &cfg()).unwrap();
        assert_buckets_partition(&report);
        let b = &report.sm_breakdown[0];
        assert!(
            b.mem_stall > b.issue,
            "a single-warp load chain is memory-stalled, not issue-bound: {b:?}"
        );
    }

    #[test]
    fn spans_cover_issuing_warps() {
        let warps = [alu_trace(10), alu_trace(30)];
        let (report, spans) = simulate_spans(&one_block_input(&warps, 64), &cfg()).unwrap();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert_eq!(s.block, 0);
            assert!(s.start < s.end);
            assert!(s.end <= report.cycles);
        }
        assert_eq!(spans[0].warp_in_block, 0);
        assert_eq!(spans[1].warp_in_block, 1);
        assert_eq!(
            spans.iter().map(|s| s.instructions).sum::<u64>(),
            40,
            "span instruction counts cover the whole trace"
        );
        // Empty warps produce no span.
        let input = TimingInput::new(vec![vec![vec![], vec![]]], 64, 0, Vec::new());
        let (_, none) = simulate_spans(&input, &cfg()).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn accumulate_folds_reports() {
        let t = [alu_trace(10)];
        let r1 = simulate_report(&one_block_input(&t, 32), &cfg()).unwrap();
        let mut acc = TimingReport::default();
        acc.accumulate(&r1);
        acc.accumulate(&r1);
        assert_eq!(acc.cycles, 2 * r1.cycles);
        assert_eq!(
            acc.sm_instructions.iter().sum::<u64>(),
            2 * r1.sm_instructions.iter().sum::<u64>()
        );
        // The buckets-sum-to-cycles invariant survives accumulation.
        for b in &acc.sm_breakdown {
            assert_eq!(b.total(), acc.cycles);
        }
    }

    #[test]
    fn waiting_warps_cost_no_queue_work_per_cycle() {
        // 48 all-ALU warps on one single-issue SM: most of them are ready
        // and refused by the port every cycle. An issued instruction may
        // cost its own event, a token pop and a superseded token — never
        // one pop per waiting warp per cycle (about W/2 per instruction).
        let mut cfg = GpuConfig::fermi_c2050();
        cfg.num_sms = 1;
        let t = alu_trace(200);
        let input = TimingInput::new((0..6).map(|_| [[&t]; 8]), 256, 0, Vec::new());
        let mut eng = Engine::new(&input, &cfg).unwrap();
        eng.replay().unwrap();
        let issued = eng.report().sm_instructions[0];
        assert_eq!(issued, 48 * 200);
        assert!(
            eng.pops <= 3 * issued,
            "{} queue pops for {issued} instructions",
            eng.pops
        );
    }

    proptest::proptest! {
        /// The cycle queue pops what a binary heap of the same events pops,
        /// in the same `(key, tag)` order, for pushes that never go below
        /// the last pop: into the cycle being drained, within its span,
        /// into the far wheel, past it into the overflow, many into one
        /// cycle, and repeats of a key with other tags.
        #[test]
        fn cycle_queue_pops_like_a_binary_heap(
            warp_bits in 0u32..12,
            ops in proptest::collection::vec((0u8..10, proptest::prelude::any::<u64>(), 0u64..3), 0..400),
        ) {
            let mut q = CycleQueue::new(warp_bits);
            let mut reference = BinaryHeap::new();
            let (mut last, mut pushed) = (0u64, Vec::new());
            let warp = |r: u64| r & !(u64::MAX << warp_bits);
            for (kind, r, tag) in ops {
                let cycle = last >> warp_bits;
                let key = match kind {
                    0..=2 => {
                        if let Some(Reverse(want)) = reference.pop() {
                            let got = q.pop();
                            proptest::prop_assert_eq!(got, Some(want));
                            last = want.key;
                        }
                        continue;
                    }
                    // The cycle being drained, at or after the last pop.
                    3 => (cycle << warp_bits | warp(r)).max(last),
                    // A key pushed before, under another tag.
                    4 if !pushed.is_empty() => {
                        let k: u64 = pushed[(r % pushed.len() as u64) as usize];
                        if k < last {
                            continue;
                        }
                        k
                    }
                    5 => (cycle + 1 + r % SPAN) << warp_bits | warp(r >> 32),
                    6 => (cycle + SPAN + r % (SPAN * SPAN)) << warp_bits | warp(r >> 32),
                    7 => (cycle + SPAN * SPAN + r % (4 * SPAN * SPAN)) << warp_bits | warp(r >> 32),
                    8 => (cycle + r % 64) << warp_bits | warp(r >> 32),
                    // Crowd two cycles with many events each.
                    _ => (cycle + 1 + r % 2) << warp_bits | warp(r >> 32),
                };
                let e = Event { key: key.max(last), tag };
                q.push(e);
                reference.push(Reverse(e));
                pushed.push(e.key);
            }
            while let Some(Reverse(want)) = reference.pop() {
                proptest::prop_assert_eq!(q.pop(), Some(want));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn cycles_past_the_key_range_are_an_error() {
        // Two warps leave 62 bits of cycle count; a latency that long
        // must surface as an error, not a wrapped key or a panic.
        let mut far = cfg();
        far.alu_latency = 1 << 62;
        let warps = [alu_trace(2), alu_trace(2)];
        let err = simulate(&one_block_input(&warps, 64), &far).unwrap_err();
        assert_eq!(
            err,
            TimingError::CycleRange {
                cycle: 1 << 62,
                limit: (1 << 62) - 1,
            }
        );
        assert!(err.to_string().contains("range"));
    }

    #[test]
    fn empty_warp_streams_retire() {
        // A block whose warps have nothing to do completes at cycle 0.
        let input = TimingInput::new(vec![vec![vec![], vec![]]], 64, 0, Vec::new());
        assert_eq!(simulate(&input, &cfg()).unwrap(), 0);
    }
}
