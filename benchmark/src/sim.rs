//! The `simt` layer's work counts, summed over the ops of a pass from
//! `KernelStats` and `Gpu::timing_total()`. All exact: for fixed code and
//! seed they repeat bit for bit, so a host-speed change must leave every one
//! of them identical.

use crate::spec::Values;
use maxwarp_simt::{KernelStats, StallBreakdown, TimingReport};

#[derive(Clone, Default)]
pub struct SimAcc {
    pub cycles: u64,
    pub instr: u64,
    mem_instr: u64,
    atomic_instr: u64,
    mem_tx: u64,
    atomic_replays: u64,
    shared_replay_passes: u64,
    active_lane_sum: u64,
    cache_hit_segments: u64,
    cache_miss_segments: u64,
    timing: TimingReport,
    /// Host ns spent inside the `run_*` calls that produced the counts.
    pub host_ns: u64,
}

impl SimAcc {
    /// Fold one op in: its accumulated launch stats, the timing detail of
    /// the device it ran on, and the host time the call took.
    pub fn add(&mut self, s: &KernelStats, timing: &TimingReport, host_ns: u64) {
        // Scalars only: `KernelStats::accumulate` would also concatenate the
        // per-warp histograms of every launch of every op.
        self.cycles += s.cycles;
        self.instr += s.instructions;
        self.mem_instr += s.mem_instructions;
        self.atomic_instr += s.atomic_instructions;
        self.mem_tx += s.mem_transactions;
        self.atomic_replays += s.atomic_replays;
        self.shared_replay_passes += s.shared_replay_passes;
        self.active_lane_sum += s.active_lane_sum;
        self.cache_hit_segments += s.cache_hit_segments;
        self.cache_miss_segments += s.cache_miss_segments;
        self.timing.accumulate(timing);
        self.host_ns += host_ns;
    }

    pub fn stalls(&self) -> StallBreakdown {
        self.timing.breakdown_total()
    }

    /// Cycles summed over every SM's stall buckets; each SM's buckets
    /// partition a launch, so this is `timing cycles x SMs`.
    pub fn stall_total(&self) -> u64 {
        self.stalls().total()
    }

    pub fn timing_cycles(&self) -> u64 {
        self.timing.cycles
    }

    /// Write the `simt.*` counts and the host-time ratios.
    pub fn report(&self, out: &mut Values) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.set("simt.instr", self.instr as f64);
        out.set("simt.mem_tx", self.mem_tx as f64);
        out.set("simt.atomic_replays", self.atomic_replays as f64);
        out.set(
            "simt.shared_replay_passes",
            self.shared_replay_passes as f64,
        );
        out.set(
            "simt.lane_util",
            ratio(self.active_lane_sum, self.instr * 32),
        );
        out.set(
            "simt.tx_per_mem_instr",
            ratio(self.mem_tx, self.mem_instr + self.atomic_instr),
        );
        out.set(
            "simt.cache_hit_ratio",
            ratio(
                self.cache_hit_segments,
                self.cache_hit_segments + self.cache_miss_segments,
            ),
        );
        // The serve tier hands back `KernelStats` only: without timing
        // detail these read 0, like every layer a workload does not cross.
        if self.timing.cycles > 0 {
            out.set("simt.dram_util", self.timing.dram_utilization());
            out.set("simt.sm_imbalance", self.timing.sm_imbalance());
        }
        let st = self.stalls();
        out.set("simt.stall.issue", st.issue as f64);
        out.set("simt.stall.mem", st.mem_stall as f64);
        out.set("simt.stall.atomic", st.atomic_stall as f64);
        out.set("simt.stall.bank", st.bank_stall as f64);
        out.set("simt.stall.barrier", st.barrier_stall as f64);
        out.set("simt.stall.idle", st.idle as f64);
        out.set("simt.host_ns_per_instr", ratio(self.host_ns, self.instr));
        out.set(
            "simt.minstr_per_s",
            if self.host_ns == 0 {
                0.0
            } else {
                self.instr as f64 / 1e6 / (self.host_ns as f64 / 1e9)
            },
        );
    }
}
