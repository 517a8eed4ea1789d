//! GPU configuration: machine parameters for the functional and timing models.

use serde::{Deserialize, Serialize};

/// Machine description for the simulated GPU.
///
/// The defaults and presets are modeled on the paper-era parts (PPoPP 2011
/// used pre-Fermi/Fermi NVIDIA GPUs). Only parameters that the paper's
/// effects depend on are modeled: SM count, warp residency (latency hiding),
/// issue rate, ALU/memory latencies, DRAM bandwidth expressed as transaction
/// service rate, and the coalescing segment size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Human-readable name of the preset.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM (occupancy ceiling).
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block accepted by `launch`.
    pub max_threads_per_block: u32,
    /// Shared memory per SM in 32-bit words.
    pub shared_words_per_sm: u32,
    /// Core clock in Hz — used only to convert simulated cycles into
    /// wall-clock-equivalent throughput numbers (edges/second).
    pub clock_hz: u64,
    /// Cycles between issuing a dependent ALU instruction (pipeline depth).
    /// With enough resident warps this latency is hidden and throughput is
    /// one instruction per cycle per SM.
    pub alu_latency: u64,
    /// Minimum global-memory round-trip latency in cycles.
    pub mem_latency: u64,
    /// Shared-memory access latency in cycles.
    pub shared_latency: u64,
    /// DRAM service time per memory transaction (segment) in cycles, for the
    /// whole device. 1 means the device can retire one coalesced segment per
    /// core cycle (≈ 128 B/cycle ≈ 147 GB/s at 1.15 GHz, Fermi-class).
    pub dram_cycles_per_transaction: u64,
    /// Extra serialization cost per conflicting atomic (same-address replay).
    pub atomic_replay_cycles: u64,
    /// Size in bytes of a coalesced memory segment (transaction).
    pub segment_bytes: u32,
    /// Lines (of `segment_bytes`) in the device-wide read-only cache used
    /// by `ld_cached` (texture path / L2). 0 disables it.
    pub l2_lines: u32,
    /// Associativity of the read-only cache.
    pub l2_ways: u32,
    /// Latency of a read-only-cache hit, in cycles.
    pub l2_hit_latency: u64,
    /// Instructions the SM can issue per cycle. The model issues from one
    /// warp per slot, taking ready warps lowest warp index first.
    pub issue_width: u32,
    /// Enable the warp-hazard sanitizer (racecheck/memcheck shadow state).
    /// Also switched on by `MAXWARP_SANITIZE=1` in the environment. Purely
    /// observational: results and `KernelStats` are identical either way.
    pub sanitize: bool,
    /// Enable the cycle-attribution profiler (per-call-site hotspot table,
    /// per-SM stall breakdown, warp timeline). Also switched on by
    /// `MAXWARP_PROFILE=1` in the environment. Purely observational: results,
    /// `KernelStats`, and simulated cycles are identical either way.
    pub profile: bool,
    /// Enable the static abstract-interpretation analyzer (affine access
    /// forms, barrier convergence, may-happen-in-parallel races, coalescing
    /// and bank-conflict prediction). Also switched on by `MAXWARP_ANALYZE=1`
    /// in the environment. Purely observational: results and `KernelStats`
    /// are identical either way.
    #[serde(default)]
    pub analyze: bool,
    /// Watchdog budgets (cycles / instructions / driver iterations). All
    /// `None` by default — existing runs are byte-identical. Env overrides:
    /// `MAXWARP_MAX_CYCLES`, `MAXWARP_MAX_ITERS`.
    #[serde(default)]
    pub watchdog: crate::fault::WatchdogConfig,
    /// Deterministic fault injection (chaos mode). `None` (the default)
    /// injects nothing; `MAXWARP_FAULTS=seed` enables every fault class.
    #[serde(default)]
    pub faults: Option<crate::fault::FaultConfig>,
}

impl GpuConfig {
    /// Fermi-class Tesla C2050 — the kind of part the paper's follow-up work
    /// ran on. 14 SMs, 48 resident warps/SM, ~144 GB/s DRAM.
    pub fn fermi_c2050() -> Self {
        GpuConfig {
            name: "Fermi C2050 (simulated)".to_string(),
            num_sms: 14,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            shared_words_per_sm: 48 * 1024 / 4,
            clock_hz: 1_150_000_000,
            alu_latency: 12,
            mem_latency: 450,
            shared_latency: 30,
            dram_cycles_per_transaction: 1,
            atomic_replay_cycles: 20,
            segment_bytes: 128,
            // Fermi's 768 KB L2.
            l2_lines: 6144,
            l2_ways: 8,
            l2_hit_latency: 120,
            issue_width: 1,
            sanitize: false,
            profile: false,
            analyze: false,
            watchdog: crate::fault::WatchdogConfig::default(),
            faults: None,
        }
    }

    /// GT200-class GTX 280 — the generation the PPoPP'11 experiments used.
    /// 30 SMs, 32 resident warps/SM, stricter coalescing handled by the same
    /// segment model, longer memory latency.
    pub fn gtx280() -> Self {
        GpuConfig {
            name: "GTX 280 (simulated)".to_string(),
            num_sms: 30,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 8,
            max_threads_per_block: 512,
            shared_words_per_sm: 16 * 1024 / 4,
            clock_hz: 1_296_000_000,
            alu_latency: 16,
            mem_latency: 550,
            shared_latency: 36,
            dram_cycles_per_transaction: 1,
            atomic_replay_cycles: 32,
            segment_bytes: 128,
            // GT200 has no L2; model its small texture caches.
            l2_lines: 512,
            l2_ways: 4,
            l2_hit_latency: 90,
            issue_width: 1,
            sanitize: false,
            profile: false,
            analyze: false,
            watchdog: crate::fault::WatchdogConfig::default(),
            faults: None,
        }
    }

    /// A deliberately tiny machine for unit tests: 2 SMs, 4 warps/SM. Small
    /// enough that hand-computed schedules are checkable.
    pub fn tiny_test() -> Self {
        GpuConfig {
            name: "tiny-test".to_string(),
            num_sms: 2,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 4,
            max_threads_per_block: 256,
            shared_words_per_sm: 4096,
            clock_hz: 1_000_000_000,
            alu_latency: 4,
            mem_latency: 100,
            shared_latency: 10,
            dram_cycles_per_transaction: 2,
            atomic_replay_cycles: 8,
            segment_bytes: 128,
            l2_lines: 32,
            l2_ways: 2,
            l2_hit_latency: 10,
            issue_width: 1,
            sanitize: false,
            profile: false,
            analyze: false,
            watchdog: crate::fault::WatchdogConfig::default(),
            faults: None,
        }
    }

    /// Words of a segment (segment_bytes / 4).
    #[inline]
    pub fn segment_words(&self) -> u32 {
        self.segment_bytes / 4
    }

    /// Resident blocks per SM for a given block size (threads).
    ///
    /// `shared_words_per_block` is the shared memory the kernel allocates per
    /// block; 0 if none.
    pub fn blocks_per_sm(&self, threads_per_block: u32, shared_words_per_block: u32) -> u32 {
        let warps_per_block = threads_per_block.div_ceil(crate::lanes::WARP_SIZE as u32);
        let by_warps = self.max_warps_per_sm / warps_per_block.max(1);
        let by_blocks = self.max_blocks_per_sm;
        let by_shared = self
            .shared_words_per_sm
            .checked_div(shared_words_per_block)
            .unwrap_or(u32::MAX);
        by_warps.min(by_blocks).min(by_shared)
    }

    /// Occupancy in resident warps per SM for a block size.
    pub fn occupancy_warps(&self, threads_per_block: u32, shared_words_per_block: u32) -> u32 {
        let warps_per_block = threads_per_block.div_ceil(crate::lanes::WARP_SIZE as u32);
        self.blocks_per_sm(threads_per_block, shared_words_per_block) * warps_per_block
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::fermi_c2050()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for cfg in [
            GpuConfig::fermi_c2050(),
            GpuConfig::gtx280(),
            GpuConfig::tiny_test(),
        ] {
            assert!(cfg.num_sms > 0);
            assert!(cfg.max_warps_per_sm > 0);
            assert!(cfg.segment_bytes % 4 == 0);
            assert!(cfg.issue_width >= 1);
            assert!(cfg.mem_latency > cfg.alu_latency);
        }
    }

    #[test]
    fn occupancy_limited_by_warps() {
        let cfg = GpuConfig::fermi_c2050();
        // 256-thread blocks = 8 warps; 48/8 = 6 blocks, under the 8-block cap.
        assert_eq!(cfg.blocks_per_sm(256, 0), 6);
        assert_eq!(cfg.occupancy_warps(256, 0), 48);
    }

    #[test]
    fn occupancy_limited_by_block_cap() {
        let cfg = GpuConfig::fermi_c2050();
        // 32-thread blocks = 1 warp; warp limit allows 48 but cap is 8.
        assert_eq!(cfg.blocks_per_sm(32, 0), 8);
        assert_eq!(cfg.occupancy_warps(32, 0), 8);
    }

    #[test]
    fn occupancy_limited_by_shared() {
        let cfg = GpuConfig::fermi_c2050();
        let half = cfg.shared_words_per_sm / 2 + 1;
        assert_eq!(cfg.blocks_per_sm(64, half), 1);
    }

    #[test]
    fn default_is_fermi() {
        assert_eq!(GpuConfig::default().name, GpuConfig::fermi_c2050().name);
    }

    #[test]
    fn segment_words_matches_bytes() {
        assert_eq!(GpuConfig::fermi_c2050().segment_words(), 32);
    }
}
