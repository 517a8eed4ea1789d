//! Launch statistics: the quantities the paper's figures are made of.

use crate::trace::KernelTrace;
use serde::{Deserialize, Serialize};

/// Aggregated statistics of one kernel launch (functional + timing).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Simulated execution cycles (timing model output).
    pub cycles: u64,
    /// Total warp instructions issued.
    pub instructions: u64,
    /// ALU instructions.
    pub alu_instructions: u64,
    /// Global loads + stores.
    pub mem_instructions: u64,
    /// Atomic instructions.
    pub atomic_instructions: u64,
    /// Shared-memory instructions.
    pub shared_instructions: u64,
    /// Barriers executed (per warp).
    pub barriers: u64,
    /// Coalesced global-memory transactions (cached loads contribute their
    /// misses).
    pub mem_transactions: u64,
    /// Read-only-cached load instructions.
    pub cached_load_instructions: u64,
    /// Segments served by the read-only cache.
    pub cache_hit_segments: u64,
    /// Segments that missed the read-only cache (went to DRAM).
    pub cache_miss_segments: u64,
    /// Extra serializations from same-address atomics.
    pub atomic_replays: u64,
    /// Extra bank passes from shared-memory conflicts (cost − 1 summed).
    pub shared_replay_passes: u64,
    /// Sum over instructions of active lanes (lane-utilization numerator).
    pub active_lane_sum: u64,
    /// Number of warps that executed.
    pub warps: u64,
    /// Number of blocks launched.
    pub blocks: u64,
    /// Instructions per warp — the workload-imbalance histogram source.
    pub per_warp_instructions: Vec<u32>,
}

impl KernelStats {
    /// Build the functional-side statistics from a trace (cycles = 0 until
    /// the timing engine fills them in).
    pub fn from_trace(trace: &KernelTrace) -> Self {
        let mut s = KernelStats {
            blocks: trace.blocks.len() as u64,
            ..KernelStats::default()
        };
        for (_, _, wt) in trace.iter_warps() {
            s.warps += 1;
            s.per_warp_instructions.push(wt.len() as u32);
            for op in &wt.ops {
                use crate::trace::Op::*;
                s.instructions += 1;
                s.active_lane_sum += op.active_lanes() as u64;
                s.mem_transactions += op.transactions() as u64;
                match *op {
                    Alu { .. } => s.alu_instructions += 1,
                    LdCached { hits, misses, .. } => {
                        s.mem_instructions += 1;
                        s.cached_load_instructions += 1;
                        s.cache_hit_segments += hits as u64;
                        s.cache_miss_segments += misses as u64;
                    }
                    LdGlobal { .. } | StGlobal { .. } => s.mem_instructions += 1,
                    Shared { cost, .. } => {
                        s.shared_instructions += 1;
                        s.shared_replay_passes += (cost as u64).saturating_sub(1);
                    }
                    Atomic { replays, .. } => {
                        s.atomic_instructions += 1;
                        s.atomic_replays += replays as u64;
                    }
                    Bar => s.barriers += 1,
                }
            }
        }
        s
    }

    /// SIMD lane utilization in `[0, 1]`: mean fraction of the 32 lanes that
    /// were active per issued instruction. The paper's "ALU utilization".
    pub fn lane_utilization(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.active_lane_sum as f64 / (self.instructions as f64 * crate::lanes::WARP_SIZE as f64)
    }

    /// Mean transactions per global-memory instruction (1.0 = perfectly
    /// coalesced, 32.0 = fully scattered).
    pub fn tx_per_mem_instruction(&self) -> f64 {
        let mem = self.mem_instructions + self.atomic_instructions;
        if mem == 0 {
            return 0.0;
        }
        self.mem_transactions as f64 / mem as f64
    }

    /// Coefficient of variation of per-warp instruction counts — an
    /// aggregate inter-warp workload-imbalance measure.
    pub fn warp_imbalance_cv(&self) -> f64 {
        let n = self.per_warp_instructions.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self
            .per_warp_instructions
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>()
            / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_warp_instructions
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Max-over-mean of per-warp instruction counts: how much longer the
    /// busiest warp ran than the average one (≥ 1; 1 = perfectly balanced;
    /// 0.0 for a kernel that ran no warps at all).
    pub fn warp_imbalance_max_over_mean(&self) -> f64 {
        let n = self.per_warp_instructions.len();
        if n == 0 {
            return 0.0;
        }
        let sum: u64 = self.per_warp_instructions.iter().map(|&x| x as u64).sum();
        let mean = sum as f64 / n as f64;
        if mean == 0.0 {
            return 1.0;
        }
        let max = match self.per_warp_instructions.iter().max() {
            Some(&m) => m as f64,
            None => return 0.0,
        };
        max / mean
    }

    /// Accumulate another launch's statistics into this one (cycles add; the
    /// per-warp histogram concatenates). Used by multi-launch drivers (one
    /// BFS = one launch per level).
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.alu_instructions += other.alu_instructions;
        self.mem_instructions += other.mem_instructions;
        self.atomic_instructions += other.atomic_instructions;
        self.shared_instructions += other.shared_instructions;
        self.barriers += other.barriers;
        self.mem_transactions += other.mem_transactions;
        self.cached_load_instructions += other.cached_load_instructions;
        self.cache_hit_segments += other.cache_hit_segments;
        self.cache_miss_segments += other.cache_miss_segments;
        self.atomic_replays += other.atomic_replays;
        self.shared_replay_passes += other.shared_replay_passes;
        self.active_lane_sum += other.active_lane_sum;
        self.warps += other.warps;
        self.blocks += other.blocks;
        self.per_warp_instructions
            .extend_from_slice(&other.per_warp_instructions);
    }

    /// Read-only-cache hit rate over cached loads (0 if none issued).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hit_segments + self.cache_miss_segments;
        if total == 0 {
            0.0
        } else {
            self.cache_hit_segments as f64 / total as f64
        }
    }

    /// Wall-clock-equivalent seconds at the given core clock.
    pub fn seconds_at(&self, clock_hz: u64) -> f64 {
        self.cycles as f64 / clock_hz as f64
    }
}

impl std::fmt::Display for KernelStats {
    /// One-line human summary: cycles, instruction mix, lane utilization,
    /// and memory traffic.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles | {} instr (alu {}, mem {}, atomic {}, shared {}) | lane-util {:.1}% | {} tx",
            self.cycles,
            self.instructions,
            self.alu_instructions,
            self.mem_instructions,
            self.atomic_instructions,
            self.shared_instructions,
            self.lane_utilization() * 100.0,
            self.mem_transactions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BlockTrace, Op, WarpTrace};

    fn sample_trace() -> KernelTrace {
        KernelTrace {
            blocks: vec![BlockTrace {
                warps: vec![
                    WarpTrace {
                        ops: vec![
                            Op::Alu { active: 32 },
                            Op::LdGlobal { active: 16, tx: 16 },
                            Op::Atomic {
                                active: 4,
                                tx: 2,
                                replays: 3,
                            },
                            Op::Shared {
                                active: 32,
                                cost: 4,
                            },
                            Op::Bar,
                        ],
                    },
                    WarpTrace {
                        ops: vec![Op::Alu { active: 8 }],
                    },
                ],
            }],
            block_threads: 64,
            shared_words_per_block: 0,
        }
    }

    #[test]
    fn from_trace_counts() {
        let s = KernelStats::from_trace(&sample_trace());
        assert_eq!(s.instructions, 6);
        assert_eq!(s.alu_instructions, 2);
        assert_eq!(s.mem_instructions, 1);
        assert_eq!(s.atomic_instructions, 1);
        assert_eq!(s.shared_instructions, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.mem_transactions, 18);
        assert_eq!(s.atomic_replays, 3);
        assert_eq!(s.shared_replay_passes, 3);
        assert_eq!(s.warps, 2);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.per_warp_instructions, vec![5, 1]);
    }

    #[test]
    fn utilization_bounds() {
        let s = KernelStats::from_trace(&sample_trace());
        let u = s.lane_utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
        let empty = KernelStats::default();
        assert_eq!(empty.lane_utilization(), 0.0);
    }

    #[test]
    fn imbalance_measures() {
        let s = KernelStats::from_trace(&sample_trace());
        // warps have 5 and 1 instructions: mean 3, max 5.
        assert!((s.warp_imbalance_max_over_mean() - 5.0 / 3.0).abs() < 1e-12);
        assert!(s.warp_imbalance_cv() > 0.0);

        let balanced = KernelStats {
            per_warp_instructions: vec![4, 4, 4],
            ..Default::default()
        };
        assert_eq!(balanced.warp_imbalance_max_over_mean(), 1.0);
        assert_eq!(balanced.warp_imbalance_cv(), 0.0);
    }

    #[test]
    fn accumulate_adds() {
        let a = KernelStats::from_trace(&sample_trace());
        let mut acc = a.clone();
        acc.accumulate(&a);
        assert_eq!(acc.instructions, 2 * a.instructions);
        assert_eq!(acc.per_warp_instructions.len(), 4);
        assert_eq!(acc.warps, 4);
    }

    #[test]
    fn seconds_at_clock() {
        let s = KernelStats {
            cycles: 2_000_000,
            ..Default::default()
        };
        assert!((s.seconds_at(1_000_000_000) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn cached_loads_aggregate() {
        let kt = KernelTrace {
            blocks: vec![BlockTrace {
                warps: vec![WarpTrace {
                    ops: vec![
                        Op::LdCached {
                            active: 32,
                            hits: 3,
                            misses: 1,
                        },
                        Op::LdCached {
                            active: 16,
                            hits: 0,
                            misses: 2,
                        },
                    ],
                }],
            }],
            block_threads: 32,
            shared_words_per_block: 0,
        };
        let s = KernelStats::from_trace(&kt);
        assert_eq!(s.cached_load_instructions, 2);
        assert_eq!(s.cache_hit_segments, 3);
        assert_eq!(s.cache_miss_segments, 3);
        assert_eq!(s.mem_transactions, 3, "only misses hit DRAM");
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
        let mut acc = s.clone();
        acc.accumulate(&s);
        assert_eq!(acc.cache_hit_segments, 6);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(KernelStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn imbalance_of_zero_warp_kernel_is_zero() {
        // Regression: a launch that ran no warps (empty `KernelStats`) must
        // report 0.0 imbalance, not pretend to be perfectly balanced.
        let empty = KernelStats::default();
        assert!(empty.per_warp_instructions.is_empty());
        assert_eq!(empty.warp_imbalance_max_over_mean(), 0.0);
        assert_eq!(empty.warp_imbalance_cv(), 0.0);
    }

    #[test]
    fn display_summarizes() {
        let s = KernelStats::from_trace(&sample_trace());
        let line = s.to_string();
        assert!(line.contains("instr"));
        assert!(line.contains("lane-util"));
        assert!(line.contains("tx"));
        assert!(
            !line.contains("  "),
            "summary has a run of spaces: {line:?}"
        );
    }

    #[test]
    fn tx_per_mem() {
        let s = KernelStats::from_trace(&sample_trace());
        // 18 transactions over 2 global-memory instructions (ld + atomic).
        assert!((s.tx_per_mem_instruction() - 9.0).abs() < 1e-12);
    }
}
