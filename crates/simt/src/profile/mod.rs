//! Cycle-attribution profiler: per-call-site hotspots, stall breakdown,
//! and warp timelines.
//!
//! The paper's argument is an *attribution* story — it explains BFS
//! performance by where the cycles go: inter-warp workload imbalance, SIMD
//! lane underutilization from divergence, and non-coalesced memory traffic.
//! [`KernelStats`](crate::stats::KernelStats) reports those quantities per
//! launch; this module reports them per *source line* and per *SM cycle*:
//!
//! * **Per-site table** — every traced warp operation is attributed (via
//!   `#[track_caller]`, like the sanitizer's diagnostics) to the kernel
//!   source line that executed it, aggregating instructions, active-lane
//!   sum, memory transactions, atomic replays, and bank-conflict passes.
//!   From these each site gets a lane utilization, a coalescing efficiency,
//!   and an estimated cycle cost used to rank the hotspot report.
//! * **Stall breakdown** — the timing engine's per-SM
//!   [`StallBreakdown`](crate::timing::StallBreakdown) (issue/compute,
//!   memory, atomic, bank, barrier, idle), with buckets summing exactly to
//!   total cycles, accumulated across launches.
//! * **Timeline** — per-launch [`WarpSpan`](crate::timing::WarpSpan)s,
//!   exportable as Chrome trace-event JSON (`chrome://tracing` / Perfetto).
//!
//! Profiling is opt-in (`GpuConfig::profile` or `MAXWARP_PROFILE=1`) and
//! strictly observational: traces, `KernelStats`, and simulated cycles are
//! byte-identical with it on or off (the profiler only reads the
//! [`Issue`](crate::event) events of ops the functional phase records; it
//! never writes the trace).

mod export;

use crate::config::GpuConfig;
use crate::event::{Event, EventKind};
use crate::timing::{TimingReport, WarpSpan};
use crate::trace::Op;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::Location;

/// Per-site accumulation state (one row of the eventual hotspot table).
#[derive(Clone, Copy, Debug, Default)]
struct SiteAgg {
    instructions: u64,
    active_lane_sum: u64,
    transactions: u64,
    ideal_transactions: u64,
    atomic_replays: u64,
    bank_passes: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Cost weights for ranking sites, taken from the device configuration.
#[derive(Clone, Copy, Debug)]
struct CostWeights {
    dram_cycles_per_transaction: u64,
    atomic_replay_cycles: u64,
}

/// One call site's aggregated profile — a row of the hotspot table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SiteReport {
    /// Source file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub column: u32,
    /// Operation name (`ld`, `st`, `alu`, `atomic_add`, `sh_ld`, ...).
    pub op: String,
    /// Warp instructions issued from this site.
    pub instructions: u64,
    /// Sum of active lanes over those instructions (max 32 each).
    pub active_lane_sum: u64,
    /// Memory transactions (DRAM segments) this site generated.
    pub transactions: u64,
    /// Transactions a perfectly coalesced access pattern would have needed.
    pub ideal_transactions: u64,
    /// Same-address atomic replays.
    pub atomic_replays: u64,
    /// Shared-memory bank passes (1 = conflict-free).
    pub bank_passes: u64,
    /// Read-only-cache hits (cached loads only).
    pub cache_hits: u64,
    /// Read-only-cache misses (cached loads only).
    pub cache_misses: u64,
    /// Estimated cycle cost (issue slots + DRAM service + atomic replay
    /// serialization + extra bank passes) — the ranking key.
    pub est_cycles: u64,
}

impl SiteReport {
    /// Fraction of SIMD lanes doing useful work at this site (0..=1).
    pub fn lane_utilization(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.active_lane_sum as f64 / (self.instructions as f64 * crate::lanes::WARP_SIZE as f64)
    }

    /// Ideal-over-actual transaction ratio (1.0 = perfectly coalesced);
    /// `None` for sites without global-memory traffic.
    pub fn coalescing_efficiency(&self) -> Option<f64> {
        if self.transactions == 0 {
            return None;
        }
        Some(self.ideal_transactions as f64 / self.transactions as f64)
    }

    /// `file:line:column` of the call site.
    pub fn location(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One profiled launch: label, cost, per-SM timing, and warp timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LaunchProfile {
    /// Launch ordinal within the profiled run (0-based).
    pub index: u32,
    /// Driver-provided label (e.g. `bfs level 3`), or `launch N`.
    pub label: String,
    /// The launch's simulated cycles.
    pub cycles: u64,
    /// Warp instructions issued in the launch.
    pub instructions: u64,
    /// Per-SM timing detail; stall buckets sum to `cycles` per SM.
    pub timing: TimingReport,
    /// One span per resident warp that issued at least one instruction.
    pub spans: Vec<WarpSpan>,
}

/// The full profile of a run: ranked hotspot sites, accumulated timing,
/// and the per-launch timeline. Produced by [`Profiler::report`]; exported
/// as a human-readable table ([`ProfileReport::hotspot_table`]), profile
/// JSON ([`ProfileReport::to_json`]), or a Chrome trace
/// ([`ProfileReport::chrome_trace`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Device preset name.
    pub device: String,
    /// Driver-provided context label (kernel/dataset/method).
    pub context: String,
    /// Total cycles across all launches.
    pub total_cycles: u64,
    /// Timing accumulated across launches (per-SM buckets sum to
    /// `total_cycles`).
    pub timing: TimingReport,
    /// Call sites ranked by estimated cycle cost, descending.
    pub sites: Vec<SiteReport>,
    /// Per-launch profiles, in launch order.
    pub launches: Vec<LaunchProfile>,
}

impl ProfileReport {
    /// Warp instructions issued across all launches.
    pub fn total_instructions(&self) -> u64 {
        self.launches.iter().map(|l| l.instructions).sum()
    }
}

/// The profiling engine a [`Gpu`](crate::device::Gpu) carries when
/// `GpuConfig::profile` (or `MAXWARP_PROFILE=1`) is set. Mirrors the
/// sanitizer's lifecycle: the device notifies it of launches, warp contexts
/// feed it per-op samples, and [`Profiler::report`] snapshots the result.
#[derive(Debug)]
pub struct Profiler {
    device: String,
    context: String,
    next_label: Option<String>,
    weights: CostWeights,
    /// Coalescing segment size in words, for ideal-transaction counts.
    seg_words: u32,
    sites: HashMap<(&'static Location<'static>, &'static str), SiteAgg>,
    launches: Vec<LaunchProfile>,
    timing: TimingReport,
}

impl Profiler {
    /// A fresh profiler for a device; the config supplies the cost weights
    /// used to rank hotspots.
    pub fn new(cfg: &GpuConfig) -> Self {
        Profiler {
            device: cfg.name.clone(),
            context: String::new(),
            next_label: None,
            weights: CostWeights {
                dram_cycles_per_transaction: cfg.dram_cycles_per_transaction,
                atomic_replay_cycles: cfg.atomic_replay_cycles,
            },
            seg_words: cfg.segment_words(),
            sites: HashMap::new(),
            launches: Vec::new(),
            timing: TimingReport::default(),
        }
    }

    /// Label the whole profile (kernel/dataset/method), like the
    /// sanitizer's context.
    pub fn set_context(&mut self, name: &str) {
        self.context = name.to_string();
    }

    /// Label the *next* launch (e.g. `bfs level 3`); consumed when that
    /// launch is submitted.
    pub fn set_launch_label(&mut self, label: &str) {
        self.next_label = Some(label.to_string());
    }

    /// Take the label set for the launch being submitted; it travels with
    /// the launch until [`finish_launch`](Self::finish_launch), so labels
    /// set for later launches in the meantime cannot steal its place.
    pub(crate) fn take_launch_label(&mut self) -> Option<String> {
        self.next_label.take()
    }

    /// Attribute one issued instruction to the kernel call site it came
    /// from; every other event kind is ignored.
    pub(crate) fn on_event(&mut self, ev: &Event<'_>) {
        let EventKind::Issue(op) = ev.kind else {
            return;
        };
        let seg_words = self.seg_words;
        let agg = self.sites.entry((ev.site, ev.op)).or_default();
        agg.instructions += 1;
        agg.active_lane_sum += op.active_lanes() as u64;
        agg.transactions += op.transactions() as u64;
        match op {
            Op::LdGlobal { active, .. } | Op::StGlobal { active, .. } => {
                agg.ideal_transactions += ideal_tx(active as u32, seg_words);
            }
            Op::Atomic {
                active, replays, ..
            } => {
                agg.ideal_transactions += ideal_tx(active as u32, seg_words);
                agg.atomic_replays += replays as u64;
            }
            Op::LdCached { hits, misses, .. } => {
                agg.cache_hits += hits as u64;
                agg.cache_misses += misses as u64;
            }
            Op::Shared { cost, .. } => {
                agg.bank_passes += cost as u64;
            }
            Op::Alu { .. } | Op::Bar => {}
        }
    }

    /// Close out one launch: fold its timing into the running totals and
    /// record its per-launch profile (label, spans, breakdown). Launches
    /// finish in submission order; an unlabelled one is `launch <index>`.
    pub(crate) fn finish_launch(
        &mut self,
        label: Option<String>,
        timing: TimingReport,
        spans: Vec<WarpSpan>,
    ) {
        let index = self.launches.len() as u32;
        let label = label.unwrap_or_else(|| format!("launch {index}"));
        self.timing.accumulate(&timing);
        let instructions = timing.sm_instructions.iter().sum();
        self.launches.push(LaunchProfile {
            index,
            label,
            cycles: timing.cycles,
            instructions,
            timing,
            spans,
        });
    }

    /// Launches profiled so far.
    pub fn launch_count(&self) -> u32 {
        self.launches.len() as u32
    }

    /// Snapshot the accumulated profile: sites ranked by estimated cycle
    /// cost (ties broken by source location for determinism).
    pub fn report(&self) -> ProfileReport {
        let w = self.weights;
        let mut sites: Vec<SiteReport> = self
            .sites
            .iter()
            .map(|(&(site, op), agg)| {
                // Extra bank passes beyond the conflict-free one per access.
                let bank_extra = agg.bank_passes.saturating_sub(agg.instructions);
                SiteReport {
                    file: site.file().to_string(),
                    line: site.line(),
                    column: site.column(),
                    op: op.to_string(),
                    instructions: agg.instructions,
                    active_lane_sum: agg.active_lane_sum,
                    transactions: agg.transactions,
                    ideal_transactions: agg.ideal_transactions,
                    atomic_replays: agg.atomic_replays,
                    bank_passes: agg.bank_passes,
                    cache_hits: agg.cache_hits,
                    cache_misses: agg.cache_misses,
                    est_cycles: agg.instructions
                        + agg.transactions * w.dram_cycles_per_transaction
                        + agg.atomic_replays * w.atomic_replay_cycles
                        + bank_extra,
                }
            })
            .collect();
        sites.sort_by(|a, b| {
            b.est_cycles.cmp(&a.est_cycles).then_with(|| {
                (&a.file, a.line, a.column, &a.op).cmp(&(&b.file, b.line, b.column, &b.op))
            })
        });
        ProfileReport {
            device: self.device.clone(),
            context: self.context.clone(),
            total_cycles: self.timing.cycles,
            timing: self.timing.clone(),
            sites,
            launches: self.launches.clone(),
        }
    }
}

/// Transactions a perfectly coalesced access with `active` lanes would
/// need: `ceil(active / seg_words)`, at least 1 when any lane is active.
fn ideal_tx(active: u32, seg_words: u32) -> u64 {
    if active == 0 {
        return 0;
    }
    active.div_ceil(seg_words.max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::StallBreakdown;

    fn prof() -> Profiler {
        Profiler::new(&GpuConfig::tiny_test())
    }

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    /// Feed `p` one issued instruction from `site`.
    fn note(p: &mut Profiler, site: &'static Location<'static>, op_name: &'static str, op: Op) {
        p.on_event(&Event {
            id: crate::warp::WarpId {
                block: 0,
                warp_in_block: 0,
                warps_per_block: 1,
                num_blocks: 1,
            },
            epoch: 0,
            op: op_name,
            site,
            kind: EventKind::Issue(op),
        });
    }

    #[test]
    fn sites_aggregate_and_rank() {
        let mut p = prof();
        let s1 = here();
        let s2 = here();
        // s1: 2 scattered loads. s2: 1 coalesced load.
        for _ in 0..2 {
            note(&mut p, s1, "ld", Op::LdGlobal { active: 32, tx: 32 });
        }
        note(&mut p, s2, "ld", Op::LdGlobal { active: 32, tx: 1 });
        let r = p.report();
        assert_eq!(r.sites.len(), 2);
        // Scattered site costs more, so it ranks first.
        assert_eq!(r.sites[0].line, s1.line());
        assert_eq!(r.sites[0].instructions, 2);
        assert_eq!(r.sites[0].transactions, 64);
        assert_eq!(r.sites[0].ideal_transactions, 2);
        let eff = r.sites[0].coalescing_efficiency().unwrap();
        assert!((eff - 2.0 / 64.0).abs() < 1e-9);
        assert_eq!(r.sites[1].coalescing_efficiency(), Some(1.0));
        assert_eq!(r.sites[1].lane_utilization(), 1.0);
    }

    #[test]
    fn atomic_and_shared_costs_counted() {
        let mut p = prof();
        let s = here();
        let atomic = Op::Atomic {
            active: 32,
            tx: 1,
            replays: 31,
        };
        note(&mut p, s, "atomic_add", atomic);
        let shared = Op::Shared {
            active: 32,
            cost: 8,
        };
        note(&mut p, s, "sh_ld", shared);
        let r = p.report();
        let atomic = r.sites.iter().find(|x| x.op == "atomic_add").unwrap();
        assert_eq!(atomic.atomic_replays, 31);
        let w = GpuConfig::tiny_test();
        assert_eq!(
            atomic.est_cycles,
            1 + w.dram_cycles_per_transaction + 31 * w.atomic_replay_cycles
        );
        let sh = r.sites.iter().find(|x| x.op == "sh_ld").unwrap();
        assert_eq!(sh.bank_passes, 8);
        assert_eq!(sh.est_cycles, 1 + 7);
    }

    #[test]
    fn launches_accumulate_timing() {
        let mut p = prof();
        let mk = |cycles: u64| TimingReport {
            cycles,
            sm_instructions: vec![10, 0],
            dram_busy_cycles: 3,
            sm_breakdown: vec![
                StallBreakdown {
                    issue: cycles,
                    ..Default::default()
                },
                StallBreakdown {
                    idle: cycles,
                    ..Default::default()
                },
            ],
        };
        p.set_launch_label("level 0");
        let label = p.take_launch_label();
        p.finish_launch(label, mk(100), Vec::new());
        p.finish_launch(None, mk(50), Vec::new());
        let r = p.report();
        assert_eq!(r.total_cycles, 150);
        assert_eq!(r.launches.len(), 2);
        assert_eq!(r.launches[0].label, "level 0");
        assert_eq!(r.launches[1].label, "launch 1");
        assert_eq!(r.total_instructions(), 20);
        for b in &r.timing.sm_breakdown {
            assert_eq!(b.total(), r.total_cycles);
        }
    }

    #[test]
    fn ideal_tx_bounds() {
        assert_eq!(ideal_tx(0, 32), 0);
        assert_eq!(ideal_tx(1, 32), 1);
        assert_eq!(ideal_tx(32, 32), 1);
        assert_eq!(ideal_tx(33, 32), 2);
        assert_eq!(ideal_tx(5, 0), 5);
    }
}
