//! Fault-tolerant execution: structured errors, watchdog budgets, and
//! deterministic fault injection.
//!
//! The functional executor used to `panic!` on malformed device programs
//! (out-of-bounds addresses, exhausted shared memory, bad shuffle widths) and
//! to loop forever on non-converging drivers. This module turns every such
//! condition into a [`SimtError`] value carrying the same block/warp/lane/site
//! attribution the sanitizer's diagnostics use, so a single bad kernel in a
//! 78-combo sweep produces a report instead of taking the process down.
//!
//! Three pieces live here:
//!
//! * [`SimtError`] — the error taxonomy surfaced through
//!   `LaunchError::Fault` by `Gpu::launch` and the driver loops in
//!   `maxwarp-core`.
//! * [`WatchdogConfig`] — optional cycle / instruction / iteration budgets
//!   (`GpuConfig::watchdog`, `MAXWARP_MAX_CYCLES`, `MAXWARP_MAX_ITERS`) that
//!   convert hangs into diagnosable [`SimtError::Watchdog`] values.
//! * [`FaultConfig`] + [`ChaosState`] — a seedable chaos mode
//!   (`GpuConfig::faults`, `MAXWARP_FAULTS=seed`) that injects bit-flips in
//!   device memory, dropped atomic updates, and scheduling perturbations at
//!   reproducible trace points. Same seed, same program → same injections,
//!   same outcome.

use std::fmt;
use std::panic::Location;

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// error taxonomy
// ---------------------------------------------------------------------------

/// Which address space an out-of-bounds access targeted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddressSpace {
    Global,
    Shared,
}

impl AddressSpace {
    /// The wording the simulator has always used in its abort messages.
    fn label(self) -> &'static str {
        match self {
            AddressSpace::Global => "device",
            AddressSpace::Shared => "shared-memory",
        }
    }
}

/// What tripped the watchdog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WatchdogKind {
    /// Cumulative simulated cycles across launches exceeded
    /// `WatchdogConfig::max_cycles`.
    CycleBudget { cycles: u64, budget: u64 },
    /// A single warp's functional trace exceeded
    /// `WatchdogConfig::max_instructions` — the classic symptom of a
    /// `while mask.any()` loop that never converges inside a kernel.
    InstructionBudget {
        instructions: u64,
        budget: u64,
        block: u32,
        warp: u32,
        site: &'static Location<'static>,
    },
    /// A driver fixpoint loop ran past its iteration bound
    /// (`WatchdogConfig::max_iterations` or the algorithm's theoretical cap).
    IterationBudget {
        algo: String,
        iterations: u32,
        budget: u32,
        site: &'static Location<'static>,
    },
    /// Some warps of a block parked on a barrier while the rest retired —
    /// on hardware this hangs the block forever.
    BarrierDeadlock {
        block: u32,
        parked_warps: Vec<u32>,
        retired_warps: u32,
    },
}

/// Structured error for everything that used to panic inside the simulator,
/// with the same attribution scheme as the sanitizer's diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimtError {
    /// A lane addressed past the end of a device or shared allocation.
    OutOfBounds {
        space: AddressSpace,
        block: u32,
        warp: u32,
        lane: Option<u32>,
        index: u64,
        len: u64,
        op: &'static str,
        site: &'static Location<'static>,
    },
    /// `shared_alloc` asked for more words than the block has left.
    SharedMemoryOverflow {
        requested_words: u32,
        used_words: u32,
        capacity_words: u32,
        block: u32,
        site: &'static Location<'static>,
    },
    /// `DeviceMem::try_alloc` overflowed the 32-bit word address space.
    AddressSpaceExhausted {
        requested_bytes: u64,
        available_bytes: u64,
    },
    /// A warp-level shuffle/segmented op was given an invalid width
    /// (not a power of two, or wider than the warp).
    InvalidShuffle {
        width: u32,
        block: u32,
        warp: u32,
        op: &'static str,
        site: &'static Location<'static>,
    },
    /// A watchdog budget tripped — the run would otherwise hang.
    Watchdog(WatchdogKind),
}

impl WatchdogKind {
    /// Stable lowercase label for metrics
    /// (`simt_watchdog_trips_total{kind=…}`).
    pub fn kind_label(&self) -> &'static str {
        match self {
            WatchdogKind::CycleBudget { .. } => "cycle_budget",
            WatchdogKind::InstructionBudget { .. } => "instruction_budget",
            WatchdogKind::IterationBudget { .. } => "iteration_budget",
            WatchdogKind::BarrierDeadlock { .. } => "barrier_deadlock",
        }
    }
}

impl SimtError {
    /// Stable lowercase label for metrics (`simt_faults_total{kind=…}`).
    pub fn kind_label(&self) -> &'static str {
        match self {
            SimtError::OutOfBounds { .. } => "out_of_bounds",
            SimtError::SharedMemoryOverflow { .. } => "shared_memory_overflow",
            SimtError::AddressSpaceExhausted { .. } => "address_space_exhausted",
            SimtError::InvalidShuffle { .. } => "invalid_shuffle",
            SimtError::Watchdog(_) => "watchdog",
        }
    }
}

impl fmt::Display for SimtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimtError::OutOfBounds {
                space,
                block,
                warp,
                lane,
                index,
                len,
                op,
                site,
            } => {
                write!(
                    f,
                    "illegal {} address: index {index} out of bounds for allocation of {len}",
                    space.label()
                )?;
                write!(f, "\n    at {site} (op `{op}`)")?;
                write!(f, "\n    block {block} warp {warp}")?;
                if let Some(l) = lane {
                    write!(f, " lane {l}")?;
                }
                Ok(())
            }
            SimtError::SharedMemoryOverflow {
                requested_words,
                used_words,
                capacity_words,
                block,
                site,
            } => write!(
                f,
                "shared memory exhausted: requested {requested_words} words, \
                 {used_words} of {capacity_words} in use\n    at {site}\n    block {block}"
            ),
            SimtError::AddressSpaceExhausted {
                requested_bytes,
                available_bytes,
            } => write!(
                f,
                "device memory address space exhausted: requested {requested_bytes} B, \
                 {available_bytes} B of address space left"
            ),
            SimtError::InvalidShuffle {
                width,
                block,
                warp,
                op,
                site,
            } => write!(
                f,
                "invalid shuffle width {width}: must be a power of two \
                 <= 32\n    at {site} (op `{op}`)\n    block {block} warp {warp}"
            ),
            SimtError::Watchdog(kind) => match kind {
                WatchdogKind::CycleBudget { cycles, budget } => write!(
                    f,
                    "watchdog: simulated cycle budget exceeded ({cycles} > {budget})"
                ),
                WatchdogKind::InstructionBudget {
                    instructions,
                    budget,
                    block,
                    warp,
                    site,
                } => write!(
                    f,
                    "watchdog: warp instruction budget exceeded \
                     ({instructions} > {budget})\n    at {site}\n    block {block} warp {warp}"
                ),
                WatchdogKind::IterationBudget {
                    algo,
                    iterations,
                    budget,
                    site,
                } => write!(
                    f,
                    "watchdog: {algo}: {iterations} driver iterations exceeds bound {budget} \
                     — kernel not converging\n    at {site}"
                ),
                WatchdogKind::BarrierDeadlock {
                    block,
                    parked_warps,
                    retired_warps,
                } => write!(
                    f,
                    "watchdog: barrier deadlock in block {block}: warps {parked_warps:?} \
                     parked on a barrier while {retired_warps} warp(s) retired without it"
                ),
            },
        }
    }
}

impl std::error::Error for SimtError {}

/// Launch-wide fault state every warp of a launch reports into and draws
/// injections from.
#[derive(Debug, Default)]
pub(crate) struct LaunchFaults {
    /// The first fault recorded; it fails the launch.
    pub first: Option<SimtError>,
    /// Chaos mode: the launch's dropped-atomic plan, if that fault class is
    /// enabled.
    pub drop_plan: Option<AtomicDropPlan>,
}

impl LaunchFaults {
    /// Record `err`, keeping only the first fault (later ones are usually
    /// knock-on effects of the first).
    pub(crate) fn record(&mut self, err: SimtError) {
        self.first.get_or_insert(err);
    }
}

// ---------------------------------------------------------------------------
// watchdog configuration
// ---------------------------------------------------------------------------

/// Optional execution budgets; `None` means unlimited (the default, which
/// keeps every existing run byte-identical).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Budget on cumulative simulated cycles across all launches on a `Gpu`.
    /// Env override: `MAXWARP_MAX_CYCLES`.
    pub max_cycles: Option<u64>,
    /// Budget on a single warp's functional instruction count per launch —
    /// bounds in-kernel `while mask.any()` loops.
    pub max_instructions: Option<u64>,
    /// Budget on driver fixpoint-loop iterations; the effective bound is the
    /// minimum of this and the algorithm's theoretical cap.
    /// Env override: `MAXWARP_MAX_ITERS`.
    pub max_iterations: Option<u32>,
}

// ---------------------------------------------------------------------------
// deterministic fault injection (chaos mode)
// ---------------------------------------------------------------------------

/// Which fault classes chaos mode injects. `MAXWARP_FAULTS=seed` enables all
/// of them; `tool_chaos` exercises them one class at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the injection RNG. The same seed over the same program
    /// produces the same injections at the same trace points.
    pub seed: u64,
    /// Flip one bit of one valid device-memory word at each launch boundary.
    pub bit_flips: bool,
    /// Drop the memory side-effect of one lane of one atomic per launch
    /// (a lost update).
    pub dropped_atomics: bool,
    /// Rotate per-block warp issue order in the timing model. Functional
    /// results are untouched — only cycle counts move.
    pub sched_perturb: bool,
}

impl FaultConfig {
    /// All fault classes enabled (what `MAXWARP_FAULTS=seed` selects).
    pub fn all(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flips: true,
            dropped_atomics: true,
            sched_perturb: true,
        }
    }

    /// Only device-memory bit flips.
    pub fn bit_flips(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flips: true,
            dropped_atomics: false,
            sched_perturb: false,
        }
    }

    /// Only dropped atomic updates.
    pub fn dropped_atomics(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flips: false,
            dropped_atomics: true,
            sched_perturb: false,
        }
    }

    /// Only scheduling perturbations.
    pub fn sched_perturb(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flips: false,
            dropped_atomics: false,
            sched_perturb: true,
        }
    }
}

/// Minimal xorshift64* generator — the simt crate deliberately has no RNG
/// dependency, and injection points must be reproducible from the seed alone.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        // xorshift has an absorbing zero state; any nonzero constant works.
        XorShift64 {
            state: seed | 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Per-`Gpu` chaos bookkeeping: the RNG stream plus counters of what has been
/// injected so far (reported by `tool_chaos`).
#[derive(Debug)]
pub struct ChaosState {
    pub cfg: FaultConfig,
    pub(crate) rng: XorShift64,
    /// Launches seen (injection points are per launch boundary).
    pub launches: u64,
    /// Bit flips applied to device memory so far.
    pub bit_flips_injected: u64,
    /// Atomic lane-updates dropped so far.
    pub atomics_dropped: u64,
    /// Timing-schedule rotations applied so far.
    pub sched_perturbations: u64,
}

impl ChaosState {
    pub fn new(cfg: FaultConfig) -> Self {
        ChaosState {
            cfg,
            rng: XorShift64::new(cfg.seed),
            launches: 0,
            bit_flips_injected: 0,
            atomics_dropped: 0,
            sched_perturbations: 0,
        }
    }
}

/// Per-launch dropped-atomic plan, threaded into the warp contexts. The n-th
/// atomic warp-op of the launch loses its first active lane's update.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AtomicDropPlan {
    /// Index (in launch-wide execution order) of the atomic op to sabotage.
    pub drop_at: u64,
    /// Running count of atomic warp-ops executed this launch.
    pub seen: u64,
    /// Whether the drop actually happened (for chaos accounting).
    pub dropped: bool,
}

impl AtomicDropPlan {
    pub fn new(drop_at: u64) -> Self {
        AtomicDropPlan {
            drop_at,
            seen: 0,
            dropped: false,
        }
    }

    /// Called once per atomic warp-op; returns true when this op is the
    /// designated victim.
    pub fn should_drop(&mut self) -> bool {
        let hit = self.seen == self.drop_at;
        self.seen += 1;
        if hit {
            self.dropped = true;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Zero seed must still produce a live stream.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn xorshift_below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn record_keeps_first_fault() {
        let mut faults = LaunchFaults::default();
        faults.record(SimtError::AddressSpaceExhausted {
            requested_bytes: 8,
            available_bytes: 4,
        });
        faults.record(SimtError::AddressSpaceExhausted {
            requested_bytes: 99,
            available_bytes: 0,
        });
        match faults.first {
            Some(SimtError::AddressSpaceExhausted {
                requested_bytes, ..
            }) => assert_eq!(requested_bytes, 8),
            other => panic!("unexpected slot {other:?}"),
        }
    }

    #[test]
    fn atomic_drop_plan_fires_once() {
        let mut plan = AtomicDropPlan::new(2);
        assert!(!plan.should_drop());
        assert!(!plan.should_drop());
        assert!(plan.should_drop());
        assert!(!plan.should_drop());
        assert!(plan.dropped);
    }

    #[test]
    fn display_carries_attribution() {
        let e = SimtError::OutOfBounds {
            space: AddressSpace::Global,
            block: 3,
            warp: 1,
            lane: Some(7),
            index: 100,
            len: 64,
            op: "ld",
            site: std::panic::Location::caller(),
        };
        let s = e.to_string();
        assert!(s.contains("illegal device address"), "{s}");
        assert!(s.contains("block 3 warp 1 lane 7"), "{s}");
        assert!(s.contains("op `ld`"), "{s}");
    }

    #[test]
    fn watchdog_display_names_algo() {
        let e = SimtError::Watchdog(WatchdogKind::IterationBudget {
            algo: "bfs".to_string(),
            iterations: 12,
            budget: 10,
            site: std::panic::Location::caller(),
        });
        let s = e.to_string();
        assert!(s.contains("bfs"), "{s}");
        assert!(s.contains("not converging"), "{s}");
    }
}
