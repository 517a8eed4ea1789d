//! Shared driver machinery: the level-synchronous loop and run results.

use maxwarp_simt::{Gpu, KernelStats, LaunchError, SimtError, Submitted, Ticket, WatchdogKind};
use std::panic::Location;

/// Result of running one algorithm end-to-end on the simulated GPU.
#[derive(Clone, Debug, Default)]
pub struct AlgoRun {
    /// Statistics accumulated over every kernel launch of the run.
    pub stats: KernelStats,
    /// Iterations executed (BFS levels, relaxation rounds, PR iterations).
    pub iterations: u32,
    /// Per-iteration cycle counts (useful for level-profile plots).
    pub cycles_per_iteration: Vec<u64>,
    /// Absorbed launches whose cycles have not settled: each one's ticket
    /// and iteration index.
    pub(crate) pending: Vec<(Ticket, usize)>,
}

impl AlgoRun {
    /// Fold one submitted launch's stats into the run; its cycles are
    /// credited to the current iteration at [`settle`]. A launch absorbed
    /// before any [`begin_iteration`] (setup kernels, single-shot
    /// algorithms) implicitly opens iteration 0 rather than dropping its
    /// cycles from the per-iteration profile.
    ///
    /// [`begin_iteration`]: AlgoRun::begin_iteration
    /// [`settle`]: AlgoRun::settle
    pub fn absorb(&mut self, launch: &Submitted) {
        if self.cycles_per_iteration.is_empty() {
            self.begin_iteration();
        }
        let cur = self.cycles_per_iteration.len() - 1;
        self.pending.push((launch.ticket, cur));
        self.stats.accumulate(&launch.stats);
    }

    /// Synchronize `gpu` and credit every absorbed launch's cycles to its
    /// iteration and to `stats.cycles`. Every driver settles its run before
    /// returning it; until then the cycle fields read only launches that
    /// have settled. Launches of this run that an earlier error discarded
    /// credit nothing.
    pub fn settle(&mut self, gpu: &mut Gpu) -> Result<(), LaunchError> {
        let settled = gpu.synchronize()?;
        for (ticket, iteration) in self.pending.drain(..) {
            if let Ok(i) = settled.binary_search_by_key(&ticket, |&(t, _)| t) {
                self.cycles_per_iteration[iteration] += settled[i].1;
                self.stats.cycles += settled[i].1;
            }
        }
        Ok(())
    }

    /// Fold another run into this one: stats accumulate, iteration profiles
    /// concatenate. Lets per-cell results from parallel experiment workers
    /// combine into one aggregate run.
    pub fn merge(&mut self, other: &AlgoRun) {
        self.stats.accumulate(&other.stats);
        self.iterations += other.iterations;
        self.cycles_per_iteration
            .extend_from_slice(&other.cycles_per_iteration);
    }

    /// Begin a new iteration.
    pub fn begin_iteration(&mut self) {
        self.iterations += 1;
        self.cycles_per_iteration.push(0);
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Traversed-edges-per-second at the given clock, for `edges` edges of
    /// useful work.
    pub fn teps(&self, edges: u64, clock_hz: u64) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        edges as f64 / (self.stats.cycles as f64 / clock_hz as f64)
    }
}

/// Guard against runaway fixpoint loops in drivers: errors (with the
/// algorithm name and call site) if iterations exceed the theoretical bound
/// or the device's `watchdog.max_iterations` budget, whichever is tighter.
/// Public so out-of-crate drivers (the sharded BSP executor) share the
/// exact same budget semantics as the single-device loops.
///
/// A trip synchronizes `gpu` first, so no launch stays in flight behind
/// the error; a replay error of that launch, which a serial run would have
/// reported before this check, wins.
#[track_caller]
pub fn check_iteration_bound(
    gpu: &mut Gpu,
    algo: &str,
    iterations: u32,
    bound: u32,
) -> Result<(), LaunchError> {
    let site = Location::caller();
    let effective = match gpu.cfg.watchdog.max_iterations {
        Some(cap) => cap.min(bound.saturating_add(2)),
        None => bound.saturating_add(2),
    };
    if iterations > effective {
        gpu.synchronize()?;
        return Err(LaunchError::Fault(SimtError::Watchdog(
            WatchdogKind::IterationBudget {
                algo: algo.to_string(),
                iterations,
                budget: effective,
                site,
            },
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_simt::{BlockCtx, GpuConfig, Mask};

    /// A one-warp kernel of ten ALU instructions: every launch of it takes
    /// the same cycles.
    fn nops(b: &mut BlockCtx<'_>) {
        b.phase(|w| (0..10).for_each(|_| w.alu_nop(Mask::FULL)));
    }

    /// A device and the synchronous stats of one [`nops`] launch on it.
    fn gpu_and_one_launch() -> (Gpu, KernelStats) {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let one = gpu.launch(1, 32, &nops).unwrap();
        assert!(one.cycles > 0);
        (gpu, one)
    }

    fn submit(gpu: &mut Gpu) -> Submitted {
        gpu.submit(1, 32, &nops).unwrap()
    }

    #[test]
    fn absorb_accumulates_per_iteration() {
        let (mut gpu, one) = gpu_and_one_launch();
        let mut run = AlgoRun::default();
        run.begin_iteration();
        run.absorb(&submit(&mut gpu));
        run.absorb(&submit(&mut gpu));
        run.begin_iteration();
        run.absorb(&submit(&mut gpu));
        assert_eq!(run.cycles(), 0, "cycles are pending until settled");
        run.settle(&mut gpu).unwrap();
        assert_eq!(run.iterations, 2);
        assert_eq!(run.cycles_per_iteration, vec![2 * one.cycles, one.cycles]);
        assert_eq!(run.cycles(), 3 * one.cycles);
        assert_eq!(run.stats.instructions, 3 * one.instructions);
    }

    #[test]
    fn absorb_before_begin_opens_iteration_zero() {
        let (mut gpu, one) = gpu_and_one_launch();
        let mut run = AlgoRun::default();
        run.absorb(&submit(&mut gpu)); // no begin_iteration yet: must not lose these cycles
        assert_eq!(run.iterations, 1);
        run.begin_iteration();
        run.absorb(&submit(&mut gpu));
        run.settle(&mut gpu).unwrap();
        assert_eq!(run.cycles_per_iteration, vec![one.cycles, one.cycles]);
        assert_eq!(
            run.cycles_per_iteration.iter().sum::<u64>(),
            run.stats.cycles,
            "per-iteration profile must account for every absorbed cycle"
        );
    }

    #[test]
    fn merge_concatenates_profiles() {
        let (mut gpu, one) = gpu_and_one_launch();
        let mut a = AlgoRun::default();
        let mut b = AlgoRun::default();
        a.begin_iteration();
        a.absorb(&submit(&mut gpu));
        a.settle(&mut gpu).unwrap();
        b.begin_iteration();
        b.absorb(&submit(&mut gpu));
        b.absorb(&submit(&mut gpu));
        b.settle(&mut gpu).unwrap();
        a.merge(&b);
        assert_eq!(a.iterations, 2);
        assert_eq!(a.cycles_per_iteration, vec![one.cycles, 2 * one.cycles]);
        assert_eq!(a.stats.instructions, 3 * one.instructions);
        assert_eq!(a.cycles(), 3 * one.cycles);
    }

    #[test]
    fn teps_math() {
        let mut run = AlgoRun::default();
        run.stats.cycles = 1_000_000;
        // 1M edges in 1M cycles at 1GHz = 1e9 edges/s.
        let teps = run.teps(1_000_000, 1_000_000_000);
        assert!((teps - 1e9).abs() < 1.0);
        let empty = AlgoRun::default();
        assert_eq!(empty.teps(100, 1_000_000_000), 0.0);
    }

    #[test]
    fn iteration_bound_errors() {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        assert!(check_iteration_bound(&mut gpu, "bfs", 10, 10).is_ok());
        let err = check_iteration_bound(&mut gpu, "bfs", 100, 10).unwrap_err();
        assert!(err.to_string().contains("not converging"), "{err}");
        assert!(matches!(
            err,
            LaunchError::Fault(SimtError::Watchdog(WatchdogKind::IterationBudget {
                budget: 12,
                ..
            }))
        ));
    }

    #[test]
    fn iteration_bound_respects_watchdog_cap() {
        let mut cfg = GpuConfig::tiny_test();
        cfg.watchdog.max_iterations = Some(0);
        let mut gpu = Gpu::new(cfg);
        // An iteration cap of 0 trips on the very first iteration.
        let err = check_iteration_bound(&mut gpu, "bfs", 1, 1000).unwrap_err();
        assert!(matches!(
            err,
            LaunchError::Fault(SimtError::Watchdog(WatchdogKind::IterationBudget {
                budget: 0,
                ..
            }))
        ));
    }
}
