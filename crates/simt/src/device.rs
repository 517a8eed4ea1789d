//! The simulated device: memory + kernel launches.

use crate::analyze::Analyzer;
use crate::cache::CacheModel;
use crate::config::GpuConfig;
use crate::event::{EventKind, Observers, OpSite};
use crate::fault::{
    AtomicDropPlan, ChaosState, FaultConfig, LaunchFaults, SimtError, WatchdogKind,
};
use crate::kernel::{BlockCtx, Kernel};
use crate::lanes::WARP_SIZE;
use crate::mem::DeviceMem;
use crate::obs::{launch_phase, launch_phase_ns, LaunchPhase};
use crate::profile::{ProfileReport, Profiler};
use crate::sanitize::Sanitizer;
use crate::shared::SharedMem;
use crate::stats::KernelStats;
use crate::timing::{self, TimingError, TimingInput, TimingReport, WarpSpan};
use crate::trace::{BlockTrace, KernelTrace, Op, WarpTrace};
use crate::warp::{WarpCtx, WarpId};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Launch-time errors (the simulator's `cudaGetLastError`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Block size must be a positive multiple of the 32-lane warp size and
    /// at most `max_threads_per_block`.
    InvalidBlockSize { threads: u32, max: u32 },
    /// Timing-model rejection (occupancy or malformed dynamic tasks).
    Timing(TimingError),
    /// The kernel faulted: an illegal access, resource exhaustion, or a
    /// tripped watchdog, with device-side attribution.
    Fault(SimtError),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::InvalidBlockSize { threads, max } => write!(
                f,
                "invalid block size {threads}: must be a positive multiple of 32 and <= {max}"
            ),
            LaunchError::Timing(e) => write!(f, "{e}"),
            LaunchError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<TimingError> for LaunchError {
    fn from(e: TimingError) -> Self {
        // A barrier deadlock is a device fault (watchdog class), not a
        // launch-configuration problem — surface it as such.
        match e {
            TimingError::BarrierDeadlock {
                block,
                parked_warps,
                retired_warps,
            } => {
                let fault = SimtError::Watchdog(WatchdogKind::BarrierDeadlock {
                    block,
                    parked_warps,
                    retired_warps,
                });
                crate::obs::fault_recorded(&fault);
                LaunchError::Fault(fault)
            }
            other => LaunchError::Timing(other),
        }
    }
}

impl From<SimtError> for LaunchError {
    fn from(e: SimtError) -> Self {
        // Every runtime fault funnels through this conversion (or the
        // barrier-deadlock arm above), making it the one chokepoint for the
        // process-wide fault counters.
        crate::obs::fault_recorded(&e);
        LaunchError::Fault(e)
    }
}

/// How warp-sized tasks are distributed over the resident warps
/// (see [`Gpu::launch_warp_tasks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskSchedule {
    /// Each resident warp takes a contiguous range of tasks — the static
    /// partitioning a grid-stride-free CUDA kernel computes from its thread
    /// id.
    StaticBlocked,
    /// Warps fetch chunks from a global counter with `atomicAdd` as they go
    /// idle — the paper's *dynamic workload distribution*. Each task trace
    /// is prefixed with the atomic fetch it pays for.
    Dynamic,
}

/// A launch's place in its device's launch order. Its cycles are known once
/// the launch settles; [`Gpu::synchronize`] hands them out by ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

/// A submitted launch (see [`Gpu::submit`]): its functional statistics,
/// whose `cycles` read 0 until the launch settles, and its ticket.
#[derive(Clone, Debug)]
pub struct Submitted {
    /// Everything but the cycles, final once `submit` returns.
    pub stats: KernelStats,
    /// Where the launch's cycles appear in [`Gpu::synchronize`]'s output.
    pub ticket: Ticket,
}

/// The simulated GPU: configuration plus device memory.
///
/// Launches are asynchronous, like CUDA's. [`Gpu::submit`] runs a kernel's
/// functional pass — its memory effects are visible when it returns — and
/// leaves its timing replay in flight beside the caller's next functional
/// pass; the replay settles at the next submit or at
/// [`Gpu::synchronize`]. [`Gpu::launch`] is the synchronous form.
///
/// ```
/// use maxwarp_simt::{Gpu, GpuConfig, Mask, Lanes};
///
/// let mut gpu = Gpu::new(GpuConfig::tiny_test());
/// let data = gpu.mem.alloc_from(&[1u32, 2, 3, 4]);
/// let out = gpu.mem.alloc::<u32>(4);
/// let stats = gpu
///     .launch(1, 32, &|b: &mut maxwarp_simt::BlockCtx<'_>| {
///         b.phase(|w| {
///             let idx = w.lane_ids();
///             let m = w.lt_scalar(Mask::FULL, &idx, 4);
///             let v = w.ld(m, data, &idx);
///             let doubled = w.alu1(m, &v, |x| x * 2);
///             w.st(m, out, &idx, &doubled);
///         });
///     })
///     .unwrap();
/// assert_eq!(gpu.mem.download(out), vec![2, 4, 6, 8]);
/// assert!(stats.cycles > 0);
/// ```
pub struct Gpu {
    /// Machine parameters.
    pub cfg: GpuConfig,
    /// Global device memory.
    pub mem: DeviceMem,
    /// Warp-hazard sanitizer shadow state, present when `cfg.sanitize` (or
    /// `MAXWARP_SANITIZE=1`) turned checking on at construction.
    san: Option<Box<Sanitizer>>,
    /// Cycle-attribution profiler, present when `cfg.profile` (or
    /// `MAXWARP_PROFILE=1`) turned profiling on at construction.
    prof: Option<Box<Profiler>>,
    /// Static abstract-interpretation analyzer, present when `cfg.analyze`
    /// (or `MAXWARP_ANALYZE=1`) turned analysis on at construction.
    anl: Option<Box<Analyzer>>,
    /// Timing detail accumulated across every launch on this device.
    timing_total: TimingReport,
    /// Timing detail of the most recent launch.
    last_timing: Option<TimingReport>,
    /// Deterministic fault-injection state, present when `cfg.faults` (or
    /// `MAXWARP_FAULTS=seed`) turned chaos mode on at construction.
    chaos: Option<ChaosState>,
    /// Launches submitted so far: the next launch's ticket.
    submitted: u64,
    /// The one launch whose replay has not settled yet.
    in_flight: Option<InFlight>,
    /// Cycles of settled launches not yet handed out by `synchronize`.
    settled: Vec<(Ticket, u64)>,
}

impl Gpu {
    /// A device with the given configuration and empty memory. Setting the
    /// environment variable `MAXWARP_SANITIZE=1` forces the sanitizer on
    /// regardless of `cfg.sanitize`; `MAXWARP_PROFILE=1` likewise forces
    /// the profiler on.
    pub fn new(mut cfg: GpuConfig) -> Self {
        if std::env::var("MAXWARP_SANITIZE").is_ok_and(|v| v == "1") {
            cfg.sanitize = true;
        }
        if std::env::var("MAXWARP_PROFILE").is_ok_and(|v| v == "1") {
            cfg.profile = true;
        }
        if std::env::var("MAXWARP_ANALYZE").is_ok_and(|v| v == "1") {
            cfg.analyze = true;
        }
        if let Ok(v) = std::env::var("MAXWARP_FAULTS") {
            match v.parse::<u64>() {
                Ok(seed) => cfg.faults = Some(FaultConfig::all(seed)),
                Err(_) => eprintln!("MAXWARP_FAULTS={v}: not a u64 seed, ignoring"),
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_MAX_CYCLES") {
            match v.parse::<u64>() {
                Ok(n) => cfg.watchdog.max_cycles = Some(n),
                Err(_) => eprintln!("MAXWARP_MAX_CYCLES={v}: not a u64, ignoring"),
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_MAX_ITERS") {
            match v.parse::<u32>() {
                Ok(n) => cfg.watchdog.max_iterations = Some(n),
                Err(_) => eprintln!("MAXWARP_MAX_ITERS={v}: not a u32, ignoring"),
            }
        }
        let san = cfg.sanitize.then(|| Box::new(Sanitizer::new()));
        let prof = cfg.profile.then(|| Box::new(Profiler::new(&cfg)));
        let anl = cfg.analyze.then(|| Box::new(Analyzer::new()));
        let chaos = cfg.faults.map(ChaosState::new);
        Gpu {
            cfg,
            mem: DeviceMem::new(),
            san,
            prof,
            anl,
            timing_total: TimingReport::default(),
            last_timing: None,
            chaos,
            submitted: 0,
            in_flight: None,
            settled: Vec::new(),
        }
    }

    /// The sanitizer's accumulated diagnostics, if sanitizing.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.san.as_deref()
    }

    /// Chaos-injection bookkeeping, present when fault injection is on.
    pub fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }

    /// Label subsequent launches with a kernel name for sanitizer reports.
    /// No-op when the sanitizer is off.
    pub fn set_sanitize_context(&mut self, name: &str) {
        if let Some(san) = &mut self.san {
            san.set_context(name);
        }
    }

    /// The static analyzer's accumulated findings, if analyzing.
    pub fn analyzer(&self) -> Option<&Analyzer> {
        self.anl.as_deref()
    }

    /// Label subsequent launches with a kernel name for analyzer reports.
    /// No-op when the analyzer is off.
    pub fn set_analyze_context(&mut self, name: &str) {
        if let Some(anl) = &mut self.anl {
            anl.set_context(name);
        }
    }

    /// Whether the cycle-attribution profiler is on. Drivers can use this
    /// to skip building launch labels when nobody will read them.
    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    /// The profiler, if profiling.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Label the whole profile (kernel/dataset/method). No-op when the
    /// profiler is off.
    pub fn set_profile_context(&mut self, name: &str) {
        if let Some(prof) = &mut self.prof {
            prof.set_context(name);
        }
    }

    /// Label the next submitted launch in the profile timeline (e.g. `bfs
    /// level 3`). No-op when the profiler is off.
    pub fn set_profile_label(&mut self, label: &str) {
        if let Some(prof) = &mut self.prof {
            prof.set_launch_label(label);
        }
    }

    /// Snapshot the accumulated profile, if profiling.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.prof.as_deref().map(Profiler::report)
    }

    /// Timing detail accumulated across every settled launch on this
    /// device (per-SM stall buckets sum to the total of all launch cycles).
    /// Available regardless of profiling.
    pub fn timing_total(&self) -> &TimingReport {
        &self.timing_total
    }

    /// Timing detail of the most recent settled launch, if any.
    pub fn last_timing(&self) -> Option<&TimingReport> {
        self.last_timing.as_ref()
    }

    /// Fold one launch's timing into the device totals and, when profiling,
    /// into the per-launch timeline.
    fn record_timing(&mut self, label: Option<String>, report: TimingReport, spans: Vec<WarpSpan>) {
        self.timing_total.accumulate(&report);
        if let Some(prof) = &mut self.prof {
            self.last_timing = Some(report.clone());
            prof.finish_launch(label, report, spans);
        } else {
            self.last_timing = Some(report);
        }
    }

    /// Join the launch in flight, if any, and fold it in as a synchronous
    /// launch would have right after its functional pass: its cycles into
    /// the settled list, its timing into the totals and the profile, then
    /// the cycle budget check. An error drops the undelivered cycles, so
    /// nothing of a failed run is left for a later one to collect.
    fn settle(&mut self) -> Result<(), LaunchError> {
        let Some(launch) = self.in_flight.take() else {
            return Ok(());
        };
        let folded = launch
            .replay
            .join()
            .map_err(LaunchError::from)
            .and_then(|(report, spans)| {
                self.settled.push((launch.ticket, report.cycles));
                self.record_timing(launch.label, report, spans);
                self.check_cycle_budget()
            });
        if folded.is_err() {
            self.settled.clear();
        }
        folded
    }

    /// Settle the launch in flight and hand out the cycles of every launch
    /// settled since the last call, in launch order; each launch's cycles
    /// are handed out once. A replay error (a barrier deadlock, a tripped
    /// cycle budget) of a submitted launch surfaces here or from the next
    /// submit — one launch late, as CUDA's asynchronous errors are — with
    /// the value a synchronous launch would have returned.
    pub fn synchronize(&mut self) -> Result<Vec<(Ticket, u64)>, LaunchError> {
        self.settle()?;
        Ok(std::mem::take(&mut self.settled))
    }

    /// Start the queued replay of the launch in flight on a helper thread,
    /// to run beside the functional pass the caller is about to begin.
    fn start_replay(&mut self) {
        if let Some(mut launch) = self.in_flight.take() {
            launch.replay = launch.replay.start();
            self.in_flight = Some(launch);
        }
    }

    /// The rest of a submit after its functional pass: settle the previous
    /// launch, then put this one in flight with its replay queued. The
    /// previous launch settles first because a serial run would have
    /// reported its replay error before anything of this launch; an `Err`
    /// leaves nothing in flight.
    fn enqueue(
        &mut self,
        traced: Result<(KernelStats, ReplayJob), LaunchError>,
    ) -> Result<Submitted, LaunchError> {
        self.settle()?;
        let (stats, job) = traced.inspect_err(|_| self.settled.clear())?;
        let ticket = Ticket(self.submitted);
        self.submitted += 1;
        self.in_flight = Some(InFlight {
            ticket,
            label: self.prof.as_mut().and_then(|p| p.take_launch_label()),
            replay: Replay::Queued(Arc::new(job)),
            _driver: Simulating::driver(),
        });
        Ok(Submitted { stats, ticket })
    }

    /// Settle `launch`, just submitted, and return its complete
    /// statistics.
    fn resolve(&mut self, launch: Submitted) -> Result<KernelStats, LaunchError> {
        self.settle()?;
        // It settled last, so its cycles are the last entry.
        let settled = self.settled.pop();
        debug_assert_eq!(settled.map(|(ticket, _)| ticket), Some(launch.ticket));
        Ok(KernelStats {
            cycles: settled.map_or(0, |(_, cycles)| cycles),
            ..launch.stats
        })
    }

    /// The replay of a launch traced on this device.
    fn replay_job(&self, trace: KernelTrace, tasks: Option<TaskStreams>) -> ReplayJob {
        ReplayJob {
            cfg: self.cfg.clone(),
            spans: self.prof.is_some(),
            trace,
            tasks,
        }
    }

    /// Per-launch chaos injection at the launch boundary: flip one bit of a
    /// valid device-memory word and/or arm a dropped-atomic plan, per the
    /// enabled fault classes. No-op (and no RNG draws) when chaos is off.
    fn chaos_prelaunch(&mut self) -> Option<AtomicDropPlan> {
        let chaos = self.chaos.as_mut()?;
        chaos.launches += 1;
        if chaos.cfg.bit_flips && self.mem.chaos_flip_bit(&mut chaos.rng).is_some() {
            chaos.bit_flips_injected += 1;
            crate::obs::chaos_injected("bit_flip");
        }
        if chaos.cfg.dropped_atomics {
            Some(AtomicDropPlan::new(chaos.rng.below(64)))
        } else {
            None
        }
    }

    /// Close the functional phase of a launch: account a dropped-atomic
    /// plan that actually fired and surface the first fault any warp
    /// recorded.
    fn finish_functional(&mut self, faults: LaunchFaults) -> Result<(), LaunchError> {
        if let (Some(chaos), Some(plan)) = (self.chaos.as_mut(), faults.drop_plan) {
            if plan.dropped {
                chaos.atomics_dropped += 1;
                crate::obs::chaos_injected("dropped_atomic");
            }
        }
        faults.first.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Scheduling perturbation: rotate each block's warp streams before the
    /// timing phase. Functional results are already computed, so a correct
    /// kernel tolerates this by construction; only cycle counts may move.
    fn chaos_perturb_schedule(&mut self, trace: &mut KernelTrace) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        if !chaos.cfg.sched_perturb {
            return;
        }
        for bt in &mut trace.blocks {
            let n = bt.warps.len();
            if n > 1 {
                let r = chaos.rng.below(n as u64) as usize;
                if r > 0 {
                    bt.warps.rotate_left(r);
                    chaos.sched_perturbations += 1;
                    crate::obs::chaos_injected("sched_perturb");
                }
            }
        }
    }

    /// Trip the cumulative cycle watchdog, if one is configured.
    fn check_cycle_budget(&self) -> Result<(), LaunchError> {
        if let Some(budget) = self.cfg.watchdog.max_cycles {
            let cycles = self.timing_total.cycles;
            if cycles > budget {
                return Err(
                    SimtError::Watchdog(WatchdogKind::CycleBudget { cycles, budget }).into(),
                );
            }
        }
        Ok(())
    }

    /// Launch `kernel` on a grid of `grid_blocks` blocks of `block_threads`
    /// threads and wait for it: [`submit`](Self::submit), then settle (the
    /// replay runs inline). Returns combined statistics.
    pub fn launch<K: Kernel + ?Sized>(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        kernel: &K,
    ) -> Result<KernelStats, LaunchError> {
        let launch = self.submit(grid_blocks, block_threads, kernel)?;
        self.resolve(launch)
    }

    /// Submit `kernel` on a grid of `grid_blocks` blocks of `block_threads`
    /// threads. Runs the functional phase (actual memory effects + traces)
    /// on the caller's thread, settles the previously submitted launch, and
    /// leaves this launch's timing replay in flight. The previous launch's
    /// replay runs beside this functional pass on a helper thread when a
    /// core is free; otherwise the caller runs it when it settles, as it
    /// does at [`synchronize`](Self::synchronize). Either way the result
    /// and the point an error surfaces are the same.
    ///
    /// A replay error of the previous launch is returned here, after this
    /// launch's functional pass has run — a pass a serial run would not
    /// have made. Its device-memory writes, chaos draws and observer events
    /// stay; only the error value matches the serial run's.
    pub fn submit<K: Kernel + ?Sized>(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        kernel: &K,
    ) -> Result<Submitted, LaunchError> {
        if core_free() {
            self.start_replay();
        }
        let traced = self.trace_kernel(grid_blocks, block_threads, kernel);
        self.enqueue(traced)
    }

    /// The functional pass of a kernel launch.
    fn trace_kernel<K: Kernel + ?Sized>(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        kernel: &K,
    ) -> Result<(KernelStats, ReplayJob), LaunchError> {
        self.validate_block(block_threads)?;
        let warps_per_block = block_threads / WARP_SIZE as u32;
        let functional = Instant::now();

        let mut trace = KernelTrace {
            blocks: Vec::with_capacity(grid_blocks as usize),
            block_threads,
            shared_words_per_block: 0,
        };
        let mut cache =
            CacheModel::new(self.cfg.l2_lines, self.cfg.l2_ways, self.cfg.segment_bytes);
        let mut faults = LaunchFaults {
            first: None,
            drop_plan: self.chaos_prelaunch(),
        };
        let mut obs = Observers::begin_launch(
            self.san.as_deref_mut(),
            self.anl.as_deref_mut(),
            self.prof.as_deref_mut(),
            self.mem.allocated_words(),
        );
        for b in 0..grid_blocks {
            let id = WarpId {
                block: b,
                warp_in_block: 0,
                warps_per_block,
                num_blocks: grid_blocks,
            };
            let mut ctx = BlockCtx::new(
                &mut self.mem,
                &mut cache,
                &self.cfg,
                id,
                obs.as_mut().map(Observers::begin_block),
                Some(&mut faults),
            );
            kernel.run_block(&mut ctx);
            let (bt, shared_used) = ctx.into_trace();
            trace.shared_words_per_block = trace.shared_words_per_block.max(shared_used);
            trace.blocks.push(bt);
        }
        Observers::finish_launch(obs);
        self.finish_functional(faults)?;
        launch_phase(LaunchPhase::Functional, functional);

        let stats_start = Instant::now();
        let stats = KernelStats::from_trace(&trace);
        launch_phase(LaunchPhase::Stats, stats_start);
        self.chaos_perturb_schedule(&mut trace);
        Ok((stats, self.replay_job(trace, None)))
    }

    /// Launch warp-granular tasks and wait for them:
    /// [`submit_warp_tasks`](Self::submit_warp_tasks), then settle (the
    /// replay runs inline).
    #[track_caller]
    pub fn launch_warp_tasks(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        num_tasks: u32,
        schedule: TaskSchedule,
        f: impl FnMut(&mut WarpCtx<'_>, u32),
    ) -> Result<KernelStats, LaunchError> {
        let launch = self.submit_warp_tasks(grid_blocks, block_threads, num_tasks, schedule, f)?;
        self.resolve(launch)
    }

    /// Submit warp-granular tasks: `f(warp, task_id)` runs once per task in
    /// `0..num_tasks`, each execution tracing one warp's work. The
    /// `schedule` decides how tasks map onto the `grid_blocks ×
    /// block_threads` resident warps at timing time. Asynchronous like
    /// [`submit`](Self::submit).
    ///
    /// This is the vehicle for the paper's *dynamic workload distribution*
    /// study: the same functional work, scheduled statically or via an
    /// atomic work counter.
    #[track_caller]
    pub fn submit_warp_tasks(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        num_tasks: u32,
        schedule: TaskSchedule,
        f: impl FnMut(&mut WarpCtx<'_>, u32),
    ) -> Result<Submitted, LaunchError> {
        if core_free() {
            self.start_replay();
        }
        let traced = self.trace_tasks(grid_blocks, block_threads, num_tasks, schedule, f);
        self.enqueue(traced)
    }

    /// The functional pass of a warp-task launch.
    #[track_caller]
    fn trace_tasks(
        &mut self,
        grid_blocks: u32,
        block_threads: u32,
        num_tasks: u32,
        schedule: TaskSchedule,
        mut f: impl FnMut(&mut WarpCtx<'_>, u32),
    ) -> Result<(KernelStats, ReplayJob), LaunchError> {
        // Attribute the dynamic queue-fetch atomics to whoever launched the
        // task loop — kernel drivers, not this file.
        let launch_site = OpSite::caller("queue_fetch");
        self.validate_block(block_threads)?;
        let warps_per_block = block_threads / WARP_SIZE as u32;
        let resident_warps = grid_blocks.max(1) * warps_per_block;
        let functional = Instant::now();

        // Functional phase: one trace per task. Shared memory is per-task
        // scratch (warp-private), sized by the per-SM budget.
        let mut cache =
            CacheModel::new(self.cfg.l2_lines, self.cfg.l2_ways, self.cfg.segment_bytes);
        let mut faults = LaunchFaults {
            first: None,
            drop_plan: self.chaos_prelaunch(),
        };
        let mut obs = Observers::begin_launch(
            self.san.as_deref_mut(),
            self.anl.as_deref_mut(),
            self.prof.as_deref_mut(),
            self.mem.allocated_words(),
        );
        let mut tasks: Vec<WarpTrace> = Vec::with_capacity(num_tasks as usize);
        for task in 0..num_tasks {
            let id = WarpId {
                block: task,
                warp_in_block: 0,
                warps_per_block: 1,
                num_blocks: num_tasks.max(1),
            };
            // Each task's shared scratch is warp-private, so every task is
            // its own block as far as race detection goes.
            let mut task_obs = obs.as_mut().map(Observers::begin_block);
            let mut wt = WarpTrace::new();
            if schedule == TaskSchedule::Dynamic {
                // The chunk fetch: one-lane atomicAdd on the work counter.
                let fetch = Op::Atomic {
                    active: 1,
                    tx: 1,
                    replays: 0,
                };
                wt.ops.push(fetch);
                if let Some(o) = &mut task_obs {
                    o.emit(id, launch_site, EventKind::Issue(fetch));
                }
            }
            let mut shared = SharedMem::new(self.cfg.shared_words_per_sm);
            let mut ctx = WarpCtx::new_instrumented(
                &mut self.mem,
                &mut shared,
                &mut wt,
                &mut cache,
                &self.cfg,
                id,
                task_obs,
                Some(&mut faults),
            );
            f(&mut ctx, task);
            tasks.push(wt);
        }
        Observers::finish_launch(obs);
        self.finish_functional(faults)?;
        launch_phase(LaunchPhase::Functional, functional);

        // Scheduling perturbation rotates the task→warp assignment (static)
        // or the fetch order (dynamic); functional work already ran above.
        let sched_off = match self.chaos.as_mut() {
            Some(chaos) if chaos.cfg.sched_perturb && resident_warps > 1 => {
                let r = chaos.rng.below(resident_warps as u64) as u32;
                if r > 0 {
                    chaos.sched_perturbations += 1;
                    crate::obs::chaos_injected("sched_perturb");
                }
                r
            }
            _ => 0,
        };

        let streams = TaskStreams {
            schedule,
            grid_blocks: grid_blocks.max(1),
            warps_per_block,
            rotation: sched_off,
        };

        // Statistics: one "warp" per task, so the per-warp instruction
        // counts are the per-task imbalance histogram of interest.
        let stats_start = Instant::now();
        let trace = KernelTrace {
            blocks: vec![BlockTrace { warps: tasks }],
            block_threads,
            shared_words_per_block: 0,
        };
        let mut stats = KernelStats::from_trace(&trace);
        stats.blocks = grid_blocks as u64;
        launch_phase(LaunchPhase::Stats, stats_start);
        Ok((stats, self.replay_job(trace, Some(streams))))
    }

    fn validate_block(&self, block_threads: u32) -> Result<(), LaunchError> {
        if block_threads == 0
            || !block_threads.is_multiple_of(WARP_SIZE as u32)
            || block_threads > self.cfg.max_threads_per_block
        {
            return Err(LaunchError::InvalidBlockSize {
                threads: block_threads,
                max: self.cfg.max_threads_per_block,
            });
        }
        Ok(())
    }
}

/// How a warp-task launch's tasks — the warps of its trace's one block —
/// map onto its `grid_blocks × warps_per_block` resident warps, rotated by
/// `rotation` places under chaos scheduling perturbation.
struct TaskStreams {
    schedule: TaskSchedule,
    grid_blocks: u32,
    warps_per_block: u32,
    rotation: u32,
}

/// One launch's timing replay, owning everything it reads so that it can
/// run on another thread. Timing is a pure function of the finished trace:
/// it never reads device memory.
struct ReplayJob {
    cfg: GpuConfig,
    /// Whether to build warp spans (only the profiler reads them).
    spans: bool,
    trace: KernelTrace,
    /// `None` for a kernel launch, whose warps each run their own trace.
    tasks: Option<TaskStreams>,
}

type ReplayOut = Result<(TimingReport, Vec<WarpSpan>), TimingError>;

impl ReplayJob {
    fn input(&self) -> TimingInput<'_> {
        let Some(streams) = &self.tasks else {
            return timing::kernel_input(&self.trace);
        };
        let tasks = &self.trace.blocks[0].warps;
        let (n, rotation) = (tasks.len(), streams.rotation as usize);
        let wpb = streams.warps_per_block as usize;
        let resident = streams.grid_blocks as usize * wpb;
        // Static: resident warp `w` runs the `per` consecutive tasks of run
        // `w - rotation`. Dynamic: warps start empty and pull from the
        // queue, which starts `rotation` tasks in.
        let (per, queue) = match streams.schedule {
            TaskSchedule::StaticBlocked => (n.div_ceil(resident), Vec::new()),
            TaskSchedule::Dynamic => {
                let (head, tail) = tasks.split_at(rotation.checked_rem(n).unwrap_or(0));
                (0, tail.iter().chain(head).collect())
            }
        };
        let stream = |w: usize| {
            let run = (w + resident - rotation) % resident;
            &tasks[(run * per).min(n)..((run + 1) * per).min(n)]
        };
        TimingInput::new(
            (0..streams.grid_blocks as usize).map(|b| (b * wpb..(b + 1) * wpb).map(stream)),
            self.trace.block_threads,
            0,
            queue,
        )
    }

    fn run(&self) -> ReplayOut {
        let start = Instant::now();
        let input = self.input();
        let out = if self.spans {
            timing::simulate_spans(&input, &self.cfg)?
        } else {
            (timing::simulate_report(&input, &self.cfg)?, Vec::new())
        };
        launch_phase(LaunchPhase::Timing, start);
        Ok(out)
    }
}

/// Threads simulating right now, process-wide: `fan_out` pullers and serve
/// workers while they run jobs, other drivers while they have a launch in
/// flight, and helper threads replaying one.
static SIMULATING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread holds a [`SimulatingThread`] slot, which covers
    /// the launches it drives.
    static HOLDS_SLOT: Cell<bool> = const { Cell::new(false) };
}

/// One share of [`SIMULATING`], held while a thread simulates. The count
/// is process-wide, so a share may drop on another thread than took it.
struct Simulating;

impl Simulating {
    fn enter() -> Simulating {
        SIMULATING.fetch_add(1, Ordering::Relaxed);
        Simulating
    }

    /// The share of a driver's launch in flight: none when the submitting
    /// thread's own slot already counts it.
    fn driver() -> Option<Simulating> {
        (!HOLDS_SLOT.get()).then(Simulating::enter)
    }
}

impl Drop for Simulating {
    fn drop(&mut self) {
        SIMULATING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A thread's slot while it runs simulation jobs — a `fan_out` puller, a
/// serve worker serving a batch. Launches the thread submits meanwhile take
/// no slot of their own, so a helper replay starts only beside threads
/// that leave a core idle. Nested on one thread, only the outermost
/// counts. It stays on the thread that took it.
pub struct SimulatingThread {
    slot: Option<Simulating>,
    _thread: PhantomData<*const ()>,
}

impl SimulatingThread {
    /// Hold a slot for this thread until the value drops.
    pub fn enter() -> SimulatingThread {
        SimulatingThread {
            slot: (!HOLDS_SLOT.replace(true)).then(Simulating::enter),
            _thread: PhantomData,
        }
    }
}

impl Drop for SimulatingThread {
    fn drop(&mut self) {
        if self.slot.is_some() {
            HOLDS_SLOT.set(false);
        }
    }
}

/// The machine's available parallelism, read once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether a helper replay would have a core to itself.
fn core_free() -> bool {
    SIMULATING.load(Ordering::Relaxed) < cores()
}

/// Run `f` over independent `items` on `threads` threads, the caller being
/// one of them, and return the results in input order. Each thread pulls
/// the next unstarted item, in input order. `threads` is clamped to
/// `1..=items.len()`, so one thread or one item runs inline with no spawn;
/// if the OS refuses a thread, the others pull its share. A job's panic
/// re-raises on the caller with its original payload, once every thread
/// has stopped.
pub fn fan_out<T: Send, R: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    // Taking the next item cannot panic, so a poisoned lock still holds a
    // valid iterator.
    let queue = Mutex::new(items.into_iter().enumerate());
    let pull = || {
        let _slot = SimulatingThread::enter();
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, pull).ok())
            .collect();
        let mut done = pull();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A launch's replay. It is joined at the same point wherever it ran, so
/// results and the moment an error surfaces never depend on where.
enum Replay {
    /// Not started: the submitting thread runs it when it settles the
    /// launch, unless the next submit hands it to a helper first. Shared
    /// with the helper, so a refused spawn leaves the job here.
    Queued(Arc<ReplayJob>),
    /// Handed to a helper thread.
    Helper(JoinHandle<ReplayOut>),
}

impl Replay {
    /// Hand a queued replay to a helper thread. The placement exists only
    /// for speed, so if the OS refuses a thread the replay stays queued.
    fn start(self) -> Replay {
        let Replay::Queued(job) = self else {
            return self;
        };
        let theirs = Arc::clone(&job);
        let slot = Simulating::enter();
        let helper = std::thread::Builder::new().spawn(move || {
            let _slot = slot;
            theirs.run()
        });
        match helper {
            Ok(handle) => Replay::Helper(handle),
            Err(_) => Replay::Queued(job),
        }
    }

    /// The replay's result; a panic inside it re-raises here.
    fn join(self) -> ReplayOut {
        let handle = match self {
            Replay::Queued(job) => {
                launch_phase_ns(LaunchPhase::Wait, 0);
                return job.run();
            }
            Replay::Helper(handle) => handle,
        };
        let start = Instant::now();
        let finished = handle.is_finished();
        let out = handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let waited = if finished {
            0
        } else {
            start.elapsed().as_nanos() as u64
        };
        launch_phase_ns(LaunchPhase::Wait, waited);
        out
    }
}

/// The launch a device has in flight. Dropping it (with its `Gpu`) detaches
/// a helper replay, which finishes on its own.
struct InFlight {
    ticket: Ticket,
    /// The profile label taken when the launch was submitted.
    label: Option<String>,
    replay: Replay,
    /// `None` when the submitting thread's own slot counts the launch.
    _driver: Option<Simulating>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;
    use crate::mask::Mask;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::tiny_test())
    }

    #[test]
    fn launch_validates_block_size() {
        let mut g = gpu();
        let k = |_: &mut BlockCtx<'_>| {};
        assert!(matches!(
            g.launch(1, 0, &k),
            Err(LaunchError::InvalidBlockSize { .. })
        ));
        assert!(matches!(
            g.launch(1, 33, &k),
            Err(LaunchError::InvalidBlockSize { .. })
        ));
        assert!(matches!(
            g.launch(1, 4096, &k),
            Err(LaunchError::InvalidBlockSize { .. })
        ));
        assert!(g.launch(1, 64, &k).is_ok());
    }

    #[test]
    fn saxpy_style_kernel_end_to_end() {
        let mut g = gpu();
        let n = 1000u32;
        let x = g.mem.alloc_from(&(0..n).collect::<Vec<_>>());
        let y = g.mem.alloc::<u32>(n);
        let block_threads = 64u32;
        let grid = n.div_ceil(block_threads);
        let stats = g
            .launch(grid, block_threads, &|b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let tid = w.global_thread_ids();
                    let m = w.lt_scalar(Mask::FULL, &tid, n);
                    let v = w.ld(m, x, &tid);
                    let r = w.alu1(m, &v, |a| a * 3 + 1);
                    w.st(m, y, &tid, &r);
                });
            })
            .unwrap();
        let host = g.mem.download(y);
        for i in 0..n {
            assert_eq!(host[i as usize], i * 3 + 1);
        }
        assert_eq!(stats.blocks as u32, grid);
        assert!(stats.cycles > 0);
        assert!(stats.lane_utilization() > 0.9); // near-full warps
    }

    #[test]
    fn stats_cycles_scale_with_grid() {
        let mut g = gpu();
        let k = |b: &mut BlockCtx<'_>| {
            b.phase(|w| {
                for _ in 0..200 {
                    w.alu_nop(Mask::FULL);
                }
            });
        };
        let c1 = g.launch(1, 32, &k).unwrap().cycles;
        let c64 = g.launch(64, 32, &k).unwrap().cycles;
        assert!(c64 > c1, "64 blocks ({c64}) must exceed 1 block ({c1})");
    }

    #[test]
    fn warp_tasks_static_vs_dynamic_same_memory_effects() {
        for schedule in [TaskSchedule::StaticBlocked, TaskSchedule::Dynamic] {
            let mut g = gpu();
            let out = g.mem.alloc::<u32>(64);
            let stats = g
                .launch_warp_tasks(2, 64, 64, schedule, |w, task| {
                    w.st_uniform(Mask::FULL, out, task, task * 10);
                })
                .unwrap();
            let host = g.mem.download(out);
            for t in 0..64u32 {
                assert_eq!(host[t as usize], t * 10, "{schedule:?}");
            }
            assert_eq!(stats.warps, 64);
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn dynamic_schedule_pays_fetch_atomics() {
        let mut g = gpu();
        let out = g.mem.alloc::<u32>(8);
        let s_static = g
            .launch_warp_tasks(1, 32, 8, TaskSchedule::StaticBlocked, |w, t| {
                w.st_uniform(Mask::FULL, out, t, 1);
            })
            .unwrap();
        let mut g2 = gpu();
        let out2 = g2.mem.alloc::<u32>(8);
        let s_dyn = g2
            .launch_warp_tasks(1, 32, 8, TaskSchedule::Dynamic, |w, t| {
                w.st_uniform(Mask::FULL, out2, t, 1);
            })
            .unwrap();
        assert_eq!(
            s_dyn.atomic_instructions,
            s_static.atomic_instructions + 8,
            "each dynamic task pays one fetch atomic"
        );
    }

    #[test]
    fn dynamic_beats_static_on_imbalanced_tasks() {
        // Task i does i*8 ALU ops: a strongly skewed workload. With 4
        // resident warps, dynamic distribution should beat blocked-static.
        let run = |schedule| {
            let mut g = gpu();
            g.launch_warp_tasks(1, 128, 64, schedule, |w, task| {
                for _ in 0..task * 8 {
                    w.alu_nop(Mask::FULL);
                }
            })
            .unwrap()
            .cycles
        };
        let c_static = run(TaskSchedule::StaticBlocked);
        let c_dyn = run(TaskSchedule::Dynamic);
        assert!(
            c_dyn < c_static,
            "dynamic {c_dyn} should beat static-blocked {c_static}"
        );
    }

    #[test]
    fn grid_zero_tasks_ok() {
        let mut g = gpu();
        let stats = g
            .launch_warp_tasks(1, 32, 0, TaskSchedule::Dynamic, |_, _| {})
            .unwrap();
        assert_eq!(stats.warps, 0);
        assert_eq!(stats.cycles, 0);
    }

    fn profiled_gpu() -> Gpu {
        let mut cfg = GpuConfig::tiny_test();
        cfg.profile = true;
        Gpu::new(cfg)
    }

    fn imbalanced_kernel(b: &mut BlockCtx<'_>) {
        let n = 64u32;
        b.phase(|w| {
            let tid = w.global_thread_ids();
            let m = w.lt_scalar(Mask::FULL, &tid, n);
            // Divergent loop: lane l of warp w spins tid%7 times.
            let mut iters = w.alu1(m, &tid, |x| x % 7);
            let mut live = w.alu_pred(m, &iters, |x| x > 0);
            while live.any() {
                w.alu_nop(live);
                iters = w.alu1(live, &iters, |x| x.saturating_sub(1));
                live = w.alu_pred(live, &iters, |x| x > 0);
            }
        });
        b.barrier();
        b.phase(|w| {
            let tid = w.global_thread_ids();
            let m = w.lt_scalar(Mask::FULL, &tid, n);
            w.alu_nop(m);
        });
    }

    #[test]
    fn profiling_leaves_stats_byte_identical() {
        let run = |mut g: Gpu| {
            let out = g.mem.alloc::<u32>(64);
            let stats = g
                .launch(2, 32, &|b: &mut BlockCtx<'_>| {
                    imbalanced_kernel(b);
                    b.phase(|w| {
                        let tid = w.global_thread_ids();
                        let m = w.lt_scalar(Mask::FULL, &tid, 64);
                        w.st(m, out, &tid, &tid);
                        w.atomic_add(m, out, &Lanes::splat(0), &Lanes::splat(1u32));
                    });
                })
                .unwrap();
            (stats, g.mem.download(out))
        };
        let (plain, mem_plain) = run(gpu());
        let (profiled, mem_prof) = run(profiled_gpu());
        assert_eq!(plain, profiled, "profiling must not perturb KernelStats");
        assert_eq!(mem_plain, mem_prof, "profiling must not perturb memory");
    }

    #[test]
    fn profile_report_attributes_sites_and_launches() {
        let mut g = profiled_gpu();
        g.set_profile_context("unit/imbalanced");
        g.set_profile_label("first");
        let s1 = g.launch(2, 32, &imbalanced_kernel).unwrap();
        let s2 = g.launch(2, 32, &imbalanced_kernel).unwrap();
        assert!(g.profiling());
        let r = g.profile_report().unwrap();
        assert_eq!(r.context, "unit/imbalanced");
        assert_eq!(r.launches.len(), 2);
        assert_eq!(r.launches[0].label, "first");
        assert_eq!(r.launches[1].label, "launch 1");
        assert_eq!(r.total_cycles, s1.cycles + s2.cycles);
        // Sites resolve to this test file, not to warp.rs internals.
        assert!(!r.sites.is_empty());
        for s in &r.sites {
            assert!(
                s.file.ends_with("device.rs"),
                "site {} must attribute to kernel code",
                s.location()
            );
        }
        // The divergent spin shows up as a low-lane-utilization alu site.
        assert!(r
            .sites
            .iter()
            .any(|s| s.op == "alu" && s.lane_utilization() < 0.9));
        assert!(r.sites.iter().any(|s| s.op == "barrier"));
        // Per-SM buckets sum to the accumulated cycles.
        for b in &r.timing.sm_breakdown {
            assert_eq!(b.total(), r.total_cycles);
        }
        // Spans live within their launch.
        for l in &r.launches {
            assert!(!l.spans.is_empty());
            for sp in &l.spans {
                assert!(sp.end <= l.cycles.max(sp.start + 1));
            }
        }
    }

    #[test]
    fn warp_tasks_profiled_identically_and_fetches_attributed() {
        let run = |mut g: Gpu| {
            let out = g.mem.alloc::<u32>(64);
            g.launch_warp_tasks(2, 64, 64, TaskSchedule::Dynamic, |w, task| {
                w.st_uniform(Mask::FULL, out, task, task);
            })
            .unwrap()
        };
        let plain = run(gpu());
        let mut g = profiled_gpu();
        let profiled = run({
            g.set_profile_context("unit/tasks");
            g
        });
        assert_eq!(plain, profiled);
    }

    #[test]
    fn queue_fetch_atomics_show_in_profile() {
        let mut g = profiled_gpu();
        let out = g.mem.alloc::<u32>(8);
        g.launch_warp_tasks(1, 32, 8, TaskSchedule::Dynamic, |w, t| {
            w.st_uniform(Mask::FULL, out, t, 1);
        })
        .unwrap();
        let r = g.profile_report().unwrap();
        let fetch = r.sites.iter().find(|s| s.op == "queue_fetch").unwrap();
        assert_eq!(fetch.instructions, 8);
        assert!(fetch.file.ends_with("device.rs"));
        assert_eq!(r.launches.len(), 1);
        assert!(!r.launches[0].spans.is_empty());
    }

    #[test]
    fn timing_totals_available_without_profiling() {
        let mut g = gpu();
        assert!(g.last_timing().is_none());
        let s = g.launch(1, 32, &imbalanced_kernel).unwrap();
        assert!(!g.profiling());
        assert!(g.profile_report().is_none());
        let last = g.last_timing().unwrap();
        assert_eq!(last.cycles, s.cycles);
        assert_eq!(g.timing_total().cycles, s.cycles);
        let s2 = g.launch(1, 32, &imbalanced_kernel).unwrap();
        assert_eq!(g.timing_total().cycles, s.cycles + s2.cycles);
        for b in &g.timing_total().sm_breakdown {
            assert_eq!(b.total(), g.timing_total().cycles);
        }
    }

    #[test]
    fn instruction_watchdog_trips_runaway_loop() {
        let mut cfg = GpuConfig::tiny_test();
        cfg.watchdog.max_instructions = Some(500);
        let mut g = Gpu::new(cfg);
        let err = g
            .launch(1, 32, &|b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let x = w.lane_ids();
                    let mut live = Mask::FULL;
                    while live.any() {
                        w.alu_nop(live);
                        live = w.alu_pred(live, &x, |_| true); // never converges
                    }
                });
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("watchdog"), "{msg}");
        match err {
            LaunchError::Fault(SimtError::Watchdog(WatchdogKind::InstructionBudget {
                budget,
                block,
                warp,
                ..
            })) => {
                assert_eq!(budget, 500);
                assert_eq!((block, warp), (0, 0));
            }
            other => panic!("expected instruction watchdog, got {other:?}"),
        }
    }

    #[test]
    fn cycle_watchdog_trips_cumulative_budget() {
        let mut cfg = GpuConfig::tiny_test();
        cfg.watchdog.max_cycles = Some(1);
        let mut g = Gpu::new(cfg);
        let err = g
            .launch(1, 32, &|b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    for _ in 0..100 {
                        w.alu_nop(Mask::FULL);
                    }
                });
            })
            .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::Fault(SimtError::Watchdog(WatchdogKind::CycleBudget {
                budget: 1,
                ..
            }))
        ));
    }

    #[test]
    fn oob_store_faults_without_sanitizer() {
        let mut g = gpu();
        let buf = g.mem.alloc::<u32>(4);
        let r = g.launch(1, 32, &|b: &mut BlockCtx<'_>| {
            b.phase(|w| {
                let idx = w.lane_ids(); // lanes 4..32 address past the end
                w.st(Mask::FULL, buf, &idx, &idx);
            });
        });
        if g.sanitizer().is_some() {
            // Sanitizer mode diagnoses and drops the lanes; the launch runs on.
            assert!(r.is_ok());
        } else {
            let err = r.unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("illegal device address"), "{msg}");
            assert!(matches!(
                err,
                LaunchError::Fault(SimtError::OutOfBounds {
                    lane: Some(4),
                    index: 4,
                    len: 4,
                    ..
                })
            ));
        }
        // In both modes the in-bounds lanes landed and nothing panicked.
        assert_eq!(g.mem.download(buf), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shared_overflow_faults_with_attribution() {
        let mut g = gpu();
        let err = g
            .launch(1, 32, &|b: &mut BlockCtx<'_>| {
                let huge = b.shared_alloc::<u32>(u32::MAX);
                b.phase(|w| {
                    let ids = w.lane_ids();
                    let _ = w.sh_ld(Mask::FULL, huge, &ids);
                });
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("shared memory exhausted"), "{msg}");
        assert!(matches!(
            err,
            LaunchError::Fault(SimtError::SharedMemoryOverflow { block: 0, .. })
        ));
    }

    #[test]
    fn barrier_deadlock_surfaces_as_watchdog_fault() {
        // Hand-built traces: warp 0 parks at a barrier warp 1 never reaches.
        let mut parked = WarpTrace::new();
        parked.ops.push(Op::Bar);
        let mut retiring = WarpTrace::new();
        retiring.ops.push(Op::Alu { active: 32 });
        let err = timing::simulate(
            &TimingInput::new(vec![vec![vec![&parked], vec![&retiring]]], 64, 0, vec![]),
            &GpuConfig::tiny_test(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            TimingError::BarrierDeadlock {
                block: 0,
                parked_warps: vec![0],
                retired_warps: 1,
            }
        );
        let mapped = LaunchError::from(err);
        assert!(mapped.to_string().contains("barrier deadlock"));
        assert!(matches!(
            mapped,
            LaunchError::Fault(SimtError::Watchdog(WatchdogKind::BarrierDeadlock { .. }))
        ));
    }

    /// Two warps of one block: task 0 parks at a barrier task 1 never
    /// reaches, so the replay deadlocks.
    fn submit_deadlock(g: &mut Gpu) -> Submitted {
        let traced = g.trace_tasks(1, 64, 2, TaskSchedule::StaticBlocked, |w, task| {
            if task == 0 {
                w.push_op(Op::Bar);
            } else {
                w.alu_nop(Mask::FULL);
            }
        });
        g.enqueue(traced).unwrap()
    }

    /// Where the replay in flight runs: forced onto a helper thread, left
    /// for the caller to run at the join, or as `submit` decides.
    type Placement = fn(&mut Gpu);
    const PLACEMENTS: [(&str, Placement); 3] = [
        ("helper", on_helper),
        ("inline", |_| {}),
        ("free core", |g| {
            if core_free() {
                g.start_replay();
            }
        }),
    ];

    /// Start the replay in flight on a helper thread and let it finish
    /// there, so the join takes the helper's result.
    fn on_helper(g: &mut Gpu) {
        g.start_replay();
        if let Some(InFlight {
            replay: Replay::Helper(handle),
            ..
        }) = &g.in_flight
        {
            while !handle.is_finished() {
                std::thread::yield_now();
            }
        }
    }

    /// [`Gpu::submit`] with the previous launch's replay placed by `place`.
    fn submit_placed(
        g: &mut Gpu,
        kernel: &dyn Kernel,
        place: Placement,
    ) -> Result<Submitted, LaunchError> {
        place(g);
        let traced = g.trace_kernel(2, 32, kernel);
        g.enqueue(traced)
    }

    fn is_barrier_deadlock(r: Result<impl std::fmt::Debug, LaunchError>) -> bool {
        matches!(
            r,
            Err(LaunchError::Fault(SimtError::Watchdog(
                WatchdogKind::BarrierDeadlock { block: 0, .. }
            )))
        )
    }

    #[test]
    fn placement_never_changes_results() {
        let run = |place: Placement| {
            let mut g = profiled_gpu();
            let out = g.mem.alloc::<u32>(64);
            let mut submitted = Vec::new();
            for (i, schedule) in [TaskSchedule::StaticBlocked, TaskSchedule::Dynamic]
                .into_iter()
                .enumerate()
            {
                g.set_profile_label(&format!("kernel {i}"));
                let s = submit_placed(&mut g, &imbalanced_kernel, place).unwrap();
                submitted.push(s.stats);
                place(&mut g);
                let traced = g.trace_tasks(2, 64, 64, schedule, |w, task| {
                    for _ in 0..task % 5 {
                        w.alu_nop(Mask::FULL);
                    }
                    w.st_uniform(Mask::FULL, out, task, task);
                });
                submitted.push(g.enqueue(traced).unwrap().stats);
            }
            place(&mut g);
            let cycles = g.synchronize().unwrap();
            (
                submitted,
                cycles,
                g.timing_total().clone(),
                g.profile_report().unwrap(),
                g.mem.download(out),
            )
        };
        let reference = run(PLACEMENTS[0].1);
        assert_eq!(reference.1.len(), 4);
        assert!(reference.1.iter().all(|&(_, c)| c > 0));
        assert_eq!(
            reference.2.cycles,
            reference.1.iter().map(|&(_, c)| c).sum()
        );
        assert_eq!(reference.3.launches[2].label, "kernel 1");
        assert_eq!(reference.3.launches[3].label, "launch 3");
        for (name, place) in PLACEMENTS {
            assert!(run(place) == reference, "{name}");
        }
    }

    #[test]
    fn submitted_stats_match_launch_but_for_cycles() {
        let mut a = gpu();
        let mut b = gpu();
        let launched = a.launch(2, 32, &imbalanced_kernel).unwrap();
        let submitted = b.submit(2, 32, &imbalanced_kernel).unwrap();
        assert_eq!(
            submitted.stats.cycles, 0,
            "cycles are pending until settled"
        );
        let settled = b.synchronize().unwrap();
        assert_eq!(settled, vec![(submitted.ticket, launched.cycles)]);
        assert_eq!(
            KernelStats {
                cycles: launched.cycles,
                ..submitted.stats
            },
            launched
        );
        assert!(
            b.synchronize().unwrap().is_empty(),
            "cycles are handed out once"
        );
    }

    #[test]
    fn replay_errors_surface_one_launch_late() {
        for (name, place) in PLACEMENTS {
            // At synchronize.
            let mut g = gpu();
            submit_deadlock(&mut g);
            place(&mut g);
            assert!(is_barrier_deadlock(g.synchronize()), "{name}");
            assert!(g.synchronize().unwrap().is_empty(), "{name}");

            // At the next submit, which also drops the new launch.
            let mut g = gpu();
            submit_deadlock(&mut g);
            let next = submit_placed(&mut g, &imbalanced_kernel, place);
            assert!(is_barrier_deadlock(next), "{name}");
            assert!(g.synchronize().unwrap().is_empty(), "{name}");
            assert_eq!(g.timing_total().cycles, 0, "{name}");

            // Ahead of the next launch's own functional fault: serial order.
            let mut g = gpu();
            let buf = g.mem.alloc::<u32>(4);
            submit_deadlock(&mut g);
            let oob = |b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let idx = w.lane_ids();
                    w.st(Mask::FULL, buf, &idx, &idx);
                })
            };
            let next = submit_placed(&mut g, &oob, place);
            assert!(is_barrier_deadlock(next), "{name}");
        }
    }

    #[test]
    fn dropping_a_gpu_with_a_replay_in_flight_returns() {
        let mut g = gpu();
        let k = |b: &mut BlockCtx<'_>| {
            b.phase(|w| {
                for _ in 0..2000 {
                    w.alu_nop(Mask::FULL);
                }
            })
        };
        g.submit(64, 64, &k).unwrap();
        g.start_replay();
        drop(g);
    }

    #[test]
    fn a_panicking_replay_reraises_on_the_caller() {
        for (name, place) in PLACEMENTS {
            let mut g = gpu();
            // Task streams over a grid with no warps, which no launch
            // builds.
            let job = g.replay_job(
                KernelTrace {
                    blocks: vec![BlockTrace { warps: Vec::new() }],
                    block_threads: 32,
                    shared_words_per_block: 0,
                },
                Some(TaskStreams {
                    schedule: TaskSchedule::StaticBlocked,
                    grid_blocks: 1,
                    warps_per_block: 0,
                    rotation: 0,
                }),
            );
            g.enqueue(Ok((KernelStats::default(), job))).unwrap();
            place(&mut g);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.synchronize()));
            assert!(caught.is_err(), "{name}");
            // The device is usable again.
            assert!(g.launch(1, 32, &imbalanced_kernel).is_ok(), "{name}");
        }
    }

    #[test]
    fn chaos_injection_is_deterministic() {
        let run = || {
            let mut cfg = GpuConfig::tiny_test();
            cfg.faults = Some(FaultConfig::all(42));
            let mut g = Gpu::new(cfg);
            let buf = g.mem.alloc_from(&[7u32; 256]);
            let _ = g.launch(2, 64, &|b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let ids = w.global_thread_ids();
                    let m = w.lt_scalar(Mask::FULL, &ids, 256);
                    let _ = w.atomic_add(m, buf, &ids, &Lanes::splat(1u32));
                });
            });
            let chaos = g.chaos().unwrap();
            (
                g.mem.download(buf),
                chaos.launches,
                chaos.bit_flips_injected,
                chaos.atomics_dropped,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same program => same injections");
        assert_eq!(a.1, 1);
        assert!(a.2 >= 1, "bit flip must have landed in allocated memory");
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let data = gpu.mem.alloc_from(&[1u32, 2, 3, 4]);
        let out = gpu.mem.alloc::<u32>(4);
        let stats = gpu
            .launch(1, 32, &|b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let idx = w.lane_ids();
                    let m = w.lt_scalar(Mask::FULL, &idx, 4);
                    let v = w.ld(m, data, &idx);
                    let doubled = w.alu1(m, &v, |x| x * 2);
                    w.st(m, out, &idx, &doubled);
                });
            })
            .unwrap();
        assert_eq!(gpu.mem.download(out), vec![2, 4, 6, 8]);
        assert!(stats.cycles > 0);
        let _ = Lanes::splat(0u32);
    }

    #[test]
    fn fan_out_returns_results_in_input_order() {
        for n in [0usize, 1, 37] {
            for threads in [1, 2, 8] {
                let items: Vec<usize> = (0..n).collect();
                let out = fan_out(threads, items, |i| i * i);
                let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expect, "{n} items on {threads} threads");
            }
        }
    }

    #[test]
    fn fan_out_reraises_a_jobs_panic_payload() {
        for threads in [1, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(threads, (0..8).collect(), |i: u32| {
                    if i == 5 {
                        std::panic::panic_any(format!("job {i} failed"));
                    }
                    i
                })
            });
            let Err(payload) = caught else {
                panic!("the panic was swallowed on {threads} threads");
            };
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 5 failed"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn fan_out_workers_leave_no_core_free() {
        let n = cores().max(2);
        let all_in = std::sync::Barrier::new(n);
        let free = fan_out(n, vec![(); n], |()| {
            all_in.wait();
            let free = core_free();
            all_in.wait();
            free
        });
        assert_eq!(free, vec![false; n]);
    }

    #[test]
    fn a_slot_holding_thread_adds_none_for_its_launches() {
        let outer = SimulatingThread::enter();
        assert!(outer.slot.is_some());
        assert!(Simulating::driver().is_none());
        let nested = SimulatingThread::enter();
        assert!(nested.slot.is_none(), "nested slots count once");
        drop(nested);
        assert!(Simulating::driver().is_none(), "the outer slot still holds");
        drop(outer);
        assert!(Simulating::driver().is_some());
    }

    #[test]
    fn fan_out_runs_one_item_or_one_thread_inline() {
        let caller = std::thread::current().id();
        let on = |_| std::thread::current().id();
        assert_eq!(fan_out(8, vec![()], on), vec![caller]);
        assert_eq!(fan_out(1, vec![(); 5], on), vec![caller; 5]);
        assert_eq!(fan_out(0, vec![(); 3], on), vec![caller; 3]);
    }
}
