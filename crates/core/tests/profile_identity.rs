//! Observation must be pure: for every kernel in the sweep matrix and every
//! on/off combination of the three observers (sanitizer, analyzer,
//! profiler), a run must report the same payload, byte-identical
//! `KernelStats` and the same last-launch timing as the unobserved run. The
//! observers only consume the events the functional executor emits — they
//! never add, reorder, or re-time work.

use maxwarp::catalog::{Inputs, KERNELS};
use maxwarp::{AlgoRun, ExecConfig, Method};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig, Lanes, Mask, TaskSchedule};
use std::fmt::Debug;

/// `[sanitize, analyze, profile]`.
type Observed = [bool; 3];

/// All eight observer combinations, the unobserved one first.
fn combos() -> impl Iterator<Item = Observed> {
    (0..8u8).map(|bits| [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
}

fn gpu([sanitize, analyze, profile]: Observed) -> Gpu {
    let mut cfg = GpuConfig::tiny_test();
    cfg.sanitize = sanitize;
    cfg.analyze = analyze;
    cfg.profile = profile;
    Gpu::new(cfg)
}

/// Run `f` under every observer combination; payload, stats and the last
/// launch's cycles must match the unobserved run exactly.
fn assert_identical<P: PartialEq + Debug>(label: &str, f: impl Fn(&mut Gpu) -> (AlgoRun, P)) {
    let mut plain_gpu = gpu([false; 3]);
    let (plain, plain_payload) = f(&mut plain_gpu);
    let plain_last = plain_gpu.last_timing().map(|t| t.cycles);
    for on in combos().skip(1) {
        let mut g = gpu(on);
        g.set_profile_context(label);
        let (run, payload) = f(&mut g);
        assert_eq!(plain_payload, payload, "{label} {on:?}: payload changed");
        assert_eq!(
            plain.stats, run.stats,
            "{label} {on:?}: KernelStats changed"
        );
        assert_eq!(
            plain.iterations, run.iterations,
            "{label} {on:?}: iteration count changed"
        );
        assert_eq!(
            plain_last,
            g.last_timing().map(|t| t.cycles),
            "{label} {on:?}: last-launch cycles changed"
        );
        // And each observer observed the run exactly when it is on — by
        // its flag here, or forced by its `MAXWARP_*` variable the way
        // `Gpu::new` reads it (CI's sanitize job sets `MAXWARP_SANITIZE=1`).
        let forced = |var| std::env::var(var).is_ok_and(|v| v == "1");
        let [sanitize, analyze, profile] = on;
        assert_eq!(
            g.sanitizer().is_some(),
            sanitize || forced("MAXWARP_SANITIZE")
        );
        assert_eq!(
            g.analyzer().is_some_and(|a| !a.site_summaries().is_empty()),
            analyze || forced("MAXWARP_ANALYZE"),
            "{label} {on:?}: analyzer saw no memory sites"
        );
        if let Some(report) = g.profile_report() {
            assert!(!report.sites.is_empty(), "{label}: no sites recorded");
            assert_eq!(
                report.total_cycles, plain.stats.cycles,
                "{label}: profile cycle total disagrees with the run"
            );
        }
        assert_eq!(
            g.profile_report().is_some(),
            profile || forced("MAXWARP_PROFILE")
        );
    }
}

/// All 12 kernels under `m`, each across the whole observer matrix.
fn sweep(m: Method) {
    let inputs = Inputs::new(Dataset::Rmat.build(Scale::Tiny));
    let exec = ExecConfig::default();
    for kernel in &KERNELS {
        assert_identical(&format!("{}/rmat [{}]", kernel.name, m.label()), |gpu| {
            (kernel.run)(&inputs, gpu, m, &exec).unwrap()
        });
    }
}

// One test per method so the two sweeps run on separate test threads.

#[test]
fn baseline_kernels_are_byte_identical_under_every_observer_combination() {
    sweep(Method::Baseline);
}

#[test]
fn vw8_kernels_are_byte_identical_under_every_observer_combination() {
    sweep(Method::warp(8));
}

/// The warp-task path with the dynamic queue: its fetch atomics are issued
/// by the device, not a `WarpCtx`, and must be just as invisible.
#[test]
fn dynamic_warp_tasks_are_byte_identical_under_every_observer_combination() {
    let run = |on: Observed| {
        let mut g = gpu(on);
        let n = 96u32;
        let input = g.mem.alloc_from(&(0..n * 32).collect::<Vec<_>>());
        let out = g.mem.alloc::<u32>(n);
        let total = g.mem.alloc_from(&[0u32]);
        let stats = g
            .launch_warp_tasks(2, 64, n, TaskSchedule::Dynamic, |w, task| {
                // Task `t` sums `t % 32 + 1` of its 32 inputs.
                let lane = w.lane_ids();
                let m = w.lt_scalar(Mask::FULL, &lane, task % 32 + 1);
                let idx = w.add_scalar(m, &lane, task * 32);
                let v = w.ld(m, input, &idx);
                let sum = w.reduce_add(m, &v);
                w.st_uniform(m, out, task, sum);
                w.atomic_add(m, total, &Lanes::splat(0), &v);
            })
            .unwrap();
        let last = g.last_timing().map(|t| t.cycles);
        (stats, last, g.mem.download(out), g.mem.download(total))
    };
    let plain = run([false; 3]);
    for on in combos().skip(1) {
        assert_eq!(plain, run(on), "{on:?}");
    }
}
