//! Observation must be pure: for every kernel in the sweep matrix and every
//! on/off combination of the three observers (sanitizer, analyzer,
//! profiler), a run must report the same payload, byte-identical
//! `KernelStats` and the same last-launch timing as the unobserved run. The
//! observers only consume the events the functional executor emits — they
//! never add, reorder, or re-time work.

use maxwarp::AlgoRun;
use maxwarp::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, DeviceGraph, ExecConfig,
    GpuHybridConfig, Method,
};
use maxwarp_graph::{random_weights, Csr, Dataset, Orientation, Scale};
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
        // And each observer that is on actually observed the run.
        let [sanitize, analyze, profile] = on;
        assert_eq!(g.sanitizer().is_some(), sanitize);
        assert_eq!(
            g.analyzer().is_some_and(|a| !a.site_summaries().is_empty()),
            analyze,
            "{label} {on:?}: analyzer saw no memory sites"
        );
        if let Some(report) = g.profile_report() {
            assert!(!report.sites.is_empty(), "{label}: no sites recorded");
            assert_eq!(
                report.total_cycles, plain.stats.cycles,
                "{label}: profile cycle total disagrees with the run"
            );
        }
        assert_eq!(g.profile_report().is_some(), profile);
    }
}

/// All 12 kernels under `m`, each across the whole observer matrix.
fn sweep(m: Method) {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let src = (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0);
    let sym = g.symmetrize();
    let rev = g.reverse();
    let weights = random_weights(&g, 15, 11);
    let values: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
    let x = vec![1.0f32; g.num_vertices() as usize];
    let bc_sources: Vec<u32> = (0..4).collect();
    let ms_sources: Vec<u32> = (0..32).collect();
    let exec = ExecConfig::default();

    let tag = |k: &str| format!("{k}/rmat [{}]", m.label());
    let up = |gpu: &mut Gpu, g: &Csr| DeviceGraph::upload(gpu, g);

    assert_identical(&tag("bfs"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_bfs(gpu, &dg, src, m, &exec).unwrap();
        (out.run, out.levels)
    });
    assert_identical(&tag("bfs_queue"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_bfs_queue(gpu, &dg, src, m, &exec).unwrap();
        (out.run, out.levels)
    });
    assert_identical(&tag("bfs_hybrid"), |gpu| {
        let dg = up(gpu, &g);
        let drev = up(gpu, &rev);
        let cfg = GpuHybridConfig::default();
        let out = run_bfs_hybrid(gpu, &dg, &drev, src, m, &exec, &cfg).unwrap();
        (out.bfs.run, (out.bfs.levels, out.directions))
    });
    assert_identical(&tag("sssp"), |gpu| {
        let dg = DeviceGraph::upload_weighted(gpu, &g, &weights);
        let out = run_sssp(gpu, &dg, src, m, &exec).unwrap();
        (out.run, out.dist)
    });
    assert_identical(&tag("cc"), |gpu| {
        let dg = up(gpu, &sym);
        let out = run_cc(gpu, &dg, m, &exec).unwrap();
        (out.run, out.labels)
    });
    assert_identical(&tag("pagerank"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_pagerank(gpu, &dg, 3, 0.85, m, &exec).unwrap();
        (out.run, out.ranks)
    });
    assert_identical(&tag("betweenness"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_betweenness(gpu, &dg, &bc_sources, m, &exec).unwrap();
        (out.run, out.bc)
    });
    assert_identical(&tag("triangles"), |gpu| {
        let out = run_triangles(gpu, &sym, m, &exec, Orientation::ByDegree).unwrap();
        (out.run, out.count)
    });
    assert_identical(&tag("coloring"), |gpu| {
        let dg = up(gpu, &sym);
        let out = run_coloring(gpu, &dg, m, &exec).unwrap();
        (out.run, out.colors)
    });
    assert_identical(&tag("kcore"), |gpu| {
        let dg = up(gpu, &sym);
        let out = run_kcore(gpu, &dg, m, &exec).unwrap();
        (out.run, out.core)
    });
    assert_identical(&tag("msbfs"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_msbfs(gpu, &dg, &ms_sources, m, &exec).unwrap();
        (out.run, out.levels)
    });
    assert_identical(&tag("spmv"), |gpu| {
        let dg = up(gpu, &g);
        let out = run_spmv(gpu, &dg, &values, &x, m, &exec).unwrap();
        (out.run, out.y)
    });
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
