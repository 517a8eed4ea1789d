//! Breadth-first search — the paper's primary evaluation workload.
//!
//! Level-synchronous BFS with a level array and a device `changed` flag
//! (the Harish–Narayanan formulation the paper baselines against): one
//! kernel launch per level, terminating when a level produces no updates.
//!
//! * **Baseline**: one thread per vertex; each frontier thread walks its
//!   adjacency list serially.
//! * **Warp-centric**: one *virtual warp* per vertex; the K lanes stride
//!   the list together, optionally deferring high-degree outliers to a
//!   block-cooperative second kernel and/or fetching vertex chunks from an
//!   atomic work counter (dynamic workload distribution).

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{
    item_sweep, ld_cols_opt, load_row_range_opt, outlier_sweep, OutlierQueue,
};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

/// Level value of unvisited vertices.
pub const INF: u32 = u32::MAX;

/// Result of a BFS run.
#[derive(Clone, Debug)]
pub struct BfsOutput {
    /// Per-vertex levels (`INF` = unreachable).
    pub levels: Vec<u32>,
    /// Execution record.
    pub run: AlgoRun,
}

/// Device-side working state of a BFS run. Public so external drivers
/// (the sharded BSP executor) can seed levels and step rounds themselves.
pub struct BfsState {
    /// Per-vertex level array (`INF` = unvisited).
    pub levels: DevPtr<u32>,
    /// Device changed flag, reset each round.
    pub changed: DevPtr<u32>,
    /// Deferred-outlier queue.
    pub queue: DevPtr<u32>,
    /// Deferred-outlier count.
    pub qcount: DevPtr<u32>,
}

impl BfsState {
    /// Allocate state with `src` at level 0 and everything else `INF`.
    pub fn new(gpu: &mut Gpu, g: &DeviceGraph, src: u32) -> BfsState {
        assert!(src < g.n, "source {src} out of range for n={}", g.n);
        let mut init = vec![INF; g.n as usize];
        init[src as usize] = 0;
        BfsState::from_levels(gpu, g, &init)
    }

    /// Allocate state from an explicit host-side level array (one entry per
    /// device vertex). Host init issues no kernel launches, so seeding this
    /// way leaves `KernelStats` untouched.
    pub fn from_levels(gpu: &mut Gpu, g: &DeviceGraph, init: &[u32]) -> BfsState {
        assert_eq!(init.len(), g.n as usize, "one level per vertex");
        let levels = gpu.mem.alloc::<u32>(g.n.max(1));
        gpu.mem.upload(levels, init);
        BfsState {
            levels,
            changed: gpu.mem.alloc::<u32>(1),
            queue: gpu.mem.alloc::<u32>(g.n.max(1)),
            qcount: gpu.mem.alloc::<u32>(1),
        }
    }
}

/// One level-synchronous BFS round: reset the flags, expand every vertex at
/// level `cur` (plus the deferred-outlier pass when the method requests
/// it), absorb the launch stats into `run`, and report whether any vertex
/// was claimed. [`run_bfs`] is exactly a loop over this function, so a
/// caller stepping rounds itself produces byte-identical levels and stats.
pub fn bfs_round(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &BfsState,
    cur: u32,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<bool, LaunchError> {
    run.begin_iteration();
    gpu.mem.write(st.changed, 0, 0u32);
    gpu.mem.write(st.qcount, 0, 0u32);

    if gpu.profiling() {
        gpu.set_profile_label(&format!("bfs level {cur}"));
    }
    let (g, levels, changed) = (*g, st.levels, st.changed);
    let cached = exec.cached_graph_loads;
    let outliers = OutlierQueue::new(method, st.queue, st.qcount);

    // Per-edge action: claim unvisited neighbors at the next level and
    // raise the changed flag.
    let claim = move |w: &mut WarpCtx<'_>, act: Mask, i: &Lanes<u32>| {
        let nbr = ld_cols_opt(w, &g, act, i, cached);
        let nlv = w.ld(act, levels, &nbr);
        let upd = w.alu_pred(act, &nlv, |x| x == INF);
        if upd.any() {
            w.st(upd, levels, &nbr, &Lanes::splat(cur + 1));
            w.st_uniform(upd, changed, 0, 1);
        }
    };

    let stats = item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let lv = w.ld(m, levels, vids);
        let mf = w.alu_pred(m, &lv, |x| x == cur);
        if mf.none() {
            return;
        }
        let (s, e) = load_row_range_opt(w, &g, mf, vids, cached);
        let mwork = sweep.defer_outliers(w, &outliers, mf, vids, &s, &e);
        if mwork.any() {
            sweep.neighbor_loop(w, mwork, &s, &e, claim);
        }
    })?;
    run.absorb(&stats);

    // Outlier pass: block-cooperative expansion of deferred vertices.
    if gpu.profiling() && outliers.pending(gpu) > 0 {
        gpu.set_profile_label(&format!("bfs level {cur} outliers"));
    }
    let expand = |w: &mut WarpCtx<'_>, _: &(), act: Mask, i: &Lanes<u32>| claim(w, act, i);
    if let Some(s) = outlier_sweep(gpu, &g, &outliers, exec, |_, _| (), expand)? {
        run.absorb(&s);
    }

    Ok(gpu.mem.read(st.changed, 0) != 0)
}

/// Run BFS from `src` using `method`. The graph must already be on the
/// device; working buffers are allocated fresh.
pub fn run_bfs(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    src: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<BfsOutput, LaunchError> {
    let st = BfsState::new(gpu, g, src);
    let mut run = AlgoRun::default();
    let mut cur = 0u32;
    loop {
        if !bfs_round(gpu, g, &st, cur, method, exec, &mut run)? {
            break;
        }
        cur += 1;
        check_iteration_bound(gpu, "bfs", cur, g.n)?;
    }
    Ok(BfsOutput {
        levels: gpu.mem.download(st.levels),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use maxwarp_graph::reference::bfs_levels;
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn all_methods() -> Vec<Method> {
        let mut ms = vec![Method::Baseline];
        for k in [1u32, 4, 8, 32] {
            ms.push(Method::warp(k));
        }
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(crate::vwarp::VirtualWarp::new(8)).with_dynamic(),
        ));
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(crate::vwarp::VirtualWarp::new(8)).with_defer(64),
        ));
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(crate::vwarp::VirtualWarp::new(32))
                .with_dynamic()
                .with_defer(32),
        ));
        ms
    }

    fn check_dataset(d: Dataset) {
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let want = bfs_levels(&g, src);
        for method in all_methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_bfs(&mut gpu, &dg, src, method, &ExecConfig::default()).unwrap();
            assert_eq!(out.levels, want, "{} / {}", d.name(), method.label());
            assert!(out.run.cycles() > 0, "{}", method.label());
        }
    }

    #[test]
    fn correct_on_rmat() {
        check_dataset(Dataset::Rmat);
    }

    #[test]
    fn correct_on_random() {
        check_dataset(Dataset::Random);
    }

    #[test]
    fn correct_on_wikitalk_like() {
        check_dataset(Dataset::WikiTalkLike);
    }

    #[test]
    fn correct_on_roadnet() {
        check_dataset(Dataset::RoadNet);
    }

    #[test]
    fn correct_on_patents_like() {
        check_dataset(Dataset::PatentsLike);
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let g = maxwarp_graph::Csr::from_edges(64, &[(1, 2)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_bfs(&mut gpu, &dg, 0, Method::Baseline, &ExecConfig::default()).unwrap();
        assert_eq!(out.levels[0], 0);
        assert!(out.levels[1..].iter().all(|&l| l == INF));
        assert_eq!(out.run.iterations, 1);
    }

    #[test]
    fn iteration_cap_zero_returns_watchdog_error() {
        // A chain needs several BFS levels; with the iteration watchdog
        // capped at 0 the driver must surface a structured error (with
        // algorithm attribution) instead of looping or panicking.
        let g = maxwarp_graph::Csr::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut cfg = GpuConfig::tiny_test();
        cfg.watchdog.max_iterations = Some(0);
        let mut gpu = Gpu::new(cfg);
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let err = run_bfs(&mut gpu, &dg, 0, Method::Baseline, &ExecConfig::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("watchdog"), "{msg}");
        assert!(msg.contains("bfs"), "{msg}");
        assert!(
            matches!(
                err,
                maxwarp_simt::LaunchError::Fault(maxwarp_simt::SimtError::Watchdog(
                    maxwarp_simt::WatchdogKind::IterationBudget { budget: 0, .. }
                ))
            ),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = maxwarp_graph::Csr::from_edges(4, &[(0, 1)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let _ = run_bfs(&mut gpu, &dg, 10, Method::Baseline, &ExecConfig::default());
    }

    #[test]
    fn warp_centric_beats_baseline_on_hub_graph() {
        // The headline effect: on an extreme-hub graph the baseline warp
        // serializes a huge adjacency list on one lane.
        let g = Dataset::WikiTalkLike.build(Scale::Tiny);
        let src = Dataset::WikiTalkLike.source(&g);
        let cfg = GpuConfig::fermi_c2050();
        let run = |method: Method| {
            let mut gpu = Gpu::new(cfg.clone());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            run_bfs(&mut gpu, &dg, src, method, &ExecConfig::default())
                .unwrap()
                .run
                .cycles()
        };
        let base = run(Method::Baseline);
        let warp = run(Method::warp(32));
        assert!(
            warp * 2 < base,
            "vw32 ({warp}) should be >2x faster than baseline ({base}) on hub graph"
        );
    }

    #[test]
    fn baseline_utilization_lower_on_skewed_graph() {
        let g = Dataset::Rmat.build(Scale::Tiny);
        let src = Dataset::Rmat.source(&g);
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let base = run_bfs(&mut gpu, &dg, src, Method::Baseline, &ExecConfig::default()).unwrap();
        let mut gpu2 = Gpu::new(GpuConfig::fermi_c2050());
        let dg2 = DeviceGraph::upload(&mut gpu2, &g);
        let warp = run_bfs(
            &mut gpu2,
            &dg2,
            src,
            Method::warp(32),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(
            base.run.stats.lane_utilization() < warp.run.stats.lane_utilization(),
            "baseline {} vs warp {}",
            base.run.stats.lane_utilization(),
            warp.run.stats.lane_utilization()
        );
    }

    #[test]
    fn warp_centric_coalesces_better_on_skewed_graph() {
        let g = Dataset::WikiTalkLike.build(Scale::Tiny);
        let src = Dataset::WikiTalkLike.source(&g);
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let base = run_bfs(&mut gpu, &dg, src, Method::Baseline, &ExecConfig::default()).unwrap();
        let mut gpu2 = Gpu::new(GpuConfig::fermi_c2050());
        let dg2 = DeviceGraph::upload(&mut gpu2, &g);
        let warp = run_bfs(
            &mut gpu2,
            &dg2,
            src,
            Method::warp(32),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(
            warp.run.stats.tx_per_mem_instruction() < base.run.stats.tx_per_mem_instruction(),
            "warp {} vs baseline {}",
            warp.run.stats.tx_per_mem_instruction(),
            base.run.stats.tx_per_mem_instruction()
        );
    }

    /// The warp-hazard sanitizer is observational: a fig2-style BFS run with
    /// it enabled must report the exact same levels, per-launch stats, and
    /// cycle counts as a plain run — for every method.
    #[test]
    fn sanitized_runs_report_identical_stats() {
        let g = Dataset::Rmat.build(Scale::Tiny);
        let src = Dataset::Rmat.source(&g);
        for method in all_methods() {
            let run = |sanitize: bool| {
                let mut cfg = GpuConfig::fermi_c2050();
                cfg.sanitize = sanitize;
                let mut gpu = Gpu::new(cfg);
                let dg = DeviceGraph::upload(&mut gpu, &g);
                run_bfs(&mut gpu, &dg, src, method, &ExecConfig::default()).unwrap()
            };
            let plain = run(false);
            let sanitized = run(true);
            assert_eq!(
                plain.levels,
                sanitized.levels,
                "{}: results differ",
                method.label()
            );
            assert_eq!(
                plain.run.stats,
                sanitized.run.stats,
                "{}: KernelStats differ under the sanitizer",
                method.label()
            );
            assert_eq!(plain.run.iterations, sanitized.run.iterations);
        }
    }
}
