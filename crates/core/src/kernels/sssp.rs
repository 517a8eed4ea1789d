//! Single-source shortest paths (round-synchronous Bellman-Ford).
//!
//! Each round, every reached vertex relaxes its out-edges with
//! `atomicMin`; rounds repeat until no distance improves. Baseline and
//! virtual warp-centric variants differ exactly as in BFS: per-thread vs.
//! per-virtual-warp adjacency iteration.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range, outlier_sweep, OutlierQueue};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

/// Distance of unreached vertices.
pub const INF: u32 = u32::MAX;

/// Result of an SSSP run.
#[derive(Clone, Debug)]
pub struct SsspOutput {
    /// Per-vertex distances (`INF` = unreachable).
    pub dist: Vec<u32>,
    /// Execution record.
    pub run: AlgoRun,
}

/// Device-side working state of an SSSP run. Public so external drivers
/// (the sharded BSP executor) can seed distances and step rounds
/// themselves.
pub struct SsspState {
    /// Per-vertex distances (`INF` = unreached).
    pub dist: DevPtr<u32>,
    /// Device changed flag, reset each round.
    pub changed: DevPtr<u32>,
    /// Deferred-outlier queue.
    pub queue: DevPtr<u32>,
    /// Deferred-outlier count.
    pub qcount: DevPtr<u32>,
}

impl SsspState {
    /// Allocate state with `src` at distance 0 and everything else `INF`.
    pub fn new(gpu: &mut Gpu, g: &DeviceGraph, src: u32) -> SsspState {
        assert!(src < g.n, "source {src} out of range for n={}", g.n);
        let mut init = vec![INF; g.n as usize];
        init[src as usize] = 0;
        SsspState::from_dist(gpu, g, &init)
    }

    /// Allocate state from an explicit host-side distance array. Host init
    /// issues no kernel launches, so `KernelStats` stay untouched.
    pub fn from_dist(gpu: &mut Gpu, g: &DeviceGraph, init: &[u32]) -> SsspState {
        assert_eq!(init.len(), g.n as usize, "one distance per vertex");
        let dist = gpu.mem.alloc::<u32>(g.n.max(1));
        gpu.mem.upload(dist, init);
        SsspState {
            dist,
            changed: gpu.mem.alloc::<u32>(1),
            queue: gpu.mem.alloc::<u32>(g.n.max(1)),
            qcount: gpu.mem.alloc::<u32>(1),
        }
    }
}

/// One Bellman-Ford relaxation round: reset the flags, relax the out-edges
/// of every reached vertex (plus the deferred-outlier pass when
/// requested), absorb the launch stats into `run`, settle it, and report
/// whether any distance improved. [`run_sssp`] is the same loop over the
/// round body, settled once at the end.
#[allow(clippy::too_many_arguments)]
pub fn sssp_round(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    weights: DevPtr<u32>,
    st: &SsspState,
    round: u32,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<bool, LaunchError> {
    let changed = sssp_step(gpu, g, weights, st, round, method, exec, run)?;
    run.settle(gpu)?;
    Ok(changed)
}

/// [`sssp_round`] without the settle: its launches may still be in flight.
#[allow(clippy::too_many_arguments)]
fn sssp_step(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    weights: DevPtr<u32>,
    st: &SsspState,
    round: u32,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<bool, LaunchError> {
    run.begin_iteration();
    gpu.mem.write(st.changed, 0, 0u32);
    gpu.mem.write(st.qcount, 0, 0u32);

    if gpu.profiling() {
        gpu.set_profile_label(&format!("sssp round {round}"));
    }
    let (g, dist, changed) = (*g, st.dist, st.changed);
    let outliers = OutlierQueue::new(method, st.queue, st.qcount);

    // Per-edge action: relax the edges at indices `i` from source
    // distances `du`.
    let relax = move |w: &mut WarpCtx<'_>, du: &Lanes<u32>, act: Mask, i: &Lanes<u32>| {
        let nbr = w.ld(act, g.col_indices, i);
        let wt = w.ld(act, weights, i);
        let nd = w.alu2(act, du, &wt, |d, x| d.saturating_add(x).min(INF - 1));
        let old = w.atomic_min(act, dist, &nbr, &nd);
        let improved = w.lt(act, &nd, &old);
        if improved.any() {
            w.st_uniform(improved, changed, 0, 1);
        }
    };

    let stats = item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let du = w.ld(m, dist, vids);
        let mf = w.alu_pred(m, &du, |d| d != INF);
        if mf.none() {
            return;
        }
        let (s, e) = load_row_range(w, &g, mf, vids);
        let mwork = sweep.defer_outliers(w, &outliers, mf, vids, &s, &e);
        if mwork.any() {
            sweep.neighbor_loop(w, mwork, &s, &e, |w, act, i| relax(w, &du, act, i));
        }
    })?;
    run.absorb(&stats);

    // Outlier pass: whole blocks relax the deferred high-degree vertices.
    let source_dist = |w: &mut WarpCtx<'_>, v: u32| Lanes::splat(w.ld_uniform(Mask::FULL, dist, v));
    if let Some(s) = outlier_sweep(gpu, &g, &outliers, exec, source_dist, relax)? {
        run.absorb(&s);
    }

    Ok(gpu.mem.read(st.changed, 0) != 0)
}

/// Run SSSP from `src`. The device graph must carry weights
/// ([`DeviceGraph::upload_weighted`]).
///
/// ```
/// use maxwarp::{run_sssp, DeviceGraph, ExecConfig, Method};
/// use maxwarp_simt::{Gpu, GpuConfig};
///
/// // 0 --5--> 1 --2--> 2, plus a costly shortcut 0 --9--> 2.
/// let g = maxwarp_graph::Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// let mut gpu = Gpu::new(GpuConfig::tiny_test());
/// let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &[5, 9, 2]);
/// let out = run_sssp(&mut gpu, &dg, 0, Method::warp(8), &ExecConfig::default()).unwrap();
/// assert_eq!(out.dist, vec![0, 5, 7]); // detour beats the shortcut
/// ```
pub fn run_sssp(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    src: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<SsspOutput, LaunchError> {
    let Some(weights) = g.weights else {
        panic!("run_sssp requires a weighted device graph");
    };
    let st = SsspState::new(gpu, g, src);
    let mut run = AlgoRun::default();
    let mut round = 0u32;
    loop {
        if !sssp_step(gpu, g, weights, &st, round, method, exec, &mut run)? {
            break;
        }
        round += 1;
        check_iteration_bound(gpu, "sssp", round, g.n)?;
    }
    run.settle(gpu)?;
    Ok(SsspOutput {
        dist: gpu.mem.download(st.dist),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_graph::reference::sssp_dijkstra;
    use maxwarp_graph::{random_weights, Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn methods() -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(4),
            Method::warp(32),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_dynamic()),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(16)).with_defer(64)),
        ]
    }

    fn check_dataset(d: Dataset) {
        let g = d.build(Scale::Tiny);
        let wts = random_weights(&g, 16, 11);
        let src = d.source(&g);
        let want = sssp_dijkstra(&g, &wts, src);
        for method in methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &wts);
            let out = run_sssp(&mut gpu, &dg, src, method, &ExecConfig::default()).unwrap();
            assert_eq!(out.dist, want, "{} / {}", d.name(), method.label());
        }
    }

    #[test]
    fn correct_on_random() {
        check_dataset(Dataset::Random);
    }

    #[test]
    fn correct_on_rmat() {
        check_dataset(Dataset::Rmat);
    }

    #[test]
    fn correct_on_roadnet() {
        check_dataset(Dataset::RoadNet);
    }

    #[test]
    fn correct_on_wikitalk_like() {
        check_dataset(Dataset::WikiTalkLike);
    }

    #[test]
    #[should_panic(expected = "requires a weighted")]
    fn unweighted_graph_rejected() {
        let g = maxwarp_graph::Csr::from_edges(4, &[(0, 1)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let _ = run_sssp(&mut gpu, &dg, 0, Method::Baseline, &ExecConfig::default());
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = maxwarp_graph::Csr::from_edges(64, &[(0, 1), (1, 2)]);
        let w = vec![3u32, 4];
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &w);
        let out = run_sssp(&mut gpu, &dg, 0, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(out.dist[0], 0);
        assert_eq!(out.dist[1], 3);
        assert_eq!(out.dist[2], 7);
        assert!(out.dist[3..].iter().all(|&d| d == INF));
    }
}
