//! Connected components by iterative min-label propagation.
//!
//! Every round, each vertex pushes its current label to its neighbors with
//! `atomicMin`; rounds repeat until a fixpoint. On a symmetric graph the
//! labels converge to each component's minimum vertex id (the same answer
//! as the union-find reference). Directed input is accepted but, as with
//! any propagation-based CC, only symmetric graphs yield *connected*
//! (rather than reachability-closed) components — the drivers in the
//! harness symmetrize first.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range, outlier_sweep, OutlierQueue};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

/// Result of a connected-components run.
#[derive(Clone, Debug)]
pub struct CcOutput {
    /// Per-vertex component labels (component minimum vertex id).
    pub labels: Vec<u32>,
    /// Execution record.
    pub run: AlgoRun,
}

/// Device-side working state of a CC run. Public so external drivers (the
/// sharded BSP executor) can seed labels and step rounds themselves.
pub struct CcState {
    /// Per-vertex component labels.
    pub labels: DevPtr<u32>,
    /// Device changed flag, reset each round.
    pub changed: DevPtr<u32>,
    /// Deferred-outlier queue.
    pub queue: DevPtr<u32>,
    /// Deferred-outlier count.
    pub qcount: DevPtr<u32>,
}

impl CcState {
    /// Allocate state with every vertex labeled by its own id.
    pub fn new(gpu: &mut Gpu, g: &DeviceGraph) -> CcState {
        let init: Vec<u32> = (0..g.n).collect();
        CcState::with_labels(gpu, g, &init)
    }

    /// Allocate state from an explicit host-side label array. Host init
    /// issues no kernel launches, so `KernelStats` stay untouched.
    pub fn with_labels(gpu: &mut Gpu, g: &DeviceGraph, init: &[u32]) -> CcState {
        assert_eq!(init.len(), g.n as usize, "one label per vertex");
        let labels = gpu.mem.alloc::<u32>(g.n.max(1));
        gpu.mem.upload(labels, init);
        CcState {
            labels,
            changed: gpu.mem.alloc::<u32>(1),
            queue: gpu.mem.alloc::<u32>(g.n.max(1)),
            qcount: gpu.mem.alloc::<u32>(1),
        }
    }
}

/// One min-label propagation round: reset the flags, push every vertex's
/// label across its edges (plus the deferred-outlier pass when requested),
/// absorb the launch stats into `run`, and report whether any label
/// improved. [`run_cc`] is exactly a loop over this function.
pub fn cc_round(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &CcState,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<bool, LaunchError> {
    run.begin_iteration();
    gpu.mem.write(st.changed, 0, 0u32);
    gpu.mem.write(st.qcount, 0, 0u32);

    let (g, labels, changed) = (*g, st.labels, st.changed);
    let outliers = OutlierQueue::new(method, st.queue, st.qcount);

    // Per-edge action: push source labels `lu` across the edges at
    // indices `i`.
    let push = move |w: &mut WarpCtx<'_>, lu: &Lanes<u32>, act: Mask, i: &Lanes<u32>| {
        let nbr = w.ld(act, g.col_indices, i);
        let old = w.atomic_min(act, labels, &nbr, lu);
        let improved = w.lt(act, lu, &old);
        if improved.any() {
            w.st_uniform(improved, changed, 0, 1);
        }
    };

    let stats = item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let lu = w.ld(m, labels, vids);
        let (s, e) = load_row_range(w, &g, m, vids);
        let mwork = sweep.defer_outliers(w, &outliers, m, vids, &s, &e);
        if mwork.any() {
            sweep.neighbor_loop(w, mwork, &s, &e, |w, act, i| push(w, &lu, act, i));
        }
    })?;
    run.absorb(&stats);

    // Outlier pass: whole blocks push the deferred high-degree vertices.
    let source_label =
        |w: &mut WarpCtx<'_>, v: u32| Lanes::splat(w.ld_uniform(Mask::FULL, labels, v));
    if let Some(s) = outlier_sweep(gpu, &g, &outliers, exec, source_label, push)? {
        run.absorb(&s);
    }

    Ok(gpu.mem.read(st.changed, 0) != 0)
}

/// Run connected components with the given method.
pub fn run_cc(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    method: Method,
    exec: &ExecConfig,
) -> Result<CcOutput, LaunchError> {
    let st = CcState::new(gpu, g);
    let mut run = AlgoRun::default();
    let mut round = 0u32;
    loop {
        if !cc_round(gpu, g, &st, method, exec, &mut run)? {
            break;
        }
        round += 1;
        check_iteration_bound(gpu, "cc", round, g.n)?;
    }
    Ok(CcOutput {
        labels: gpu.mem.download(st.labels),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_graph::reference::{connected_components, count_distinct};
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn methods() -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(8),
            Method::warp(32),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_dynamic()),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(16)).with_defer(64)),
        ]
    }

    fn check_symmetric(g: &maxwarp_graph::Csr, name: &str) {
        let want = connected_components(g);
        for method in methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, g);
            let out = run_cc(&mut gpu, &dg, method, &ExecConfig::default()).unwrap();
            assert_eq!(out.labels, want, "{name} / {}", method.label());
        }
    }

    #[test]
    fn correct_on_roadnet() {
        let g = Dataset::RoadNet.build(Scale::Tiny);
        check_symmetric(&g, "roadnet");
    }

    #[test]
    fn correct_on_symmetrized_rmat() {
        let g = Dataset::Rmat.build(Scale::Tiny).symmetrize();
        check_symmetric(&g, "rmat-sym");
    }

    #[test]
    fn correct_on_smallworld() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        check_symmetric(&g, "smallworld");
    }

    #[test]
    fn disconnected_components_found() {
        // Two 3-cliques and two isolated vertices.
        let mut edges = Vec::new();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 3, b + 3));
                }
            }
        }
        let g = maxwarp_graph::Csr::from_edges(8, &edges);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_cc(&mut gpu, &dg, Method::warp(4), &ExecConfig::default()).unwrap();
        assert_eq!(out.labels, vec![0, 0, 0, 3, 3, 3, 6, 7]);
        assert_eq!(count_distinct(&out.labels), 4);
    }

    #[test]
    fn empty_graph() {
        let g = maxwarp_graph::Csr::empty(16);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_cc(&mut gpu, &dg, Method::Baseline, &ExecConfig::default()).unwrap();
        assert_eq!(out.labels, (0..16u32).collect::<Vec<_>>());
        assert_eq!(out.run.iterations, 1);
    }
}
