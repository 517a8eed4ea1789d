//! Triangle counting — the workload the paper's authors revisited in
//! later work (Sevenich, Hong et al.), included here as the third
//! demonstration of the warp-centric mapping beyond traversals.
//!
//! Input is a *forward-oriented* graph (each undirected edge once, sorted
//! neighbor lists — see [`maxwarp_graph::triangles`]). The task unit is a
//! forward edge `(u, v)`; its triangle contribution is
//! `|N+(u) ∩ N+(v)|`.
//!
//! * **Baseline**: one thread per forward edge running a two-pointer merge
//!   — per-lane trip counts vary with `deg(u) + deg(v)`, the usual
//!   imbalance, and every lane walks two unrelated lists (scattered
//!   loads).
//! * **Warp-centric**: one virtual warp per forward edge — lanes stride
//!   `N+(v)` together and each binary-searches `N+(u)`; trip counts
//!   collapse to `ceil(deg(v)/K) × log deg(u)` and the strided loads
//!   coalesce.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_fold, load_row_range, Sweep};
use crate::method::{ExecConfig, Method};
use crate::runner::AlgoRun;
use maxwarp_graph::{forward_graph, Csr, Orientation};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

/// Result of a triangle-count run.
#[derive(Clone, Debug)]
pub struct TriangleOutput {
    /// Number of triangles.
    pub count: u64,
    /// Execution record.
    pub run: AlgoRun,
}

/// Forward graph + per-edge source array on the device.
struct FwdDevice {
    g: DeviceGraph,
    edge_src: DevPtr<u32>,
    counter: DevPtr<u32>,
}

fn upload_forward(gpu: &mut Gpu, fwd: &Csr) -> FwdDevice {
    let g = DeviceGraph::upload(gpu, fwd);
    let mut src = Vec::with_capacity(fwd.num_edges() as usize);
    for u in 0..fwd.num_vertices() {
        src.extend(std::iter::repeat_n(u, fwd.degree(u) as usize));
    }
    FwdDevice {
        g,
        edge_src: gpu.mem.alloc_from(&src),
        counter: gpu.mem.alloc::<u32>(1),
    }
}

/// Count triangles of a *symmetric* graph with the given method.
///
/// ```
/// use maxwarp::{run_triangles, ExecConfig, Method};
/// use maxwarp_graph::Orientation;
/// use maxwarp_simt::{Gpu, GpuConfig};
///
/// // A triangle 0-1-2 with a pendant vertex 3.
/// let g = maxwarp_graph::Csr::from_edges(
///     4,
///     &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2), (2, 3), (3, 2)],
/// );
/// let mut gpu = Gpu::new(GpuConfig::tiny_test());
/// let out = run_triangles(&mut gpu, &g, Method::warp(8), &ExecConfig::default(),
///                         Orientation::ByDegree).unwrap();
/// assert_eq!(out.count, 1);
/// ```
pub fn run_triangles(
    gpu: &mut Gpu,
    g: &Csr,
    method: Method,
    exec: &ExecConfig,
    orientation: Orientation,
) -> Result<TriangleOutput, LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral does not apply to triangle counting"
        );
    }
    let fwd = forward_graph(g, orientation);
    let dev = upload_forward(gpu, &fwd);
    let mut run = AlgoRun::default();
    run.begin_iteration();
    let (g, edge_src, counter) = (dev.g, dev.edge_src, dev.counter);

    // The items are forward edges `(u, v)`. Each warp keeps per-lane match
    // counts (plus the lanes it will reduce over) across the edges it
    // visits and publishes them with one reduction and one atomic.
    let stats = item_fold(
        gpu,
        g.m,
        method,
        exec,
        || (Lanes::splat(0u32), Mask::NONE),
        |w, sweep, eid, m, (cnt, counted)| {
            let u = w.ld(m, edge_src, eid);
            let v = w.ld(m, g.col_indices, eid);
            let nu = load_row_range(w, &g, m, &u);
            let nv = load_row_range(w, &g, m, &v);
            match sweep {
                Sweep::PerThread => {
                    *counted = m;
                    merge_count(w, &g, m, nu, nv, cnt);
                }
                Sweep::PerVirtualWarp(_) => {
                    // Inactive lanes hold zero counts, so the task reduces
                    // the full warp.
                    *counted = Mask::FULL;
                    sweep.neighbor_loop(w, m, &nv.0, &nv.1, |w, act, idx| {
                        search_count(w, &g, act, idx, &nu, cnt);
                    });
                }
            }
        },
        |w, (cnt, counted)| {
            let total = w.reduce_add(counted, &cnt);
            if total > 0 {
                let _ = w.atomic_add_uniform(counted, counter, 0, total);
            }
        },
    )?;
    run.absorb(&stats);
    let count = gpu.mem.read(dev.counter, 0) as u64;
    Ok(TriangleOutput { count, run })
}

/// Half-open edge-index ranges `(start, end)` of the active lanes' lists.
type Ranges = (Lanes<u32>, Lanes<u32>);

/// Thread-per-edge: a two-pointer merge of `N+(u)` and `N+(v)`, counting
/// common entries into `cnt`.
fn merge_count(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    m: Mask,
    (su, eu): Ranges,
    (sv, ev): Ranges,
    cnt: &mut Lanes<u32>,
) {
    let mut i = su;
    let mut j = sv;
    let li = w.lt(m, &i, &eu);
    let lj = w.lt(m, &j, &ev);
    let mut act = li & lj;
    while act.any() {
        let a = w.ld(act, g.col_indices, &i);
        let bb = w.ld(act, g.col_indices, &j);
        let a_lt = w.lt(act, &a, &bb);
        let b_lt = w.lt(act, &bb, &a);
        let eq = act.andnot(a_lt).andnot(b_lt);
        if eq.any() {
            let c2 = w.alu1(eq, cnt, |c| c + 1);
            *cnt = c2.select(eq, cnt);
        }
        // Advance i where a <= b, j where b <= a.
        let adv_i = act.andnot(b_lt);
        let adv_j = act.andnot(a_lt);
        let i2 = w.add_scalar(adv_i, &i, 1);
        i = i2.select(adv_i, &i);
        let j2 = w.add_scalar(adv_j, &j, 1);
        j = j2.select(adv_j, &j);
        let li = w.lt(act, &i, &eu);
        let lj = w.lt(act, &j, &ev);
        act = li & lj;
    }
}

/// Virtual-warp-per-edge, one stride of `N+(v)`: each active lane holds
/// the entry at `idx` and binary-searches it in `N+(u) = cols[su..eu]`.
fn search_count(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    act: Mask,
    idx: &Lanes<u32>,
    (su, eu): &Ranges,
    cnt: &mut Lanes<u32>,
) {
    let x = w.ld(act, g.col_indices, idx);
    let mut lo = *su;
    let mut hi = *eu;
    let mut found = Mask::NONE;
    let mut searching = act & w.lt(act, &lo, &hi);
    while searching.any() {
        let mid = w.alu2(searching, &lo, &hi, |l, h| l + (h - l) / 2);
        let a = w.ld(searching, g.col_indices, &mid);
        let a_lt = w.lt(searching, &a, &x);
        let x_lt = w.lt(searching, &x, &a);
        let eq = searching.andnot(a_lt).andnot(x_lt);
        found |= eq;
        // lo = mid+1 where a < x; hi = mid where x < a; matched lanes
        // leave the loop.
        let lo2 = w.add_scalar(a_lt, &mid, 1);
        lo = lo2.select(a_lt, &lo);
        hi = mid.select(x_lt, &hi);
        searching = searching.andnot(eq) & w.lt(searching, &lo, &hi);
    }
    if found.any() {
        let c2 = w.alu1(found, cnt, |c| c + 1);
        *cnt = c2.select(found, cnt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_graph::{count_triangles, erdos_renyi, small_world, Dataset, Scale};
    use maxwarp_simt::GpuConfig;

    fn methods() -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(4),
            Method::warp(32),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_dynamic()),
        ]
    }

    fn check(g: &Csr, name: &str) {
        let want = count_triangles(g);
        for method in methods() {
            for orientation in [Orientation::ById, Orientation::ByDegree] {
                let mut gpu = Gpu::new(GpuConfig::tiny_test());
                let out = run_triangles(&mut gpu, g, method, &ExecConfig::default(), orientation)
                    .unwrap();
                assert_eq!(
                    out.count,
                    want,
                    "{name} / {} / {orientation:?}",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn correct_on_dense_er() {
        let g = erdos_renyi(300, 6000, 3).symmetrize();
        assert!(count_triangles(&g) > 100);
        check(&g, "er");
    }

    #[test]
    fn correct_on_small_world() {
        // Ring lattices are triangle-rich by construction.
        let g = small_world(600, 4, 0.05, 2);
        assert!(count_triangles(&g) > 100);
        check(&g, "smallworld");
    }

    #[test]
    fn correct_on_social_dataset() {
        let g = Dataset::LiveJournalLike.build(Scale::Tiny);
        check(&g, "lj");
    }

    #[test]
    fn triangle_free_mesh_counts_zero() {
        let g = Dataset::RoadNet.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let out = run_triangles(
            &mut gpu,
            &g,
            Method::warp(8),
            &ExecConfig::default(),
            Orientation::ByDegree,
        )
        .unwrap();
        assert_eq!(out.count, 0);
    }

    #[test]
    fn warp_centric_improves_utilization_on_skewed_graph() {
        let g = Dataset::LiveJournalLike.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let base = run_triangles(
            &mut gpu,
            &g,
            Method::Baseline,
            &ExecConfig::default(),
            Orientation::ByDegree,
        )
        .unwrap();
        let mut gpu2 = Gpu::new(GpuConfig::fermi_c2050());
        let warp = run_triangles(
            &mut gpu2,
            &g,
            Method::warp(8),
            &ExecConfig::default(),
            Orientation::ByDegree,
        )
        .unwrap();
        assert_eq!(base.count, warp.count);
        assert!(
            warp.run.stats.lane_utilization() > base.run.stats.lane_utilization(),
            "warp {} vs base {}",
            warp.run.stats.lane_utilization(),
            base.run.stats.lane_utilization()
        );
    }
}
