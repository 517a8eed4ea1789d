//! k-core decomposition by parallel peeling.
//!
//! The core number of a vertex is the largest k such that it belongs to a
//! subgraph where every vertex has degree ≥ k. The ParK-style parallel
//! peel: for k = 0, 1, 2, …, repeatedly remove alive vertices whose
//! residual degree is ≤ k (they get core number k) and atomically
//! decrement their alive neighbors' degrees, until the level drains; the
//! decrement scatter is the familiar irregular neighbor loop, mapped
//! per-thread (baseline) or per-virtual-warp.
//!
//! Peeling a high-diameter mesh cascades one layer per round, so (like
//! every round-synchronous peel on a GPU) this targets the short-cascade
//! graph classes; the tests use those.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Submitted};

/// Core number of not-yet-peeled vertices during the run.
const PENDING: u32 = u32::MAX;

/// Result of a k-core decomposition.
#[derive(Clone, Debug)]
pub struct KcoreOutput {
    /// Per-vertex core numbers.
    pub core: Vec<u32>,
    /// The degeneracy (maximum core number; 0 for an edgeless graph).
    pub degeneracy: u32,
    /// Execution record.
    pub run: AlgoRun,
}

struct KcoreState {
    deg: DevPtr<u32>,
    core: DevPtr<u32>,
    pending: DevPtr<u32>,
    changed: DevPtr<u32>,
}

/// Run k-core decomposition on a *symmetric* graph.
pub fn run_kcore(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    method: Method,
    exec: &ExecConfig,
) -> Result<KcoreOutput, LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into the k-core kernels"
        );
    }
    let n = g.n;
    let host_deg: Vec<u32> = {
        // Degrees derived from row offsets on the host (a trivial map
        // kernel in CUDA; free setup here).
        let offs = gpu.mem.download(g.row_offsets);
        offs.windows(2).map(|w| w[1] - w[0]).collect()
    };
    let st = KcoreState {
        deg: gpu.mem.alloc_from(&host_deg),
        core: gpu.mem.alloc::<u32>(n.max(1)),
        pending: gpu.mem.alloc::<u32>(n.max(1)),
        changed: gpu.mem.alloc::<u32>(1),
    };
    gpu.mem.fill(st.core, PENDING);
    // Real cudaMalloc memory is uninitialized; the peel loop reads
    // `pending` before the first mark kernel writes it.
    gpu.mem.fill(st.pending, 0u32);

    let mut run = AlgoRun::default();
    let mut k = 0u32;
    let mut peeled_total = 0u32;
    let mut guard = 0u32;
    while peeled_total < n {
        // Drain level k: mark-then-decrement rounds until no vertex is
        // peelable at this k.
        loop {
            run.begin_iteration();
            gpu.mem.write(st.changed, 0, 0u32);
            let s1 = launch_mark(gpu, g, &st, k, exec)?;
            run.absorb(&s1);
            if gpu.mem.read(st.changed, 0) == 0 {
                break;
            }
            let (s2, peeled) = launch_decrement(gpu, g, &st, method, exec)?;
            run.absorb(&s2);
            peeled_total += peeled;
            guard += 1;
            check_iteration_bound(gpu, "kcore", guard, 4 * n)?;
        }
        k += 1;
        check_iteration_bound(gpu, "kcore-k", k, n)?;
    }

    let core = gpu.mem.download(st.core);
    let degeneracy = core.iter().copied().max().unwrap_or(0);
    run.settle(gpu)?;
    Ok(KcoreOutput {
        core,
        degeneracy,
        run,
    })
}

/// Mark alive vertices with residual degree ≤ k: they take core number k
/// and a pending flag (a uniform map kernel).
fn launch_mark(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &KcoreState,
    k: u32,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (deg, core, pending, changed) = (st.deg, st.core, st.pending, st.changed);
    item_sweep(gpu, g.n, Method::Baseline, exec, |w, _, vid, m| {
        let c = w.ld(m, core, vid);
        let alive = w.alu_pred(m, &c, |x| x == PENDING);
        if alive.none() {
            return;
        }
        let d = w.ld(alive, deg, vid);
        let peel = w.alu_pred(alive, &d, |x| x <= k);
        if peel.any() {
            w.st(peel, core, vid, &Lanes::splat(k));
            w.st(peel, pending, vid, &Lanes::splat(1u32));
            w.st_uniform(peel, changed, 0, 1);
        }
    })
}

/// Decrement alive neighbors of pending vertices; clears the pending
/// flags. Returns the number of vertices processed (read back from a
/// device counter).
fn launch_decrement(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &KcoreState,
    method: Method,
    exec: &ExecConfig,
) -> Result<(Submitted, u32), LaunchError> {
    let (deg, core, pending) = (st.deg, st.core, st.pending);
    let counter = gpu.mem.alloc::<u32>(1);
    let stats = item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let p = w.ld(m, pending, vids);
        let mp = w.alu_pred(m, &p, |x| x == 1);
        if mp.none() {
            return;
        }
        // Clear the flag and count the vertex, once per vertex.
        let once = sweep.owners(mp);
        w.st(once, pending, vids, &Lanes::splat(0u32));
        let _ = w.atomic_add(once, counter, &Lanes::splat(0u32), &Lanes::splat(1u32));
        let (s, e) = load_row_range(w, g, mp, vids);
        sweep.neighbor_loop(w, mp, &s, &e, |w, act, i| {
            // Decrement alive neighbors (wrapping add of -1 — exactly what
            // atomicSub compiles to).
            let nbr = w.ld(act, g.col_indices, i);
            let nc = w.ld(act, core, &nbr);
            let m_alive = w.alu_pred(act, &nc, |x| x == PENDING);
            if m_alive.any() {
                let _ = w.atomic_add(m_alive, deg, &nbr, &Lanes::splat(u32::MAX));
            }
        });
    })?;
    let peeled = gpu.mem.read(counter, 0);
    Ok((stats, peeled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn check(g: &maxwarp_graph::Csr, name: &str) {
        let want = maxwarp_graph::reference::kcore(g);
        for m in [Method::Baseline, Method::warp(8)] {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, g);
            let out = run_kcore(&mut gpu, &dg, m, &ExecConfig::default()).unwrap();
            assert_eq!(out.core, want, "{name} / {}", m.label());
        }
    }

    #[test]
    fn matches_reference_on_social() {
        let g = Dataset::LiveJournalLike.build(Scale::Tiny);
        check(&g, "lj");
    }

    #[test]
    fn matches_reference_on_smallworld() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        check(&g, "smallworld");
    }

    #[test]
    fn isolated_vertices_are_zero_core() {
        let g = maxwarp_graph::Csr::from_edges(5, &[(0, 1), (1, 0)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_kcore(&mut gpu, &dg, Method::warp(4), &ExecConfig::default()).unwrap();
        assert_eq!(out.core, vec![1, 1, 0, 0, 0]);
        assert_eq!(out.degeneracy, 1);
    }
}
