//! Betweenness centrality (level-synchronous GPU Brandes).
//!
//! For each source: a forward sweep computes BFS levels and shortest-path
//! counts `sigma` (discovery and `atomicAdd` accumulation fused into one
//! kernel per level, as in the GPU-Brandes literature), then a backward
//! sweep walks the levels in reverse accumulating dependencies
//! `delta[v] = Σ_{w ∈ succ(v)} sigma[v]/sigma[w] · (1 + delta[w])` —
//! race-free because each round only reads the deeper, already-final
//! level. Both sweeps exist in baseline and virtual warp-centric forms.
//!
//! Full BC is `O(nm)`; like the GPU evaluations this follows, the driver
//! takes an explicit *source sample*.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range, Sweep};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Submitted};

/// Level value of undiscovered vertices.
pub const INF: u32 = u32::MAX;

/// Result of a betweenness run.
#[derive(Clone, Debug)]
pub struct BcOutput {
    /// Unnormalized centrality accumulated over the source sample.
    pub bc: Vec<f32>,
    /// Execution record (all sources, all sweeps).
    pub run: AlgoRun,
}

struct BcState {
    level: DevPtr<u32>,
    sigma: DevPtr<f32>,
    delta: DevPtr<f32>,
    bc: DevPtr<f32>,
    changed: DevPtr<u32>,
}

/// Run betweenness centrality from the given source sample.
pub fn run_betweenness(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    sources: &[u32],
    method: Method,
    exec: &ExecConfig,
) -> Result<BcOutput, LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into the BC kernels"
        );
    }
    assert!(!sources.is_empty(), "need at least one source");
    let st = BcState {
        level: gpu.mem.alloc::<u32>(g.n),
        sigma: gpu.mem.alloc::<f32>(g.n),
        delta: gpu.mem.alloc::<f32>(g.n),
        bc: gpu.mem.alloc::<f32>(g.n),
        changed: gpu.mem.alloc::<u32>(1),
    };
    gpu.mem.fill(st.bc, 0.0f32);
    let mut run = AlgoRun::default();

    for &s in sources {
        assert!(s < g.n, "source {s} out of range for n={}", g.n);
        gpu.mem.fill(st.level, INF);
        gpu.mem.fill(st.sigma, 0.0f32);
        gpu.mem.fill(st.delta, 0.0f32);
        gpu.mem.write(st.level, s, 0);
        gpu.mem.write(st.sigma, s, 1.0f32);

        // ---- forward sweep ----
        let mut depth = 0u32;
        loop {
            run.begin_iteration();
            gpu.mem.write(st.changed, 0, 0u32);
            let stats = launch_forward(gpu, g, &st, depth, method, exec)?;
            run.absorb(&stats);
            if gpu.mem.read(st.changed, 0) == 0 {
                break;
            }
            depth += 1;
            check_iteration_bound(gpu, "bc-forward", depth, g.n)?;
        }

        // ---- backward sweep (deepest level first; level `depth` has no
        //      successors so start at depth-1) ----
        let mut d = depth;
        while d > 0 {
            d -= 1;
            run.begin_iteration();
            let stats = launch_backward(gpu, g, &st, d, method, exec)?;
            run.absorb(&stats);
        }

        // ---- accumulate into bc (skip the source) ----
        run.begin_iteration();
        let stats = launch_accumulate(gpu, g, &st, s, exec)?;
        run.absorb(&stats);
    }

    run.settle(gpu)?;
    Ok(BcOutput {
        bc: gpu.mem.download(st.bc),
        run,
    })
}

/// One forward level: vertices at level `cur` discover their neighbors at
/// `cur + 1` and add their path counts to them.
fn launch_forward(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &BcState,
    cur: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (level, sigma, changed) = (st.level, st.sigma, st.changed);
    item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let lv = w.ld(m, level, vids);
        let mf = w.alu_pred(m, &lv, |x| x == cur);
        if mf.none() {
            return;
        }
        let sv = w.ld(mf, sigma, vids);
        let (s, e) = load_row_range(w, g, mf, vids);
        sweep.neighbor_loop(w, mf, &s, &e, |w, act, i| {
            let nbr = w.ld(act, g.col_indices, i);
            let nlv = w.ld(act, level, &nbr);
            let m_inf = w.alu_pred(act, &nlv, |x| x == INF);
            if m_inf.any() {
                w.st(m_inf, level, &nbr, &Lanes::splat(cur + 1));
                w.st_uniform(m_inf, changed, 0, 1);
            }
            let m_next = w.alu_pred(act, &nlv, |x| x == cur + 1);
            let m_add = m_inf | m_next;
            if m_add.any() {
                let _ = w.atomic_add(m_add, sigma, &nbr, &sv);
            }
        });
    })
}

/// One backward level: vertices at level `d` accumulate dependency from
/// their successors at level `d + 1`.
fn launch_backward(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &BcState,
    d: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (level, sigma, delta) = (st.level, st.sigma, st.delta);
    item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let lv = w.ld(m, level, vids);
        let mf = w.alu_pred(m, &lv, |x| x == d);
        if mf.none() {
            return;
        }
        let sv_f = w.ld(mf, sigma, vids);
        let (s, e) = load_row_range(w, g, mf, vids);
        let mut acc = Lanes::splat(0.0f32);
        sweep.neighbor_loop(w, mf, &s, &e, |w, act, i| {
            let nbr = w.ld(act, g.col_indices, i);
            let nlv = w.ld(act, level, &nbr);
            let m_succ = w.alu_pred(act, &nlv, |x| x == d + 1);
            if m_succ.none() {
                return;
            }
            let s_nbr = w.ld(m_succ, sigma, &nbr);
            let d_nbr = w.ld(m_succ, delta, &nbr);
            let ratio = w.alu2(
                m_succ,
                &sv_f,
                &s_nbr,
                |s, n| if n > 0.0 { s / n } else { 0.0 },
            );
            let contrib = w.alu2(m_succ, &ratio, &d_nbr, |r, dl| r * (1.0 + dl));
            let acc2 = w.alu2(m_succ, &acc, &contrib, |a, c| a + c);
            acc = acc2.select(m_succ, &acc);
        });
        // A lane that walked the whole list holds the vertex's sum; the
        // lanes of a virtual warp hold partials the leader must collect.
        let total = match sweep {
            Sweep::PerThread => acc,
            Sweep::PerVirtualWarp(l) => w.seg_reduce_add_f32(mf, &acc, l.vw.k() as usize),
        };
        w.st(sweep.owners(mf), delta, vids, &total);
    })
}

/// `bc[v] += delta[v]` for reached vertices other than the source (a
/// uniform map kernel).
fn launch_accumulate(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &BcState,
    src: u32,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (level, delta, bc) = (st.level, st.delta, st.bc);
    item_sweep(gpu, g.n, Method::Baseline, exec, |w, _, vid, m| {
        let lv = w.ld(m, level, vid);
        let reached = w.alu_pred(m, &lv, |x| x != INF);
        let not_src = w.alu_pred(reached, vid, |v| v != src);
        if not_src.none() {
            return;
        }
        let dl = w.ld(not_src, delta, vid);
        let cur = w.ld(not_src, bc, vid);
        let sum = w.alu2(not_src, &cur, &dl, |a, b| a + b);
        w.st(not_src, bc, vid, &sum);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::betweenness;
    use maxwarp_graph::{Csr, Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn check(g: &Csr, sources: &[u32], name: &str, tol: f32) {
        let want = betweenness(g, sources);
        for method in [Method::Baseline, Method::warp(8), Method::warp(32)] {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, g);
            let out =
                run_betweenness(&mut gpu, &dg, sources, method, &ExecConfig::default()).unwrap();
            for (v, &w) in want.iter().enumerate() {
                let got = out.bc[v] as f64;
                let err = (got - w).abs() / w.abs().max(1.0);
                assert!(
                    err < tol as f64,
                    "{name} / {} vertex {v}: {got} vs {w}",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn path_graph_exact() {
        let mut edges = Vec::new();
        for v in 0..4u32 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let g = Csr::from_edges(5, &edges);
        let sources: Vec<u32> = (0..5).collect();
        check(&g, &sources, "path", 1e-5);
    }

    #[test]
    fn star_graph_exact() {
        let mut edges = Vec::new();
        for v in 1..8u32 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        let g = Csr::from_edges(8, &edges);
        let sources: Vec<u32> = (0..8).collect();
        check(&g, &sources, "star", 1e-5);
    }

    #[test]
    fn matches_reference_on_mesh_sample() {
        // A small mesh: path counts (central binomials) stay within f32's
        // exact-integer range. Dataset-scale grids overflow even u64 path
        // counts, which is why sigma is floating point.
        let g = maxwarp_graph::grid2d(12, 12);
        check(&g, &[0, 77], "mesh", 1e-3);
    }

    #[test]
    fn matches_reference_on_social_sample() {
        let g = Dataset::LiveJournalLike.build(Scale::Tiny);
        let src = Dataset::LiveJournalLike.source(&g);
        check(&g, &[src, 3], "lj", 1e-2);
    }

    #[test]
    fn disconnected_source_contributes_nothing() {
        let g = Csr::from_edges(40, &[(0, 1), (1, 0)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out =
            run_betweenness(&mut gpu, &dg, &[5], Method::warp(4), &ExecConfig::default()).unwrap();
        assert!(out.bc.iter().all(|&b| b == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let _ = run_betweenness(&mut gpu, &dg, &[], Method::Baseline, &ExecConfig::default());
    }
}
