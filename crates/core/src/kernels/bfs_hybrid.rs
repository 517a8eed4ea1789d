//! Direction-optimizing BFS on the device (Beamer's top-down/bottom-up
//! switch, the optimization Enterprise and later GPU BFS systems built on
//! the paper's warp-centric substrate).
//!
//! *Top-down* levels expand the frontier as usual. *Bottom-up* levels
//! invert the work: every unvisited vertex scans its **in**-neighbors for
//! a parent on the current level and claims itself — with an early exit
//! the moment a parent is found. When the frontier covers a large slice
//! of the graph (the 1–2 middle levels of small-world graphs), bottom-up
//! touches far fewer edges. Both directions come in baseline and virtual
//! warp-centric mappings.
//!
//! The host driver switches direction per level from device-counted
//! frontier sizes using the classic α/β heuristic.

use crate::device_graph::DeviceGraph;
use crate::kernels::bfs::{BfsOutput, INF};
use crate::kernels::common::{item_sweep, ld_cols_opt, load_row_range_opt, Sweep};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, Submitted};

/// Which way a level was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    TopDown,
    BottomUp,
}

/// Switch thresholds of the α/β heuristic.
#[derive(Clone, Copy, Debug)]
pub struct GpuHybridConfig {
    /// Go bottom-up when `frontier_edges > remaining_edges / alpha`.
    pub alpha: u32,
    /// Return top-down when `frontier_size < n / beta`.
    pub beta: u32,
}

impl Default for GpuHybridConfig {
    fn default() -> Self {
        GpuHybridConfig {
            alpha: 14,
            beta: 24,
        }
    }
}

/// Result of a hybrid run: the BFS output plus the per-level directions.
#[derive(Clone, Debug)]
pub struct HybridBfsOutput {
    /// Levels and execution record.
    pub bfs: BfsOutput,
    /// Direction chosen for each level.
    pub directions: Vec<Direction>,
}

struct HState {
    levels: DevPtr<u32>,
    /// Discoveries this level (device counter).
    nf: DevPtr<u32>,
}

/// Run direction-optimizing BFS. `rev` must be the transpose of `g` (pass
/// the same `DeviceGraph` for symmetric graphs).
pub fn run_bfs_hybrid(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    rev: &DeviceGraph,
    src: u32,
    method: Method,
    exec: &ExecConfig,
    hybrid: &GpuHybridConfig,
) -> Result<HybridBfsOutput, LaunchError> {
    assert_eq!(g.n, rev.n, "reverse graph must match");
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into hybrid BFS"
        );
    }
    assert!(src < g.n, "source {src} out of range for n={}", g.n);
    let n = g.n;
    let levels = gpu.mem.alloc::<u32>(n);
    gpu.mem.fill(levels, INF);
    gpu.mem.write(levels, src, 0);
    let st = HState {
        levels,
        nf: gpu.mem.alloc::<u32>(1),
    };

    let avg_deg = (g.m as f64 / n.max(1) as f64).max(1.0);
    let mut run = AlgoRun::default();
    let mut directions = Vec::new();
    let mut cur = 0u32;
    let mut frontier_size = 1u64;
    let mut seen = 1u64;
    loop {
        run.begin_iteration();
        gpu.mem.write(st.nf, 0, 0u32);

        // α/β decision from host-visible counters.
        let frontier_edges = frontier_size as f64 * avg_deg;
        let remaining_edges = (n as u64).saturating_sub(seen) as f64 * avg_deg;
        let bottom_up = frontier_edges > remaining_edges / hybrid.alpha as f64
            && frontier_size > (n as u64) / hybrid.beta as u64;

        if gpu.profiling() {
            let dir = if bottom_up { "bottom-up" } else { "top-down" };
            gpu.set_profile_label(&format!("bfs_hybrid level {cur} {dir}"));
        }
        let stats = if bottom_up {
            directions.push(Direction::BottomUp);
            launch_bottom_up(gpu, rev, &st, cur, method, exec)?
        } else {
            directions.push(Direction::TopDown);
            launch_top_down(gpu, g, &st, cur, method, exec)?
        };
        run.absorb(&stats);

        let nf = gpu.mem.read(st.nf, 0) as u64;
        if nf == 0 {
            break;
        }
        // Top-down counts can over-count duplicate same-level claims;
        // clamp so the remaining-edges estimate never underflows.
        seen = (seen + nf).min(n as u64);
        frontier_size = nf;
        cur += 1;
        check_iteration_bound(gpu, "bfs-hybrid", cur, n)?;
    }

    run.settle(gpu)?;
    Ok(HybridBfsOutput {
        bfs: BfsOutput {
            levels: gpu.mem.download(st.levels),
            run,
        },
        directions,
    })
}

/// Top-down level (the scan formulation plus a discovery counter).
fn launch_top_down(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &HState,
    cur: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (levels, nf) = (st.levels, st.nf);
    let cached = exec.cached_graph_loads;
    item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let lv = w.ld(m, levels, vids);
        let mf = w.alu_pred(m, &lv, |x| x == cur);
        if mf.none() {
            return;
        }
        let (s, e) = load_row_range_opt(w, g, mf, vids, cached);
        sweep.neighbor_loop(w, mf, &s, &e, |w, act, i| {
            let nbr = ld_cols_opt(w, g, act, i, cached);
            let nlv = w.ld(act, levels, &nbr);
            let upd = w.alu_pred(act, &nlv, |x| x == INF);
            if upd.any() {
                w.st(upd, levels, &nbr, &Lanes::splat(cur + 1));
                // Count discoveries (duplicate claims within one level
                // over-count slightly; the heuristic only needs magnitude,
                // and the warp aggregates to one atomic).
                let _ = w.atomic_add_uniform(upd, nf, 0, upd.count());
            }
        });
    })
}

/// Bottom-up level: unvisited vertices scan in-neighbors for a parent at
/// `cur`, claiming themselves with an early exit.
fn launch_bottom_up(
    gpu: &mut Gpu,
    rev: &DeviceGraph,
    st: &HState,
    cur: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<Submitted, LaunchError> {
    let (levels, nf) = (st.levels, st.nf);
    let cached = exec.cached_graph_loads;
    item_sweep(gpu, rev.n, method, exec, |w, sweep, vids, m| {
        let lv = w.ld(m, levels, vids);
        let mu = w.alu_pred(m, &lv, |x| x == INF);
        if mu.none() {
            return;
        }
        let (s, e) = load_row_range_opt(w, rev, mu, vids, cached);
        // The neighbor scan, except that a vertex leaves it the moment a
        // parent is found.
        let mut found = Mask::NONE;
        let (mut i, step) = sweep.edge_cursor(w, mu, &s);
        let mut act = w.lt(mu, &i, &e);
        while act.any() {
            let parent = ld_cols_opt(w, rev, act, &i, cached);
            let plv = w.ld(act, levels, &parent);
            let mut hit = w.alu_pred(act, &plv, |x| x == cur);
            // One lane's hit retires the whole virtual warp.
            if let Sweep::PerVirtualWarp(l) = sweep {
                hit = w.seg_any(act, hit, l.vw.k() as usize);
            }
            found |= hit;
            act = act.andnot(hit);
            i = w.add_scalar(act, &i, step);
            act = act & w.lt(act, &i, &e);
        }
        let claim = sweep.owners(found & mu);
        if claim.any() {
            w.st(claim, levels, vids, &Lanes::splat(cur + 1));
            let _ = w.atomic_add_uniform(claim, nf, 0, claim.count());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::bfs_levels;
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn run_on(
        g: &maxwarp_graph::Csr,
        src: u32,
        method: Method,
        hybrid: &GpuHybridConfig,
    ) -> HybridBfsOutput {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, g);
        let rev = if g.is_symmetric() {
            dg
        } else {
            DeviceGraph::upload(&mut gpu, &g.reverse())
        };
        run_bfs_hybrid(
            &mut gpu,
            &dg,
            &rev,
            src,
            method,
            &ExecConfig::default(),
            hybrid,
        )
        .unwrap()
    }

    #[test]
    fn correct_on_symmetric_datasets() {
        for d in [
            Dataset::SmallWorld,
            Dataset::RoadNet,
            Dataset::LiveJournalLike,
        ] {
            let g = d.build(Scale::Tiny);
            let src = d.source(&g);
            let want = bfs_levels(&g, src);
            for m in [Method::Baseline, Method::warp(8)] {
                let out = run_on(&g, src, m, &GpuHybridConfig::default());
                assert_eq!(out.bfs.levels, want, "{} / {}", d.name(), m.label());
            }
        }
    }

    #[test]
    fn correct_on_directed_graphs() {
        for d in [Dataset::Rmat, Dataset::WikiTalkLike] {
            let g = d.build(Scale::Tiny);
            let src = d.source(&g);
            let want = bfs_levels(&g, src);
            let out = run_on(&g, src, Method::warp(8), &GpuHybridConfig::default());
            assert_eq!(out.bfs.levels, want, "{}", d.name());
        }
    }

    #[test]
    fn forced_bottom_up_is_correct() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let src = Dataset::SmallWorld.source(&g);
        let want = bfs_levels(&g, src);
        // Zero thresholds force bottom-up from level 1 onward.
        let hybrid = GpuHybridConfig {
            alpha: 1_000_000,
            beta: u32::MAX,
        };
        let out = run_on(&g, src, Method::warp(4), &hybrid);
        assert_eq!(out.bfs.levels, want);
        assert!(
            out.directions
                .iter()
                .skip(1)
                .any(|&d| d == Direction::BottomUp),
            "{:?}",
            out.directions
        );
    }

    #[test]
    fn small_world_switches_directions() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let src = Dataset::SmallWorld.source(&g);
        let out = run_on(&g, src, Method::warp(8), &GpuHybridConfig::default());
        assert!(out.directions.contains(&Direction::TopDown));
        assert!(
            out.directions.contains(&Direction::BottomUp),
            "{:?}",
            out.directions
        );
    }

    #[test]
    fn mesh_stays_top_down() {
        let g = Dataset::RoadNet.build(Scale::Tiny);
        let out = run_on(&g, 0, Method::Baseline, &GpuHybridConfig::default());
        assert!(
            out.directions.iter().all(|&d| d == Direction::TopDown),
            "thin mesh frontiers never justify bottom-up"
        );
    }

    #[test]
    fn bottom_up_reduces_edge_work_on_dense_random() {
        // On a short-diameter random graph the last top-down level expands
        // a huge frontier whose targets are almost all already seen;
        // bottom-up replaces it with cheap parent checks.
        let g = Dataset::Random.build(Scale::Tiny).symmetrize();
        let src = 0u32;
        // beta = 1 requires frontier > n, which never holds: pure top-down.
        let pure = run_on(
            &g,
            src,
            Method::warp(8),
            &GpuHybridConfig { alpha: 14, beta: 1 },
        );
        assert!(pure.directions.iter().all(|&d| d == Direction::TopDown));
        let hybrid = run_on(&g, src, Method::warp(8), &GpuHybridConfig::default());
        assert_eq!(pure.bfs.levels, hybrid.bfs.levels);
        assert!(
            hybrid.bfs.run.stats.mem_instructions < pure.bfs.run.stats.mem_instructions,
            "hybrid {} vs pure {}",
            hybrid.bfs.run.stats.mem_instructions,
            pure.bfs.run.stats.mem_instructions
        );
    }
}
