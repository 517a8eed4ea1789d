//! Parallel graph coloring (Luby-style maximal-independent-set rounds).
//!
//! Each round, an uncolored vertex joins the round's independent set iff
//! its hashed priority beats every uncolored neighbor's (ties broken by
//! id); set members take the round index as their color. Independent-set
//! membership makes each color class conflict-free, so the result is a
//! proper coloring by construction; rounds are O(log n) in expectation.
//!
//! The priority check is a full neighbor-list scan — the same irregular
//! loop as BFS expansion — so it exists in baseline and virtual
//! warp-centric forms. Because priorities are deterministic hashes, both
//! variants compute *identical* colorings, which the tests exploit.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range, Sweep};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, KernelStats, Lanes, LaunchError, Mask};

/// Color of uncolored vertices.
pub const UNCOLORED: u32 = u32::MAX;

/// Result of a coloring run.
#[derive(Clone, Debug)]
pub struct ColoringOutput {
    /// Per-vertex colors (0-based round indices).
    pub colors: Vec<u32>,
    /// Number of colors used.
    pub num_colors: u32,
    /// Execution record.
    pub run: AlgoRun,
}

/// Deterministic per-vertex priority (splitmix-style hash).
#[inline]
fn priority(v: u32) -> u32 {
    let mut x = v.wrapping_mul(0x9E37_79B9) ^ 0x85EB_CA6B;
    x ^= x >> 16;
    x = x.wrapping_mul(0x7FEB_352D);
    x ^= x >> 15;
    x
}

/// Beats-relation for the MIS rule: priority, ties by vertex id.
#[inline]
fn beats(v: u32, u: u32) -> bool {
    let (pv, pu) = (priority(v), priority(u));
    pv > pu || (pv == pu && v > u)
}

/// Run Luby-round coloring on a *symmetric* graph.
pub fn run_coloring(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    method: Method,
    exec: &ExecConfig,
) -> Result<ColoringOutput, LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into the coloring kernels"
        );
    }
    let colors = gpu.mem.alloc::<u32>(g.n.max(1));
    gpu.mem.fill(colors, UNCOLORED);
    let candidate = gpu.mem.alloc::<u32>(g.n.max(1));
    let remaining = gpu.mem.alloc::<u32>(1);

    let mut run = AlgoRun::default();
    let mut round = 0u32;
    loop {
        run.begin_iteration();
        gpu.mem.write(remaining, 0, 0u32);

        // Phase 1: mark MIS candidates among uncolored vertices.
        let s1 = launch_select(gpu, g, colors, candidate, remaining, method, exec)?;
        run.absorb(&s1);

        // Phase 2: commit candidates to this round's color.
        let s2 = launch_commit(gpu, g, colors, candidate, round, exec)?;
        run.absorb(&s2);

        if gpu.mem.read(remaining, 0) == 0 {
            break;
        }
        round += 1;
        check_iteration_bound(gpu, "coloring", round, g.n)?;
    }

    let host = gpu.mem.download(colors);
    let num_colors = host
        .iter()
        .filter(|&&c| c != UNCOLORED)
        .max()
        .map_or(0, |&c| c + 1);
    Ok(ColoringOutput {
        colors: host,
        num_colors,
        run,
    })
}

/// Selection phase: an uncolored vertex stays a candidate unless an
/// *uncolored* neighbor beats it.
fn launch_select(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    colors: DevPtr<u32>,
    candidate: DevPtr<u32>,
    remaining: DevPtr<u32>,
    method: Method,
    exec: &ExecConfig,
) -> Result<KernelStats, LaunchError> {
    item_sweep(gpu, g.n, method, exec, |w, sweep, vids, m| {
        let col = w.ld(m, colors, vids);
        let mu = w.alu_pred(m, &col, |c| c == UNCOLORED);
        if mu.none() {
            return;
        }
        w.st_uniform(mu, remaining, 0, 1);
        let (s, e) = load_row_range(w, g, mu, vids);
        let mut alive = mu;
        sweep.neighbor_loop(w, mu, &s, &e, |w, act, i| {
            let nbr = w.ld(act, g.col_indices, i);
            let ncol = w.ld(act, colors, &nbr);
            let m_uncolored = w.alu_pred(act, &ncol, |c| c == UNCOLORED);
            // One compare instruction evaluating the beats relation.
            w.alu_nop(m_uncolored);
            let loses = Mask::from_fn(|l| m_uncolored.get(l) && beats(nbr.get(l), vids.get(l)));
            alive = alive.andnot(loses);
        });
        // A vertex survives only if *no lane* that walked its list saw a
        // beating neighbor.
        let mut defeated = mu.andnot(alive);
        if let Sweep::PerVirtualWarp(l) = sweep {
            defeated = w.seg_any(mu, defeated, l.vw.k() as usize);
        }
        // candidate[v] = 1 for surviving vertices, 0 otherwise.
        w.st(sweep.owners(mu), candidate, vids, &Lanes::splat(0u32));
        let survivors = sweep.owners(mu.andnot(defeated));
        if survivors.any() {
            w.st(survivors, candidate, vids, &Lanes::splat(1u32));
        }
    })
}

/// Commit phase: candidates take the round's color (a uniform map kernel).
fn launch_commit(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    colors: DevPtr<u32>,
    candidate: DevPtr<u32>,
    round: u32,
    exec: &ExecConfig,
) -> Result<KernelStats, LaunchError> {
    item_sweep(gpu, g.n, Method::Baseline, exec, |w, _, vid, m| {
        let cand = w.ld(m, candidate, vid);
        let mc = w.alu_pred(m, &cand, |c| c == 1);
        if mc.none() {
            return;
        }
        // Guard against stale candidate flags from earlier rounds:
        // only still-uncolored vertices take the color.
        let col = w.ld(mc, colors, vid);
        let mu = w.alu_pred(mc, &col, |c| c == UNCOLORED);
        if mu.any() {
            w.st(mu, colors, vid, &Lanes::splat(round));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::{greedy_coloring, is_proper_coloring};
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn color(g: &maxwarp_graph::Csr, m: Method) -> ColoringOutput {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, g);
        run_coloring(&mut gpu, &dg, m, &ExecConfig::default()).unwrap()
    }

    #[test]
    fn proper_on_all_symmetric_datasets() {
        for d in [
            Dataset::RoadNet,
            Dataset::SmallWorld,
            Dataset::LiveJournalLike,
        ] {
            let g = d.build(Scale::Tiny);
            for m in [Method::Baseline, Method::warp(8), Method::warp(32)] {
                let out = color(&g, m);
                assert!(
                    is_proper_coloring(&g, &out.colors),
                    "{} / {}",
                    d.name(),
                    m.label()
                );
                assert!(out.num_colors >= 1);
            }
        }
    }

    #[test]
    fn baseline_and_warp_produce_identical_colorings() {
        // Priorities are deterministic, so every method computes the same
        // MIS sequence.
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let a = color(&g, Method::Baseline);
        let b = color(&g, Method::warp(8));
        let c = color(&g, Method::warp(32));
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.colors, c.colors);
    }

    #[test]
    fn color_count_reasonable_vs_greedy() {
        let g = Dataset::RoadNet.build(Scale::Tiny);
        let greedy = greedy_coloring(&g);
        let luby = color(&g, Method::warp(8));
        let greedy_colors = greedy.iter().max().unwrap() + 1;
        // Luby uses more colors than greedy but not absurdly many.
        assert!(
            luby.num_colors <= greedy_colors * 8 + 8,
            "luby {} vs greedy {greedy_colors}",
            luby.num_colors
        );
    }

    #[test]
    fn empty_graph_all_one_round() {
        let g = maxwarp_graph::Csr::empty(64);
        let out = color(&g, Method::Baseline);
        assert!(out.colors.iter().all(|&c| c == 0), "no conflicts: one MIS");
        assert_eq!(out.num_colors, 1);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let n = 8u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = maxwarp_graph::Csr::from_edges(n, &edges);
        let out = color(&g, Method::warp(4));
        assert!(is_proper_coloring(&g, &out.colors));
        assert_eq!(out.num_colors, n, "K_n needs n colors");
    }
}
