//! Frontier-queue BFS — the alternative formulation with explicit work
//! queues.
//!
//! The paper's primary BFS (like Harish–Narayanan's) re-scans the whole
//! level array every iteration, paying `O(n)` per level. This variant keeps
//! the current frontier in a device queue and builds the next frontier with
//! a **warp-cooperative enqueue**: lanes claim unvisited neighbors with
//! `atomicCAS`, ballot the claims, the leader reserves space with one
//! `atomicAdd`, and each claimer stores at `base + rank(lane)`. Per level
//! the cost is `O(frontier + edges(frontier))` — a huge win on
//! high-diameter graphs (road networks) whose frontiers are thin slivers
//! of the graph.
//!
//! Both the thread-per-entry baseline and the virtual warp-centric mapping
//! are provided; ablation A2 in DESIGN.md compares the two formulations.

use crate::device_graph::DeviceGraph;
use crate::kernels::bfs::{BfsOutput, INF};
use crate::kernels::common::{item_sweep, load_row_range};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

struct QueueState {
    levels: DevPtr<u32>,
    f_in: DevPtr<u32>,
    f_out: DevPtr<u32>,
    count_out: DevPtr<u32>,
}

/// Claim unvisited neighbors at edge indices `i` (CAS on the level array)
/// and enqueue the winners cooperatively across the warp.
#[allow(clippy::too_many_arguments)]
fn claim_and_enqueue(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    levels: DevPtr<u32>,
    f_out: DevPtr<u32>,
    count_out: DevPtr<u32>,
    next: u32,
    act: Mask,
    i: &Lanes<u32>,
) {
    let nbr = w.ld(act, g.col_indices, i);
    // atomicCAS claim: exactly one claimer per vertex ever wins, so the
    // out-queue cannot overflow or hold duplicates.
    let old = w.atomic_cas(act, levels, &nbr, &Lanes::splat(INF), &Lanes::splat(next));
    let won = w.alu_pred(act, &old, |x| x == INF);
    if won.none() {
        return;
    }
    // Warp-cooperative enqueue: ballot + one atomic for the whole warp.
    let ballot = w.ballot(act, won);
    let base = w.atomic_add_uniform(won, count_out, 0, ballot.count());
    let pos = w.alu1(won, &w.lane_ids(), |l| base + ballot.rank(l as usize));
    w.st(won, f_out, &pos, &nbr);
}

/// Run frontier-queue BFS from `src`. `opts.defer_threshold` is not
/// supported in this formulation (the queue already load-balances whole
/// vertices) and is rejected.
pub fn run_bfs_queue(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    src: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<BfsOutput, LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not supported by the frontier-queue formulation"
        );
    }
    assert!(src < g.n, "source {src} out of range for n={}", g.n);
    let levels = gpu.mem.alloc::<u32>(g.n);
    gpu.mem.fill(levels, INF);
    gpu.mem.write(levels, src, 0);
    let mut st = QueueState {
        levels,
        f_in: gpu.mem.alloc::<u32>(g.n.max(1)),
        f_out: gpu.mem.alloc::<u32>(g.n.max(1)),
        count_out: gpu.mem.alloc::<u32>(1),
    };
    gpu.mem.write(st.f_in, 0, src);
    let mut frontier_len = 1u32;

    let mut run = AlgoRun::default();
    let mut cur = 0u32;
    while frontier_len > 0 {
        run.begin_iteration();
        gpu.mem.write(st.count_out, 0, 0u32);

        if gpu.profiling() {
            gpu.set_profile_label(&format!("bfs_queue level {cur}"));
        }
        // The items are frontier-queue entries: one thread, or one virtual
        // warp, per entry.
        let stats = item_sweep(gpu, frontier_len, method, exec, |w, sweep, entry, m| {
            let v = w.ld(m, st.f_in, entry);
            let (s, e) = load_row_range(w, g, m, &v);
            sweep.neighbor_loop(w, m, &s, &e, |w, act, i| {
                claim_and_enqueue(w, g, st.levels, st.f_out, st.count_out, cur + 1, act, i);
            });
        })?;
        run.absorb(&stats);

        frontier_len = gpu.mem.read(st.count_out, 0);
        assert!(frontier_len <= g.n, "queue overflow: {frontier_len}");
        std::mem::swap(&mut st.f_in, &mut st.f_out);
        cur += 1;
        check_iteration_bound(gpu, "bfs-queue", cur, g.n)?;
    }
    run.settle(gpu)?;
    Ok(BfsOutput {
        levels: gpu.mem.download(st.levels),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_graph::reference::bfs_levels;
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn methods() -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(4),
            Method::warp(32),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_dynamic()),
        ]
    }

    fn check_dataset(d: Dataset) {
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let want = bfs_levels(&g, src);
        for method in methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_bfs_queue(&mut gpu, &dg, src, method, &ExecConfig::default()).unwrap();
            assert_eq!(out.levels, want, "{} / {}", d.name(), method.label());
        }
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
    fn correct_on_patents_like() {
        check_dataset(Dataset::PatentsLike);
    }

    #[test]
    fn iteration_count_matches_bfs_depth() {
        let g = maxwarp_graph::grid2d(12, 1); // path of 12 vertices
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out =
            run_bfs_queue(&mut gpu, &dg, 0, Method::Baseline, &ExecConfig::default()).unwrap();
        // 11 expansion levels plus the final empty-frontier check.
        assert_eq!(out.run.iterations, 12);
        assert_eq!(out.levels[11], 11);
    }

    #[test]
    fn queue_avoids_per_level_scan_work() {
        // The whole point of the queue formulation: no O(n) scan per level.
        // At tiny scale the *cycle* win is hidden by per-level latency
        // floors (it reaches 3.5-5.4x at medium scale — ablation A2), but
        // the executed-instruction volume shows the mechanism at any scale.
        let d = Dataset::RoadNet;
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let scan = crate::kernels::bfs::run_bfs(
            &mut gpu,
            &dg,
            src,
            Method::Baseline,
            &ExecConfig::default(),
        )
        .unwrap();
        let mut gpu2 = Gpu::new(GpuConfig::fermi_c2050());
        let dg2 = DeviceGraph::upload(&mut gpu2, &g);
        let queue = run_bfs_queue(
            &mut gpu2,
            &dg2,
            src,
            Method::Baseline,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(scan.levels, queue.levels);
        assert!(
            queue.run.stats.instructions * 2 < scan.run.stats.instructions,
            "queue {} vs scan {} instructions",
            queue.run.stats.instructions,
            scan.run.stats.instructions
        );
        // And the queue must never be meaningfully slower even at tiny.
        assert!(
            queue.run.cycles() < scan.run.cycles() + scan.run.cycles() / 10,
            "queue {} vs scan {} cycles",
            queue.run.cycles(),
            scan.run.cycles()
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn defer_rejected() {
        let g = Dataset::Rmat.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let m = Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_defer(10));
        let _ = run_bfs_queue(&mut gpu, &dg, 0, m, &ExecConfig::default());
    }

    #[test]
    fn no_duplicate_enqueues() {
        // Every vertex is enqueued at most once: total iterations' frontier
        // sizes sum to the reached-vertex count. We check via levels: all
        // reached vertices have consistent levels (checked against
        // reference) and the run terminates within diameter+1 iterations.
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let src = Dataset::SmallWorld.source(&g);
        let want = bfs_levels(&g, src);
        let depth = want.iter().filter(|&&l| l != INF).max().copied().unwrap();
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out =
            run_bfs_queue(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(out.levels, want);
        assert_eq!(out.run.iterations, depth + 1);
    }
}
