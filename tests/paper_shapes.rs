//! The DESIGN.md "expected-shape criteria": the qualitative results the
//! paper reports, asserted as tests (at Tiny scale so the suite stays
//! fast; the harness binaries reproduce the full-scale numbers).

use maxwarp::{run_bfs, DeviceGraph, ExecConfig, Method, VirtualWarp, WarpCentricOpts};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig};

fn bfs(g: &maxwarp_graph::Csr, src: u32, m: Method) -> maxwarp::BfsOutput {
    let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
    let dg = DeviceGraph::upload(&mut gpu, g);
    run_bfs(&mut gpu, &dg, src, m, &ExecConfig::default()).unwrap()
}

fn best_k(g: &maxwarp_graph::Csr, src: u32) -> (u32, u64) {
    VirtualWarp::ALL
        .iter()
        .map(|vw| (vw.k(), bfs(g, src, Method::warp(vw.k())).run.cycles()))
        .min_by_key(|&(_, c)| c)
        .unwrap()
}

/// F2: the warp-centric method wins big on extreme-hub graphs.
#[test]
fn hub_graph_speedup_exceeds_2x() {
    let d = Dataset::WikiTalkLike;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let base = bfs(&g, src, Method::Baseline).run.cycles();
    let (_, warp) = best_k(&g, src);
    let speedup = base as f64 / warp as f64;
    assert!(speedup > 2.0, "speedup {speedup:.2} <= 2");
}

/// F2 inverse: the warp-centric win on a low-degree mesh (if any) is far
/// below the hub-graph win, and large K is actively harmful there.
#[test]
fn road_graph_win_is_small_and_large_k_hurts() {
    let road = Dataset::RoadNet.build(Scale::Tiny);
    let road_src = Dataset::RoadNet.source(&road);
    let road_base = bfs(&road, road_src, Method::Baseline).run.cycles();
    let (_, road_best) = best_k(&road, road_src);
    let road_speedup = road_base as f64 / road_best as f64;

    let hub = Dataset::WikiTalkLike.build(Scale::Tiny);
    let hub_src = Dataset::WikiTalkLike.source(&hub);
    let hub_base = bfs(&hub, hub_src, Method::Baseline).run.cycles();
    let (_, hub_best) = best_k(&hub, hub_src);
    let hub_speedup = hub_base as f64 / hub_best as f64;

    assert!(
        hub_speedup > 2.0 * road_speedup,
        "hub {hub_speedup:.2} vs road {road_speedup:.2}"
    );
    // K=32 on a degree-<=4 mesh wastes 28+ lanes: it must lose to baseline.
    let k32 = bfs(&road, road_src, Method::warp(32)).run.cycles();
    assert!(
        k32 > road_base,
        "vw32 {k32} should lose to baseline {road_base} on a mesh"
    );
}

/// F3: the optimal K grows with degree variance — large for hub graphs,
/// small for meshes.
#[test]
fn best_k_tracks_degree_variance() {
    let hub = Dataset::WikiTalkLike.build(Scale::Tiny);
    let (k_hub, _) = best_k(&hub, Dataset::WikiTalkLike.source(&hub));
    let road = Dataset::RoadNet.build(Scale::Tiny);
    let (k_road, _) = best_k(&road, Dataset::RoadNet.source(&road));
    assert!(k_hub >= 16, "hub graph best K = {k_hub}");
    assert!(k_road <= 8, "road graph best K = {k_road}");
    assert!(k_hub > k_road);
}

/// F1: the baseline's SIMD-lane utilization collapses on heavy-tailed
/// graphs and the warp-centric method restores it.
#[test]
fn lane_utilization_restored_by_warp_method() {
    let d = Dataset::WikiTalkLike;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let u_base = bfs(&g, src, Method::Baseline).run.stats.lane_utilization();
    let u_warp = bfs(&g, src, Method::warp(32)).run.stats.lane_utilization();
    assert!(u_base < 0.35, "baseline utilization {u_base:.2}");
    assert!(u_warp > 0.60, "warp utilization {u_warp:.2}");
}

/// F4: deferring outliers pays off where a single vertex dominates a
/// virtual warp's schedule.
#[test]
fn defer_outliers_helps_on_hub_graph() {
    let d = Dataset::WikiTalkLike;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let vw = VirtualWarp::new(8);
    let plain = bfs(&g, src, Method::WarpCentric(WarpCentricOpts::plain(vw)))
        .run
        .cycles();
    let defer = bfs(
        &g,
        src,
        Method::WarpCentric(WarpCentricOpts::plain(vw).with_defer(64)),
    )
    .run
    .cycles();
    let gain = plain as f64 / defer as f64;
    assert!(gain > 1.3, "defer gain {gain:.2} <= 1.3");
}

/// F4: the techniques cost little where they cannot help.
#[test]
fn techniques_are_cheap_on_uniform_graphs() {
    let d = Dataset::Regular;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let vw = VirtualWarp::new(8);
    let plain = bfs(&g, src, Method::WarpCentric(WarpCentricOpts::plain(vw)))
        .run
        .cycles();
    let both = bfs(
        &g,
        src,
        Method::WarpCentric(WarpCentricOpts::plain(vw).with_dynamic().with_defer(64)),
    )
    .run
    .cycles();
    let overhead = both as f64 / plain as f64;
    assert!(
        overhead < 1.15,
        "technique overhead {overhead:.2} on uniform graph"
    );
}

/// F7: memory gathering reduces total DRAM transactions on graphs dense
/// enough that edge traffic dominates the frontier scan (LiveJournal
/// class; on the sparse hub graph at tiny scale the scan dominates, which
/// the F7 harness reports explicitly).
#[test]
fn coalescing_improves_on_social_graph() {
    let d = Dataset::LiveJournalLike;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let base = bfs(&g, src, Method::Baseline);
    let warp = bfs(&g, src, Method::warp(32));
    let bt = base.run.stats.mem_transactions as f64;
    let wt = warp.run.stats.mem_transactions as f64;
    assert!(
        wt < bt * 0.8,
        "warp transactions {wt} not well under baseline {bt}"
    );
    // Per-access coalescing quality must improve as well.
    assert!(
        warp.run.stats.tx_per_mem_instruction() < base.run.stats.tx_per_mem_instruction(),
        "tx/mem: warp {} vs baseline {}",
        warp.run.stats.tx_per_mem_instruction(),
        base.run.stats.tx_per_mem_instruction()
    );
}

/// F8: more resident warps (bigger occupancy at the same work) must not
/// slow the bandwidth-bound kernel down dramatically, and tiny blocks with
/// poor occupancy should be slowest.
#[test]
fn occupancy_matters() {
    let d = Dataset::Rmat;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let run_with_block = |b: u32| {
        let exec = ExecConfig {
            block_threads: b,
            ..ExecConfig::default()
        };
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        run_bfs(&mut gpu, &dg, src, Method::warp(8), &exec)
            .unwrap()
            .run
            .cycles()
    };
    // 32-thread blocks cap at 8 resident warps/SM vs 48 for 256-thread
    // blocks: much worse latency hiding.
    let small = run_with_block(32);
    let big = run_with_block(256);
    assert!(small > big, "occupancy-starved run {small} vs {big}");
}
