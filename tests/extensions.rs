//! Integration tests for the extension features: cached loads, frontier
//! queues, betweenness, triangles, and permutations —
//! exercised together across crates.

use maxwarp::{
    run_betweenness, run_bfs, run_bfs_queue, run_triangles, DeviceGraph, ExecConfig, Method,
};
use maxwarp_graph::{
    apply_permutation, count_triangles, random_permutation, reference, Dataset, Orientation, Scale,
};
use maxwarp_simt::{Gpu, GpuConfig};

#[test]
fn cached_loads_do_not_change_results() {
    for d in [Dataset::Rmat, Dataset::WikiTalkLike, Dataset::RoadNet] {
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let want = reference::bfs_levels(&g, src);
        for m in [Method::Baseline, Method::warp(8)] {
            let exec = ExecConfig {
                cached_graph_loads: true,
                ..ExecConfig::default()
            };
            let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_bfs(&mut gpu, &dg, src, m, &exec).unwrap();
            assert_eq!(out.levels, want, "{} / {}", d.name(), m.label());
            assert!(
                out.run.stats.cached_load_instructions > 0,
                "cached path must actually be used"
            );
            assert!(out.run.stats.cache_hit_rate() > 0.0);
        }
    }
}

#[test]
fn cached_loads_reduce_transactions_and_cycles() {
    let d = Dataset::LiveJournalLike;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let run_with = |cached: bool| {
        let exec = ExecConfig {
            cached_graph_loads: cached,
            ..ExecConfig::default()
        };
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        run_bfs(&mut gpu, &dg, src, Method::Baseline, &exec).unwrap()
    };
    let plain = run_with(false);
    let cached = run_with(true);
    assert!(cached.run.stats.mem_transactions < plain.run.stats.mem_transactions);
    assert!(cached.run.cycles() < plain.run.cycles());
}

#[test]
fn queue_and_scan_bfs_agree_everywhere() {
    for d in Dataset::ALL {
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let scan = run_bfs(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
        let queue =
            run_bfs_queue(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(scan.levels, queue.levels, "{}", d.name());
    }
}

#[test]
fn triangles_invariant_under_relabeling() {
    let g = Dataset::SmallWorld.build(Scale::Tiny);
    let want = count_triangles(&g);
    let perm = random_permutation(g.num_vertices(), 99);
    let pg = apply_permutation(&g, &perm);
    assert_eq!(count_triangles(&pg), want, "host count");
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let out = run_triangles(
        &mut gpu,
        &pg,
        Method::warp(8),
        &ExecConfig::default(),
        Orientation::ByDegree,
    )
    .unwrap();
    assert_eq!(out.count, want, "device count on relabeled graph");
}

#[test]
fn betweenness_agrees_with_reference_cross_crate() {
    let g = Dataset::Random.build(Scale::Tiny);
    let sources = [0u32, 9, 500];
    let want = reference::betweenness(&g, &sources);
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let dg = DeviceGraph::upload(&mut gpu, &g);
    let out = run_betweenness(
        &mut gpu,
        &dg,
        &sources,
        Method::warp(16),
        &ExecConfig::default(),
    )
    .unwrap();
    for (v, w) in want.iter().enumerate() {
        let err = (out.bc[v] as f64 - w).abs() / w.abs().max(1.0);
        assert!(err < 1e-3, "vertex {v}: {} vs {}", out.bc[v], w);
    }
}

#[test]
fn bfs_levels_invariant_under_relabeling_on_device() {
    let d = Dataset::Rmat;
    let g = d.build(Scale::Tiny);
    let src = d.source(&g);
    let perm = random_permutation(g.num_vertices(), 123);
    let pg = apply_permutation(&g, &perm);

    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let dg = DeviceGraph::upload(&mut gpu, &g);
    let a = run_bfs(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();

    let mut gpu2 = Gpu::new(GpuConfig::tiny_test());
    let dg2 = DeviceGraph::upload(&mut gpu2, &pg);
    let b = run_bfs(
        &mut gpu2,
        &dg2,
        perm[src as usize],
        Method::warp(8),
        &ExecConfig::default(),
    )
    .unwrap();

    for (v, &p) in perm.iter().enumerate() {
        assert_eq!(a.levels[v], b.levels[p as usize], "vertex {v}");
    }
}
