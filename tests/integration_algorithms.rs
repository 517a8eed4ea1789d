//! Cross-crate integration for SSSP, connected components, and PageRank:
//! GPU kernels under several methods vs the sequential references.

use maxwarp::{run_cc, run_pagerank, run_sssp, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{random_weights, reference, Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig};

const METHODS: [u32; 3] = [1, 8, 32];

#[test]
fn sssp_three_way_agreement() {
    for d in [
        Dataset::Random,
        Dataset::Rmat,
        Dataset::RoadNet,
        Dataset::WikiTalkLike,
    ] {
        let g = d.build(Scale::Tiny);
        let w = random_weights(&g, 12, 99);
        let src = d.source(&g);
        let want = reference::sssp_dijkstra(&g, &w, src);
        for k in METHODS {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &w);
            let out =
                run_sssp(&mut gpu, &dg, src, Method::warp(k), &ExecConfig::default()).unwrap();
            assert_eq!(out.dist, want, "{}: vw{}", d.name(), k);
        }
    }
}

#[test]
fn sssp_distances_satisfy_edge_relaxation() {
    // Structural check independent of the reference: at a fixpoint no edge
    // can still be relaxed.
    let d = Dataset::SmallWorld;
    let g = d.build(Scale::Tiny);
    let w = random_weights(&g, 9, 5);
    let src = d.source(&g);
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &w);
    let out = run_sssp(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
    for u in 0..g.num_vertices() {
        let du = out.dist[u as usize];
        if du == u32::MAX {
            continue;
        }
        let row = g.row_offsets()[u as usize] as usize;
        for (k, &v) in g.neighbors(u).iter().enumerate() {
            assert!(
                out.dist[v as usize] <= du.saturating_add(w[row + k]),
                "edge ({u},{v}) still relaxable"
            );
        }
    }
}

#[test]
fn cc_three_way_agreement() {
    for d in [Dataset::RoadNet, Dataset::SmallWorld] {
        let g = d.build(Scale::Tiny);
        let want = reference::connected_components(&g);
        for k in METHODS {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_cc(&mut gpu, &dg, Method::warp(k), &ExecConfig::default()).unwrap();
            assert_eq!(out.labels, want, "{}: vw{}", d.name(), k);
        }
    }
}

#[test]
fn cc_on_symmetrized_directed_graphs() {
    for d in [Dataset::Rmat, Dataset::PatentsLike, Dataset::WikiTalkLike] {
        let g = d.build(Scale::Tiny).symmetrize();
        let want = reference::connected_components(&g);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_cc(&mut gpu, &dg, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(out.labels, want, "{}", d.name());
    }
}

#[test]
fn pagerank_three_way_agreement() {
    for d in [
        Dataset::Random,
        Dataset::LiveJournalLike,
        Dataset::PatentsLike,
    ] {
        let g = d.build(Scale::Tiny);
        let want = reference::pagerank(&g, 12, 0.85);
        for k in METHODS {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_pagerank(
                &mut gpu,
                &dg,
                12,
                0.85,
                Method::warp(k),
                &ExecConfig::default(),
            )
            .unwrap();
            // Max |Δrank| against the f64 reference.
            let err = out
                .ranks
                .iter()
                .zip(&want)
                .map(|(&a, &b)| (a as f64 - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-4, "{}: vw{} linf={}", d.name(), k, err);
        }
    }
}

#[test]
fn pagerank_mass_conserved_across_methods() {
    let g = Dataset::WikiTalkLike.build(Scale::Tiny);
    for m in [Method::Baseline, Method::warp(32)] {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_pagerank(&mut gpu, &dg, 25, 0.85, m, &ExecConfig::default()).unwrap();
        let sum: f32 = out.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-2, "{}: sum={}", m.label(), sum);
        assert!(out.ranks.iter().all(|&r| r >= 0.0), "{}", m.label());
    }
}

#[test]
fn all_algorithms_share_one_device() {
    // One GPU, one uploaded graph, all algorithms back to back — the API
    // must support reuse without interference.
    let d = Dataset::SmallWorld;
    let g = d.build(Scale::Tiny);
    let w = random_weights(&g, 7, 3);
    let src = d.source(&g);
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let dg = DeviceGraph::upload_weighted(&mut gpu, &g, &w);
    let exec = ExecConfig::default();

    let bfs = maxwarp::run_bfs(&mut gpu, &dg, src, Method::warp(8), &exec).unwrap();
    let sssp = run_sssp(&mut gpu, &dg, src, Method::warp(8), &exec).unwrap();
    let cc = run_cc(&mut gpu, &dg, Method::warp(8), &exec).unwrap();
    let pr = run_pagerank(&mut gpu, &dg, 5, 0.85, Method::warp(8), &exec).unwrap();

    assert_eq!(bfs.levels, reference::bfs_levels(&g, src));
    assert_eq!(sssp.dist, reference::sssp_dijkstra(&g, &w, src));
    assert_eq!(cc.labels, reference::connected_components(&g));
    assert_eq!(pr.ranks.len(), g.num_vertices() as usize);
}
