//! Cross-crate integration: every BFS method variant and the multicore CPU
//! baseline against the sequential reference, across all dataset classes.

use maxwarp::{run_bfs, DeviceGraph, ExecConfig, Method, VirtualWarp, WarpCentricOpts};
use maxwarp_cpu::bfs_parallel;
use maxwarp_graph::{reference, Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig};

fn every_method() -> Vec<Method> {
    let mut ms = vec![Method::Baseline];
    for vw in VirtualWarp::ALL {
        ms.push(Method::warp(vw.k()));
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(vw).with_dynamic(),
        ));
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(vw).with_defer(48),
        ));
        ms.push(Method::WarpCentric(
            WarpCentricOpts::plain(vw).with_dynamic().with_defer(48),
        ));
    }
    ms
}

#[test]
fn full_method_matrix_matches_reference_on_all_datasets() {
    for d in Dataset::ALL {
        let g = d.build(Scale::Tiny);
        let src = d.source(&g);
        let want = reference::bfs_levels(&g, src);
        assert_eq!(bfs_parallel(&g, src, 2), want, "{}: cpu-par", d.name());
        for m in every_method() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_bfs(&mut gpu, &dg, src, m, &ExecConfig::default()).unwrap();
            assert_eq!(out.levels, want, "{}: {}", d.name(), m.label());
        }
    }
}

#[test]
fn multiple_sources_agree() {
    let g = Dataset::Random.build(Scale::Tiny);
    for src in [0u32, 7, 1000, g.num_vertices() - 1] {
        let want = reference::bfs_levels(&g, src);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_bfs(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(out.levels, want, "src={src}");
    }
}

#[test]
fn different_device_configs_same_answer_different_cycles() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let src = Dataset::Rmat.source(&g);
    let mut starved = GpuConfig::fermi_c2050();
    starved.num_sms = 2;
    starved.name = "starved-fermi".into();
    let mut cycles = Vec::new();
    for cfg in [
        GpuConfig::tiny_test(),
        GpuConfig::gtx280(),
        GpuConfig::fermi_c2050(),
        starved,
    ] {
        let mut gpu = Gpu::new(cfg);
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_bfs(&mut gpu, &dg, src, Method::warp(8), &ExecConfig::default()).unwrap();
        assert_eq!(out.levels, reference::bfs_levels(&g, src));
        cycles.push(out.run.cycles());
    }
    // Holding everything else fixed, a 2-SM Fermi must be slower than the
    // full 14-SM part.
    assert!(
        cycles[3] > cycles[2],
        "starved {} vs full fermi {}",
        cycles[3],
        cycles[2]
    );
}

#[test]
fn exec_config_variants_are_correct() {
    let g = Dataset::WikiTalkLike.build(Scale::Tiny);
    let src = Dataset::WikiTalkLike.source(&g);
    let want = reference::bfs_levels(&g, src);
    for block_threads in [32u32, 64, 128, 256] {
        for chunk_vertices in [1u32, 8, 64, 1024] {
            let exec = ExecConfig {
                block_threads,
                chunk_vertices,
                ..ExecConfig::default()
            };
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out = run_bfs(&mut gpu, &dg, src, Method::warp(4), &exec).unwrap();
            assert_eq!(
                out.levels, want,
                "block={block_threads} chunk={chunk_vertices}"
            );
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let g = Dataset::LiveJournalLike.build(Scale::Tiny);
    let src = Dataset::LiveJournalLike.source(&g);
    let run = || {
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_bfs(&mut gpu, &dg, src, Method::warp(16), &ExecConfig::default()).unwrap();
        (out.levels, out.run.cycles(), out.run.stats.instructions)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be fully deterministic");
}

#[test]
fn levels_are_structurally_valid() {
    // Independent of the reference: BFS levels must satisfy the triangle
    // property (every edge spans at most one level, source is 0).
    let g = Dataset::SmallWorld.build(Scale::Tiny);
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let dg = DeviceGraph::upload(&mut gpu, &g);
    let out = run_bfs(&mut gpu, &dg, 5, Method::warp(8), &ExecConfig::default()).unwrap();
    assert_eq!(out.levels[5], 0);
    for (u, v) in g.edges() {
        let (lu, lv) = (out.levels[u as usize], out.levels[v as usize]);
        if lu != u32::MAX {
            assert!(
                lv != u32::MAX,
                "reached vertex {u} has unreached neighbor {v}"
            );
            assert!(lv <= lu + 1, "edge ({u},{v}) skips levels: {lu} -> {lv}");
        }
    }
}
