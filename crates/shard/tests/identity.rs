//! Shard-vs-single-device identity sweep.
//!
//! The contract under test: for every shard count N ∈ {1, 2, 4, 8} and
//! every cut strategy, the merged sharded payloads are byte-identical to
//! the single-device drivers; at N = 1 the whole `AlgoRun` (stats,
//! iterations, per-iteration cycles) matches field for field; and at
//! N > 1 the merged record is deterministic across repeated runs.
//!
//! The sweep is also the cross-commit oracle for the sharded cost model:
//! every cell's makespan, compute / comm / stall cycles, halo bytes, BSP
//! round count and a digest of its per-round breakdowns must reproduce,
//! digit for digit, `golden/shard_<tag>.txt`. A golden file is written by
//! its test when it does not exist (see `crates/simt/tests/support/golden.rs`).

#[path = "../../simt/tests/support/golden.rs"]
mod golden_file;

use golden_file::assert_matches_golden;
use maxwarp::{run_bfs, run_cc, run_pagerank, run_sssp, AlgoRun, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{random_weights, Csr, Dataset, Fnv64, Scale};
use maxwarp_shard::{
    run_bfs_sharded, run_cc_sharded, run_pagerank_sharded, run_sssp_sharded, CutStrategy,
    LinkConfig, MultiDevice, Partition, PartitionSpec, ShardedRun,
};
use maxwarp_simt::{Gpu, GpuConfig, LaunchError};
use std::fmt::Write as _;
use std::path::PathBuf;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
const PR_ITERS: u32 = 10;
const PR_DAMPING: f32 = 0.85;

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::tiny_test())
}

fn exec() -> ExecConfig {
    ExecConfig::default()
}

fn fleet(g: &Csr, weights: Option<&[u32]>, shards: u32, cut: CutStrategy) -> MultiDevice {
    let part = Partition::new(g, weights, &PartitionSpec { shards, cut });
    MultiDevice::upload(&GpuConfig::tiny_test(), part)
}

fn assert_run_eq(a: &AlgoRun, b: &AlgoRun, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(
        a.cycles_per_iteration, b.cycles_per_iteration,
        "{what}: per-iteration cycles"
    );
}

fn assert_sharded_eq(a: &ShardedRun, b: &ShardedRun, what: &str) {
    assert_run_eq(&a.run, &b.run, what);
    assert_eq!(a.rounds, b.rounds, "{what}: round breakdowns");
    assert_eq!(a.per_shard.len(), b.per_shard.len(), "{what}: shard count");
    for (i, (x, y)) in a.per_shard.iter().zip(b.per_shard.iter()).enumerate() {
        assert_run_eq(x, y, &format!("{what}: shard {i}"));
    }
}

/// One golden line for a sharded run of `algo` in cell `what`.
fn cell_line(out: &mut String, what: &str, algo: &str, sr: &ShardedRun) {
    let mut h = Fnv64::new();
    for r in &sr.rounds {
        h.u64(r.compute_cycles)
            .u64(r.comm_cycles)
            .u64(r.stall_cycles)
            .u64(r.halo_bytes);
    }
    let _ = writeln!(
        out,
        "{what} {algo} makespan={} compute={} comm={} stall={} halo={} rounds={} breakdown={:016x}",
        sr.makespan_cycles(),
        sr.compute_cycles(),
        sr.comm_cycles(),
        sr.stall_cycles(),
        sr.halo_bytes(),
        sr.bsp_rounds(),
        h.finish(),
    );
}

/// `golden/shard_<tag>.txt`.
fn golden(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("shard_{tag}.txt"))
}

/// Run the 4-algorithm identity check for one graph across shard counts
/// and cuts, returning one golden line per (cut, N, algorithm) cell.
/// `src` is the traversal source; SSSP is skipped when `weights` is
/// `None`.
fn identity_sweep(tag: &str, g: &Csr, weights: Option<&[u32]>, src: u32, method: Method) -> String {
    let e = exec();
    let mut lines = String::new();
    let link = LinkConfig::default();

    // Single-device references.
    let (want_bfs, bfs_run) = {
        let mut gp = gpu();
        let dg = DeviceGraph::upload(&mut gp, g);
        let o = run_bfs(&mut gp, &dg, src, method, &e).unwrap();
        (o.levels, o.run)
    };
    let (want_pr, pr_run) = {
        let mut gp = gpu();
        let dg = DeviceGraph::upload(&mut gp, g);
        let o = run_pagerank(&mut gp, &dg, PR_ITERS, PR_DAMPING, method, &e).unwrap();
        (o.ranks, o.run)
    };
    let sym = g.symmetrize();
    let (want_cc, cc_run) = {
        let mut gp = gpu();
        let dg = DeviceGraph::upload(&mut gp, &sym);
        let o = run_cc(&mut gp, &dg, method, &e).unwrap();
        (o.labels, o.run)
    };
    let want_sssp = weights.map(|w| {
        let mut gp = gpu();
        let dg = DeviceGraph::upload_weighted(&mut gp, g, w);
        let o = run_sssp(&mut gp, &dg, src, method, &e).unwrap();
        (o.dist, o.run)
    });

    for cut in [CutStrategy::Block, CutStrategy::Degree, CutStrategy::Bfs] {
        for shards in SHARD_COUNTS {
            let what = format!("{tag} {} N={shards}", cut.label());

            let mut md = fleet(g, None, shards, cut);
            let out = run_bfs_sharded(&mut md, src, method, &e, &link, None).unwrap();
            assert_eq!(out.values, want_bfs, "{what}: bfs levels");
            if shards == 1 {
                assert_run_eq(&out.run.run, &bfs_run, &format!("{what}: bfs N=1 run"));
                assert_eq!(out.run.halo_bytes(), 0, "{what}: no halo at N=1");
            }
            cell_line(&mut lines, &what, "bfs", &out.run);

            let mut md = fleet(g, None, shards, cut);
            let out = run_pagerank_sharded(&mut md, PR_ITERS, PR_DAMPING, method, &e, &link, None)
                .unwrap();
            // f32 conversion of identical fixed-point values: bitwise equal.
            assert_eq!(out.values, want_pr, "{what}: pagerank ranks");
            if shards == 1 {
                assert_run_eq(&out.run.run, &pr_run, &format!("{what}: pr N=1 run"));
            }
            cell_line(&mut lines, &what, "pagerank", &out.run);

            let mut md = fleet(&sym, None, shards, cut);
            let out = run_cc_sharded(&mut md, method, &e, &link, None).unwrap();
            assert_eq!(out.values, want_cc, "{what}: cc labels");
            if shards == 1 {
                assert_run_eq(&out.run.run, &cc_run, &format!("{what}: cc N=1 run"));
            }
            cell_line(&mut lines, &what, "cc", &out.run);

            if let (Some(w), Some((want, run))) = (weights, want_sssp.as_ref()) {
                let mut md = fleet(g, Some(w), shards, cut);
                let out = run_sssp_sharded(&mut md, src, method, &e, &link, None).unwrap();
                assert_eq!(&out.values, want, "{what}: sssp dist");
                if shards == 1 {
                    assert_run_eq(&out.run.run, run, &format!("{what}: sssp N=1 run"));
                }
                cell_line(&mut lines, &what, "sssp", &out.run);
            }
        }
    }
    lines
}

#[test]
fn rmat_identity_sweep() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let w = random_weights(&g, 63, 11);
    let src = Dataset::Rmat.source(&g);
    let got = identity_sweep("rmat", &g, Some(&w), src, Method::warp(8));
    assert_matches_golden(&golden("rmat"), &got, "cells");
}

#[test]
fn hub_graph_identity_sweep() {
    // Extreme hub: nearly every edge is a cut edge under a block split —
    // the all-halo stress case.
    let g = maxwarp_graph::hub_graph(512, 4, 96, 3, 42);
    let w = random_weights(&g, 31, 7);
    let src = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
    let got = identity_sweep("hub", &g, Some(&w), src, Method::warp(32));
    assert_matches_golden(&golden("hub"), &got, "cells");
}

#[test]
fn wikitalk_identity_sweep_baseline() {
    let g = Dataset::WikiTalkLike.build(Scale::Tiny);
    let src = Dataset::WikiTalkLike.source(&g);
    let got = identity_sweep("wikitalk", &g, None, src, Method::Baseline);
    assert_matches_golden(&golden("wikitalk"), &got, "cells");
}

#[test]
fn empty_shards_merge_correctly() {
    // 5 vertices over 8 shards: at least 3 shards own nothing.
    let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let mut gp = gpu();
    let dg = DeviceGraph::upload(&mut gp, &g);
    let want = run_bfs(&mut gp, &dg, 0, Method::Baseline, &exec()).unwrap();
    let mut md = fleet(&g, None, 8, CutStrategy::Block);
    let out = run_bfs_sharded(
        &mut md,
        0,
        Method::Baseline,
        &exec(),
        &LinkConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(out.values, want.levels);

    let mut md = fleet(&g, None, 8, CutStrategy::Block);
    let pr = run_pagerank_sharded(
        &mut md,
        PR_ITERS,
        PR_DAMPING,
        Method::Baseline,
        &exec(),
        &LinkConfig::default(),
        None,
    )
    .unwrap();
    let mut gp = gpu();
    let dg = DeviceGraph::upload(&mut gp, &g);
    let want_pr = run_pagerank(
        &mut gp,
        &dg,
        PR_ITERS,
        PR_DAMPING,
        Method::Baseline,
        &exec(),
    )
    .unwrap();
    assert_eq!(pr.values, want_pr.ranks);
}

#[test]
fn all_halo_ring_across_four_shards() {
    // A directed 8-ring striped so *every* edge crosses shards: each
    // shard's local graph is all ghosts beyond its two owned vertices.
    let g = Csr::from_edges(
        8,
        &[
            (0, 4),
            (4, 1),
            (1, 5),
            (5, 2),
            (2, 6),
            (6, 3),
            (3, 7),
            (7, 0),
        ],
    );
    let part = Partition::new(&g, None, &PartitionSpec::block(4));
    assert_eq!(part.cut_edges(), 8, "every edge is cut");
    let mut gp = gpu();
    let dg = DeviceGraph::upload(&mut gp, &g);
    let want = run_bfs(&mut gp, &dg, 0, Method::Baseline, &exec()).unwrap();
    let mut md = MultiDevice::upload(&GpuConfig::tiny_test(), part);
    let out = run_bfs_sharded(
        &mut md,
        0,
        Method::Baseline,
        &exec(),
        &LinkConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(out.values, want.levels);
    assert!(out.run.halo_bytes() > 0, "cut edges must move bytes");

    let mut gp = gpu();
    let dg = DeviceGraph::upload(&mut gp, &g.symmetrize());
    let want_cc = run_cc(&mut gp, &dg, Method::Baseline, &exec()).unwrap();
    let mut md = fleet(&g.symmetrize(), None, 4, CutStrategy::Block);
    let out = run_cc_sharded(
        &mut md,
        Method::Baseline,
        &exec(),
        &LinkConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(out.values, want_cc.labels);
}

#[test]
fn merged_record_is_deterministic_at_n_gt_1() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let w = random_weights(&g, 63, 11);
    let src = Dataset::Rmat.source(&g);
    let link = LinkConfig::default();
    for shards in [2u32, 4] {
        let mut a = fleet(&g, Some(&w), shards, CutStrategy::Block);
        let mut b = fleet(&g, Some(&w), shards, CutStrategy::Block);
        let ra = run_bfs_sharded(&mut a, src, Method::warp(8), &exec(), &link, None).unwrap();
        let rb = run_bfs_sharded(&mut b, src, Method::warp(8), &exec(), &link, None).unwrap();
        assert_sharded_eq(&ra.run, &rb.run, &format!("bfs N={shards}"));
        let ra = run_sssp_sharded(&mut a, src, Method::warp(8), &exec(), &link, None).unwrap();
        let rb = run_sssp_sharded(&mut b, src, Method::warp(8), &exec(), &link, None).unwrap();
        assert_sharded_eq(&ra.run, &rb.run, &format!("sssp N={shards}"));
    }
}

#[test]
fn breakdown_accounts_for_the_makespan() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let mut md = fleet(&g, None, 4, CutStrategy::Block);
    let out = run_bfs_sharded(
        &mut md,
        Dataset::Rmat.source(&g),
        Method::warp(8),
        &exec(),
        &LinkConfig::default(),
        None,
    )
    .unwrap();
    let sr = &out.run;
    assert_eq!(sr.bsp_rounds() as usize, sr.run.cycles_per_iteration.len());
    assert_eq!(
        sr.makespan_cycles(),
        sr.compute_cycles() + sr.comm_cycles(),
        "makespan = critical-path compute + comms"
    );
    assert!(sr.stall_cycles() <= sr.comm_cycles());
    // Aggregate device work exceeds the critical path at N > 1.
    assert!(sr.run.stats.cycles >= sr.compute_cycles());
}

/// A link latency of `u64::MAX` cycles saturates every cycle sum of the
/// run at `u64::MAX` instead of overflowing (a panic in debug builds, a
/// wrapped makespan in release builds).
#[test]
fn saturating_link_latency_saturates_the_makespan() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let mut md = fleet(&g, None, 2, CutStrategy::Block);
    let link = LinkConfig {
        latency_cycles: u64::MAX,
        ..LinkConfig::default()
    };
    let out = run_bfs_sharded(
        &mut md,
        Dataset::Rmat.source(&g),
        Method::warp(8),
        &exec(),
        &link,
        None,
    )
    .unwrap();
    let sr = &out.run;
    assert!(sr.run.cycles_per_iteration.contains(&u64::MAX));
    assert_eq!(sr.makespan_cycles(), u64::MAX);
    assert_eq!(sr.comm_cycles(), u64::MAX);
    assert!(sr.compute_cycles() < u64::MAX);
}

#[test]
fn obs_metrics_are_registered() {
    let reg = maxwarp_obs::Registry::new();
    let g = Dataset::Rmat.build(Scale::Tiny);
    let mut md = fleet(&g, None, 2, CutStrategy::Block);
    let _ = run_bfs_sharded(
        &mut md,
        Dataset::Rmat.source(&g),
        Method::warp(8),
        &exec(),
        &LinkConfig::default(),
        Some(&reg),
    )
    .unwrap();
    let text = reg.prometheus_text();
    assert!(text.contains("shard_cycles_total{shard=\"0\"}"), "{text}");
    assert!(text.contains("shard_cycles_total{shard=\"1\"}"), "{text}");
    assert!(text.contains("shard_halo_bytes_total"), "{text}");
    assert!(text.contains("shard_bsp_rounds_total"), "{text}");
    assert!(
        text.contains("shard_interconnect_stall_cycles_total"),
        "{text}"
    );
}

#[test]
fn sssp_requires_weights() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let mut md = fleet(&g, None, 2, CutStrategy::Block);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = run_sssp_sharded(
            &mut md,
            0,
            Method::Baseline,
            &exec(),
            &LinkConfig::default(),
            None,
        );
    }));
    assert!(r.is_err(), "unweighted partition must be rejected");
}

#[test]
fn bfs_source_bounds_checked() {
    let g = Dataset::Rmat.build(Scale::Tiny);
    let n = g.num_vertices();
    let mut md = fleet(&g, None, 2, CutStrategy::Block);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = run_bfs_sharded(
            &mut md,
            n,
            Method::Baseline,
            &exec(),
            &LinkConfig::default(),
            None,
        );
    }));
    assert!(r.is_err(), "out-of-range source must panic");
}

#[test]
fn errors_propagate_from_shard_devices() {
    // A watchdog iteration cap of zero trips on the first BSP round and
    // must surface as a LaunchError, not a panic or hang.
    let g = Dataset::Rmat.build(Scale::Tiny);
    let part = Partition::new(&g, None, &PartitionSpec::block(2));
    let mut cfg = GpuConfig::tiny_test();
    cfg.watchdog.max_iterations = Some(0);
    let mut md = MultiDevice::upload(&cfg, part);
    let err = run_bfs_sharded(
        &mut md,
        Dataset::Rmat.source(&g),
        Method::Baseline,
        &exec(),
        &LinkConfig::default(),
        None,
    );
    match err {
        Err(LaunchError::Fault(_)) => {}
        Err(e) => panic!("unexpected error kind: {e}"),
        Ok(_) => panic!("watchdog cap must error"),
    }
}
