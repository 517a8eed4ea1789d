//! A ghost slot costs no instruction.
//!
//! A shard's local graph is its owned rows followed by one empty row per
//! ghost. Ghosts are edge targets and halo slots only: a superstep that
//! sweeps them issues instructions for vertices another shard owns and
//! sweeps itself. So a sharded BFS, summed over its shards, issues about
//! what the single device issues; the slack covers the extra BSP rounds
//! a cut can add and the per-shard launch floors.

use maxwarp::{run_bfs, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_shard::{
    run_bfs_sharded, CutStrategy, LinkConfig, MultiDevice, Partition, PartitionSpec,
};
use maxwarp_simt::{cores, fan_out, Gpu, GpuConfig};

/// Sharded instructions may exceed the single device's by this factor.
const SLACK: f64 = 1.10;

/// Every cell of `family` under `method` over which the sharded BFS issues
/// more than [`SLACK`] × the single-device count, as `(cell, ratio)`.
fn over_budget((family, method): (Dataset, Method)) -> Vec<(String, f64)> {
    let g = family.build(Scale::Tiny);
    let src = family.source(&g);
    let exec = ExecConfig::default();
    let link = LinkConfig::default();
    let single = {
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_bfs(&mut gpu, &dg, src, method, &exec).unwrap();
        out.run.stats.instructions
    };
    let mut over = Vec::new();
    for cut in [CutStrategy::Block, CutStrategy::Degree, CutStrategy::Bfs] {
        for shards in [2u32, 4, 8] {
            let part = Partition::new(&g, None, &PartitionSpec { shards, cut });
            let mut md = MultiDevice::upload(&GpuConfig::tiny_test(), part);
            let out = run_bfs_sharded(&mut md, src, method, &exec, &link, None).unwrap();
            let ratio = out.run.run.stats.instructions as f64 / single as f64;
            if ratio > SLACK {
                let cell = format!(
                    "{} {} {} N={shards}",
                    family.name(),
                    method.label(),
                    cut.label()
                );
                over.push((cell, ratio));
            }
        }
    }
    over
}

#[test]
fn sharded_bfs_issues_about_the_single_device_instructions() {
    let cells: Vec<(Dataset, Method)> = Dataset::ALL
        .into_iter()
        .flat_map(|d| [Method::Baseline, Method::warp(8), Method::warp(32)].map(|m| (d, m)))
        .collect();
    let over: Vec<(String, f64)> = fan_out(cores(), cells, over_budget)
        .into_iter()
        .flatten()
        .collect();
    let report: Vec<String> = over.iter().map(|(c, r)| format!("{c}: {r:.3}x")).collect();
    assert!(
        over.is_empty(),
        "{} cells issue more than {SLACK}x the single-device instructions:\n{}",
        over.len(),
        report.join("\n")
    );
}
