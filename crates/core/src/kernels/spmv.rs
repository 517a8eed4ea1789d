//! Sparse matrix-vector product (CSR SpMV) — the HPC kernel the
//! warp-centric mapping was folklore for even before the paper
//! (vector-CSR in Bell & Garland's SpMV work). `y = A·x` where `A` is the
//! graph's adjacency structure with `f32` edge values.
//!
//! * **Baseline (scalar CSR)**: one thread per row accumulates its dot
//!   product serially — row-length variance is warp imbalance.
//! * **Warp-centric (vector CSR)**: a K-lane virtual warp strides each
//!   row, then reduces its partials with a segmented shuffle tree and the
//!   leader writes the result.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range, Sweep};
use crate::method::{ExecConfig, Method};
use crate::runner::AlgoRun;
use maxwarp_simt::{Gpu, Lanes, LaunchError};

/// Result of an SpMV run.
#[derive(Clone, Debug)]
pub struct SpmvOutput {
    /// `y = A·x`.
    pub y: Vec<f32>,
    /// Execution record.
    pub run: AlgoRun,
}

/// Sequential reference.
pub fn spmv_reference(g: &maxwarp_graph::Csr, values: &[f32], x: &[f32]) -> Vec<f32> {
    assert_eq!(values.len() as u64, g.num_edges());
    assert_eq!(x.len() as u32, g.num_vertices());
    (0..g.num_vertices())
        .map(|r| {
            let row = g.row_offsets()[r as usize] as usize;
            g.neighbors(r)
                .iter()
                .enumerate()
                .map(|(k, &c)| values[row + k] * x[c as usize])
                .sum()
        })
        .collect()
}

/// Run `y = A·x` on the device. `values` are the per-edge matrix entries
/// (aligned with `col_indices`), `x` the input vector.
pub fn run_spmv(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    values: &[f32],
    x: &[f32],
    method: Method,
    exec: &ExecConfig,
) -> Result<SpmvOutput, LaunchError> {
    assert_eq!(values.len() as u32, g.m, "one value per edge");
    assert_eq!(x.len() as u32, g.n, "x must have n entries");
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none() && !o.dynamic,
            "SpMV supports plain static warp-centric execution"
        );
    }
    let d_vals = gpu.mem.alloc_from(values);
    let d_x = gpu.mem.alloc_from(x);
    let d_y = gpu.mem.alloc::<f32>(g.n.max(1));

    let mut run = AlgoRun::default();
    run.begin_iteration();
    let stats = item_sweep(gpu, g.n, method, exec, |w, sweep, rows, m| {
        let (s, e) = load_row_range(w, g, m, rows);
        let mut acc = Lanes::splat(0.0f32);
        sweep.neighbor_loop(w, m, &s, &e, |w, act, i| {
            let c = w.ld(act, g.col_indices, i);
            let a = w.ld(act, d_vals, i);
            let xv = w.ld(act, d_x, &c);
            let prod = w.alu2(act, &a, &xv, |p, q| p * q);
            let acc2 = w.alu2(act, &acc, &prod, |p, q| p + q);
            acc = acc2.select(act, &acc);
        });
        // Scalar CSR: the lane's sum is the row's dot product. Vector CSR:
        // a segmented shuffle tree sums the K partials for the leader.
        let total = match sweep {
            Sweep::PerThread => acc,
            Sweep::PerVirtualWarp(l) => w.seg_reduce_add_f32(m, &acc, l.vw.k() as usize),
        };
        w.st(sweep.owners(m), d_y, rows, &total);
    })?;
    run.absorb(&stats);
    run.settle(gpu)?;
    Ok(SpmvOutput {
        y: gpu.mem.download(d_y),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::{random_weights, Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn inputs(g: &maxwarp_graph::Csr, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let vals: Vec<f32> = random_weights(g, 8, seed)
            .into_iter()
            .map(|w| w as f32 * 0.25)
            .collect();
        let x: Vec<f32> = (0..g.num_vertices())
            .map(|v| (v % 7) as f32 - 3.0)
            .collect();
        (vals, x)
    }

    fn check(d: Dataset, tol: f32) {
        let g = d.build(Scale::Tiny);
        let (vals, x) = inputs(&g, 5);
        let want = spmv_reference(&g, &vals, &x);
        for m in [Method::Baseline, Method::warp(4), Method::warp(32)] {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = crate::DeviceGraph::upload(&mut gpu, &g);
            let out = run_spmv(&mut gpu, &dg, &vals, &x, m, &ExecConfig::default()).unwrap();
            for (r, &w) in want.iter().enumerate() {
                let err = (out.y[r] - w).abs() / w.abs().max(1.0);
                assert!(
                    err < tol,
                    "{} / {} row {r}: {} vs {}",
                    d.name(),
                    m.label(),
                    out.y[r],
                    w
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_random() {
        check(Dataset::Random, 1e-4);
    }

    #[test]
    fn matches_reference_on_hub_graph() {
        check(Dataset::WikiTalkLike, 1e-3);
    }

    #[test]
    fn matches_reference_on_mesh() {
        check(Dataset::RoadNet, 1e-5);
    }

    #[test]
    fn empty_rows_produce_zero() {
        let g = maxwarp_graph::Csr::from_edges(4, &[(0, 1)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = crate::DeviceGraph::upload(&mut gpu, &g);
        let out = run_spmv(
            &mut gpu,
            &dg,
            &[2.0],
            &[1.0, 5.0, 0.0, 0.0],
            Method::warp(8),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(out.y, vec![10.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn vector_csr_improves_utilization_on_skew() {
        let g = Dataset::LiveJournalLike.build(Scale::Tiny);
        let (vals, x) = inputs(&g, 7);
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = crate::DeviceGraph::upload(&mut gpu, &g);
        let base = run_spmv(
            &mut gpu,
            &dg,
            &vals,
            &x,
            Method::Baseline,
            &ExecConfig::default(),
        )
        .unwrap();
        let mut gpu2 = Gpu::new(GpuConfig::fermi_c2050());
        let dg2 = crate::DeviceGraph::upload(&mut gpu2, &g);
        let warp = run_spmv(
            &mut gpu2,
            &dg2,
            &vals,
            &x,
            Method::warp(16),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(
            warp.run.cycles() < base.run.cycles(),
            "warp {} vs base {}",
            warp.run.cycles(),
            base.run.cycles()
        );
        assert!(warp.run.stats.lane_utilization() > base.run.stats.lane_utilization());
    }

    #[test]
    #[should_panic(expected = "one value per edge")]
    fn mismatched_values_rejected() {
        let g = maxwarp_graph::Csr::from_edges(2, &[(0, 1)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = crate::DeviceGraph::upload(&mut gpu, &g);
        let _ = run_spmv(
            &mut gpu,
            &dg,
            &[1.0, 2.0],
            &[0.0, 0.0],
            Method::Baseline,
            &ExecConfig::default(),
        );
    }
}
