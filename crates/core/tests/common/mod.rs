//! The 12-kernel table shared by the integration tests of this crate: one
//! fixed set of inputs per dataset and one `fn` per kernel that runs it and
//! flattens its answer into words, so every test sweeps the same matrix.

#![allow(dead_code)] // each test binary uses its own subset

use maxwarp::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, AlgoRun, DeviceGraph, Direction,
    ExecConfig, GpuHybridConfig, Method,
};
use maxwarp_graph::{random_weights, Csr, Dataset, Orientation, Scale};
use maxwarp_simt::Gpu;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A kernel's answer as words (`f32` by bit pattern), so answers of
/// different kernels compare and hash the same way.
pub type Payload = Vec<u32>;

/// Host-side inputs of all 12 kernels over one Tiny dataset.
pub struct Inputs {
    pub g: Csr,
    pub sym: Csr,
    pub rev: Csr,
    /// A maximum-degree vertex.
    pub src: u32,
    pub weights: Vec<u32>,
    pub values: Vec<f32>,
    pub x: Vec<f32>,
    pub bc_sources: Vec<u32>,
    pub ms_sources: Vec<u32>,
}

impl Inputs {
    pub fn new(d: Dataset) -> Inputs {
        let g = d.build(Scale::Tiny);
        let weights = random_weights(&g, 15, 11);
        Inputs {
            sym: g.symmetrize(),
            rev: g.reverse(),
            src: d.source(&g),
            values: weights.iter().map(|&w| w as f32).collect(),
            x: vec![1.0f32; g.num_vertices() as usize],
            bc_sources: (0..4).collect(),
            ms_sources: (0..32).collect(),
            weights,
            g,
        }
    }
}

/// Upload what the kernel needs onto `gpu`, run it under `(method, exec)`
/// and return its execution record and answer.
pub type KernelFn = fn(&Inputs, &mut Gpu, Method, &ExecConfig) -> (AlgoRun, Payload);

fn bits(v: Vec<f32>) -> Payload {
    v.into_iter().map(f32::to_bits).collect()
}

/// The sweep matrix's kernel axis, in the order every tool prints it.
pub const KERNELS: [(&str, KernelFn); 12] = [
    ("bfs", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_bfs(gpu, &dg, i.src, m, e).unwrap();
        (out.run, out.levels)
    }),
    ("bfs_queue", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_bfs_queue(gpu, &dg, i.src, m, e).unwrap();
        (out.run, out.levels)
    }),
    ("bfs_hybrid", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let drev = DeviceGraph::upload(gpu, &i.rev);
        let cfg = GpuHybridConfig::default();
        let out = run_bfs_hybrid(gpu, &dg, &drev, i.src, m, e, &cfg).unwrap();
        let mut payload = out.bfs.levels;
        payload.extend(
            out.directions
                .iter()
                .map(|&d| (d == Direction::BottomUp) as u32),
        );
        (out.bfs.run, payload)
    }),
    ("sssp", |i, gpu, m, e| {
        let dg = DeviceGraph::upload_weighted(gpu, &i.g, &i.weights);
        let out = run_sssp(gpu, &dg, i.src, m, e).unwrap();
        (out.run, out.dist)
    }),
    ("cc", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.sym);
        let out = run_cc(gpu, &dg, m, e).unwrap();
        (out.run, out.labels)
    }),
    ("pagerank", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_pagerank(gpu, &dg, 3, 0.85, m, e).unwrap();
        (out.run, bits(out.ranks))
    }),
    ("betweenness", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_betweenness(gpu, &dg, &i.bc_sources, m, e).unwrap();
        (out.run, bits(out.bc))
    }),
    ("triangles", |i, gpu, m, e| {
        let out = run_triangles(gpu, &i.sym, m, e, Orientation::ByDegree).unwrap();
        (out.run, vec![out.count as u32, (out.count >> 32) as u32])
    }),
    ("coloring", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.sym);
        let out = run_coloring(gpu, &dg, m, e).unwrap();
        (out.run, out.colors)
    }),
    ("kcore", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.sym);
        let out = run_kcore(gpu, &dg, m, e).unwrap();
        (out.run, out.core)
    }),
    ("msbfs", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_msbfs(gpu, &dg, &i.ms_sources, m, e).unwrap();
        (out.run, out.levels.concat())
    }),
    ("spmv", |i, gpu, m, e| {
        let dg = DeviceGraph::upload(gpu, &i.g);
        let out = run_spmv(gpu, &dg, &i.values, &i.x, m, e).unwrap();
        (out.run, bits(out.y))
    }),
];

/// Run `kernel`, or return the panic message when its driver rejects the
/// method (drivers refuse an option they do not implement with an
/// `assert!`).
pub fn try_run(
    kernel: KernelFn,
    inputs: &Inputs,
    gpu: &mut Gpu,
    m: Method,
    exec: &ExecConfig,
) -> Result<(AlgoRun, Payload), String> {
    catch_unwind(AssertUnwindSafe(|| kernel(inputs, gpu, m, exec))).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}
