//! The kernel catalog: the paper's design space as one matrix. Every kernel
//! is an entry in [`KERNELS`] that uploads what it needs, runs under a
//! [`Method`] and flattens its answer into words; [`Kernel::supports`] is
//! the one place that says which methods a kernel implements (its driver
//! asserts the rest away). The hazard sweep — sanitizer, analyzer, fault
//! injection and the analyzer's soundness check — walks [`cells`] over
//! [`sweep_graphs`], and the kernel-layer oracles walk [`KERNELS`].

use crate::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, AlgoRun, DeviceGraph, Direction,
    ExecConfig, GpuHybridConfig, Method, VirtualWarp, WarpCentricOpts,
};
use maxwarp_graph::{hub_graph, random_weights, Csr, Dataset, Orientation, Scale};
use maxwarp_simt::{Gpu, LaunchError};

/// A kernel's answer as words (`f32` by bit pattern), so answers of
/// different kernels compare and hash the same way.
pub type Payload = Vec<u32>;

/// Host-side inputs of all 12 kernels over one graph.
pub struct Inputs {
    pub g: Csr,
    /// `g` symmetrized: the input of CC, triangles, coloring and k-core.
    pub sym: Csr,
    rev: Csr,
    /// A maximum-degree vertex: the BFS / SSSP source.
    pub src: u32,
    /// SSSP's edge weights.
    pub weights: Vec<u32>,
    values: Vec<f32>,
    x: Vec<f32>,
    bc_sources: Vec<u32>,
    ms_sources: Vec<u32>,
}

impl Inputs {
    /// Derive every kernel's inputs from `g`.
    pub fn new(g: Csr) -> Inputs {
        let n = g.num_vertices();
        let weights = random_weights(&g, 15, 11);
        Inputs {
            sym: g.symmetrize(),
            rev: g.reverse(),
            src: (0..n).max_by_key(|&v| g.degree(v)).unwrap_or(0),
            values: weights.iter().map(|&w| w as f32).collect(),
            x: vec![1.0f32; n as usize],
            bc_sources: (0..4.min(n)).collect(),
            ms_sources: (0..32.min(n)).collect(),
            weights,
            g,
        }
    }
}

/// Upload what the kernel needs onto `gpu`, run it under `(method, exec)`
/// and return its execution record and answer.
pub type KernelFn =
    fn(&Inputs, &mut Gpu, Method, &ExecConfig) -> Result<(AlgoRun, Payload), LaunchError>;

/// The warp-centric refinements a kernel implements on top of plain
/// virtual warps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Refinements {
    /// Dynamic workload distribution and outlier deferral.
    DynamicAndDefer,
    /// Dynamic workload distribution only.
    Dynamic,
    /// Neither: plain static virtual warps.
    Plain,
}

/// One kernel of the matrix.
pub struct Kernel {
    /// The name every tool prints; `maxwarp_serve::Algo::label` agrees.
    pub name: &'static str,
    pub run: KernelFn,
    refinements: Refinements,
}

impl Kernel {
    const fn new(name: &'static str, refinements: Refinements, run: KernelFn) -> Kernel {
        Kernel {
            name,
            run,
            refinements,
        }
    }

    /// Whether this kernel implements `method`. Every kernel runs the
    /// baseline and plain virtual warps; only BFS, SSSP and CC implement
    /// outlier deferral, and every kernel but the two-phase SpMV the
    /// dynamic workload distributor. Drivers refuse the rest with an
    /// `assert!`.
    pub fn supports(&self, method: Method) -> bool {
        match method {
            Method::Baseline => true,
            Method::WarpCentric(o) => {
                (o.defer_threshold.is_none() || self.refinements == Refinements::DynamicAndDefer)
                    && (!o.dynamic || self.refinements != Refinements::Plain)
            }
        }
    }
}

fn bits(v: Vec<f32>) -> Payload {
    v.into_iter().map(f32::to_bits).collect()
}

/// The matrix's kernel axis, in the order every tool prints it.
pub const KERNELS: [Kernel; 12] = {
    use Refinements::*;
    [
        Kernel::new("bfs", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_bfs(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.levels))
        }),
        Kernel::new("bfs_queue", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_bfs_queue(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.levels))
        }),
        Kernel::new("bfs_hybrid", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let drev = DeviceGraph::upload(gpu, &i.rev);
            let cfg = GpuHybridConfig::default();
            let out = run_bfs_hybrid(gpu, &dg, &drev, i.src, m, e, &cfg)?;
            let mut payload = out.bfs.levels;
            payload.extend(
                out.directions
                    .iter()
                    .map(|&d| (d == Direction::BottomUp) as u32),
            );
            Ok((out.bfs.run, payload))
        }),
        Kernel::new("sssp", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload_weighted(gpu, &i.g, &i.weights);
            let out = run_sssp(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.dist))
        }),
        Kernel::new("cc", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_cc(gpu, &dg, m, e)?;
            Ok((out.run, out.labels))
        }),
        Kernel::new("pagerank", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_pagerank(gpu, &dg, 3, 0.85, m, e)?;
            Ok((out.run, bits(out.ranks)))
        }),
        Kernel::new("betweenness", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_betweenness(gpu, &dg, &i.bc_sources, m, e)?;
            Ok((out.run, bits(out.bc)))
        }),
        Kernel::new("triangles", Dynamic, |i, gpu, m, e| {
            let out = run_triangles(gpu, &i.sym, m, e, Orientation::ByDegree)?;
            Ok((out.run, vec![out.count as u32, (out.count >> 32) as u32]))
        }),
        Kernel::new("coloring", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_coloring(gpu, &dg, m, e)?;
            Ok((out.run, out.colors))
        }),
        Kernel::new("kcore", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_kcore(gpu, &dg, m, e)?;
            Ok((out.run, out.core))
        }),
        Kernel::new("msbfs", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_msbfs(gpu, &dg, &i.ms_sources, m, e)?;
            Ok((out.run, out.levels.concat()))
        }),
        Kernel::new("spmv", Plain, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_spmv(gpu, &dg, &i.values, &i.x, m, e)?;
            Ok((out.run, bits(out.y)))
        }),
    ]
};

/// Default outlier-deferral threshold for a graph: well above the mean
/// degree so only true outliers defer (the paper defers the heavy tail,
/// not the bulk).
pub fn defer_threshold(g: &Csr) -> u32 {
    ((g.mean_degree() * 16.0) as u32).max(64)
}

/// The hazard sweep's graph axis: a small scale-free graph and a hub graph
/// where a handful of vertices own most of the edges, maximizing
/// intra-warp imbalance and the deferral / dynamic code paths.
pub fn sweep_graphs() -> [(&'static str, Inputs); 2] {
    [
        ("rmat", Inputs::new(Dataset::Rmat.build(Scale::Tiny))),
        ("hub", Inputs::new(hub_graph(2048, 4, 1500, 2, 7))),
    ]
}

/// The hazard sweep's method axis on `g`: the baseline, `vw8`, `vw32+dyn`
/// and `vw8+defer` at [`defer_threshold`].
fn sweep_methods(g: &Csr) -> [Method; 4] {
    let opts = |k| WarpCentricOpts::plain(VirtualWarp::new(k));
    [
        Method::Baseline,
        Method::warp(8),
        Method::WarpCentric(opts(32).with_dynamic()),
        Method::WarpCentric(opts(8).with_defer(defer_threshold(g))),
    ]
}

/// One (graph, method, kernel) cell of the hazard sweep.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    pub graph: &'static str,
    inputs: &'a Inputs,
    pub method: Method,
    pub kernel: &'static Kernel,
}

impl Cell<'_> {
    /// `kernel/graph [method]`: what the tools print and name the
    /// observers' context after.
    pub fn label(&self) -> String {
        let (kernel, graph) = (self.kernel.name, self.graph);
        format!("{kernel}/{graph} [{}]", self.method.label())
    }

    /// Run the cell on `gpu` under the default geometry.
    pub fn run(&self, gpu: &mut Gpu) -> Result<(AlgoRun, Payload), LaunchError> {
        (self.kernel.run)(self.inputs, gpu, self.method, &ExecConfig::default())
    }
}

/// Every cell of the hazard sweep over `graphs` whose kernel supports its
/// method: graph-major, then the baseline, `vw8`, `vw32+dyn` and
/// `vw8+defer` at [`defer_threshold`], then [`KERNELS`] order.
pub fn cells<'a>(graphs: &'a [(&'static str, Inputs)]) -> impl Iterator<Item = Cell<'a>> {
    graphs.iter().flat_map(|&(graph, ref inputs)| {
        sweep_methods(&inputs.g)
            .into_iter()
            .flat_map(move |method| {
                KERNELS
                    .iter()
                    .filter(move |k| k.supports(method))
                    .map(move |kernel| Cell {
                        graph,
                        inputs,
                        method,
                        kernel,
                    })
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_has_76_cells() {
        let graphs = sweep_graphs();
        assert_eq!(cells(&graphs).count(), 76);
        let vw8 = cells(&graphs).filter(|c| c.method == Method::warp(8));
        assert_eq!(vw8.count(), 2 * KERNELS.len());
    }
}
