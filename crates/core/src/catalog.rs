//! The kernel catalog: the paper's design space as one matrix. Every kernel
//! is an entry in [`KERNELS`] that uploads what it needs, runs under a
//! [`Method`] and flattens its answer into words; [`Kernel::supports`] is
//! the one place that says which methods a kernel implements (its driver
//! asserts the rest away). Each entry also names its sequential answer in
//! `maxwarp_graph::reference` ([`Kernel::reference`]) and how close a
//! device answer must come to it ([`Kernel::agrees`]). The hazard sweep —
//! sanitizer, analyzer, fault injection and the analyzer's soundness check
//! — walks [`cells`] over [`sweep_graphs`], and the kernel-layer oracles
//! walk [`KERNELS`].

use crate::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, AlgoRun, DeviceGraph, Direction,
    ExecConfig, GpuHybridConfig, Method, VirtualWarp, WarpCentricOpts,
};
use maxwarp_graph::reference::{
    betweenness, bfs_levels, greedy_coloring, is_proper_coloring, kcore, min_reaching_label,
    pagerank, spmv, sssp_dijkstra,
};
use maxwarp_graph::{count_triangles, hub_graph, random_weights, Csr, Dataset, Orientation, Scale};
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
    /// The sequential answer, from `maxwarp_graph::reference`.
    pub reference: fn(&Inputs) -> Payload,
    /// `Ok` if a device answer (`got`, then `want` from
    /// [`Kernel::reference`]) is within the kernel's stated tolerance;
    /// otherwise the first word that is not.
    pub agrees: fn(&Inputs, &Payload, &Payload) -> Result<(), String>,
    refinements: Refinements,
}

impl Kernel {
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

/// A [`KERNELS`] entry before [`Draft::checked_against`] names its
/// reference and tolerance.
struct Draft(&'static str, Refinements, KernelFn);

impl Draft {
    const fn checked_against(
        self,
        reference: fn(&Inputs) -> Payload,
        agrees: fn(&Inputs, &Payload, &Payload) -> Result<(), String>,
    ) -> Kernel {
        let Draft(name, refinements, run) = self;
        Kernel {
            name,
            run,
            reference,
            agrees,
            refinements,
        }
    }
}

fn bits(v: Vec<f32>) -> Payload {
    v.into_iter().map(f32::to_bits).collect()
}

fn narrow(v: Vec<f64>) -> Payload {
    v.into_iter().map(|x| (x as f32).to_bits()).collect()
}

/// `Ok` if `ok(got[i], want[i])` holds at every word and the lengths
/// match; otherwise the first word where not.
fn each_word(got: &[u32], want: &[u32], ok: impl Fn(u32, u32) -> bool) -> Result<(), String> {
    let bad = (0..got.len().max(want.len()))
        .find(|&i| !matches!((got.get(i), want.get(i)), (Some(&a), Some(&b)) if ok(a, b)));
    match bad {
        None => Ok(()),
        Some(i) => Err(format!(
            "word {i}: {:?}, want {:?}",
            got.get(i),
            want.get(i)
        )),
    }
}

/// Word for word.
fn exact(_: &Inputs, got: &Payload, want: &Payload) -> Result<(), String> {
    each_word(got, want, |a, b| a == b)
}

/// The words as `f32`: `|got − want| / scale(want) ≤ bound` at every word
/// (a NaN is not).
fn within(got: &[u32], want: &[u32], bound: f64, scale: impl Fn(f64) -> f64) -> Result<(), String> {
    let f = |w: u32| f32::from_bits(w) as f64;
    each_word(got, want, |a, b| (f(a) - f(b)).abs() / scale(f(b)) <= bound)
        .map_err(|e| format!("{e} (f32 bits), beyond {bound:e}"))
}

/// The levels (the first n words) word for word; each per-level direction
/// word after them is 0 (top-down) or 1 (bottom-up).
fn hybrid_levels(_: &Inputs, got: &Payload, want: &Payload) -> Result<(), String> {
    let (levels, directions) = got.split_at(want.len().min(got.len()));
    each_word(levels, want, |a, b| a == b)?;
    each_word(directions, directions, |d, _| d <= 1)
}

/// A proper colouring of `sym` within first-fit greedy's bound: every
/// colour is below Δ + 1. The device colours in a speculative parallel
/// order, so its colours differ from the reference's.
fn proper_coloring(i: &Inputs, got: &Payload, _: &Payload) -> Result<(), String> {
    let bound = (0..i.sym.num_vertices()).map(|v| i.sym.degree(v) + 1).max();
    match got.iter().max() {
        _ if !is_proper_coloring(&i.sym, got) => Err("not a proper colouring of sym".into()),
        Some(&c) if Some(c) >= bound => Err(format!("colour {c} is not below Δ + 1")),
        _ => Ok(()),
    }
}

/// PageRank: max |got − want| · n ≤ 1e-2, the bound the repo benchmark's
/// oracle uses. The device accumulates in Q2.30 fixed point, the reference
/// in `f64`; the worst over the `kernel_matrix` cells is 1.1e-5.
fn pagerank_close(i: &Inputs, got: &Payload, want: &Payload) -> Result<(), String> {
    let n = i.g.num_vertices() as f64;
    within(got, want, 1e-2, |_| 1.0 / n)
}

/// Betweenness: `|got − want| / max(|want|, 1)` ≤ 1e-5 per vertex. The
/// device accumulates dependencies in `f32`, the reference in `f64`; the
/// worst over the `kernel_matrix` cells is 2.8e-7.
fn betweenness_close(_: &Inputs, got: &Payload, want: &Payload) -> Result<(), String> {
    within(got, want, 1e-5, |b| b.abs().max(1.0))
}

/// SpMV: `|got − want| / max(|want|, 1)` ≤ 1e-5 per row, room for `f32`
/// sums in another order (vector CSR reduces a row in a shuffle tree). The
/// `kernel_matrix` inputs are small integers, so every partial sum is exact
/// and the worst over its cells is 0.
fn spmv_close(_: &Inputs, got: &Payload, want: &Payload) -> Result<(), String> {
    within(got, want, 1e-5, |y| y.abs().max(1.0))
}

/// The matrix's kernel axis, in the order every tool prints it.
pub const KERNELS: [Kernel; 12] = {
    use Refinements::*;
    [
        Draft("bfs", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_bfs(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.levels))
        })
        .checked_against(|i| bfs_levels(&i.g, i.src), exact),
        Draft("bfs_queue", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_bfs_queue(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.levels))
        })
        .checked_against(|i| bfs_levels(&i.g, i.src), exact),
        Draft("bfs_hybrid", Dynamic, |i, gpu, m, e| {
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
        })
        .checked_against(|i| bfs_levels(&i.g, i.src), hybrid_levels),
        Draft("sssp", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload_weighted(gpu, &i.g, &i.weights);
            let out = run_sssp(gpu, &dg, i.src, m, e)?;
            Ok((out.run, out.dist))
        })
        .checked_against(|i| sssp_dijkstra(&i.g, &i.weights, i.src), exact),
        Draft("cc", DynamicAndDefer, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_cc(gpu, &dg, m, e)?;
            Ok((out.run, out.labels))
        })
        .checked_against(|i| min_reaching_label(&i.sym), exact),
        Draft("pagerank", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_pagerank(gpu, &dg, 3, 0.85, m, e)?;
            Ok((out.run, bits(out.ranks)))
        })
        .checked_against(|i| narrow(pagerank(&i.g, 3, 0.85)), pagerank_close),
        Draft("betweenness", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_betweenness(gpu, &dg, &i.bc_sources, m, e)?;
            Ok((out.run, bits(out.bc)))
        })
        .checked_against(
            |i| narrow(betweenness(&i.g, &i.bc_sources)),
            betweenness_close,
        ),
        Draft("triangles", Dynamic, |i, gpu, m, e| {
            let out = run_triangles(gpu, &i.sym, m, e, Orientation::ByDegree)?;
            Ok((out.run, vec![out.count as u32, (out.count >> 32) as u32]))
        })
        .checked_against(
            |i| {
                let count = count_triangles(&i.sym);
                vec![count as u32, (count >> 32) as u32]
            },
            exact,
        ),
        Draft("coloring", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_coloring(gpu, &dg, m, e)?;
            Ok((out.run, out.colors))
        })
        .checked_against(|i| greedy_coloring(&i.sym), proper_coloring),
        Draft("kcore", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let out = run_kcore(gpu, &dg, m, e)?;
            Ok((out.run, out.core))
        })
        .checked_against(|i| kcore(&i.sym), exact),
        Draft("msbfs", Dynamic, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_msbfs(gpu, &dg, &i.ms_sources, m, e)?;
            Ok((out.run, out.levels.concat()))
        })
        .checked_against(
            |i| {
                i.ms_sources
                    .iter()
                    .flat_map(|&s| bfs_levels(&i.g, s))
                    .collect()
            },
            exact,
        ),
        Draft("spmv", Plain, |i, gpu, m, e| {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let out = run_spmv(gpu, &dg, &i.values, &i.x, m, e)?;
            Ok((out.run, bits(out.y)))
        })
        .checked_against(|i| bits(spmv(&i.g, &i.values, &i.x)), spmv_close),
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
