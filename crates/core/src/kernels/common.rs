//! The traversal operator: the one place that knows launch geometry.
//!
//! The paper's method is a template — a SISD phase replicated across the K
//! lanes of a virtual warp, then a SIMD phase in which those lanes stride
//! one adjacency list, plus two refinements (deferred outliers, dynamic
//! chunk fetch) — applied unchanged to every algorithm. This module is that
//! template, written once:
//!
//! * [`item_sweep`] visits `n` items (vertices, frontier-queue entries,
//!   edges) under a [`Method`]: one thread per item through `Gpu::submit`,
//!   or one virtual warp per item through `Gpu::submit_warp_tasks` over
//!   chunks of `ExecConfig::chunk_vertices` items: statically, one warp
//!   per chunk, or fetched dynamically by a resident grid (DESIGN.md,
//!   "Launch geometry"). The algorithm supplies one `visit` closure —
//!   its filter and its per-edge body — and never sees a grid size, a
//!   chunk or a task id. [`item_fold`] is the same sweep with an
//!   accumulator per physical warp.
//! * [`Sweep`] is what `visit` gets to tell the two disciplines apart
//!   where they differ: how lanes walk an adjacency list
//!   ([`Sweep::neighbor_loop`] — per-lane scalar, or K lanes strided and
//!   coalesced), which lanes speak for an item ([`Sweep::owners`]), and
//!   whether high-degree items are set aside ([`Sweep::defer_outliers`]).
//! * [`outlier_sweep`] drains the deferred queue with whole blocks.
//!
//! Every sweep is submitted asynchronously: it returns once its functional
//! pass has run, with its cycles pending until the driver settles its
//! [`AlgoRun`](crate::AlgoRun).
//!
//! An algorithm file holds a filter, an edge body and its driver loop.

use crate::device_graph::DeviceGraph;
use crate::method::{ExecConfig, Method};
use crate::vwarp::VwLayout;
use maxwarp_simt::{
    BlockCtx, DevPtr, Gpu, Lanes, LaunchError, Mask, Submitted, TaskSchedule, WarpCtx, WARP_SIZE,
};

/// Load `(start, end)` adjacency offsets for the active vertices.
pub(crate) fn load_row_range(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    m: Mask,
    vids: &Lanes<u32>,
) -> (Lanes<u32>, Lanes<u32>) {
    let start = w.ld(m, g.row_offsets, vids);
    let vplus = w.add_scalar(m, vids, 1);
    let end = w.ld(m, g.row_offsets, &vplus);
    (start, end)
}

/// [`load_row_range`] with the loads optionally routed through the
/// read-only cache (texture path).
pub(crate) fn load_row_range_opt(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    m: Mask,
    vids: &Lanes<u32>,
    cached: bool,
) -> (Lanes<u32>, Lanes<u32>) {
    if !cached {
        return load_row_range(w, g, m, vids);
    }
    let start = w.ld_cached(m, g.row_offsets, vids);
    let vplus = w.add_scalar(m, vids, 1);
    let end = w.ld_cached(m, g.row_offsets, &vplus);
    (start, end)
}

/// Read column indices at `i`, optionally through the read-only cache.
pub(crate) fn ld_cols_opt(
    w: &mut WarpCtx<'_>,
    g: &DeviceGraph,
    act: Mask,
    i: &Lanes<u32>,
    cached: bool,
) -> Lanes<u32> {
    if cached {
        w.ld_cached(act, g.col_indices, i)
    } else {
        w.ld(act, g.col_indices, i)
    }
}

/// How the running sweep maps items onto lanes — the two disciplines the
/// paper compares.
#[derive(Clone, Copy)]
pub(crate) enum Sweep<'a> {
    /// One lane per item (the baseline): each lane walks its *own* item's
    /// adjacency list, so the warp runs until its slowest lane finishes and
    /// every iteration's loads come from 32 unrelated lists.
    PerThread,
    /// The K lanes of a virtual warp share one item and stride its list
    /// together: `ceil(deg/K)` trips, consecutive lanes read consecutive
    /// columns.
    PerVirtualWarp(&'a VwLayout),
}

impl Sweep<'_> {
    /// Each lane's first edge index in `[start, end)` and the step to its
    /// next one: `(start, 1)` per thread, `(start + lane_in_vw, K)` per
    /// virtual warp.
    pub(crate) fn edge_cursor(
        self,
        w: &mut WarpCtx<'_>,
        m: Mask,
        start: &Lanes<u32>,
    ) -> (Lanes<u32>, u32) {
        match self {
            Sweep::PerThread => (*start, 1),
            Sweep::PerVirtualWarp(l) => (w.add(m, start, &l.lane_in_vw), l.vw.k()),
        }
    }

    /// Walk the adjacency ranges `[start, end)` of the active items.
    /// `body(w, act, i)` runs once per iteration with the live mask and
    /// each lane's current edge index.
    pub(crate) fn neighbor_loop(
        self,
        w: &mut WarpCtx<'_>,
        m: Mask,
        start: &Lanes<u32>,
        end: &Lanes<u32>,
        mut body: impl FnMut(&mut WarpCtx<'_>, Mask, &Lanes<u32>),
    ) {
        let (mut i, step) = self.edge_cursor(w, m, start);
        let mut act = w.lt(m, &i, end);
        while act.any() {
            body(w, act, &i);
            i = w.add_scalar(act, &i, step);
            act = w.lt(act, &i, end);
        }
    }

    /// The lanes of `m` that act once per item: all of them when every
    /// lane holds its own item, the virtual-warp leaders when K lanes hold
    /// the same one.
    pub(crate) fn owners(self, m: Mask) -> Mask {
        match self {
            Sweep::PerThread => m,
            Sweep::PerVirtualWarp(l) => m & l.leaders,
        }
    }

    /// Defer high-degree vertices: among the active vertices, those with
    /// `degree >= threshold` are appended (by their virtual warp's leader
    /// lane) to `q` and removed from the returned mask. Returns `m`
    /// untouched when the method does not defer.
    pub(crate) fn defer_outliers(
        self,
        w: &mut WarpCtx<'_>,
        q: &OutlierQueue,
        m: Mask,
        vids: &Lanes<u32>,
        start: &Lanes<u32>,
        end: &Lanes<u32>,
    ) -> Mask {
        let (Sweep::PerVirtualWarp(layout), Some(threshold)) = (self, q.threshold) else {
            return m;
        };
        let deg = w.alu2(m, end, start, |e, s| e.wrapping_sub(s));
        let mdef = w.alu_pred(m, &deg, |d| d >= threshold);
        if mdef.any() {
            let leaders = mdef & layout.leaders;
            let slot = w.atomic_add(leaders, q.count, &Lanes::splat(0), &Lanes::splat(1u32));
            w.st(leaders, q.entries, &slot, vids);
        }
        m.andnot(mdef)
    }
}

/// Visit every item in `0..n` once. `visit(w, sweep, ids, m)` receives the
/// item ids held by the warp's lanes and the mask of lanes whose id is in
/// range (never empty); under [`Sweep::PerVirtualWarp`] the K lanes of a
/// virtual warp hold the same id.
///
/// `n == 0` (an empty shard) is legal and never calls `visit`: a
/// thread-per-item grid has at least one block, whose warps run the bounds
/// check and return; the warp path has no chunk, so it launches no task
/// (and, under `+dyn`, fetches nothing).
#[track_caller]
pub(crate) fn item_sweep(
    gpu: &mut Gpu,
    n: u32,
    method: Method,
    exec: &ExecConfig,
    visit: impl Fn(&mut WarpCtx<'_>, Sweep<'_>, &Lanes<u32>, Mask),
) -> Result<Submitted, LaunchError> {
    item_fold(
        gpu,
        n,
        method,
        exec,
        || (),
        |w, sweep, ids, m, ()| visit(w, sweep, ids, m),
        |_, ()| (),
    )
}

/// [`item_sweep`] with an accumulator per physical warp: `init()` before
/// the warp's first item, `finish(w, acc)` after its last. A thread-per-item
/// warp holds 32 items in one pass; a warp task makes one pass per `32/K`
/// items of its chunk. Warps with no item in range skip `finish`.
#[track_caller]
pub(crate) fn item_fold<A>(
    gpu: &mut Gpu,
    n: u32,
    method: Method,
    exec: &ExecConfig,
    init: impl Fn() -> A,
    visit: impl Fn(&mut WarpCtx<'_>, Sweep<'_>, &Lanes<u32>, Mask, &mut A),
    finish: impl Fn(&mut WarpCtx<'_>, A),
) -> Result<Submitted, LaunchError> {
    match method {
        Method::Baseline => {
            let kernel = |b: &mut BlockCtx<'_>| {
                b.phase(|w| {
                    let ids = w.global_thread_ids();
                    let m = w.lt_scalar(Mask::FULL, &ids, n);
                    if m.none() {
                        return;
                    }
                    let mut acc = init();
                    visit(w, Sweep::PerThread, &ids, m, &mut acc);
                    finish(w, acc);
                });
            };
            // A CUDA grid cannot be empty: zero items still cost one block.
            let grid = n.div_ceil(exec.block_threads).max(1);
            gpu.submit(grid, exec.block_threads, &kernel)
        }
        Method::WarpCentric(opts) => {
            let layout = VwLayout::new(opts.vw);
            let per_pass = opts.vw.per_physical();
            let chunk = exec.chunk_vertices.max(per_pass);
            let tasks = n.div_ceil(chunk);
            // The dynamic schedule's fetch loop keeps a persistent grid
            // resident; a static schedule launches one warp per chunk, its
            // blocks reaching SMs as slots free up.
            let grid = match opts.schedule() {
                TaskSchedule::Dynamic => exec.resident_grid(&gpu.cfg),
                TaskSchedule::StaticBlocked => {
                    tasks.div_ceil(exec.block_threads / WARP_SIZE as u32).max(1)
                }
            };
            gpu.submit_warp_tasks(
                grid,
                exec.block_threads,
                tasks,
                opts.schedule(),
                |w, task| {
                    let chunk_end = (task * chunk + chunk).min(n);
                    let mut base = task * chunk;
                    let mut acc = init();
                    let mut visited = false;
                    while base < chunk_end {
                        let ids = layout.task_ids(base);
                        let m = w.lt_scalar(Mask::FULL, &ids, chunk_end);
                        if m.none() {
                            break;
                        }
                        visited = true;
                        visit(w, Sweep::PerVirtualWarp(&layout), &ids, m, &mut acc);
                        base += per_pass;
                    }
                    if visited {
                        finish(w, acc);
                    }
                },
            )
        }
    }
}

/// The deferred-outlier queue of one round: the device buffers of the
/// algorithm's state plus the method's degree threshold (`None` — nothing is
/// ever deferred — for the baseline and for plain `vwK`).
#[derive(Clone, Copy)]
pub(crate) struct OutlierQueue {
    threshold: Option<u32>,
    entries: DevPtr<u32>,
    count: DevPtr<u32>,
}

impl OutlierQueue {
    pub(crate) fn new(method: Method, entries: DevPtr<u32>, count: DevPtr<u32>) -> Self {
        let threshold = match method {
            Method::Baseline => None,
            Method::WarpCentric(opts) => opts.defer_threshold,
        };
        OutlierQueue {
            threshold,
            entries,
            count,
        }
    }

    /// Vertices the sweep that just ran set aside (a host read of the
    /// device counter; 0 without touching the device when the method does
    /// not defer).
    pub(crate) fn pending(&self, gpu: &Gpu) -> u32 {
        match self.threshold {
            Some(_) => gpu.mem.read(self.count, 0),
            None => 0,
        }
    }
}

/// Block-cooperative processing of the vertices pending in `q` (no launch,
/// `None`, when there are none): block `b` handles entries
/// `b, b + grid, ...`; all `block_threads` lanes of the block stride
/// together over the vertex's adjacency list. `per_vertex(w, v)` runs once
/// per warp right after the queue load and its value (the vertex's
/// distance, label, ...) is handed to every `edge(w, &value, act, i)` call
/// for that vertex.
pub(crate) fn outlier_sweep<T>(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    q: &OutlierQueue,
    exec: &ExecConfig,
    per_vertex: impl Fn(&mut WarpCtx<'_>, u32) -> T,
    edge: impl Fn(&mut WarpCtx<'_>, &T, Mask, &Lanes<u32>),
) -> Result<Option<Submitted>, LaunchError> {
    let pending = q.pending(gpu);
    if pending == 0 {
        return Ok(None);
    }
    let kernel = |b: &mut BlockCtx<'_>| {
        let stride = b.num_blocks();
        let bthreads = b.threads_per_block();
        let mut qi = b.block_id();
        while qi < pending {
            b.phase(|w| {
                let v = w.ld_uniform(Mask::FULL, q.entries, qi);
                let value = per_vertex(w, v);
                let s = w.ld_uniform(Mask::FULL, g.row_offsets, v);
                let e = w.ld_uniform(Mask::FULL, g.row_offsets, v + 1);
                // Block-strided edge indices: warp w covers
                // s + w*32 + lane, stepping block_threads.
                let base = w.id().warp_in_block * WARP_SIZE as u32;
                let offs = Lanes::from_fn(|l| base + l as u32);
                let mut i = w.alu1(Mask::FULL, &offs, |o| s.wrapping_add(o));
                let endv = Lanes::splat(e);
                let mut act = w.lt(Mask::FULL, &i, &endv);
                while act.any() {
                    edge(w, &value, act, &i);
                    i = w.add_scalar(act, &i, bthreads);
                    act = w.lt(act, &i, &endv);
                }
            });
            qi += stride;
        }
    };
    let grid = pending.min(exec.resident_grid(&gpu.cfg));
    gpu.submit(grid, exec.block_threads, &kernel).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_graph::Csr;
    use maxwarp_simt::GpuConfig;

    fn setup() -> (Gpu, DeviceGraph, Csr) {
        // Vertex 0: degree 5; vertex 1: degree 0; vertex 2: degree 2.
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 1), (2, 0), (2, 4)]);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        (gpu, dg, g)
    }

    /// One warp per block, so no block carries warps without items.
    fn exec() -> ExecConfig {
        ExecConfig {
            block_threads: 32,
            ..ExecConfig::default()
        }
    }

    /// Sweep the vertices under `method` and count the visits of each edge.
    fn edge_visits(method: Method) -> Vec<u32> {
        let (mut gpu, dg, _) = setup();
        let visits = gpu.mem.alloc::<u32>(dg.m);
        item_sweep(&mut gpu, dg.n, method, &exec(), |w, sweep, vids, m| {
            let (s, e) = load_row_range(w, &dg, m, vids);
            sweep.neighbor_loop(w, m, &s, &e, |w, act, i| {
                let _ = w.atomic_add(act, visits, i, &Lanes::splat(1u32));
            });
        })
        .unwrap();
        gpu.mem.download(visits)
    }

    #[test]
    fn row_range_loads() {
        let (mut gpu, dg, g) = setup();
        let out_s = gpu.mem.alloc::<u32>(8);
        let out_e = gpu.mem.alloc::<u32>(8);
        item_sweep(
            &mut gpu,
            dg.n,
            Method::Baseline,
            &exec(),
            |w, _, vids, m| {
                let (s, e) = load_row_range(w, &dg, m, vids);
                w.st(m, out_s, vids, &s);
                w.st(m, out_e, vids, &e);
            },
        )
        .unwrap();
        let s = gpu.mem.download(out_s);
        let e = gpu.mem.download(out_e);
        for v in 0..5u32 {
            assert_eq!(e[v as usize] - s[v as usize], g.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn scalar_loop_visits_every_edge_once() {
        assert_eq!(edge_visits(Method::Baseline), vec![1u32; 7]);
    }

    #[test]
    fn vw_loop_visits_every_edge_once() {
        for k in [1u32, 2, 4, 8, 32] {
            let plain = WarpCentricOpts::plain(VirtualWarp::new(k));
            for opts in [plain, plain.with_dynamic()] {
                let method = Method::WarpCentric(opts);
                assert_eq!(edge_visits(method), vec![1u32; 7], "{}", method.spec());
            }
        }
    }

    #[test]
    fn vw_loop_has_fewer_iterations_than_scalar_on_skew() {
        // Vertex 0 has degree 5, others small: the scalar loop runs 5
        // iterations whose tail has one live lane; vw32 runs
        // ceil(5/32) = 1 per vertex with every lane of the warp issued.
        let utilization = |method| {
            let (mut gpu, dg, _) = setup();
            let stats = item_sweep(&mut gpu, dg.n, method, &exec(), |w, sweep, vids, m| {
                let (s, e) = load_row_range(w, &dg, m, vids);
                sweep.neighbor_loop(w, m, &s, &e, |w, act, _| w.alu_nop(act));
            })
            .unwrap()
            .stats;
            assert!(stats.instructions > 0);
            stats.lane_utilization()
        };
        assert!(utilization(Method::Baseline) < utilization(Method::warp(32)));
    }

    #[test]
    fn item_fold_finishes_once_per_warp_with_items() {
        // 70 items, 32-thread blocks: three thread-per-item warps hold
        // items; vw8 makes 4-item passes over chunks of 16, so five tasks.
        for (method, warps) in [(Method::Baseline, 3), (Method::warp(8), 5)] {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let out = gpu.mem.alloc_from(&[0u32, 0]);
            item_fold(
                &mut gpu,
                70,
                method,
                &exec(),
                || 0u32,
                |_, sweep, _, m, items| *items += sweep.owners(m).count(),
                |w, items| {
                    let _ = w.atomic_add_uniform(Mask::FULL, out, 0, items);
                    let _ = w.atomic_add_uniform(Mask::FULL, out, 1, 1);
                },
            )
            .unwrap();
            assert_eq!(gpu.mem.download(out), vec![70, warps], "{}", method.spec());
        }
    }

    /// Sweep under `method`, deferring at degree 3; returns the lanes kept
    /// for the neighbor loop and the queue contents.
    fn defer_at_3(method: Method) -> (u32, Vec<u32>) {
        let (mut gpu, dg, _) = setup();
        let entries = gpu.mem.alloc::<u32>(dg.n);
        let count = gpu.mem.alloc_from(&[0u32]);
        let kept_out = gpu.mem.alloc_from(&[0u32]);
        let q = OutlierQueue::new(method, entries, count);
        item_sweep(&mut gpu, dg.n, method, &exec(), |w, sweep, vids, m| {
            let (s, e) = load_row_range(w, &dg, m, vids);
            let kept = sweep.defer_outliers(w, &q, m, vids, &s, &e);
            let _ = w.atomic_add_uniform(Mask::FULL, kept_out, 0, kept.count());
        })
        .unwrap();
        let queued = gpu.mem.download(entries)[..q.pending(&gpu) as usize].to_vec();
        (gpu.mem.read(kept_out, 0), queued)
    }

    #[test]
    fn defer_outliers_splits_correctly() {
        let vw8 = WarpCentricOpts::plain(VirtualWarp::new(8));
        // Only vertex 0 (degree 5) defers: its 8 lanes leave the 5 x 8
        // lanes that hold a vertex.
        assert_eq!(
            defer_at_3(Method::WarpCentric(vw8.with_defer(3))),
            (32, vec![0])
        );
        // A method without a threshold defers nothing.
        assert_eq!(defer_at_3(Method::WarpCentric(vw8)), (40, vec![]));
        assert_eq!(defer_at_3(Method::Baseline), (5, vec![]));
    }

    #[test]
    fn outlier_kernel_covers_all_edges_of_queued_vertices() {
        let (mut gpu, dg, g) = setup();
        // Queue vertices 0 and 2 manually.
        let entries = gpu.mem.alloc_from(&[0u32, 2]);
        let count = gpu.mem.alloc_from(&[2u32]);
        let vw8 = WarpCentricOpts::plain(VirtualWarp::new(8));
        let q = OutlierQueue::new(Method::WarpCentric(vw8.with_defer(3)), entries, count);
        let visits = gpu.mem.alloc::<u32>(dg.m);
        let exec = ExecConfig {
            block_threads: 64,
            ..ExecConfig::default()
        };
        let per_vertex = |_: &mut WarpCtx<'_>, v: u32| v;
        let stats = outlier_sweep(&mut gpu, &dg, &q, &exec, per_vertex, |w, &v, act, i| {
            assert!(v == 0 || v == 2);
            let _ = w.atomic_add(act, visits, i, &Lanes::splat(1u32));
        })
        .unwrap();
        assert!(stats.is_some());
        // Edges of vertices 0 (rows 0..5) and 2 (rows 5..7) visited once.
        assert_eq!(gpu.mem.download(visits), vec![1u32; g.num_edges() as usize]);
    }
}
