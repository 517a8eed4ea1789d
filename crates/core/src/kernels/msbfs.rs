//! Multi-source BFS (MS-BFS) with bitmask frontiers.
//!
//! Runs up to 32 BFS traversals *simultaneously*: each vertex carries a
//! 32-bit `seen` mask (bit `s` = reached by source `s`) and a `frontier`
//! mask for the current level. One edge traversal serves all sources at
//! once — the batching idea behind the Green-Marl authors' later MS-BFS
//! work — and the irregular per-vertex expansion is the same loop the
//! paper optimizes, so both baseline and virtual warp-centric mappings
//! apply unchanged.
//!
//! Discovery levels per (source, vertex) pair are recorded on the device
//! (`disc[s*n + v]`), which is what the tests validate against 32
//! independent reference BFS runs.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range};
use crate::method::{ExecConfig, Method};
use crate::runner::{check_iteration_bound, AlgoRun};
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError, Mask, WarpCtx};

/// Level of never-discovered (source, vertex) pairs.
pub const INF: u32 = u32::MAX;

/// Result of a multi-source BFS run.
#[derive(Clone, Debug)]
pub struct MsBfsOutput {
    /// `levels[s][v]` = BFS level of `v` from `sources[s]` (`INF` if
    /// unreachable).
    pub levels: Vec<Vec<u32>>,
    /// Execution record.
    pub run: AlgoRun,
}

struct MsState {
    seen: DevPtr<u32>,
    frontier: DevPtr<u32>,
    next: DevPtr<u32>,
    disc: DevPtr<u32>,
    changed: DevPtr<u32>,
}

/// Per-edge action: push the source bits of `fmask` (the expanding
/// vertex's frontier bits) to each neighbor; newly seen bits are recorded
/// with their discovery level.
#[allow(clippy::too_many_arguments)]
fn ms_edge_body(
    g: DeviceGraph,
    st_seen: DevPtr<u32>,
    st_next: DevPtr<u32>,
    disc: DevPtr<u32>,
    changed: DevPtr<u32>,
    n: u32,
    next_level: u32,
    fmask: Lanes<u32>,
) -> impl Fn(&mut WarpCtx<'_>, Mask, &Lanes<u32>) + Copy {
    move |w, act, i| {
        let nbr = w.ld(act, g.col_indices, i);
        // new = fmask & ~seen[nbr], claimed atomically so each bit is
        // discovered exactly once.
        let old = w.atomic_or(act, st_seen, &nbr, &fmask);
        let new = w.alu2(act, &fmask, &old, |f, o| f & !o);
        let m_new = w.alu_pred(act, &new, |x| x != 0);
        if m_new.none() {
            return;
        }
        let _ = w.atomic_or(m_new, st_next, &nbr, &new);
        w.st_uniform(m_new, changed, 0, 1);
        // Record the discovery level of each fresh bit (divergent loop
        // over set bits, like a __ffs-driven loop in CUDA).
        let mut rest = new;
        let mut live = m_new;
        while live.any() {
            let bit = w.alu1(live, &rest, |x| x & x.wrapping_neg());
            let slot = {
                let mut s = Lanes::splat(0u32);
                for l in live.iter() {
                    s.set(l, bit.get(l).trailing_zeros() * n + nbr.get(l));
                }
                w.alu_nop(live); // index arithmetic
                s
            };
            w.st(live, disc, &slot, &Lanes::splat(next_level));
            rest = w.alu2(live, &rest, &bit, |r, b| r & !b);
            live = w.alu_pred(live, &rest, |x| x != 0);
        }
    }
}

/// Run BFS from up to 32 sources simultaneously.
///
/// ```
/// use maxwarp::{run_msbfs, DeviceGraph, ExecConfig, Method};
/// use maxwarp_simt::{Gpu, GpuConfig};
///
/// // Path 0 - 1 - 2 (symmetric).
/// let g = maxwarp_graph::Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
/// let mut gpu = Gpu::new(GpuConfig::tiny_test());
/// let dg = DeviceGraph::upload(&mut gpu, &g);
/// let out = run_msbfs(&mut gpu, &dg, &[0, 2], Method::Baseline, &ExecConfig::default())
///     .unwrap();
/// assert_eq!(out.levels[0], vec![0, 1, 2]); // from vertex 0
/// assert_eq!(out.levels[1], vec![2, 1, 0]); // from vertex 2
/// ```
pub fn run_msbfs(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    sources: &[u32],
    method: Method,
    exec: &ExecConfig,
) -> Result<MsBfsOutput, LaunchError> {
    assert!(
        !sources.is_empty() && sources.len() <= 32,
        "MS-BFS batches 1..=32 sources"
    );
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into MS-BFS"
        );
    }
    let n = g.n;
    let st = MsState {
        seen: gpu.mem.alloc::<u32>(n),
        frontier: gpu.mem.alloc::<u32>(n),
        next: gpu.mem.alloc::<u32>(n),
        disc: gpu
            .mem
            .alloc::<u32>(match n.checked_mul(sources.len() as u32) {
                Some(words) => words,
                None => panic!("disc too large"),
            }),
        changed: gpu.mem.alloc::<u32>(1),
    };
    gpu.mem.fill(st.disc, INF);
    // Real cudaMalloc memory is uninitialized; `seen`/`frontier` are read
    // (host-side below, device-side in the first level) before any store.
    gpu.mem.fill(st.seen, 0u32);
    gpu.mem.fill(st.frontier, 0u32);
    for (s, &v) in sources.iter().enumerate() {
        assert!(v < n, "source {v} out of range for n={n}");
        let bit = 1u32 << s;
        let cur = gpu.mem.read(st.seen, v);
        gpu.mem.write(st.seen, v, cur | bit);
        let cf = gpu.mem.read(st.frontier, v);
        gpu.mem.write(st.frontier, v, cf | bit);
        gpu.mem.write(st.disc, s as u32 * n + v, 0u32);
    }

    let mut run = AlgoRun::default();
    let mut level = 0u32;
    let mut st = st;
    loop {
        run.begin_iteration();
        gpu.mem.write(st.changed, 0, 0u32);
        gpu.mem.fill(st.next, 0u32);

        let stats = launch_level(gpu, g, &st, n, level + 1, method, exec)?;
        run.absorb(&stats);

        if gpu.mem.read(st.changed, 0) == 0 {
            break;
        }
        std::mem::swap(&mut st.frontier, &mut st.next);
        level += 1;
        check_iteration_bound(gpu, "msbfs", level, n)?;
    }

    let disc = gpu.mem.download(st.disc);
    let levels = (0..sources.len())
        .map(|s| disc[s * n as usize..(s + 1) * n as usize].to_vec())
        .collect();
    Ok(MsBfsOutput { levels, run })
}

fn launch_level(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &MsState,
    n: u32,
    next_level: u32,
    method: Method,
    exec: &ExecConfig,
) -> Result<maxwarp_simt::KernelStats, LaunchError> {
    let g = *g;
    let (seen, frontier, next, disc, changed) =
        (st.seen, st.frontier, st.next, st.disc, st.changed);
    item_sweep(gpu, n, method, exec, |w, sweep, vids, m| {
        let fm = w.ld(m, frontier, vids);
        let mf = w.alu_pred(m, &fm, |x| x != 0);
        if mf.none() {
            return;
        }
        let (s, e) = load_row_range(w, &g, mf, vids);
        let body = ms_edge_body(g, seen, next, disc, changed, n, next_level, fm);
        sweep.neighbor_loop(w, mf, &s, &e, body);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::bfs_levels;
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig};

    fn check(d: Dataset, sources: &[u32], method: Method) {
        let g = d.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_msbfs(&mut gpu, &dg, sources, method, &ExecConfig::default()).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            let want = bfs_levels(&g, src);
            assert_eq!(
                out.levels[s],
                want,
                "{} source {} ({})",
                d.name(),
                src,
                method.label()
            );
        }
    }

    #[test]
    fn matches_32_independent_bfs_on_random() {
        let g = Dataset::Random.build(Scale::Tiny);
        let sources: Vec<u32> = (0..32u32).map(|s| (s * 61) % g.num_vertices()).collect();
        check(Dataset::Random, &sources, Method::Baseline);
        check(Dataset::Random, &sources, Method::warp(8));
    }

    #[test]
    fn matches_on_hub_graph() {
        let g = Dataset::WikiTalkLike.build(Scale::Tiny);
        let sources: Vec<u32> = (0..16u32).map(|s| (s * 127) % g.num_vertices()).collect();
        check(Dataset::WikiTalkLike, &sources, Method::warp(32));
    }

    #[test]
    fn single_source_degenerates_to_bfs() {
        check(Dataset::Rmat, &[0], Method::warp(4));
    }

    #[test]
    fn duplicate_sources_share_levels() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_msbfs(
            &mut gpu,
            &dg,
            &[7, 7],
            Method::Baseline,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(out.levels[0], out.levels[1]);
    }

    #[test]
    fn batching_is_cheaper_than_sequential_runs() {
        // The whole point of MS-BFS: 16 sources in one sweep cost far less
        // than 16 independent BFS runs.
        let d = Dataset::SmallWorld;
        let g = d.build(Scale::Tiny);
        let sources: Vec<u32> = (0..16u32).map(|s| s * 100).collect();
        let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let batched = run_msbfs(
            &mut gpu,
            &dg,
            &sources,
            Method::warp(8),
            &ExecConfig::default(),
        )
        .unwrap()
        .run
        .cycles();
        let mut sequential = 0u64;
        for &src in &sources {
            let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            sequential += crate::kernels::bfs::run_bfs(
                &mut gpu,
                &dg,
                src,
                Method::warp(8),
                &ExecConfig::default(),
            )
            .unwrap()
            .run
            .cycles();
        }
        assert!(
            batched * 3 < sequential,
            "batched {batched} vs sequential {sequential}"
        );
    }

    #[test]
    #[should_panic(expected = "1..=32 sources")]
    fn too_many_sources_rejected() {
        let g = Dataset::Rmat.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let sources: Vec<u32> = (0..33).collect();
        let _ = run_msbfs(
            &mut gpu,
            &dg,
            &sources,
            Method::Baseline,
            &ExecConfig::default(),
        );
    }
}
