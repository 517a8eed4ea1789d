//! PageRank (push-style, fixed iteration count).
//!
//! Each iteration: every vertex pushes `rank/degree` to its neighbors with
//! `atomicAdd` (dangling vertices add their rank to a global accumulator);
//! a second map kernel then applies damping and teleport. The neighbor
//! push is the irregular part, and it takes the same baseline vs.
//! virtual-warp-centric shapes as BFS.
//!
//! Ranks are **Q2.30 fixed-point `u32`**, not `f32`: integer `atomicAdd`
//! is associative and commutative, so the accumulated `next` array is
//! bit-identical no matter how the pushes are ordered — across warp
//! schedules, and across a multi-device edge-cut where each shard
//! accumulates a partial sum that is merged host-side. (With `f32`
//! accumulation the sharded merge would differ from the single-device
//! result in the last ulp.) One fixed-point unit is `2^-30 ≈ 9.3e-10` of
//! rank mass; divisions round to nearest, so the result tracks exact
//! rational PageRank far closer than the `f32` tolerance of the tests.

use crate::device_graph::DeviceGraph;
use crate::kernels::common::{item_sweep, load_row_range};
use crate::method::{ExecConfig, Method};
use crate::runner::AlgoRun;
use maxwarp_simt::{DevPtr, Gpu, Lanes, LaunchError};

/// Fixed-point scale: rank 1.0 == `PR_SCALE` units (Q2.30).
pub const PR_SCALE: u32 = 1 << 30;

/// Damping factor as a Q2.30 fixed-point multiplier.
pub fn pagerank_damping_fp(d: f32) -> u64 {
    assert!((0.0..=1.0).contains(&d), "damping must be in [0,1]");
    (d as f64 * PR_SCALE as f64).round() as u64
}

/// `(d_fp * x) >> 30`, rounded to nearest — the damping multiply.
#[inline]
fn mul_fp(d_fp: u64, x: u32) -> u32 {
    ((d_fp * x as u64 + (1 << 29)) >> 30) as u32
}

/// The per-iteration teleport+dangling base term, in fixed point:
/// `((1 - d) + d * dangling) / n`, rounded to nearest. Shared by the
/// single-device driver and the sharded executor so both apply the exact
/// same integer — the redistribution must be computed over the *global*
/// vertex count and dangling mass.
pub fn pagerank_base_fp(n: u32, d_fp: u64, dangling: u32) -> u32 {
    let teleport = PR_SCALE as u64 - d_fp;
    let redistributed = mul_fp(d_fp, dangling) as u64;
    (((teleport + redistributed) + n as u64 / 2) / n as u64) as u32
}

/// Convert a fixed-point rank back to `f32` for output.
pub fn pagerank_fp_to_f32(x: u32) -> f32 {
    (x as f64 / PR_SCALE as f64) as f32
}

/// Result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PagerankOutput {
    /// Final per-vertex ranks (sum ≈ 1).
    pub ranks: Vec<f32>,
    /// Execution record.
    pub run: AlgoRun,
}

/// Device-side working state of a PageRank run. Public so external
/// drivers (the sharded BSP executor) can seed ranks and step iterations
/// themselves.
pub struct PagerankState {
    /// Current ranks, fixed point.
    pub rank: DevPtr<u32>,
    /// Next-iteration accumulator, fixed point.
    pub next: DevPtr<u32>,
    /// Global dangling-mass accumulator (one fixed-point cell).
    pub dangling: DevPtr<u32>,
}

impl PagerankState {
    /// Allocate state over `len` vertex slots, every rank initialized to
    /// `init` fixed-point units. The single-device driver passes
    /// `PR_SCALE / n`; a shard passes the same global value for its local
    /// slots (owned and ghost alike).
    pub fn new(gpu: &mut Gpu, len: u32, init: u32) -> PagerankState {
        let rank = gpu.mem.alloc::<u32>(len.max(1));
        let next = gpu.mem.alloc::<u32>(len.max(1));
        let dangling = gpu.mem.alloc::<u32>(1);
        gpu.mem.fill(rank, init);
        PagerankState {
            rank,
            next,
            dangling,
        }
    }

    /// Swap the rank and next buffers (end of one iteration).
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.rank, &mut self.next);
    }
}

/// One push pass: zero `next` and the dangling cell, then push every
/// vertex in `0..rows` across its out-edges (`rows < len` lets a shard
/// skip its edge-less ghost slots, which must neither push nor count as
/// dangling). Stats are absorbed into `run` under a fresh iteration and
/// settled. Outlier deferral is not wired into the push and is rejected.
/// [`run_pagerank`] loops over the same push and apply bodies, settled
/// once at the end.
#[allow(clippy::too_many_arguments)]
pub fn pagerank_push_round(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &PagerankState,
    rows: u32,
    iter: u32,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<(), LaunchError> {
    pagerank_push_step(gpu, g, st, rows, iter, method, exec, run)?;
    run.settle(gpu)
}

/// [`pagerank_push_round`] without the settle.
#[allow(clippy::too_many_arguments)]
fn pagerank_push_step(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    st: &PagerankState,
    rows: u32,
    iter: u32,
    method: Method,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<(), LaunchError> {
    if let Method::WarpCentric(o) = method {
        assert!(
            o.defer_threshold.is_none(),
            "outlier deferral is not wired into the PageRank kernels"
        );
    }
    run.begin_iteration();
    gpu.mem.fill(st.next, 0u32);
    gpu.mem.write(st.dangling, 0, 0u32);

    if gpu.profiling() {
        gpu.set_profile_label(&format!("pagerank iter {iter}"));
    }
    let (rank, next, dangling) = (st.rank, st.next, st.dangling);
    let stats = item_sweep(gpu, rows, method, exec, |w, sweep, vids, m| {
        let (s, e) = load_row_range(w, g, m, vids);
        let deg = w.alu2(m, &e, &s, |e, s| e.wrapping_sub(s));
        let r = w.ld(m, rank, vids);
        let m_dangling = w.alu_pred(m, &deg, |d| d == 0);
        let m_push = m.andnot(m_dangling);
        // The share is the round-to-nearest fixed-point quotient
        // `rank / degree`.
        let share = w.alu2(m_push, &r, &deg, |r, d| {
            if d > 0 {
                ((r as u64 + d as u64 / 2) / d as u64) as u32
            } else {
                0
            }
        });
        // A dangling vertex adds its rank to the global cell once.
        let m_dl = sweep.owners(m_dangling);
        if m_dl.any() {
            let r = w.ld(m_dl, rank, vids);
            let _ = w.atomic_add(m_dl, dangling, &Lanes::splat(0), &r);
        }
        if m_push.any() {
            sweep.neighbor_loop(w, m_push, &s, &e, |w, act, i| {
                let nbr = w.ld(act, g.col_indices, i);
                let _ = w.atomic_add(act, next, &nbr, &share);
            });
        }
    })?;
    run.absorb(&stats);
    Ok(())
}

/// The damping/teleport map over `0..rows`: `next[v] = base_fp + d*next[v]`
/// (a uniform map kernel, identical for every method). Stats absorb into
/// the current iteration and are settled; the caller swaps buffers after.
pub fn pagerank_apply_round(
    gpu: &mut Gpu,
    st: &PagerankState,
    rows: u32,
    base_fp: u32,
    d_fp: u64,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<(), LaunchError> {
    pagerank_apply_step(gpu, st, rows, base_fp, d_fp, exec, run)?;
    run.settle(gpu)
}

/// [`pagerank_apply_round`] without the settle.
fn pagerank_apply_step(
    gpu: &mut Gpu,
    st: &PagerankState,
    rows: u32,
    base_fp: u32,
    d_fp: u64,
    exec: &ExecConfig,
    run: &mut AlgoRun,
) -> Result<(), LaunchError> {
    let next = st.next;
    let s = item_sweep(gpu, rows, Method::Baseline, exec, |w, _, vid, m| {
        let v = w.ld(m, next, vid);
        let r = w.alu1(m, &v, |x| base_fp + mul_fp(d_fp, x));
        w.st(m, next, vid, &r);
    })?;
    run.absorb(&s);
    Ok(())
}

/// Run `iters` PageRank iterations with damping `d`.
pub fn run_pagerank(
    gpu: &mut Gpu,
    g: &DeviceGraph,
    iters: u32,
    d: f32,
    method: Method,
    exec: &ExecConfig,
) -> Result<PagerankOutput, LaunchError> {
    assert!(g.n > 0, "pagerank needs a non-empty graph");
    let n = g.n;
    let d_fp = pagerank_damping_fp(d);
    let mut st = PagerankState::new(gpu, n, PR_SCALE / n);

    let mut run = AlgoRun::default();
    for it in 0..iters {
        pagerank_push_step(gpu, g, &st, n, it, method, exec, &mut run)?;

        // Apply damping + teleport + dangling redistribution.
        let dang = gpu.mem.read(st.dangling, 0);
        let base_fp = pagerank_base_fp(n, d_fp, dang);
        pagerank_apply_step(gpu, &st, n, base_fp, d_fp, exec, &mut run)?;
        st.swap();
    }
    run.settle(gpu)?;
    let ranks = gpu
        .mem
        .download(st.rank)
        .into_iter()
        .map(pagerank_fp_to_f32)
        .collect();
    Ok(PagerankOutput { ranks, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::WarpCentricOpts;
    use crate::vwarp::VirtualWarp;
    use maxwarp_cpu::pagerank::{pagerank_push, rank_linf};
    use maxwarp_graph::{Dataset, Scale};
    use maxwarp_simt::{Gpu, GpuConfig, KernelStats};

    fn methods() -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(4),
            Method::warp(32),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(8)).with_dynamic()),
        ]
    }

    fn check_dataset(d: Dataset, tol: f32) {
        let g = d.build(Scale::Tiny);
        let want = pagerank_push(&g, 10, 0.85);
        for method in methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let out =
                run_pagerank(&mut gpu, &dg, 10, 0.85, method, &ExecConfig::default()).unwrap();
            let err = rank_linf(&out.ranks, &want);
            assert!(err < tol, "{} / {}: linf={err}", d.name(), method.label());
            assert_eq!(out.run.iterations, 10);
        }
    }

    #[test]
    fn matches_cpu_on_random() {
        check_dataset(Dataset::Random, 1e-5);
    }

    #[test]
    fn matches_cpu_on_rmat() {
        check_dataset(Dataset::Rmat, 1e-5);
    }

    #[test]
    fn matches_cpu_on_patents_like() {
        // Patents-like has dangling vertices (vertex 0 cites nothing).
        check_dataset(Dataset::PatentsLike, 1e-5);
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = Dataset::SmallWorld.build(Scale::Tiny);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_pagerank(
            &mut gpu,
            &dg,
            8,
            0.85,
            Method::warp(8),
            &ExecConfig::default(),
        )
        .unwrap();
        let sum: f32 = out.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum={sum}");
    }

    #[test]
    fn hub_gets_highest_rank() {
        // All vertices point at vertex 0.
        let edges: Vec<(u32, u32)> = (1..40u32).map(|v| (v, 0)).collect();
        let g = maxwarp_graph::Csr::from_edges(40, &edges);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let out = run_pagerank(
            &mut gpu,
            &dg,
            20,
            0.85,
            Method::Baseline,
            &ExecConfig::default(),
        )
        .unwrap();
        for v in 1..40 {
            assert!(out.ranks[0] > out.ranks[v as usize]);
        }
    }

    #[test]
    fn methods_agree_bitwise() {
        // Fixed-point accumulation is order-independent: every method must
        // produce byte-identical ranks, not merely close ones.
        let g = Dataset::Rmat.build(Scale::Tiny);
        let runs: Vec<Vec<f32>> = methods()
            .into_iter()
            .map(|m| {
                let mut gpu = Gpu::new(GpuConfig::tiny_test());
                let dg = DeviceGraph::upload(&mut gpu, &g);
                run_pagerank(&mut gpu, &dg, 10, 0.85, m, &ExecConfig::default())
                    .unwrap()
                    .ranks
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(&runs[0], r, "fixed-point ranks must not depend on method");
        }
    }

    #[test]
    fn zero_row_push_visits_nothing() {
        // An all-ghost shard pushes `rows == 0` of its `len` slots.
        let g = Dataset::Rmat.build(Scale::Tiny);
        for method in methods() {
            let mut gpu = Gpu::new(GpuConfig::tiny_test());
            let dg = DeviceGraph::upload(&mut gpu, &g);
            let st = PagerankState::new(&mut gpu, dg.n, 7);
            let mut run = AlgoRun::default();
            let exec = ExecConfig::default();
            pagerank_push_round(&mut gpu, &dg, &st, 0, 0, method, &exec, &mut run).unwrap();
            let s = run.stats;
            match method {
                // One block; each of its warps fails the bounds check.
                Method::Baseline => {
                    let warps = (exec.block_threads / 32) as u64;
                    assert_eq!((s.blocks, s.warps, s.instructions), (1, warps, warps));
                    assert_eq!(s.mem_instructions + s.atomic_instructions, 0);
                }
                // No chunk, no task — and no queue fetch under `+dyn`.
                Method::WarpCentric(_) => {
                    let none = KernelStats {
                        blocks: s.blocks,
                        ..KernelStats::default()
                    };
                    assert_eq!(s, none, "{}", method.label());
                }
            }
            assert_eq!(run.iterations, 1);
        }
    }

    #[test]
    fn fixed_point_helpers_round_to_nearest() {
        assert_eq!(pagerank_damping_fp(1.0), PR_SCALE as u64);
        assert_eq!(pagerank_damping_fp(0.0), 0);
        // base with no damping is exactly the rounded teleport share.
        assert_eq!(pagerank_base_fp(4, 0, 0), PR_SCALE / 4);
        // Full damping and full dangling mass: everything redistributes.
        assert_eq!(pagerank_base_fp(2, PR_SCALE as u64, PR_SCALE), PR_SCALE / 2);
        assert_eq!(pagerank_fp_to_f32(PR_SCALE), 1.0);
        assert_eq!(pagerank_fp_to_f32(PR_SCALE / 2), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_graph_rejected() {
        let g = maxwarp_graph::Csr::empty(0);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        let _ = run_pagerank(
            &mut gpu,
            &dg,
            5,
            0.85,
            Method::Baseline,
            &ExecConfig::default(),
        );
    }
}
