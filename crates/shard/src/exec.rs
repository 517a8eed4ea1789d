//! Multi-device BSP executor.
//!
//! Runs one simulated [`Gpu`] per shard, host-parallel, in bulk-synchronous
//! supersteps: every device executes one algorithm round over the rows it
//! owns, then the host performs the **halo exchange** — ghost values merge
//! into their owner slots and owner values scatter back to every ghost
//! copy — with each message charged to the [`Interconnect`] model. The
//! devices themselves are the *same* single-device kernels
//! (`maxwarp::bfs_round` & co.), stepped externally; a 1-shard partition
//! therefore reproduces the single-device `AlgoRun` exactly, and for any
//! shard count the merged payloads are byte-identical:
//!
//! * BFS / CC / SSSP are monotone `atomicMin` fixpoints — the exchange
//!   min-merges ghost copies, and the unique fixpoint is the single-device
//!   answer (the sharded run may take *more* BSP rounds, never different
//!   values);
//! * PageRank accumulates Q2.30 fixed-point integers, so per-shard partial
//!   sums added into the owner reproduce the single-device sums bit for
//!   bit (see `maxwarp::kernels::pagerank`).
//!
//! Host thread scheduling cannot perturb results: each device is a
//! deterministic simulator touching only its own state, and merges happen
//! in fixed shard order after the parallel section joins.

use crate::interconnect::{Interconnect, LinkConfig, RoundBreakdown};
use crate::partition::Partition;
use maxwarp::{
    bfs_round, cc_round, check_iteration_bound, pagerank_apply_round, pagerank_base_fp,
    pagerank_damping_fp, pagerank_fp_to_f32, pagerank_push_round, sssp_round, AlgoRun, BfsState,
    CcState, DeviceGraph, ExecConfig, Method, PagerankState, SsspState, BFS_INF, PR_SCALE,
    SSSP_INF,
};
use maxwarp_obs::Registry;
use maxwarp_simt::{cores, fan_out, DevPtr, Gpu, GpuConfig, LaunchError};

/// One shard's simulated device and its resident local graph.
pub struct ShardDevice {
    /// The simulated GPU.
    pub gpu: Gpu,
    /// The shard's local CSR on that device.
    pub dg: DeviceGraph,
}

/// A fleet of shard devices bound to one [`Partition`].
pub struct MultiDevice {
    /// The partition the fleet was built from.
    pub part: Partition,
    /// One device per shard, indexed by shard id.
    pub devices: Vec<ShardDevice>,
}

impl MultiDevice {
    /// Boot one device per shard (all with config `cfg`) and upload each
    /// shard's local graph (weighted when the partition carries weights).
    pub fn upload(cfg: &GpuConfig, part: Partition) -> MultiDevice {
        let devices = part
            .shards
            .iter()
            .map(|sh| {
                let mut gpu = Gpu::new(cfg.clone());
                let dg = match &sh.weights {
                    Some(w) => DeviceGraph::upload_weighted(&mut gpu, &sh.local, w),
                    None => DeviceGraph::upload(&mut gpu, &sh.local),
                };
                ShardDevice { gpu, dg }
            })
            .collect();
        MultiDevice { part, devices }
    }

    /// Shard count.
    pub fn num_shards(&self) -> u32 {
        self.devices.len() as u32
    }
}

/// Execution record of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedRun {
    /// Merged view: stats accumulate every device's work (shard order);
    /// `iterations` counts BSP rounds; `cycles_per_iteration[r]` is the
    /// round's critical path — max per-device compute plus interconnect
    /// cycles. For a 1-shard partition this equals the single-device
    /// [`AlgoRun`] field for field.
    pub run: AlgoRun,
    /// Each shard's own execution record.
    pub per_shard: Vec<AlgoRun>,
    /// Per-BSP-round compute/comms breakdown.
    pub rounds: Vec<RoundBreakdown>,
}

impl ShardedRun {
    /// Modeled wall-clock cycles: sum of per-round critical paths. Every
    /// cycle sum here saturates at `u64::MAX`.
    pub fn makespan_cycles(&self) -> u64 {
        saturating_sum(self.run.cycles_per_iteration.iter().copied())
    }

    /// Critical-path compute cycles across rounds.
    pub fn compute_cycles(&self) -> u64 {
        saturating_sum(self.rounds.iter().map(|r| r.compute_cycles))
    }

    /// Interconnect cycles across rounds.
    pub fn comm_cycles(&self) -> u64 {
        saturating_sum(self.rounds.iter().map(|r| r.comm_cycles))
    }

    /// Contention-only cycles across rounds.
    pub fn stall_cycles(&self) -> u64 {
        saturating_sum(self.rounds.iter().map(|r| r.stall_cycles))
    }

    /// Total halo bytes exchanged.
    pub fn halo_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.halo_bytes).sum()
    }

    /// BSP superstep count.
    pub fn bsp_rounds(&self) -> u32 {
        self.rounds.len() as u32
    }
}

/// Payload plus execution record of one sharded algorithm run.
pub struct ShardedOutput<T> {
    /// Merged per-global-vertex result, identical to the single-device
    /// driver's output.
    pub values: Vec<T>,
    /// Execution record.
    pub run: ShardedRun,
}

/// Run each shard's round host-parallel, one thread per core pulling
/// shards; results come back in shard order and the first error (by shard
/// order) propagates.
fn par_shards<St: Sync>(
    devices: &mut [ShardDevice],
    states: &[St],
    runs: &mut [AlgoRun],
    f: impl Fn(usize, &mut ShardDevice, &St, &mut AlgoRun) -> Result<bool, LaunchError> + Sync,
) -> Result<Vec<bool>, LaunchError> {
    let shards = devices.iter_mut().zip(runs).zip(states).enumerate();
    fan_out(cores(), shards.collect(), |(i, ((dev, run), st))| {
        f(i, dev, st, run)
    })
    .into_iter()
    .collect()
}

/// Min-merge ghost copies into owners, then sync owners back to ghosts.
/// 4 bytes per actually-moved value; returns whether any owner improved.
fn min_exchange(
    devices: &mut [ShardDevice],
    part: &Partition,
    values: &[DevPtr<u32>],
    ic: &mut Interconnect,
) -> bool {
    let mut improved = false;
    for s in 0..part.shards.len() {
        let no = part.shards[s].n_owned();
        for (gi, gh) in part.shards[s].ghosts.iter().enumerate() {
            let slot = no + gi as u32;
            let o = gh.owner as usize;
            let v = devices[s].gpu.mem.read(values[s], slot);
            let cur = devices[o].gpu.mem.read(values[o], gh.owner_local);
            if v < cur {
                devices[o].gpu.mem.write(values[o], gh.owner_local, v);
                ic.charge(s as u32, gh.owner, 4);
                improved = true;
            }
        }
    }
    for s in 0..part.shards.len() {
        let no = part.shards[s].n_owned();
        for (gi, gh) in part.shards[s].ghosts.iter().enumerate() {
            let slot = no + gi as u32;
            let o = gh.owner as usize;
            let ov = devices[o].gpu.mem.read(values[o], gh.owner_local);
            if devices[s].gpu.mem.read(values[s], slot) != ov {
                devices[s].gpu.mem.write(values[s], slot, ov);
                ic.charge(gh.owner, s as u32, 4);
            }
        }
    }
    improved
}

/// Read the merged per-global-vertex payload off the owner devices.
fn gather_u32(md: &MultiDevice, values: &[DevPtr<u32>]) -> Vec<u32> {
    (0..md.part.n)
        .map(|v| {
            let s = md.part.owner[v as usize] as usize;
            md.devices[s]
                .gpu
                .mem
                .read(values[s], md.part.local_id[v as usize])
        })
        .collect()
}

/// Merged run view (see [`ShardedRun::run`]).
fn merge_runs(per_shard: &[AlgoRun], rounds: &[RoundBreakdown]) -> AlgoRun {
    let mut merged = AlgoRun::default();
    for r in per_shard {
        merged.stats.accumulate(&r.stats);
    }
    merged.iterations = rounds.len() as u32;
    merged.cycles_per_iteration = rounds
        .iter()
        .map(|r| r.compute_cycles.saturating_add(r.comm_cycles))
        .collect();
    merged
}

fn saturating_sum(cycles: impl Iterator<Item = u64>) -> u64 {
    cycles.fold(0, u64::saturating_add)
}

/// Export shard metrics through a [`Registry`] (no-op without one).
fn record_obs(obs: Option<&Registry>, sr: &ShardedRun, ic: &Interconnect) {
    let Some(reg) = obs else { return };
    for (i, r) in sr.per_shard.iter().enumerate() {
        let tag = i.to_string();
        reg.counter_with("shard_cycles_total", &[("shard", &tag)])
            .add(r.cycles());
        reg.counter_with("shard_halo_bytes_total", &[("shard", &tag)])
            .add(ic.device_totals()[i]);
    }
    reg.counter("shard_interconnect_stall_cycles_total")
        .add(sr.stall_cycles());
    reg.counter("shard_bsp_rounds_total")
        .add(sr.rounds.len() as u64);
}

/// The critical-path compute of the most recent round.
fn last_round_compute(per_shard: &[AlgoRun]) -> u64 {
    per_shard
        .iter()
        .filter_map(|r| r.cycles_per_iteration.last().copied())
        .max()
        .unwrap_or(0)
}

/// Shared BSP loop for the monotone `atomicMin` fixpoint family
/// (BFS / CC / SSSP): round until no device changed and no ghost merge
/// improved an owner. `round_fn` sees the shard's owned rows only: ghost
/// rows are empty and come after them, so a ghost is an edge target and
/// a halo slot that the sweep never visits (state arrays still cover
/// every local slot).
fn run_min_bsp<St: Sync>(
    md: &mut MultiDevice,
    name: &'static str,
    states: &[St],
    values: &[DevPtr<u32>],
    link: &LinkConfig,
    obs: Option<&Registry>,
    round_fn: impl Fn(&mut Gpu, &DeviceGraph, &St, u32, &mut AlgoRun) -> Result<bool, LaunchError>
        + Sync,
) -> Result<ShardedRun, LaunchError> {
    let nsh = md.devices.len();
    let mut per_shard = vec![AlgoRun::default(); nsh];
    let mut ic = Interconnect::new(*link, nsh as u32);
    let mut rounds: Vec<RoundBreakdown> = Vec::new();
    let mut round = 0u32;
    loop {
        let changed = par_shards(
            &mut md.devices,
            states,
            &mut per_shard,
            |i, dev, st, run| {
                let owned = DeviceGraph {
                    n: md.part.shards[i].n_owned(),
                    ..dev.dg
                };
                round_fn(&mut dev.gpu, &owned, st, round, run)
            },
        )?;
        let improved = min_exchange(&mut md.devices, &md.part, values, &mut ic);
        rounds.push(ic.settle(last_round_compute(&per_shard)));
        if !changed.iter().any(|&c| c) && !improved {
            break;
        }
        round += 1;
        check_iteration_bound(&mut md.devices[0].gpu, name, round, md.part.n)?;
    }
    let sr = ShardedRun {
        run: merge_runs(&per_shard, &rounds),
        per_shard,
        rounds,
    };
    record_obs(obs, &sr, &ic);
    Ok(sr)
}

/// Sharded BFS from global source `src`. Returns per-global-vertex levels
/// byte-identical to `maxwarp::run_bfs`.
pub fn run_bfs_sharded(
    md: &mut MultiDevice,
    src: u32,
    method: Method,
    exec: &ExecConfig,
    link: &LinkConfig,
    obs: Option<&Registry>,
) -> Result<ShardedOutput<u32>, LaunchError> {
    assert!(
        src < md.part.n,
        "source {src} out of range for n={}",
        md.part.n
    );
    let states: Vec<BfsState> = md
        .part
        .shards
        .iter()
        .zip(md.devices.iter_mut())
        .map(|(sh, dev)| {
            let init: Vec<u32> = (0..sh.n_local())
                .map(|l| if sh.global_of(l) == src { 0 } else { BFS_INF })
                .collect();
            BfsState::from_levels(&mut dev.gpu, &dev.dg, &init)
        })
        .collect();
    let values: Vec<DevPtr<u32>> = states.iter().map(|s| s.levels).collect();
    let run = run_min_bsp(
        md,
        "bfs",
        &states,
        &values,
        link,
        obs,
        |gpu, dg, st, cur, r| bfs_round(gpu, dg, st, cur, method, exec, r),
    )?;
    Ok(ShardedOutput {
        values: gather_u32(md, &values),
        run,
    })
}

/// Sharded connected components. Returns per-global-vertex labels
/// byte-identical to `maxwarp::run_cc`.
pub fn run_cc_sharded(
    md: &mut MultiDevice,
    method: Method,
    exec: &ExecConfig,
    link: &LinkConfig,
    obs: Option<&Registry>,
) -> Result<ShardedOutput<u32>, LaunchError> {
    let states: Vec<CcState> = md
        .part
        .shards
        .iter()
        .zip(md.devices.iter_mut())
        .map(|(sh, dev)| {
            let init: Vec<u32> = (0..sh.n_local()).map(|l| sh.global_of(l)).collect();
            CcState::with_labels(&mut dev.gpu, &dev.dg, &init)
        })
        .collect();
    let values: Vec<DevPtr<u32>> = states.iter().map(|s| s.labels).collect();
    let run = run_min_bsp(
        md,
        "cc",
        &states,
        &values,
        link,
        obs,
        |gpu, dg, st, _, r| cc_round(gpu, dg, st, method, exec, r),
    )?;
    Ok(ShardedOutput {
        values: gather_u32(md, &values),
        run,
    })
}

/// Sharded SSSP from global source `src`. Requires a weighted partition;
/// returns distances byte-identical to `maxwarp::run_sssp`.
pub fn run_sssp_sharded(
    md: &mut MultiDevice,
    src: u32,
    method: Method,
    exec: &ExecConfig,
    link: &LinkConfig,
    obs: Option<&Registry>,
) -> Result<ShardedOutput<u32>, LaunchError> {
    assert!(
        src < md.part.n,
        "source {src} out of range for n={}",
        md.part.n
    );
    assert!(
        md.devices.iter().all(|d| d.dg.weights.is_some()),
        "run_sssp_sharded requires a weighted partition"
    );
    let states: Vec<SsspState> = md
        .part
        .shards
        .iter()
        .zip(md.devices.iter_mut())
        .map(|(sh, dev)| {
            let init: Vec<u32> = (0..sh.n_local())
                .map(|l| if sh.global_of(l) == src { 0 } else { SSSP_INF })
                .collect();
            SsspState::from_dist(&mut dev.gpu, &dev.dg, &init)
        })
        .collect();
    let values: Vec<DevPtr<u32>> = states.iter().map(|s| s.dist).collect();
    let run = run_min_bsp(
        md,
        "sssp",
        &states,
        &values,
        link,
        obs,
        |gpu, dg, st, cur, r| {
            let Some(w) = dg.weights else {
                panic!("run_sssp_sharded requires a weighted partition");
            };
            sssp_round(gpu, dg, w, st, cur, method, exec, r)
        },
    )?;
    Ok(ShardedOutput {
        values: gather_u32(md, &values),
        run,
    })
}

/// Sharded PageRank: `iters` fixed iterations with damping `d`. Ranks are
/// byte-identical to `maxwarp::run_pagerank` (integer fixed-point halo
/// sums are order-independent).
pub fn run_pagerank_sharded(
    md: &mut MultiDevice,
    iters: u32,
    d: f32,
    method: Method,
    exec: &ExecConfig,
    link: &LinkConfig,
    obs: Option<&Registry>,
) -> Result<ShardedOutput<f32>, LaunchError> {
    assert!(md.part.n > 0, "pagerank needs a non-empty graph");
    let n = md.part.n;
    let d_fp = pagerank_damping_fp(d);
    let nsh = md.devices.len();
    let n_owned: Vec<u32> = md.part.shards.iter().map(|s| s.n_owned()).collect();
    let mut states: Vec<PagerankState> = md
        .part
        .shards
        .iter()
        .zip(md.devices.iter_mut())
        .map(|(sh, dev)| PagerankState::new(&mut dev.gpu, sh.n_local(), PR_SCALE / n))
        .collect();
    let mut per_shard = vec![AlgoRun::default(); nsh];
    let mut ic = Interconnect::new(*link, nsh as u32);
    let mut rounds: Vec<RoundBreakdown> = Vec::new();

    for it in 0..iters {
        // Superstep compute, part 1: push owned rows (ghost rows neither
        // push nor register as dangling).
        par_shards(
            &mut md.devices,
            &states,
            &mut per_shard,
            |i, dev, st, run| {
                pagerank_push_round(&mut dev.gpu, &dev.dg, st, n_owned[i], it, method, exec, run)
                    .map(|_| true)
            },
        )?;

        // Dangling allreduce: host-exact sum, modeled as a rank-0
        // reduce + broadcast on the fabric.
        let mut dang = 0u32;
        for (s, st) in states.iter().enumerate().take(nsh) {
            dang = dang.wrapping_add(md.devices[s].gpu.mem.read(st.dangling, 0));
            ic.charge(s as u32, 0, 4);
            ic.charge(0, s as u32, 4);
        }

        // Halo gather: add each shard's ghost partial sums into the
        // owner's accumulator — exact, order-independent integer adds.
        for s in 0..nsh {
            let no = n_owned[s];
            for (gi, gh) in md.part.shards[s].ghosts.iter().enumerate() {
                let slot = no + gi as u32;
                let o = gh.owner as usize;
                let partial = md.devices[s].gpu.mem.read(states[s].next, slot);
                let cur = md.devices[o].gpu.mem.read(states[o].next, gh.owner_local);
                md.devices[o].gpu.mem.write(
                    states[o].next,
                    gh.owner_local,
                    cur.wrapping_add(partial),
                );
                ic.charge(s as u32, gh.owner, 4);
            }
        }

        // Superstep compute, part 2: damping/teleport over owned rows with
        // the globally-agreed base term.
        let base_fp = pagerank_base_fp(n, d_fp, dang);
        par_shards(
            &mut md.devices,
            &states,
            &mut per_shard,
            |i, dev, st, run| {
                pagerank_apply_round(&mut dev.gpu, st, n_owned[i], base_fp, d_fp, exec, run)
                    .map(|_| true)
            },
        )?;
        for st in &mut states {
            st.swap();
        }

        // Halo scatter: refresh every ghost rank copy from its owner.
        for s in 0..nsh {
            let no = n_owned[s];
            for (gi, gh) in md.part.shards[s].ghosts.iter().enumerate() {
                let slot = no + gi as u32;
                let o = gh.owner as usize;
                let ov = md.devices[o].gpu.mem.read(states[o].rank, gh.owner_local);
                md.devices[s].gpu.mem.write(states[s].rank, slot, ov);
                ic.charge(gh.owner, s as u32, 4);
            }
        }

        rounds.push(ic.settle(last_round_compute(&per_shard)));
    }

    let values: Vec<DevPtr<u32>> = states.iter().map(|s| s.rank).collect();
    let ranks = gather_u32(md, &values)
        .into_iter()
        .map(pagerank_fp_to_f32)
        .collect();
    let sr = ShardedRun {
        run: merge_runs(&per_shard, &rounds),
        per_shard,
        rounds,
    };
    record_obs(obs, &sr, &ic);
    Ok(ShardedOutput {
        values: ranks,
        run: sr,
    })
}
