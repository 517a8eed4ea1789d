//! `family_sweep`: the fig2/fig3 cell set — every Small dataset family x BFS
//! x {baseline, vw2, vw4, vw8, vw16, vw32}, each cell on a fresh device.
//! High-diameter families make this the many-short-launches use of `simt`
//! and `core`.

use crate::batch::{measure, top_degree, traced_pair, Batch, OpOut};
use crate::oracle;
use crate::probes;
use crate::report::{self, Args, Report};
use crate::sim::SimAcc;
use crate::spec::FAMILIES;
use crate::trace::Trace;
use crate::util::{json_str, quantile, SplitMix64};
use maxwarp::{bfs_round, geomean, run_bfs, AlgoRun, BfsState, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{csr_digest, Csr, Dataset, Scale};
use maxwarp_serve::{Query, ResultData};
use maxwarp_simt::{Gpu, GpuConfig};
use std::time::Instant;

/// Virtual-warp widths of the sweep; index 0 is the baseline.
const WIDTHS: [u32; 6] = [0, 2, 4, 8, 16, 32];
use crate::batch::SOURCE_POOL;

fn method(k: u32) -> Method {
    if k == 0 {
        Method::Baseline
    } else {
        Method::warp(k)
    }
}

struct Family {
    g: Csr,
    digest: u64,
    src: u32,
}

struct Sweep {
    cfg: GpuConfig,
    exec: ExecConfig,
    fams: Vec<Family>,
    /// Levels of the op that ran last, for `verify`.
    last: Option<ResultData>,
    acc: SimAcc,
}

fn setup(seed: u64, tr: &mut Trace) -> Vec<Family> {
    let mut rng = SplitMix64::new(seed);
    Dataset::ALL
        .iter()
        .map(|d| {
            let g = tr.call("graph", "build", || d.build(Scale::Small));
            let digest = tr.call("graph", "digest", || csr_digest(&g));
            let src = top_degree(&g, SOURCE_POOL)[rng.below(SOURCE_POOL as u32) as usize];
            Family { g, digest, src }
        })
        .collect()
}

impl Batch for Sweep {
    fn ops(&self) -> usize {
        self.fams.len() * WIDTHS.len()
    }

    fn run(&mut self, i: usize, tr: &mut Trace) -> Result<OpOut, String> {
        let f = &self.fams[i / WIDTHS.len()];
        let m = method(WIDTHS[i % WIDTHS.len()]);
        let mut gpu = tr.call("simt", "gpu_new", || Gpu::new(self.cfg.clone()));
        let dg = tr.call("core", "upload", || DeviceGraph::upload(&mut gpu, &f.g));
        let t = Instant::now();
        let out = tr
            .call("core", "run_bfs", || {
                run_bfs(&mut gpu, &dg, f.src, m, &self.exec)
            })
            .map_err(|e| e.to_string())?;
        let host_ns = t.elapsed().as_nanos() as u64;
        self.acc.add(&out.run.stats, gpu.timing_total(), host_ns);
        let data = ResultData::U32s(out.levels);
        let op = OpOut {
            cycles: out.run.cycles(),
            instr: out.run.stats.instructions,
            digest: data.digest(),
        };
        self.last = Some(data);
        Ok(op)
    }

    fn acc(&mut self) -> &mut SimAcc {
        &mut self.acc
    }

    fn verify(&mut self, i: usize, tr: &mut Trace) -> bool {
        let f = &self.fams[i / WIDTHS.len()];
        let q = Query::Bfs { src: Some(f.src) };
        self.last
            .take()
            .is_some_and(|data| oracle::check(tr, &f.g, &[], &q, &data))
    }
}

/// Baseline cycles over the best virtual-warp cycles, per family.
fn speedups(first: &[OpOut]) -> Vec<f64> {
    first
        .chunks(WIDTHS.len())
        .map(|cells| {
            let best = cells[1..].iter().map(|c| c.cycles).min().unwrap_or(0);
            cells[0].cycles as f64 / best.max(1) as f64
        })
        .collect()
}

/// Drive each family's vw8 BFS level by level through `BfsState` +
/// `bfs_round`, timing every round. Returns the round times in ms and
/// whether the stepped runs reproduced `run_bfs` exactly.
fn step_rounds(sw: &Sweep, first: &[OpOut], tr: &mut Trace) -> (Vec<f64>, bool) {
    let vw8 = WIDTHS.iter().position(|&k| k == 8).expect("vw8 is swept");
    let mut round_ms = Vec::new();
    let mut same = true;
    for (fi, f) in sw.fams.iter().enumerate() {
        let mut gpu = Gpu::new(sw.cfg.clone());
        let dg = DeviceGraph::upload(&mut gpu, &f.g);
        let st = BfsState::new(&mut gpu, &dg, f.src);
        let mut run = AlgoRun::default();
        let mut cur = 0;
        loop {
            let t = Instant::now();
            let more = tr.call("core", "bfs_round", || {
                bfs_round(&mut gpu, &dg, &st, cur, method(8), &sw.exec, &mut run)
            });
            round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match more {
                Ok(true) => cur += 1,
                Ok(false) => break,
                Err(e) => {
                    eprintln!("bfs_round failed: {e}");
                    same = false;
                    break;
                }
            }
        }
        let want = &first[fi * WIDTHS.len() + vw8];
        let levels = ResultData::U32s(gpu.mem.download(st.levels));
        same &= run.cycles() == want.cycles
            && run.stats.instructions == want.instr
            && levels.digest() == want.digest;
    }
    (round_ms, same)
}

pub fn run(args: &Args) -> Report {
    let mut tr = Trace::new(args.trace);
    let (fams, setup_s) = report::repeat_setup(&mut tr, |tr| setup(args.seed, tr));
    let mut sw = Sweep {
        cfg: report::gpu_config(),
        exec: report::exec_config(),
        fams,
        last: None,
        acc: SimAcc::default(),
    };
    let config = vec![
        ("gpu", report::gpu_config_json(&sw.cfg)),
        ("scale", json_str("Small")),
        ("ops_per_pass", sw.ops().to_string()),
        (
            "sources",
            report::list_json(&sw.fams.iter().map(|f| f.src as f64).collect::<Vec<_>>()),
        ),
        (
            "graph_digests",
            format!(
                "[{}]",
                sw.fams
                    .iter()
                    .map(|f| json_str(&format!("{:016x}", f.digest)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("setup_s_samples", report::list_json(&setup_s)),
    ];

    if !args.trace {
        return measure(&mut sw, tr, args.seconds, &setup_s, config, 0);
    }

    let pair = traced_pair(&mut sw, &mut tr);
    let traced = &pair.traced;
    let mut failed = pair.failed;
    let (round_ms, stepped_same) = step_rounds(&sw, &traced.first, &mut tr);
    if !stepped_same {
        eprintln!("round-stepped BFS differs from run_bfs");
        failed += 1;
    }

    let mut m = pair.metrics(&tr);
    m.set(
        "graph.build_s",
        tr.total_ms("build") / 1e3 / report::SETUP_REPS as f64,
    );
    m.set(
        "graph.digest_ms",
        tr.total_ms("digest") / report::SETUP_REPS as f64,
    );
    m.set(
        "graph.edges",
        sw.fams.iter().map(|f| f.g.num_edges()).sum::<u64>() as f64,
    );
    m.set("simt.gpu_new_us", quantile(&tr.ms_of("gpu_new"), 0.5) * 1e3);
    m.set(
        "simt.empty_launch_us",
        probes::empty_launch_us(&sw.cfg, &sw.exec),
    );
    m.set("core.upload_ms", quantile(&tr.ms_of("upload"), 0.5));
    m.set("core.run_ms.bfs", quantile(&tr.ms_of("run_bfs"), 0.5));
    m.set("core.cycles.bfs", traced.cycles_per_pass() as f64);
    m.set("core.rounds", round_ms.len() as f64);
    m.set("core.round_ms_p50", quantile(&round_ms, 0.5));
    m.set("core.round_ms_p90", quantile(&round_ms, 0.9));
    let sp = speedups(&traced.first);
    let op_ms = &traced.op_ms;
    for (fi, name) in FAMILIES.iter().enumerate() {
        let cells = &op_ms[fi * WIDTHS.len()..(fi + 1) * WIDTHS.len()];
        m.set(&format!("core.family_ms.{name}"), cells.iter().sum());
        m.set(&format!("core.speedup.{name}"), sp[fi]);
    }
    m.set("core.vw_speedup_geomean", geomean(&sp));
    Report {
        attempted: pair.attempted(),
        failed,
        metrics: m,
        config,
        trace: tr,
    }
}
