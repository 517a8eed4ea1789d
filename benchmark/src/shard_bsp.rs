//! `shard_bsp`: Medium RMAT cut in blocks over 4 shard devices, default
//! interconnect, BFS / SSSP / PageRank / CC at vw8 through the BSP executor.
//! The only workload where `shard` does work; it carries the modelled
//! scaling efficiency T1 / (N x TN).

use crate::batch::{measure, traced_pair, Batch, OpOut};
use crate::oracle::{self, DAMPING};
use crate::report::{self, Args, Report};
use crate::rmat_large::{run_algo, Inputs, PR_ITERS};
use crate::sim::SimAcc;
use crate::spec::ALGOS;
use crate::trace::Trace;
use crate::util::json_obj;
use maxwarp::{geomean, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::Csr;
use maxwarp_serve::ResultData;
use maxwarp_shard::{
    run_bfs_sharded, run_cc_sharded, run_pagerank_sharded, run_sssp_sharded, CutStrategy,
    LinkConfig, MultiDevice, Partition, PartitionSpec, ShardDevice, ShardedRun,
};
use maxwarp_simt::{DeviceMem, Gpu, GpuConfig, TimingReport};
use std::time::Instant;

const SHARDS: u32 = 4;

fn method() -> Method {
    Method::warp(8)
}

fn link() -> LinkConfig {
    LinkConfig {
        bytes_per_cycle: 16,
        latency_cycles: 600,
        devices_per_link: 2,
    }
}

/// A partition uploaded across its shard devices once; every op runs on a
/// fleet cloned from these images, as the serve tier does per request, so
/// allocation offsets — and with them cycle counts — repeat exactly.
struct FleetImage {
    part: Partition,
    mems: Vec<DeviceMem>,
    dgs: Vec<DeviceGraph>,
}

impl FleetImage {
    fn build(
        cfg: &GpuConfig,
        g: &Csr,
        weights: Option<&[u32]>,
        shards: u32,
        tr: &mut Trace,
    ) -> FleetImage {
        let spec = PartitionSpec {
            shards,
            cut: CutStrategy::Block,
        };
        let part = tr.call("shard", "partition", || Partition::new(g, weights, &spec));
        let md = tr.call("shard", "fleet_upload", || MultiDevice::upload(cfg, part));
        let MultiDevice { part, devices } = md;
        let (mems, dgs) = devices.into_iter().map(|d| (d.gpu.mem, d.dg)).unzip();
        FleetImage { part, mems, dgs }
    }

    fn fleet(&self, cfg: &GpuConfig) -> MultiDevice {
        let devices = self
            .mems
            .iter()
            .zip(&self.dgs)
            .map(|(mem, dg)| {
                let mut gpu = Gpu::new(cfg.clone());
                gpu.mem = mem.clone();
                ShardDevice { gpu, dg: *dg }
            })
            .collect();
        MultiDevice {
            part: self.part.clone(),
            devices,
        }
    }
}

/// The two partitions a pass needs: the weighted directed graph, and the
/// symmetrized graph CC runs on.
struct Images {
    directed: FleetImage,
    sym: FleetImage,
}

impl Images {
    fn build(cfg: &GpuConfig, inp: &Inputs, shards: u32, tr: &mut Trace) -> Images {
        Images {
            directed: FleetImage::build(cfg, &inp.g, Some(&inp.weights), shards, tr),
            sym: FleetImage::build(cfg, &inp.sym, None, shards, tr),
        }
    }

    fn of(&self, algo: &str) -> &FleetImage {
        if algo == "cc" {
            &self.sym
        } else {
            &self.directed
        }
    }
}

/// One sharded run of `algo`; returns the payload, the run record and the
/// summed timing detail of every device.
fn run_sharded(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    images: &Images,
    src: u32,
    algo: &str,
    tr: &mut Trace,
) -> Result<(ResultData, ShardedRun, TimingReport), String> {
    let mut md = tr.call("shard", "fleet_clone", || images.of(algo).fleet(cfg));
    let (m, l) = (method(), link());
    let out = match algo {
        "bfs" => tr
            .call("shard", "run_bfs_sharded", || {
                run_bfs_sharded(&mut md, src, m, exec, &l, None)
            })
            .map(|o| (ResultData::U32s(o.values), o.run)),
        "sssp" => tr
            .call("shard", "run_sssp_sharded", || {
                run_sssp_sharded(&mut md, src, m, exec, &l, None)
            })
            .map(|o| (ResultData::U32s(o.values), o.run)),
        "pagerank" => tr
            .call("shard", "run_pagerank_sharded", || {
                run_pagerank_sharded(&mut md, PR_ITERS, DAMPING, m, exec, &l, None)
            })
            .map(|o| (ResultData::F32s(o.values), o.run)),
        _ => tr
            .call("shard", "run_cc_sharded", || {
                run_cc_sharded(&mut md, m, exec, &l, None)
            })
            .map(|o| (ResultData::U32s(o.values), o.run)),
    };
    let (data, run) = out.map_err(|e| e.to_string())?;
    let mut timing = TimingReport::default();
    for d in &md.devices {
        timing.accumulate(d.gpu.timing_total());
    }
    Ok((data, run, timing))
}

/// A single-device run: the payload every sharded run must reproduce byte
/// for byte, and the T1 of the efficiency figures.
struct Single {
    data: ResultData,
    cycles: u64,
    host_ms: f64,
}

/// Run the four algorithms on one device and check each against its oracle.
/// Returns the runs and how many disagreed.
fn single_device(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    inp: &Inputs,
    tr: &mut Trace,
) -> (Vec<Single>, u64) {
    let mut gpu = Gpu::new(cfg.clone());
    let dg = DeviceGraph::upload_weighted(&mut gpu, &inp.g, &inp.weights);
    let dg_sym = DeviceGraph::upload(&mut gpu, &inp.sym);
    let image = std::mem::take(&mut gpu.mem);
    let mut wrong = 0;
    let runs = ALGOS
        .iter()
        .map(|algo| {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.mem = image.clone();
            let t = Instant::now();
            let out = tr.call("core", crate::rmat_large::span_name(algo), || {
                run_algo(&mut gpu, &dg, &dg_sym, inp.src, algo, method(), exec)
            });
            let host_ms = t.elapsed().as_secs_f64() * 1e3;
            let (query, g) = inp.query(algo);
            match out {
                Ok((data, run)) => {
                    if !oracle::check(tr, g, &inp.weights, &query, &data) {
                        eprintln!("single-device {algo} differs from its oracle");
                        wrong += 1;
                    }
                    Single {
                        data,
                        cycles: run.cycles(),
                        host_ms,
                    }
                }
                Err(e) => {
                    eprintln!("single-device {algo} failed: {e}");
                    wrong += 1;
                    Single {
                        data: ResultData::Count(0),
                        cycles: 0,
                        host_ms,
                    }
                }
            }
        })
        .collect();
    (runs, wrong)
}

struct Bsp {
    cfg: GpuConfig,
    exec: ExecConfig,
    inp: Inputs,
    images: Images,
    single: Vec<Single>,
    last: Option<ResultData>,
    /// The latest run record of each op, for the model counts.
    runs: Vec<Option<ShardedRun>>,
    acc: SimAcc,
}

impl Batch for Bsp {
    fn ops(&self) -> usize {
        ALGOS.len()
    }

    fn run(&mut self, i: usize, tr: &mut Trace) -> Result<OpOut, String> {
        let t = Instant::now();
        let (data, run, timing) = run_sharded(
            &self.cfg,
            &self.exec,
            &self.images,
            self.inp.src,
            ALGOS[i],
            tr,
        )?;
        self.acc
            .add(&run.run.stats, &timing, t.elapsed().as_nanos() as u64);
        let out = OpOut {
            cycles: run.makespan_cycles(),
            instr: run.run.stats.instructions,
            digest: data.digest(),
        };
        self.last = Some(data);
        self.runs[i] = Some(run);
        Ok(out)
    }

    fn acc(&mut self) -> &mut SimAcc {
        &mut self.acc
    }

    /// Byte-identity with the single-device run, which was itself checked
    /// against the sequential reference.
    fn verify(&mut self, i: usize, _tr: &mut Trace) -> bool {
        self.last.take().is_some_and(|d| d == self.single[i].data)
    }
}

/// Geomean over the algorithms of T1 / (N x TN).
fn efficiency(single: &[Single], makespans: &[u64], shards: u32) -> f64 {
    let e: Vec<f64> = single
        .iter()
        .zip(makespans)
        .map(|(s, &tn)| s.cycles as f64 / (shards as f64 * tn.max(1) as f64))
        .collect();
    geomean(&e)
}

pub fn run(args: &Args) -> Report {
    let mut tr = Trace::new(args.trace);
    let cfg = report::gpu_config();
    let exec = report::exec_config();
    let ((inp, images), setup_s) = report::repeat_setup(&mut tr, |tr| {
        let inp = Inputs::build(args.seed, tr);
        let images = Images::build(&cfg, &inp, SHARDS, tr);
        (inp, images)
    });
    let mut config = inp.config();
    let l = link();
    config.push(("gpu", report::gpu_config_json(&cfg)));
    config.push(("shards", SHARDS.to_string()));
    config.push(("cut", "\"block\"".to_string()));
    config.push((
        "link",
        json_obj(&[
            ("bytes_per_cycle", l.bytes_per_cycle.to_string()),
            ("latency_cycles", l.latency_cycles.to_string()),
            ("devices_per_link", l.devices_per_link.to_string()),
        ]),
    ));
    config.push(("ops_per_pass", ALGOS.len().to_string()));
    config.push(("setup_s_samples", report::list_json(&setup_s)));

    let (single, wrong) = single_device(&cfg, &exec, &inp, &mut tr);
    let mut bsp = Bsp {
        cfg,
        exec,
        inp,
        images,
        single,
        last: None,
        runs: vec![None; ALGOS.len()],
        acc: SimAcc::default(),
    };

    if !args.trace {
        return measure(&mut bsp, tr, args.seconds, &setup_s, config, wrong);
    }

    let pair = traced_pair(&mut bsp, &mut tr);
    let traced = &pair.traced;
    let mut failed = pair.failed + wrong;

    let mut m = pair.metrics(&tr);
    bsp.inp.report(&tr, &mut m);
    let reps = report::SETUP_REPS as f64;
    m.set("shard.partition_ms", tr.total_ms("partition") / reps);
    m.set("shard.upload_ms", tr.total_ms("fleet_upload") / reps);
    let makespans: Vec<u64> = traced.first.iter().map(|o| o.cycles).collect();
    let mut sums = [0u64; 5];
    for (i, algo) in ALGOS.iter().enumerate() {
        m.set(&format!("shard.run_ms.{algo}"), traced.op_ms[i]);
        m.set(
            &format!("shard.makespan_cycles.{algo}"),
            makespans[i] as f64,
        );
        m.set(&format!("core.run_ms.{algo}"), bsp.single[i].host_ms);
        m.set(&format!("core.cycles.{algo}"), bsp.single[i].cycles as f64);
        if let Some(r) = &bsp.runs[i] {
            sums[0] += r.compute_cycles();
            sums[1] += r.comm_cycles();
            sums[2] += r.stall_cycles();
            sums[3] += r.halo_bytes();
            sums[4] += r.bsp_rounds() as u64;
        }
    }
    m.set("shard.compute_cycles", sums[0] as f64);
    m.set("shard.comm_cycles", sums[1] as f64);
    m.set("shard.stall_cycles", sums[2] as f64);
    m.set("shard.halo_bytes", sums[3] as f64);
    m.set("shard.bsp_rounds", sums[4] as f64);
    let parts = [&bsp.images.directed.part, &bsp.images.sym.part];
    m.set(
        "shard.cut_edges",
        parts.iter().map(|p| p.cut_edges()).sum::<u64>() as f64,
    );
    m.set(
        "shard.ghost_slots",
        parts.iter().map(|p| p.ghost_slots()).sum::<u64>() as f64,
    );
    m.set(
        "shard.host_speedup",
        bsp.single.iter().map(|s| s.host_ms).sum::<f64>() / traced.op_ms.iter().sum::<f64>(),
    );
    m.set(
        "shard.efficiency_n4",
        efficiency(&bsp.single, &makespans, SHARDS),
    );

    // One extra pass at N = 2, for the second point of the scaling curve.
    let mut off = Trace::new(false);
    let two = Images::build(&bsp.cfg, &bsp.inp, 2, &mut off);
    let mut makespans2 = Vec::new();
    for (i, algo) in ALGOS.iter().enumerate() {
        match run_sharded(&bsp.cfg, &bsp.exec, &two, bsp.inp.src, algo, &mut off) {
            Ok((data, run, _)) if data == bsp.single[i].data => {
                makespans2.push(run.makespan_cycles())
            }
            _ => {
                eprintln!("N=2 {algo} failed or differs from the single-device run");
                failed += 1;
                makespans2.push(0);
            }
        }
    }
    m.set(
        "shard.efficiency_n2",
        efficiency(&bsp.single, &makespans2, 2),
    );
    Report {
        attempted: pair.attempted() + ALGOS.len() as u64,
        failed,
        metrics: m,
        config,
        trace: tr,
    }
}
