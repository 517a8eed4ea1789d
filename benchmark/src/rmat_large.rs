//! `rmat_large`: Medium RMAT, uploaded once in set-up; BFS at the baseline
//! and BFS / SSSP / PageRank / CC at vw8, each on a device whose memory is a
//! clone of the set-up image. Few long launches over a big footprint: the
//! per-instruction use of `simt` and `core`.

use crate::batch::{measure, top_degree, traced_pair, Batch, OpOut, SOURCE_POOL};
use crate::oracle::{self, DAMPING};
use crate::probes;
use crate::report::{self, Args, Report};
use crate::sim::SimAcc;
use crate::spec::{Values, ALGOS};
use crate::trace::Trace;
use crate::util::{json_str, quantile, SplitMix64};
use maxwarp::{run_bfs, run_cc, run_pagerank, run_sssp, AlgoRun, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{csr_digest, random_weights, Csr, Dataset, Scale};
use maxwarp_serve::{Query, ResultData};
use maxwarp_simt::{DeviceMem, Gpu, GpuConfig};
use std::time::Instant;

pub const PR_ITERS: u32 = 5;
pub const MAX_WEIGHT: u32 = 31;
/// Weights are one fixed draw, as the serve tier's digest-seeded weights are:
/// Bellman-Ford's round count moves in whole rounds with the weights, and
/// one round is 4 % of a pass — more than a regression bound can absorb.
const WEIGHT_SEED: u64 = 0xd1ce;

/// Medium RMAT with fixed weights and a seeded source, plus the symmetrized copy
/// CC runs on (label propagation along out-edges finds components only on
/// a symmetric graph). Shared with `shard_bsp`.
pub struct Inputs {
    pub g: Csr,
    pub sym: Csr,
    pub weights: Vec<u32>,
    pub src: u32,
    pub digest: u64,
}

impl Inputs {
    pub fn build(seed: u64, tr: &mut Trace) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let g = tr.call("graph", "build", || Dataset::Rmat.build(Scale::Medium));
        let sym = tr.call("graph", "build", || g.symmetrize());
        let weights = tr.call("graph", "weights", || {
            random_weights(&g, MAX_WEIGHT, WEIGHT_SEED)
        });
        let digest = tr.call("graph", "digest", || csr_digest(&g));
        let src = top_degree(&g, SOURCE_POOL)[rng.below(SOURCE_POOL as u32) as usize];
        Inputs {
            g,
            sym,
            weights,
            src,
            digest,
        }
    }

    /// The query op `algo` answers, and the graph it runs on.
    pub fn query(&self, algo: &str) -> (Query, &Csr) {
        match algo {
            "bfs" => (
                Query::Bfs {
                    src: Some(self.src),
                },
                &self.g,
            ),
            "sssp" => (
                Query::Sssp {
                    src: Some(self.src),
                },
                &self.g,
            ),
            "pagerank" => (
                Query::Pagerank {
                    iters: PR_ITERS,
                    damping: DAMPING,
                },
                &self.g,
            ),
            _ => (Query::Cc, &self.sym),
        }
    }

    /// The `graph.*` metrics of the traced set-ups (mean of the repeats).
    pub fn report(&self, tr: &Trace, m: &mut Values) {
        let reps = report::SETUP_REPS as f64;
        m.set("graph.build_s", tr.total_ms("build") / 1e3 / reps);
        m.set("graph.weights_s", tr.total_ms("weights") / 1e3 / reps);
        m.set("graph.digest_ms", tr.total_ms("digest") / reps);
        m.set(
            "graph.edges",
            (self.g.num_edges() + self.sym.num_edges()) as f64,
        );
    }

    pub fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale", json_str("Medium")),
            ("vertices", self.g.num_vertices().to_string()),
            ("edges", self.g.num_edges().to_string()),
            ("graph_digest", json_str(&format!("{:016x}", self.digest))),
            ("source", self.src.to_string()),
            ("pagerank_iters", PR_ITERS.to_string()),
            ("max_weight", MAX_WEIGHT.to_string()),
        ]
    }
}

/// Run `algo` on `dg` (or `dg_sym` for CC) with `method`.
pub fn run_algo(
    gpu: &mut Gpu,
    dg: &DeviceGraph,
    dg_sym: &DeviceGraph,
    src: u32,
    algo: &str,
    method: Method,
    exec: &ExecConfig,
) -> Result<(ResultData, AlgoRun), String> {
    let out = match algo {
        "bfs" => run_bfs(gpu, dg, src, method, exec).map(|o| (ResultData::U32s(o.levels), o.run)),
        "sssp" => run_sssp(gpu, dg, src, method, exec).map(|o| (ResultData::U32s(o.dist), o.run)),
        "pagerank" => run_pagerank(gpu, dg, PR_ITERS, DAMPING, method, exec)
            .map(|o| (ResultData::F32s(o.ranks), o.run)),
        _ => run_cc(gpu, dg_sym, method, exec).map(|o| (ResultData::U32s(o.labels), o.run)),
    };
    out.map_err(|e| e.to_string())
}

/// `(algorithm, method)` of each op, in pass order.
const OPS: [(&str, Option<u32>); 5] = [
    ("bfs", None),
    ("bfs", Some(8)),
    ("sssp", Some(8)),
    ("pagerank", Some(8)),
    ("cc", Some(8)),
];

struct Large {
    cfg: GpuConfig,
    exec: ExecConfig,
    inp: Inputs,
    /// Device image after the uploads; every op runs on a clone.
    image: DeviceMem,
    dg: DeviceGraph,
    dg_sym: DeviceGraph,
    last: Option<ResultData>,
    acc: SimAcc,
}

fn setup(
    seed: u64,
    cfg: &GpuConfig,
    tr: &mut Trace,
) -> (Inputs, DeviceMem, DeviceGraph, DeviceGraph) {
    let inp = Inputs::build(seed, tr);
    let mut gpu = Gpu::new(cfg.clone());
    let dg = tr.call("core", "upload", || {
        DeviceGraph::upload_weighted(&mut gpu, &inp.g, &inp.weights)
    });
    let dg_sym = tr.call("core", "upload", || DeviceGraph::upload(&mut gpu, &inp.sym));
    (inp, std::mem::take(&mut gpu.mem), dg, dg_sym)
}

impl Batch for Large {
    fn ops(&self) -> usize {
        OPS.len()
    }

    fn run(&mut self, i: usize, tr: &mut Trace) -> Result<OpOut, String> {
        let (algo, k) = OPS[i];
        let method = k.map_or(Method::Baseline, Method::warp);
        let mut gpu = tr.call("simt", "gpu_new", || Gpu::new(self.cfg.clone()));
        gpu.mem = tr.call("simt", "mem_clone", || self.image.clone());
        let t = Instant::now();
        let (data, run) = tr.call("core", span_name(algo), || {
            run_algo(
                &mut gpu,
                &self.dg,
                &self.dg_sym,
                self.inp.src,
                algo,
                method,
                &self.exec,
            )
        })?;
        self.acc.add(
            &run.stats,
            gpu.timing_total(),
            t.elapsed().as_nanos() as u64,
        );
        let out = OpOut {
            cycles: run.cycles(),
            instr: run.stats.instructions,
            digest: data.digest(),
        };
        self.last = Some(data);
        Ok(out)
    }

    fn acc(&mut self) -> &mut SimAcc {
        &mut self.acc
    }

    fn verify(&mut self, i: usize, tr: &mut Trace) -> bool {
        let (query, g) = self.inp.query(OPS[i].0);
        self.last
            .take()
            .is_some_and(|data| oracle::check(tr, g, &self.inp.weights, &query, &data))
    }
}

pub fn span_name(algo: &str) -> &'static str {
    match algo {
        "bfs" => "run_bfs",
        "sssp" => "run_sssp",
        "pagerank" => "run_pagerank",
        _ => "run_cc",
    }
}

pub fn run(args: &Args) -> Report {
    let mut tr = Trace::new(args.trace);
    let cfg = report::gpu_config();
    let ((inp, image, dg, dg_sym), setup_s) =
        report::repeat_setup(&mut tr, |tr| setup(args.seed, &cfg, tr));
    let mut config = inp.config();
    config.push(("gpu", report::gpu_config_json(&cfg)));
    config.push(("ops_per_pass", OPS.len().to_string()));
    config.push(("setup_s_samples", report::list_json(&setup_s)));
    let mut lg = Large {
        cfg,
        exec: report::exec_config(),
        inp,
        image,
        dg,
        dg_sym,
        last: None,
        acc: SimAcc::default(),
    };

    if !args.trace {
        return measure(&mut lg, tr, args.seconds, &setup_s, config, 0);
    }

    let pair = traced_pair(&mut lg, &mut tr);
    let traced = &pair.traced;
    let mut failed = pair.failed;
    if pair.acc.timing_cycles() != traced.cycles_per_pass() {
        eprintln!("timing detail does not sum to the ops' cycles");
        failed += 1;
    }

    let mut m = pair.metrics(&tr);
    lg.inp.report(&tr, &mut m);
    m.set("simt.gpu_new_us", quantile(&tr.ms_of("gpu_new"), 0.5) * 1e3);
    m.set("simt.mem_clone_ms", quantile(&tr.ms_of("mem_clone"), 0.5));
    m.set(
        "simt.timing_replay_minstr_per_s",
        probes::timing_replay_minstr_per_s(&lg.cfg, &lg.exec, args.seed),
    );
    m.set(
        "core.upload_ms",
        tr.total_ms("upload") / report::SETUP_REPS as f64,
    );
    for algo in ALGOS {
        // The vw8 op of each algorithm; the baseline BFS is op 0.
        let i = OPS
            .iter()
            .position(|&(a, k)| a == algo && k.is_some())
            .expect("every algorithm has a vw8 op");
        m.set(&format!("core.run_ms.{algo}"), traced.op_ms[i]);
        m.set(
            &format!("core.cycles.{algo}"),
            traced.first[i].cycles as f64,
        );
    }
    Report {
        attempted: pair.attempted(),
        failed,
        metrics: m,
        config,
        trace: tr,
    }
}
