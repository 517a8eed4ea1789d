//! `serve_cold` and `serve_hot`: an in-process `maxwarp_serve::Server` under
//! a closed loop — one generator thread keeps [`OUTSTANDING`] tickets in
//! flight and waits for them in submission order.
//!
//! Cold runs with the result cache off, so every request crosses admission,
//! queue, batch, template clone, launch and reply. Hot draws zipf(1.1) from
//! a 64-query working set filled in set-up, so every answer is a cache hit
//! and the simulator does nothing.

use crate::batch::OpOut;
use crate::oracle::{self, DAMPING};
use crate::probes;
use crate::report::{self, Args, Report};
use crate::sim::SimAcc;
use crate::spec::{Values, PER_LAYER};
use crate::trace::Trace;
use crate::util::{json_obj, json_str, median, quantile, SplitMix64};
use maxwarp::{DeviceGraph, ExecConfig};
use maxwarp_cpu::{fallback_run, FallbackParams};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_serve::{
    execute, Algo, DeviceTemplate, GraphEntry, GraphHandle, Query, Request, ResilienceConfig,
    Response, Server, ServerConfig, ServerSnapshot, Ticket, Tuner,
};
use maxwarp_shard::{CutStrategy, LinkConfig};
use maxwarp_simt::{Gpu, GpuConfig, TimingReport};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Hot,
}

const GRAPHS: [Dataset; 4] = [
    Dataset::Rmat,
    Dataset::Random,
    Dataset::LiveJournalLike,
    Dataset::WikiTalkLike,
];
/// Tickets the generator keeps in flight.
const OUTSTANDING: usize = 4;
/// Sources are drawn from this many highest-degree vertices of a graph.
const SOURCE_POOL: u32 = 64;
const COLD_PR_ITERS: u32 = 3;
const WORKING_SET: usize = 64;
const ZIPF_EXPONENT: f64 = 1.1;
const HOT_CACHE_CAPACITY: usize = 256;
/// One response in this many is compared with a direct `serve::execute`
/// (cold) or byte for byte with its fill (hot); the draw is seeded.
const SAMPLE_ONE_IN: u64 = 16;
/// Requests of one block of the traced runs.
const COLD_TRACED_REQUESTS: u64 = 160;
const HOT_TRACED_REQUESTS: u64 = 20_000;
/// Alternating obs-off / obs-on blocks of the hot traced run, and the
/// requests of each block.
const OBS_PAIRS: usize = 5;
const OBS_BLOCK_REQUESTS: u64 = 50_000;

/// Every field spelled out, no environment read, nothing persisted.
fn server_config(gpu: &GpuConfig, exec: &ExecConfig, cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 64,
        batch_max: 8,
        gpu: gpu.clone(),
        exec: *exec,
        cache_capacity,
        tuning_path: None,
        tuner_sample: 4096,
        method_pin: None,
        paused: false,
        default_deadline: None,
        obs: true,
        trace: false,
        resilience: ResilienceConfig::default(),
        warmup_path: None,
        chaos: None,
        shards: 1,
        cut: CutStrategy::Block,
        link: LinkConfig::default(),
    }
}

fn server_config_json(c: &ServerConfig) -> String {
    json_obj(&[
        ("workers", c.workers.to_string()),
        ("queue_capacity", c.queue_capacity.to_string()),
        ("batch_max", c.batch_max.to_string()),
        ("cache_capacity", c.cache_capacity.to_string()),
        ("tuning_path", "null".to_string()),
        ("tuner_sample", c.tuner_sample.to_string()),
        ("method_pin", "null".to_string()),
        ("obs", c.obs.to_string()),
        ("trace", c.trace.to_string()),
        ("resilience", json_str("default")),
        ("warmup_path", "null".to_string()),
        ("shards", c.shards.to_string()),
    ])
}

/// A request as the generator made it: which graph, which query, and for
/// hot the working-set slot it came from.
#[derive(Clone)]
struct Planned {
    graph: usize,
    query: Query,
    slot: usize,
}

struct Served {
    server: Server,
    handles: Vec<GraphHandle>,
    entries: Vec<Arc<GraphEntry>>,
    /// Hot only: the working set in zipf rank order, and each query's cold
    /// answer from the fill.
    set: Vec<Planned>,
    fills: Vec<Response>,
}

fn query_of(algo: usize, entry: &GraphEntry, rank: u32, iters: u32) -> Query {
    let src = Some(entry.by_degree[rank as usize % entry.by_degree.len()]);
    match algo {
        0 => Query::Bfs { src },
        1 => Query::Sssp { src },
        2 => Query::Pagerank {
            iters,
            damping: DAMPING,
        },
        _ => Query::Cc,
    }
}

/// Start the server, build and register the four graphs, and pay template
/// builds and tuner probes here: cold issues one request per (graph,
/// algorithm), hot fills its working set, which holds every pair.
/// Everything a client waits for before its first timed request.
fn setup(mode: Mode, seed: u64, cfg: &ServerConfig, tr: &mut Trace) -> Result<Served, String> {
    let server = tr.call("serve", "start", || Server::start(cfg.clone()));
    let mut handles = Vec::new();
    let mut entries = Vec::new();
    for d in GRAPHS {
        let g = tr.call("graph", "build", || d.build(Scale::Small));
        let h = tr.call("serve", "register_graph", || {
            server.register_graph(d.name(), g)
        });
        entries.push(server.graph(h).ok_or("registered graph is missing")?);
        handles.push(h);
    }
    let mut served = Served {
        server,
        handles,
        entries,
        set: Vec::new(),
        fills: Vec::new(),
    };
    if mode == Mode::Cold {
        tr.open("bench", "warmup");
        for gi in 0..GRAPHS.len() {
            for algo in 0..4 {
                let q = query_of(algo, &served.entries[gi], 0, COLD_PR_ITERS);
                let req = Request::new(served.handles[gi], q);
                tr.call("serve", "call", || served.server.call(req))
                    .map_err(|e| format!("warm-up request failed: {e:?}"))?;
            }
        }
        tr.close();
    } else {
        served.set = working_set(seed, &served.entries);
        tr.open("bench", "fill");
        let plan = served.set.clone();
        let mut fills = Vec::with_capacity(plan.len());
        let mut next = 0;
        let mut err = None;
        drive(
            &served,
            tr,
            |_| {
                let p = plan.get(next).cloned();
                next += 1;
                p
            },
            |done| match done.result {
                Ok(r) if !r.cached => fills.push(r),
                Ok(_) => err = Some("a fill was answered from the cache".to_string()),
                Err(e) => err = Some(format!("fill failed: {e:?}")),
            },
        );
        tr.close();
        if let Some(e) = err {
            return Err(e);
        }
        served.fills = fills;
    }
    Ok(served)
}

/// 16 queries a graph — 6 BFS and 6 SSSP sources drawn by the seed,
/// PageRank at 2/3/4 iterations, CC. Zipf rank order is fixed and goes round
/// the graphs and query kinds, so the seed moves which vertices are asked
/// about but not how the traffic splits over payload sizes and algorithms.
fn working_set(seed: u64, entries: &[Arc<GraphEntry>]) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7);
    let per_graph: Vec<Vec<Query>> = entries
        .iter()
        .map(|entry| {
            let mut ranks: Vec<u32> = (0..SOURCE_POOL).collect();
            shuffle(&mut rng, &mut ranks);
            let mut qs: Vec<Query> = ranks
                .iter()
                .take(12)
                .enumerate()
                .map(|(i, &rank)| query_of(i % 2, entry, rank, 0))
                .collect();
            for (at, iters) in [(2, 2), (7, 3), (12, 4)] {
                qs.insert(at, query_of(2, entry, 0, iters));
            }
            qs.insert(5, Query::Cc);
            qs
        })
        .collect();
    (0..WORKING_SET)
        .map(|slot| {
            let graph = slot % entries.len();
            Planned {
                graph,
                query: per_graph[graph][slot / entries.len()].clone(),
                slot,
            }
        })
        .collect()
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

/// The seeded request stream of a run.
struct Stream {
    rng: SplitMix64,
    mode: Mode,
    issued: u64,
    /// Hot: cumulative zipf weights over the working-set ranks.
    cdf: Vec<f64>,
}

impl Stream {
    fn new(mode: Mode, seed: u64) -> Stream {
        let weights: Vec<f64> = (0..WORKING_SET)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream {
            rng: SplitMix64::new(seed),
            mode,
            issued: 0,
            cdf,
        }
    }

    fn next(&mut self, served: &Served) -> Planned {
        let k = self.issued;
        self.issued += 1;
        match self.mode {
            Mode::Cold => {
                // Round-robin over the graphs, the algorithm advancing once
                // a round, so any 16 consecutive requests hold every pair.
                let graph = (k % 4) as usize;
                let algo = ((k / 4) % 4) as usize;
                let rank = self.rng.below(SOURCE_POOL);
                Planned {
                    graph,
                    query: query_of(algo, &served.entries[graph], rank, COLD_PR_ITERS),
                    slot: 0,
                }
            }
            Mode::Hot => {
                let u = self.rng.unit();
                let slot = self.cdf.partition_point(|&c| c < u).min(WORKING_SET - 1);
                served.set[slot].clone()
            }
        }
    }
}

struct Done {
    index: u64,
    plan: Planned,
    /// Submit call to `Ticket::wait` returning, as the client sees it.
    latency_ns: u64,
    result: Result<Response, String>,
}

/// The closed loop: submit while fewer than [`OUTSTANDING`] tickets are in
/// flight and `next` still yields, then wait for the oldest. Returns the
/// seconds from the first submit to the last answer.
fn drive(
    served: &Served,
    tr: &mut Trace,
    mut next: impl FnMut(f64) -> Option<Planned>,
    mut sink: impl FnMut(Done),
) -> f64 {
    struct Flight {
        index: u64,
        plan: Planned,
        start: Instant,
        submit_ns: (u64, u64),
        ticket: Ticket,
    }
    let mut flights: VecDeque<Flight> = VecDeque::with_capacity(OUTSTANDING);
    let begin = Instant::now();
    let mut index = 0;
    let mut open = true;
    loop {
        while open && flights.len() < OUTSTANDING {
            let Some(plan) = next(begin.elapsed().as_secs_f64()) else {
                open = false;
                break;
            };
            let req = Request::new(served.handles[plan.graph], plan.query.clone());
            let s0 = tr.now_ns();
            let start = Instant::now();
            match served.server.submit(req) {
                Ok(ticket) => flights.push_back(Flight {
                    index,
                    plan,
                    start,
                    submit_ns: (s0, tr.now_ns()),
                    ticket,
                }),
                Err(e) => sink(Done {
                    index,
                    plan,
                    latency_ns: start.elapsed().as_nanos() as u64,
                    result: Err(format!("{e:?}")),
                }),
            }
            index += 1;
        }
        let Some(f) = flights.pop_front() else {
            break;
        };
        let w0 = tr.now_ns();
        let result = f.ticket.wait().map_err(|e| format!("{e:?}"));
        let latency_ns = f.start.elapsed().as_nanos() as u64;
        if tr.on() {
            let w1 = tr.now_ns();
            tr.set_op(f.index as u32);
            let op = tr.record("bench", "op", f.submit_ns.0, w1, None);
            tr.record("serve", "submit", f.submit_ns.0, f.submit_ns.1, op);
            tr.record("serve", "wait", w0, w1, op);
        }
        sink(Done {
            index: f.index,
            plan: f.plan,
            latency_ns,
            result,
        });
    }
    begin.elapsed().as_secs_f64()
}

/// What a measured block leaves behind.
#[derive(Default)]
struct Block {
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    latency_ms: Vec<f64>,
    sim_cycles: u64,
    answered: u64,
    /// Traced blocks only: per-response scheduler figures in ms, and the
    /// exact outcome of every request for the pure-observer guard.
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    outcomes: Vec<OpOut>,
    acc: SimAcc,
    /// Cold only: every answer, kept for the oracles after the clock stops.
    answers: Vec<(Planned, Response)>,
}

enum Limit {
    Seconds(f64),
    Requests(u64),
}

/// Run one block of the seeded stream and check what can be checked
/// without stopping the generator; the oracles run afterwards.
fn run_block(
    mode: Mode,
    served: &Served,
    seed: u64,
    limit: Limit,
    detail: bool,
    tr: &mut Trace,
) -> Block {
    let mut stream = Stream::new(mode, seed);
    let mut sampler = SplitMix64::new(seed ^ 0xa11ce);
    let mut b = Block::default();
    let elapsed = drive(
        served,
        tr,
        |elapsed| {
            let more = match limit {
                Limit::Seconds(s) => elapsed < s,
                Limit::Requests(n) => stream.issued < n,
            };
            more.then(|| stream.next(served))
        },
        |done| {
            b.attempted += 1;
            b.latency_ms.push(done.latency_ns as f64 / 1e6);
            let resp = match done.result {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("request {} failed: {e}", done.index);
                    b.failed += 1;
                    return;
                }
            };
            b.answered += 1;
            b.sim_cycles += resp.stats.cycles;
            let sampled = sampler.next_u64().is_multiple_of(SAMPLE_ONE_IN);
            let ok = match mode {
                Mode::Cold => !resp.cached && !resp.degraded,
                Mode::Hot => {
                    let fill = &served.fills[done.plan.slot];
                    resp.cached
                        && !resp.degraded
                        && resp.stats.cycles == fill.stats.cycles
                        && resp.stats.instructions == fill.stats.instructions
                        && resp.iterations == fill.iterations
                        && (!sampled || (resp.data == fill.data && resp.stats == fill.stats))
                }
            };
            if !ok {
                eprintln!("request {}: not the answer its route must give", done.index);
                b.failed += 1;
            }
            if detail {
                b.queue_wait_ms.push(resp.queue_wait.as_secs_f64() * 1e3);
                b.service_ms.push(resp.service.as_secs_f64() * 1e3);
                b.batch_sizes.push(resp.batch_size as f64);
                b.outcomes.push(OpOut {
                    cycles: resp.stats.cycles,
                    instr: resp.stats.instructions,
                    digest: if mode == Mode::Cold {
                        resp.data.digest()
                    } else {
                        0
                    },
                });
                b.acc.add(
                    &resp.stats,
                    &TimingReport::default(),
                    resp.service.as_nanos() as u64,
                );
            }
            if mode == Mode::Cold {
                b.answers.push((done.plan, resp));
            }
        },
    );
    b.elapsed_s = elapsed;
    b
}

/// Device images and templates for calling `serve::execute` directly.
struct Direct {
    gpu: GpuConfig,
    exec: ExecConfig,
    templates: Vec<DeviceTemplate>,
    execute_ms: Vec<f64>,
}

impl Direct {
    fn new(served: &Served, cfg: &ServerConfig, tr: &mut Trace) -> Direct {
        let templates = served
            .entries
            .iter()
            .map(|e| {
                tr.call("serve", "template_build", || {
                    DeviceTemplate::build(&cfg.gpu, e, false)
                })
            })
            .collect();
        Direct {
            gpu: cfg.gpu.clone(),
            exec: cfg.exec,
            templates,
            execute_ms: Vec::new(),
        }
    }

    /// True when `resp` equals a direct execution of the same query with the
    /// method the server chose: payload and `KernelStats`.
    fn matches(
        &mut self,
        served: &Served,
        plan: &Planned,
        resp: &Response,
        tr: &mut Trace,
    ) -> bool {
        let entry = &served.entries[plan.graph];
        let t = Instant::now();
        let out = tr.call("serve", "execute", || {
            execute(
                &self.gpu,
                &self.exec,
                entry,
                &self.templates[plan.graph],
                &plan.query,
                resp.method,
                None,
            )
        });
        self.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        matches!(out, Ok((data, run)) if data == resp.data && run.stats == resp.stats)
    }
}

/// Cold oracles, after the clock stops: every answer against the
/// sequential reference, and a seeded 1-in-16 sample against a direct
/// `serve::execute`. Returns the number that disagreed.
fn check_cold(
    served: &Served,
    direct: &mut Direct,
    seed: u64,
    answers: &[(Planned, Response)],
    tr: &mut Trace,
) -> u64 {
    let mut sampler = SplitMix64::new(seed ^ 0x0dd);
    let mut wrong = 0;
    for (plan, resp) in answers {
        let entry = &served.entries[plan.graph];
        let mut ok = oracle::check(tr, &entry.csr, &entry.weights, &plan.query, &resp.data);
        if sampler.next_u64().is_multiple_of(SAMPLE_ONE_IN) {
            ok &= direct.matches(served, plan, resp, tr);
        }
        if !ok {
            eprintln!(
                "cold answer to {:?} on graph {} is wrong",
                plan.query, plan.graph
            );
            wrong += 1;
        }
    }
    wrong
}

/// Hot oracles: every fill against the sequential reference.
fn check_fills(served: &Served, tr: &mut Trace) -> u64 {
    served
        .set
        .iter()
        .zip(&served.fills)
        .filter(|(plan, fill)| {
            let entry = &served.entries[plan.graph];
            !oracle::check(tr, &entry.csr, &entry.weights, &plan.query, &fill.data)
        })
        .count() as u64
}

fn delta_hit_ratio(before: &ServerSnapshot, after: &ServerSnapshot) -> f64 {
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn refusals(s: &ServerSnapshot) -> u64 {
    s.rejected_full + s.rejected_invalid + s.resilience.shed_tenant + s.resilience.shed_queue
}

pub fn run(mode: Mode, args: &Args) -> Report {
    let gpu = report::gpu_config();
    let exec = report::exec_config();
    let cfg = server_config(
        &gpu,
        &exec,
        if mode == Mode::Cold {
            0
        } else {
            HOT_CACHE_CAPACITY
        },
    );
    let mut tr = Trace::new(args.trace);
    let mut setup_err = None;
    let (served, setup_s) = report::repeat_setup(&mut tr, |tr| {
        setup(mode, args.seed, &cfg, tr)
            .map_err(|e| setup_err = Some(e))
            .ok()
    });
    let mut config = vec![
        ("gpu", report::gpu_config_json(&gpu)),
        ("server", server_config_json(&cfg)),
        ("scale", json_str("Small")),
        ("graphs", GRAPHS.len().to_string()),
        ("outstanding", OUTSTANDING.to_string()),
        ("source_pool", SOURCE_POOL.to_string()),
        ("sample_one_in", SAMPLE_ONE_IN.to_string()),
        ("setup_s_samples", report::list_json(&setup_s)),
    ];
    let Some(served) = served else {
        eprintln!("set-up failed: {}", setup_err.unwrap_or_default());
        return Report {
            attempted: 1,
            failed: 1,
            metrics: Values::new(if args.trace {
                PER_LAYER
            } else {
                crate::spec::END_TO_END
            }),
            config,
            trace: tr,
        };
    };
    let mut direct = Direct::new(&served, &cfg, &mut tr);

    if !args.trace {
        let before = served.server.snapshot();
        let b = run_block(
            mode,
            &served,
            args.seed,
            Limit::Seconds(args.seconds),
            false,
            &mut tr,
        );
        let after = served.server.snapshot();
        let mut failed = b.failed + refusals(&after) - refusals(&before);
        let want_ratio = if mode == Mode::Cold { 0.0 } else { 1.0 };
        if delta_hit_ratio(&before, &after) != want_ratio {
            eprintln!("cache hit ratio is not {want_ratio}");
            failed += 1;
        }
        failed += match mode {
            Mode::Cold => check_cold(&served, &mut direct, args.seed, &b.answers, &mut tr),
            Mode::Hot => check_fills(&served, &mut tr),
        };
        // Hot answers replay the fills, so its simulated cost per op is the
        // working set's: a zipf-weighted sum would move with the draw.
        let (sim_cycles, answers) = match mode {
            Mode::Cold => (b.sim_cycles, b.answered),
            Mode::Hot => (
                served.fills.iter().map(|f| f.stats.cycles).sum(),
                served.fills.len() as u64,
            ),
        };
        config.push(("requests", b.attempted.to_string()));
        config.push(("latency_samples", b.latency_ms.len().to_string()));
        config.push(("measured_s", crate::util::json_num(b.elapsed_s)));
        return Report {
            attempted: b.attempted,
            failed,
            metrics: report::end_to_end(
                &setup_s,
                b.answered as f64 / b.elapsed_s,
                &b.latency_ms,
                sim_cycles,
                answers,
            ),
            config,
            trace: tr,
        };
    }

    // Traced run: the same seeded block with the recorder off, then on.
    let n = if mode == Mode::Cold {
        COLD_TRACED_REQUESTS
    } else {
        HOT_TRACED_REQUESTS
    };
    let mut off = Trace::new(false);
    let plain = run_block(mode, &served, args.seed, Limit::Requests(n), true, &mut off);
    let before = served.server.snapshot();
    let traced = run_block(mode, &served, args.seed, Limit::Requests(n), true, &mut tr);
    let after = served.server.snapshot();
    let mut failed = plain.failed + traced.failed;
    if plain.outcomes != traced.outcomes {
        eprintln!("traced block differs from the untraced block");
        failed += 1;
    }

    let mut m = Values::new(PER_LAYER);
    let reps = report::SETUP_REPS as f64;
    m.set("graph.build_s", tr.total_ms("build") / 1e3 / reps);
    m.set(
        "graph.edges",
        served
            .entries
            .iter()
            .map(|e| e.csr.num_edges())
            .sum::<u64>() as f64,
    );
    m.set(
        "serve.queue_wait_ms_p50",
        quantile(&traced.queue_wait_ms, 0.5),
    );
    m.set(
        "serve.queue_wait_ms_p90",
        quantile(&traced.queue_wait_ms, 0.9),
    );
    m.set("serve.service_ms_p50", quantile(&traced.service_ms, 0.5));
    m.set("serve.service_ms_p90", quantile(&traced.service_ms, 0.9));
    m.set(
        "serve.batch_size_mean",
        traced.batch_sizes.iter().sum::<f64>() / traced.batch_sizes.len().max(1) as f64,
    );
    let overhead_us: Vec<f64> = traced
        .latency_ms
        .iter()
        .zip(traced.queue_wait_ms.iter().zip(&traced.service_ms))
        .map(|(l, (q, s))| (l - q - s) * 1e3)
        .collect();
    m.set("serve.overhead_us_p50", quantile(&overhead_us, 0.5));
    m.set("serve.cache_hit_ratio", delta_hit_ratio(&before, &after));
    m.set(
        "serve.rejected",
        (refusals(&after) - refusals(&before)) as f64,
    );
    m.set(
        "serve.retries",
        (after.resilience.retries - before.resilience.retries) as f64,
    );
    m.set(
        "serve.template_build_ms",
        quantile(&tr.ms_of("template_build"), 0.5),
    );
    m.set(
        "bench.trace_overhead_ratio",
        (traced.elapsed_s / traced.answered.max(1) as f64)
            / (plain.elapsed_s / plain.answered.max(1) as f64),
    );

    match mode {
        Mode::Cold => {
            failed += check_cold(&served, &mut direct, args.seed, &traced.answers, &mut tr);
            traced.acc.report(&mut m);
            m.set("serve.execute_ms_p50", quantile(&direct.execute_ms, 0.5));
            // The autotuner's first-sight cost, on a private tuner.
            let mut tuner = Tuner::new(None, cfg.tuner_sample, None);
            let t = Instant::now();
            for e in &served.entries {
                for algo in [Algo::Bfs, Algo::Sssp, Algo::Pagerank, Algo::Cc] {
                    tr.call("serve", "tuner_choose", || {
                        tuner.choose(&gpu, &exec, e, algo)
                    });
                }
            }
            m.set("serve.tuner_probe_s", t.elapsed().as_secs_f64());
            m.set("serve.tuner_probes", tuner.probes_run() as f64);
            // What a request pays before its first launch: a device and a
            // copy of the graph image.
            let rmat = &served.entries[0];
            let mut dev = Gpu::new(gpu.clone());
            DeviceGraph::upload_weighted(&mut dev, &rmat.csr, &rmat.weights);
            m.set("simt.mem_clone_ms", probes::mem_clone_ms(&dev.mem));
            m.set("simt.gpu_new_us", probes::gpu_new_us(&gpu));
            // The degraded route's baseline: the CPU fallback on Small RMAT.
            let t = Instant::now();
            for (algo, label) in ["bfs", "sssp", "pagerank", "cc"].iter().enumerate() {
                let params = FallbackParams {
                    src: rmat.source(),
                    iters: COLD_PR_ITERS,
                    damping: DAMPING,
                };
                let out = tr.call("cpu", "fallback_run", || {
                    fallback_run(label, &rmat.csr, &rmat.weights, params)
                });
                if out.is_none() {
                    eprintln!("cpu fallback does not cover algorithm {algo}");
                    failed += 1;
                }
            }
            m.set("cpu.fallback_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        Mode::Hot => {
            failed += check_fills(&served, &mut tr);
            // The fills are the only simulated work of this workload; each
            // must equal the same query executed directly.
            let mut acc = SimAcc::default();
            for (plan, fill) in served.set.iter().zip(&served.fills) {
                acc.add(
                    &fill.stats,
                    &TimingReport::default(),
                    fill.service.as_nanos() as u64,
                );
                if !direct.matches(&served, plan, fill, &mut tr) {
                    eprintln!("fill of {:?} differs from a direct execute", plan.query);
                    failed += 1;
                }
            }
            acc.report(&mut m);
            m.set("serve.execute_ms_p50", quantile(&direct.execute_ms, 0.5));
            let words = served.entries[0].csr.num_vertices() as usize;
            let (get, insert) = probes::cache_get_insert_ns(words);
            m.set("serve.cache_get_ns", get);
            m.set("serve.cache_insert_ns", insert);
            let (inc, rec, span) = probes::obs_ns();
            m.set("obs.counter_inc_ns", inc);
            m.set("obs.histogram_record_ns", rec);
            m.set("obs.span_ns", span);
            // Cost of the metrics registry on the hit path: throughput with
            // it off over throughput with it on, in alternating blocks.
            let mut ratios = Vec::with_capacity(OBS_PAIRS);
            for pair in 0..OBS_PAIRS {
                let mut rps = [0.0; 2];
                for (slot, on) in [(0, false), (1, true)] {
                    served.server.registry().set_enabled(on);
                    let b = run_block(
                        mode,
                        &served,
                        args.seed + pair as u64,
                        Limit::Requests(OBS_BLOCK_REQUESTS),
                        false,
                        &mut off,
                    );
                    failed += b.failed;
                    rps[slot] = b.answered as f64 / b.elapsed_s;
                }
                ratios.push(rps[0] / rps[1]);
            }
            m.set("obs.serve_hot_cost_ratio", median(&ratios));
            m.set(
                "obs.serve_hot_cost_iqr",
                quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
            );
        }
    }
    m.set("cpu.reference_s", tr.total_ms("reference") / 1e3);
    config.push(("requests_per_block", n.to_string()));
    Report {
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics: m,
        config,
        trace: tr,
    }
}
