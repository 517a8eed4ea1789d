//! Pipelined ≡ serial. The `run_*` drivers leave each launch's timing
//! replay in flight beside the next launch's functional pass and settle
//! once at the end; the public round functions settle after every round.
//! A loop over the round functions is therefore the serial reference: the
//! answer, the whole `AlgoRun` and the device's accumulated timing must
//! match the driver's digit for digit, and so must the profile timeline
//! and the errors a run reports late.

use maxwarp::catalog::{Inputs, Kernel, KernelFn, Payload, KERNELS};
use maxwarp::{
    bfs_round, cc_round, pagerank_apply_round, pagerank_base_fp, pagerank_damping_fp,
    pagerank_fp_to_f32, pagerank_push_round, sssp_round, AlgoRun, BfsState, CcState, DeviceGraph,
    ExecConfig, Method, PagerankState, SsspState, VirtualWarp, WarpCentricOpts, PR_SCALE,
};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig, LaunchError, SimtError, WatchdogKind};

const ROUND_KERNELS: [&str; 4] = ["bfs", "sssp", "cc", "pagerank"];
/// The catalog's PageRank parameters.
const PR_ITERS: u32 = 3;
const PR_DAMPING: f32 = 0.85;

/// Low enough that deferral fires on the skewed Tiny graphs.
const DEFER_THRESHOLD: u32 = 16;

fn vw8() -> WarpCentricOpts {
    WarpCentricOpts::plain(VirtualWarp::new(8))
}

fn methods(kernel: &str) -> Vec<Method> {
    [
        Method::Baseline,
        Method::WarpCentric(vw8()),
        Method::WarpCentric(vw8().with_dynamic()),
        Method::WarpCentric(vw8().with_defer(DEFER_THRESHOLD)),
    ]
    .into_iter()
    .filter(|&m| catalog_kernel(kernel).supports(m))
    .collect()
}

fn catalog_kernel(name: &str) -> &'static Kernel {
    KERNELS.iter().find(|k| k.name == name).unwrap()
}

fn bits(v: Vec<u32>) -> Payload {
    v.into_iter()
        .map(|x| pagerank_fp_to_f32(x).to_bits())
        .collect()
}

/// The driver (the catalog's entry): launches pipelined, settled once.
fn pipelined(kernel: &str) -> KernelFn {
    catalog_kernel(kernel).run
}

/// The same algorithm stepped through the public round functions, each of
/// which settles before it returns.
fn stepped(
    kernel: &str,
    i: &Inputs,
    gpu: &mut Gpu,
    m: Method,
    e: &ExecConfig,
) -> Result<(AlgoRun, Payload), LaunchError> {
    let mut run = AlgoRun::default();
    let payload = match kernel {
        "bfs" => {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let st = BfsState::new(gpu, &dg, i.src);
            let mut cur = 0;
            while bfs_round(gpu, &dg, &st, cur, m, e, &mut run)? {
                cur += 1;
            }
            gpu.mem.download(st.levels)
        }
        "sssp" => {
            let dg = DeviceGraph::upload_weighted(gpu, &i.g, &i.weights);
            let st = SsspState::new(gpu, &dg, i.src);
            let w = dg.weights.unwrap();
            let mut round = 0;
            while sssp_round(gpu, &dg, w, &st, round, m, e, &mut run)? {
                round += 1;
            }
            gpu.mem.download(st.dist)
        }
        "cc" => {
            let dg = DeviceGraph::upload(gpu, &i.sym);
            let st = CcState::new(gpu, &dg);
            while cc_round(gpu, &dg, &st, m, e, &mut run)? {}
            gpu.mem.download(st.labels)
        }
        "pagerank" => {
            let dg = DeviceGraph::upload(gpu, &i.g);
            let n = dg.n;
            let d_fp = pagerank_damping_fp(PR_DAMPING);
            let mut st = PagerankState::new(gpu, n, PR_SCALE / n);
            for it in 0..PR_ITERS {
                pagerank_push_round(gpu, &dg, &st, n, it, m, e, &mut run)?;
                let base_fp = pagerank_base_fp(n, d_fp, gpu.mem.read(st.dangling, 0));
                pagerank_apply_round(gpu, &st, n, base_fp, d_fp, e, &mut run)?;
                st.swap();
            }
            bits(gpu.mem.download(st.rank))
        }
        other => unreachable!("{other}"),
    };
    Ok((run, payload))
}

fn assert_same_run(a: &AlgoRun, b: &AlgoRun, cell: &str) {
    assert_eq!(a.stats, b.stats, "{cell}: stats");
    assert_eq!(a.iterations, b.iterations, "{cell}: iterations");
    assert_eq!(
        a.cycles_per_iteration, b.cycles_per_iteration,
        "{cell}: cycles per iteration"
    );
}

#[test]
fn drivers_match_settled_round_loops() {
    let exec = ExecConfig::default();
    for d in Dataset::ALL {
        let inputs = Inputs::new(d.build(Scale::Tiny));
        for kernel in ROUND_KERNELS {
            for m in methods(kernel) {
                let cell = format!("{kernel} / {} / {}", d.name(), m.spec());
                let mut gp = Gpu::new(GpuConfig::tiny_test());
                let (run_p, out_p) = pipelined(kernel)(&inputs, &mut gp, m, &exec).unwrap();
                let mut gs = Gpu::new(GpuConfig::tiny_test());
                let (run_s, out_s) = stepped(kernel, &inputs, &mut gs, m, &exec).unwrap();
                assert_eq!(out_p, out_s, "{cell}: answer");
                assert_same_run(&run_p, &run_s, &cell);
                assert_eq!(gp.timing_total(), gs.timing_total(), "{cell}: timing");
                assert_eq!(
                    run_p.cycles(),
                    gp.timing_total().cycles,
                    "{cell}: every launch settled into the run"
                );
            }
        }
    }
}

fn profiled() -> Gpu {
    let mut cfg = GpuConfig::tiny_test();
    cfg.profile = true;
    Gpu::new(cfg)
}

/// `run_bfs` with deferral on a hub graph: both launches of every level.
fn skewed_bfs() -> (Inputs, Method) {
    let method = Method::WarpCentric(vw8().with_defer(DEFER_THRESHOLD));
    (
        Inputs::new(Dataset::WikiTalkLike.build(Scale::Tiny)),
        method,
    )
}

#[test]
fn profile_labels_follow_their_launch() {
    let (inputs, m) = skewed_bfs();
    let exec = ExecConfig::default();
    let timeline = |gpu: &Gpu| -> Vec<(String, u64)> {
        let report = gpu.profile_report().unwrap();
        report
            .launches
            .into_iter()
            .map(|l| (l.label, l.cycles))
            .collect()
    };
    let mut gp = profiled();
    pipelined("bfs")(&inputs, &mut gp, m, &exec).unwrap();
    let mut gs = profiled();
    stepped("bfs", &inputs, &mut gs, m, &exec).unwrap();
    let launches = timeline(&gp);
    assert_eq!(launches, timeline(&gs));

    // Each level's sweep, then its outlier pass when anything was deferred.
    let mut level = 0;
    let mut outliers = 0;
    for (k, (label, _)) in launches.iter().enumerate() {
        if *label == format!("bfs level {level} outliers") {
            assert_eq!(launches[k - 1].0, format!("bfs level {level}"));
            outliers += 1;
        } else {
            level += u32::from(k > 0);
            assert_eq!(*label, format!("bfs level {level}"), "launch {k}");
        }
    }
    assert!(outliers > 0, "the hub graph must defer at least once");
}

fn budget_err(cycles: u64, budget: u64) -> LaunchError {
    LaunchError::Fault(SimtError::Watchdog(WatchdogKind::CycleBudget {
        cycles,
        budget,
    }))
}

#[test]
fn cycle_budget_trips_one_launch_late_with_the_serial_value() {
    let (inputs, m) = skewed_bfs();
    let exec = ExecConfig::default();
    let mut reference = profiled();
    stepped("bfs", &inputs, &mut reference, m, &exec).unwrap();
    let cumulative: Vec<u64> = reference
        .profile_report()
        .unwrap()
        .launches
        .iter()
        .scan(0, |sum, l| {
            *sum += l.cycles;
            Some(*sum)
        })
        .collect();
    assert!(cumulative.len() > 4);
    // Anywhere in the run, including past the last launch the driver
    // submits before it settles.
    for k in [0, cumulative.len() / 2, cumulative.len() - 2] {
        let budget = cumulative[k];
        let with_budget = || {
            let mut cfg = GpuConfig::tiny_test();
            cfg.watchdog.max_cycles = Some(budget);
            Gpu::new(cfg)
        };
        let want = budget_err(cumulative[k + 1], budget);
        let err = pipelined("bfs")(&inputs, &mut with_budget(), m, &exec).unwrap_err();
        assert_eq!(err, want, "run_bfs, budget after launch {k}");
        let err = stepped("bfs", &inputs, &mut with_budget(), m, &exec).unwrap_err();
        assert_eq!(err, want, "bfs_round loop, budget after launch {k}");
    }
}

#[test]
fn a_failed_run_leaves_nothing_for_the_next() {
    let (inputs, m) = skewed_bfs();
    let exec = ExecConfig::default();
    let (fresh, _) =
        pipelined("bfs")(&inputs, &mut Gpu::new(GpuConfig::tiny_test()), m, &exec).unwrap();
    let cycle_cap = fresh.cycles() / 2;
    let trips: [&dyn Fn(&mut GpuConfig); 2] =
        [&|cfg| cfg.watchdog.max_cycles = Some(cycle_cap), &|cfg| {
            cfg.watchdog.max_iterations = Some(2)
        }];
    for trip in trips {
        let mut cfg = GpuConfig::tiny_test();
        trip(&mut cfg);
        let mut gpu = Gpu::new(cfg);
        assert!(pipelined("bfs")(&inputs, &mut gpu, m, &exec).is_err());
        gpu.cfg.watchdog = Default::default();
        let (again, _) = pipelined("bfs")(&inputs, &mut gpu, m, &exec).unwrap();
        assert_same_run(&again, &fresh, "second run on the device");
    }
}
