//! `tool_analyze` — run every kernel under the static abstract-interpretation
//! analyzer and gate CI on error-severity findings.
//!
//! Sweeps all kernel entry points over a small RMAT graph and a pathological
//! high-degree hub graph with the analyzer (`GpuConfig::analyze`) abstracting
//! every warp-level operation into affine access forms. Prints a per-combo
//! status line, a per-kernel summary table, and writes the machine-readable
//! report to `results/analyze_<device>.json`. Exits nonzero if any
//! *error*-severity finding (definite race, barrier divergence, shared
//! uninitialized read, out-of-bounds, divergent shuffle) was produced;
//! warn-only findings (may-races, coalescing/bank-conflict predictions,
//! redundant ballots) are reported but do not fail the run.
//!
//! ```text
//! tool_analyze [--device fermi|gtx280] [--verbose]
//! ```

use maxwarp::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, DeviceGraph, ExecConfig,
    GpuHybridConfig, Method, VirtualWarp, WarpCentricOpts,
};
use maxwarp_bench::util::write_results;
use maxwarp_graph::{hub_graph, random_weights, Csr, Dataset, Orientation, Scale};
use maxwarp_simt::{Gpu, GpuConfig, LaunchError, Severity};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;

/// Methods every kernel is analyzed under (deferral added where supported).
fn methods() -> Vec<Method> {
    vec![
        Method::Baseline,
        Method::warp(8),
        Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(32)).with_dynamic()),
    ]
}

/// Deferral variant for the kernels that support outlier deferral.
fn defer_method(g: &Csr) -> Method {
    let mean = (g.num_edges() as f64 / g.num_vertices().max(1) as f64).max(1.0);
    Method::WarpCentric(
        WarpCentricOpts::plain(VirtualWarp::new(8)).with_defer(((mean * 16.0) as u32).max(64)),
    )
}

struct Outcome {
    errors: u64,
    warnings: u64,
    json: String,
}

/// Run one `(kernel, method)` combo on a fresh analyzing device, print its
/// status, and return the counts plus the combo's JSON report. A combo whose
/// launch itself errors is reported and skipped rather than aborting the
/// sweep.
fn check(
    cfg: &GpuConfig,
    verbose: bool,
    label: &str,
    method: Method,
    f: impl FnOnce(&mut Gpu) -> Result<(), LaunchError>,
) -> Result<Outcome, LaunchError> {
    let mut gpu = Gpu::new(cfg.clone());
    let context = format!("{label} [{}]", method.label());
    gpu.set_analyze_context(&context);
    if let Err(e) = f(&mut gpu) {
        println!("FAIL  {context}: launch error: {e}");
        return Err(e);
    }
    let anl = gpu.analyzer().expect("analyzer must be on");
    let out = Outcome {
        errors: anl.error_count(),
        warnings: anl.warning_count(),
        json: anl.to_json(),
    };
    if out.errors > 0 {
        println!(
            "FAIL  {context}: {} error(s), {} warning(s)",
            out.errors, out.warnings
        );
        for d in anl
            .findings()
            .iter()
            .filter(|d| d.severity == Severity::Error)
        {
            println!("{d}");
        }
    } else if out.warnings > 0 {
        println!("warn  {context}: {} warning(s)", out.warnings);
        if verbose {
            print!("{}", anl.report());
        }
    } else {
        println!("ok    {context}");
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut device_name = "fermi";
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--device" => {
                i += 1;
                device_name = match args.get(i).map(String::as_str) {
                    Some("fermi") => "fermi",
                    Some("gtx280") => "gtx280",
                    _ => {
                        eprintln!("usage: tool_analyze [--device fermi|gtx280] [--verbose]");
                        exit(2);
                    }
                };
            }
            "--verbose" | "-v" => verbose = true,
            _ => {
                eprintln!("usage: tool_analyze [--device fermi|gtx280] [--verbose]");
                exit(2);
            }
        }
        i += 1;
    }
    let mut cfg = match device_name {
        "gtx280" => GpuConfig::gtx280(),
        _ => GpuConfig::fermi_c2050(),
    };
    cfg.analyze = true;

    // The sanitizer sweep's graphs: a small scale-free graph and a
    // pathological hub graph that maximizes intra-warp imbalance and the
    // deferral/dynamic code paths.
    let rmat = Dataset::Rmat.build(Scale::Tiny);
    let hub = hub_graph(2048, 4, 1500, 2, 7);
    let graphs: Vec<(&str, &Csr)> = vec![("rmat", &rmat), ("hub", &hub)];

    let mut errors = 0u64;
    let mut warnings = 0u64;
    let mut combos = 0u64;
    let mut failed: Vec<String> = Vec::new();
    // kernel -> (combos, errors, warnings), for the summary table.
    let mut per_kernel: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut reports: Vec<(String, String)> = Vec::new();
    let exec = ExecConfig::default();

    for (gname, g) in &graphs {
        let g: &Csr = g;
        let src = (0..g.num_vertices())
            .max_by_key(|&v| g.degree(v))
            .unwrap_or(0);
        let sym = g.symmetrize();
        let rev = g.reverse();
        let weights = random_weights(g, 15, 11);
        let values: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
        let x = vec![1.0f32; g.num_vertices() as usize];
        let bc_sources: Vec<u32> = (0..4.min(g.num_vertices())).collect();
        let ms_sources: Vec<u32> = (0..32.min(g.num_vertices())).collect();

        let mut all_methods = methods();
        all_methods.push(defer_method(g));

        for method in &all_methods {
            let m = *method;
            let deferral = matches!(m, Method::WarpCentric(o) if o.defer_threshold.is_some());
            let dynamic = matches!(m, Method::WarpCentric(o) if o.dynamic);

            let mut run = |kernel: &str, f: &mut dyn FnMut(&mut Gpu) -> Result<(), LaunchError>| {
                combos += 1;
                let slot = per_kernel.entry(kernel.to_string()).or_insert((0, 0, 0));
                slot.0 += 1;
                let combo = format!("{kernel}/{gname} [{}]", m.label());
                match check(&cfg, verbose, &format!("{kernel}/{gname}"), m, |gpu| f(gpu)) {
                    Ok(o) => {
                        errors += o.errors;
                        warnings += o.warnings;
                        slot.1 += o.errors;
                        slot.2 += o.warnings;
                        if o.errors > 0 {
                            failed.push(combo.clone());
                        }
                        reports.push((combo, o.json));
                    }
                    Err(_) => {
                        failed.push(format!("{combo} (launch error)"));
                    }
                }
            };

            run("bfs", &mut |gpu| {
                let dg = DeviceGraph::upload(gpu, g);
                run_bfs(gpu, &dg, src, m, &exec).map(|_| ())
            });
            if !deferral {
                run("bfs_queue", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    run_bfs_queue(gpu, &dg, src, m, &exec).map(|_| ())
                });
            }
            if !deferral {
                run("bfs_hybrid", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    let drev = DeviceGraph::upload(gpu, &rev);
                    run_bfs_hybrid(gpu, &dg, &drev, src, m, &exec, &GpuHybridConfig::default())
                        .map(|_| ())
                });
            }
            run("sssp", &mut |gpu| {
                let dg = DeviceGraph::upload_weighted(gpu, g, &weights);
                run_sssp(gpu, &dg, src, m, &exec).map(|_| ())
            });
            run("cc", &mut |gpu| {
                let dg = DeviceGraph::upload(gpu, &sym);
                run_cc(gpu, &dg, m, &exec).map(|_| ())
            });
            if !deferral {
                run("pagerank", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    run_pagerank(gpu, &dg, 5, 0.85, m, &exec).map(|_| ())
                });
                run("betweenness", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    run_betweenness(gpu, &dg, &bc_sources, m, &exec).map(|_| ())
                });
                run("triangles", &mut |gpu| {
                    run_triangles(gpu, &sym, m, &exec, Orientation::ByDegree).map(|_| ())
                });
                run("coloring", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, &sym);
                    run_coloring(gpu, &dg, m, &exec).map(|_| ())
                });
                run("kcore", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, &sym);
                    run_kcore(gpu, &dg, m, &exec).map(|_| ())
                });
                run("msbfs", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    run_msbfs(gpu, &dg, &ms_sources, m, &exec).map(|_| ())
                });
            }
            if !deferral && !dynamic {
                run("spmv", &mut |gpu| {
                    let dg = DeviceGraph::upload(gpu, g);
                    run_spmv(gpu, &dg, &values, &x, m, &exec).map(|_| ())
                });
            }
        }
    }

    // Per-kernel summary table.
    println!(
        "\n{:<14} {:>7} {:>8} {:>9}",
        "kernel", "combos", "errors", "warnings"
    );
    for (k, (c, e, w)) in &per_kernel {
        println!("{k:<14} {c:>7} {e:>8} {w:>9}");
    }
    println!(
        "\nanalyze sweep: {combos} kernel/method/graph combos, {errors} error(s), \
         {warnings} warning(s)"
    );

    // Aggregate JSON artifact: each combo's full report nested verbatim
    // (every nested report is itself a complete JSON document).
    let mut json = String::with_capacity(1 << 20);
    let _ = write!(
        json,
        "{{\n\"tool\": \"maxwarp-analyze-sweep\",\n\"device\": \"{device_name}\",\n\
         \"combos\": {combos},\n\"errors\": {errors},\n\"warnings\": {warnings},\n\
         \"reports\": ["
    );
    for (i, (combo, report)) in reports.iter().enumerate() {
        // Combo labels are generated from method/graph names: plain ASCII
        // with no characters needing JSON escapes.
        let _ = write!(
            json,
            "{}{{\"combo\": \"{combo}\", \"report\": {report}}}",
            if i == 0 { "\n" } else { ",\n" }
        );
    }
    json.push_str("\n]\n}\n");
    let path = write_results(&format!("analyze_{device_name}.json"), &json);
    println!("report: {}", path.display());

    if !failed.is_empty() {
        println!("failing combos:");
        for f in &failed {
            println!("  {f}");
        }
        exit(1);
    }
    println!("all combos statically clean");
}
