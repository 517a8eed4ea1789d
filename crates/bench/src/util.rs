//! Shared harness utilities: scale parsing, fresh-device runs, table
//! printing, and the observer sweep under `tool_sanitize` / `tool_analyze`.

use crate::harness::{Cell, Harness};
use maxwarp::{catalog, run_bfs, BfsOutput, DeviceGraph, ExecConfig, Method};
use maxwarp_graph::{Csr, Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig, TimingReport};
use std::path::PathBuf;

pub use maxwarp::catalog::defer_threshold;

/// Parse the experiment scale from argv/env. Priority: first positional
/// CLI arg (`--jobs` and its value are skipped), then `MAXWARP_SCALE`,
/// then the default (`Small` — figures at `Medium` match the paper's
/// shapes best but take minutes).
pub fn scale_from_args() -> Scale {
    let pick = |s: &str| match s.to_ascii_lowercase().as_str() {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        _ => None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            args.next(); // its value
            continue;
        }
        if arg.starts_with("--jobs=") {
            continue;
        }
        if let Some(s) = pick(&arg) {
            return s;
        }
    }
    if let Ok(env) = std::env::var("MAXWARP_SCALE") {
        if let Some(s) = pick(&env) {
            return s;
        }
    }
    Scale::Small
}

/// Human name of a scale.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    }
}

/// The device configuration every figure uses.
pub fn device() -> GpuConfig {
    GpuConfig::fermi_c2050()
}

/// A fresh simulated device with the figure configuration. `Gpu::new`
/// itself honors `MAXWARP_SANITIZE=1` / `MAXWARP_PROFILE=1`, so every
/// tool built on this helper picks up the sanitizer and profiler opt-ins
/// for free.
pub fn fresh_gpu() -> Gpu {
    Gpu::new(device())
}

/// A fresh device with `g` already uploaded — the shared setup every
/// bench tool used to hand-roll.
pub fn upload_fresh(g: &Csr) -> (Gpu, DeviceGraph) {
    let mut gpu = fresh_gpu();
    let dg = DeviceGraph::upload(&mut gpu, g);
    (gpu, dg)
}

/// Unwrap a launch (or other experiment-fatal) result. Experiment cells
/// have no recovery path: any failure invalidates the whole figure.
pub fn launch_ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("experiment launch failed: {e:?}"),
    }
}

/// Run BFS on a fresh device (so each measurement's memory layout is
/// identical and device memory does not accumulate across runs).
pub fn bfs_fresh(g: &Csr, src: u32, method: Method, exec: &ExecConfig) -> BfsOutput {
    bfs_fresh_timed(g, src, method, exec).0
}

/// [`bfs_fresh`] that also returns the device's accumulated timing
/// detail (DRAM utilization, per-SM stall breakdown) for JSON output.
pub fn bfs_fresh_timed(
    g: &Csr,
    src: u32,
    method: Method,
    exec: &ExecConfig,
) -> (BfsOutput, TimingReport) {
    let (mut gpu, dg) = upload_fresh(g);
    let out = launch_ok(run_bfs(&mut gpu, &dg, src, method, exec));
    let timing = gpu.timing_total().clone();
    (out, timing)
}

/// Write `content` to `results/<name>` (creating `results/` if needed)
/// and return the path.
pub fn write_results(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        panic!("create results dir: {e}");
    }
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, content) {
        panic!("write results file {}: {e}", path.display());
    }
    path
}

/// Parse the sweep tools' `[--device fermi|gtx280] [--verbose]` from argv,
/// exiting with `usage` on anything else: the device name, its config and
/// the verbose flag.
pub fn sweep_args(usage: &str) -> (&'static str, GpuConfig, bool) {
    let fail = || -> ! {
        eprintln!("{usage}");
        std::process::exit(2)
    };
    let (mut device, mut verbose) = ("fermi", false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--device" => {
                device = match args.next().as_deref() {
                    Some("fermi") => "fermi",
                    Some("gtx280") => "gtx280",
                    _ => fail(),
                }
            }
            "--verbose" | "-v" => verbose = true,
            _ => fail(),
        }
    }
    let cfg = match device {
        "gtx280" => GpuConfig::gtx280(),
        _ => GpuConfig::fermi_c2050(),
    };
    (device, cfg, verbose)
}

/// What a sweep tool's observer reports about one cell.
pub struct Verdict {
    pub errors: u64,
    pub warnings: u64,
    /// The error-severity findings, printed when there are any.
    pub error_report: String,
    /// Every finding, printed under `--verbose`.
    pub full_report: String,
}

/// One finding per line.
pub fn lines<T: std::fmt::Display>(findings: impl IntoIterator<Item = T>) -> String {
    findings.into_iter().map(|f| format!("{f}\n")).collect()
}

/// Totals of an [`observer_sweep`].
#[derive(Default)]
pub struct SweepTotals {
    pub combos: u64,
    pub errors: u64,
    pub warnings: u64,
    /// Labels of the cells with errors or a failed launch.
    pub failed: Vec<String>,
}

impl SweepTotals {
    /// Print the failing combos and exit 1 when there are any.
    pub fn exit_on_failures(&self) {
        if !self.failed.is_empty() {
            println!("failing combos:");
            for f in &self.failed {
                println!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// The sweep of `tool_sanitize` and `tool_analyze`: run every
/// `maxwarp::catalog` cell on a fresh `cfg` device whose observers are
/// named after the cell, ask `verdict` what its observer found and print
/// the cell's status line. A cell whose launch errors (watchdog, fault) is
/// reported and skipped rather than aborting the sweep.
pub fn observer_sweep(
    cfg: &GpuConfig,
    verbose: bool,
    mut verdict: impl FnMut(&catalog::Cell, &Gpu) -> Verdict,
) -> SweepTotals {
    let mut t = SweepTotals::default();
    let graphs = catalog::sweep_graphs();
    for cell in catalog::cells(&graphs) {
        t.combos += 1;
        let label = cell.label();
        let mut gpu = Gpu::new(cfg.clone());
        gpu.set_sanitize_context(&label);
        gpu.set_analyze_context(&label);
        if let Err(e) = cell.run(&mut gpu) {
            println!("FAIL  {label}: launch error: {e}");
            t.failed.push(format!("{label} (launch error)"));
            continue;
        }
        let v = verdict(&cell, &gpu);
        t.errors += v.errors;
        t.warnings += v.warnings;
        if v.errors > 0 {
            println!(
                "FAIL  {label}: {} error(s), {} warning(s)",
                v.errors, v.warnings
            );
            print!("{}", v.error_report);
            t.failed.push(label);
        } else if v.warnings > 0 {
            println!("warn  {label}: {} warning(s)", v.warnings);
            if verbose {
                print!("{}", v.full_report);
            }
        } else {
            println!("ok    {label}");
        }
    }
    t
}

/// Print a figure/table header.
pub fn banner(id: &str, title: &str, scale: Scale) {
    println!();
    println!("== {id}: {title} [scale={}] ==", scale_name(scale));
}

/// Format a floating-point cell.
pub fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Useful-edge count for throughput numbers: edges actually traversable
/// from the source (reached vertices' out-edges), the convention TEPS
/// numbers use.
pub fn reachable_edges(g: &Csr, levels: &[u32]) -> u64 {
    (0..g.num_vertices())
        .filter(|&v| levels[v as usize] != u32::MAX)
        .map(|v| g.degree(v) as u64)
        .sum()
}

/// All datasets with their built graphs and sources at a scale. Builds go
/// through the on-disk graph cache (`MAXWARP_GRAPH_CACHE`), so repeated
/// harness runs skip generation.
pub fn built_datasets(scale: Scale) -> Vec<(Dataset, Csr, u32)> {
    Dataset::ALL
        .iter()
        .map(|&d| {
            let g = d.build_cached(scale);
            let src = d.source(&g);
            (d, g, src)
        })
        .collect()
}

/// [`built_datasets`] with the graph generation fanned out over the
/// harness workers (one build cell per dataset).
pub fn built_datasets_par(scale: Scale, h: &Harness) -> Vec<(Dataset, Csr, u32)> {
    build_datasets_subset(scale, h, &Dataset::ALL)
}

/// Build only the named datasets (in the given order) on the harness.
pub fn build_datasets_subset(
    scale: Scale,
    h: &Harness,
    subset: &[Dataset],
) -> Vec<(Dataset, Csr, u32)> {
    let cells = subset
        .iter()
        .map(|&d| {
            Cell::new(format!("build {}", d.name()), move || {
                let g = d.build_cached(scale);
                let src = d.source(&g);
                (d, g, src)
            })
        })
        .collect();
    // A dataset whose build cell failed is dropped entirely: downstream
    // cells are generated from this list, so the remaining datasets stay
    // aligned with their measurement chunks.
    h.run("build", cells).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::Dataset;

    #[test]
    fn scale_names() {
        assert_eq!(scale_name(Scale::Tiny), "tiny");
        assert_eq!(scale_name(Scale::Small), "small");
        assert_eq!(scale_name(Scale::Medium), "medium");
    }

    #[test]
    fn defer_threshold_tracks_mean_degree() {
        let sparse = maxwarp_graph::grid2d(20, 20);
        assert_eq!(defer_threshold(&sparse), 64, "floor applies");
        let dense = maxwarp_graph::regular_graph(256, 32, 1);
        assert_eq!(defer_threshold(&dense), 32 * 16);
    }

    #[test]
    fn built_datasets_covers_all() {
        let built = built_datasets(Scale::Tiny);
        assert_eq!(built.len(), Dataset::ALL.len());
        for (d, g, src) in built {
            assert!(src < g.num_vertices(), "{}", d.name());
        }
    }

    #[test]
    fn float_formatting_buckets() {
        assert_eq!(f(512.3), "512");
        assert_eq!(f(51.23), "51.2");
        assert_eq!(f(5.123), "5.12");
    }

    #[test]
    fn reachable_edges_counts_only_reached() {
        let g = maxwarp_graph::Csr::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        // Vertex 3 unreachable from 0.
        let levels = vec![0, 1, 2, u32::MAX];
        assert_eq!(reachable_edges(&g, &levels), 2);
    }

    #[test]
    fn bfs_fresh_timed_reports_device_cycles() {
        let g = Dataset::Regular.build(Scale::Tiny);
        let (out, timing) = bfs_fresh_timed(
            &g,
            0,
            maxwarp::Method::Baseline,
            &maxwarp::ExecConfig::default(),
        );
        // The accumulated timing covers every launch of the run, so its
        // cycle sum matches the run's cycle count and its utilization
        // metrics are well-formed.
        assert_eq!(timing.cycles, out.run.cycles());
        assert!(timing.dram_utilization() > 0.0);
        assert!(timing.sm_imbalance() >= 1.0);
        assert_eq!(
            timing.breakdown_total().total(),
            timing.cycles * timing.sm_breakdown.len() as u64
        );
    }

    #[test]
    fn bfs_fresh_is_deterministic() {
        let g = Dataset::Regular.build(Scale::Tiny);
        let a = bfs_fresh(
            &g,
            0,
            maxwarp::Method::warp(8),
            &maxwarp::ExecConfig::default(),
        );
        let b = bfs_fresh(
            &g,
            0,
            maxwarp::Method::warp(8),
            &maxwarp::ExecConfig::default(),
        );
        assert_eq!(a.run.cycles(), b.run.cycles());
        assert_eq!(a.levels, b.levels);
    }
}
