//! F5 — GPU (simulated) vs CPU (measured): BFS traversal throughput.
//!
//! CPU numbers are real wall-clock on this machine; GPU numbers convert
//! simulated cycles at the device clock. The paper's shape: on large
//! heavy-tailed graphs the warp-centric GPU beats the multicore CPU, which
//! beats one core; on road networks the CPU is competitive.
//!
//! The simulated GPU cells run on the harness; the CPU wall-clock
//! measurements run serially *after* the workers have quiesced, so the
//! timings are not perturbed by harness threads (they are inherently
//! machine-dependent either way).

use crate::harness::{row, Cell, Harness};
use crate::util::{banner, bfs_fresh, built_datasets_par, device, f, reachable_edges};
use maxwarp::{ExecConfig, Method, VirtualWarp};
use maxwarp_cpu::{bfs_parallel_default, default_threads, time_median};
use maxwarp_graph::{reference, Scale};

/// Print MTEPS for CPU-1, CPU-N, GPU-baseline, GPU-warp-centric.
pub fn run(scale: Scale, h: &Harness) {
    banner(
        "F5",
        "BFS throughput: CPU (measured) vs simulated GPU",
        scale,
    );
    let clock = device().clock_hz;
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12}  (MTEPS; cpu-par uses {} threads)",
        "dataset",
        "cpu-seq",
        "cpu-par",
        "gpu-baseline",
        "gpu-warp",
        default_threads()
    );
    let exec = ExecConfig::default();
    let built = built_datasets_par(scale, h);
    let mut cells = Vec::new();
    for (d, g, src) in &built {
        let src = *src;
        cells.push(Cell::new(format!("{} baseline", d.name()), move || {
            bfs_fresh(g, src, Method::Baseline, &exec).run.cycles()
        }));
        for vw in VirtualWarp::PAPER_SWEEP {
            cells.push(Cell::new(format!("{} {vw}", d.name()), move || {
                bfs_fresh(g, src, Method::warp(vw.k()), &exec).run.cycles()
            }));
        }
    }
    let outs = h.run("F5:gpu", cells);

    let stride = 1 + VirtualWarp::PAPER_SWEEP.len();
    for ((d, g, src), chunk) in built.iter().zip(outs.chunks(stride)) {
        let Some(chunk) = row("F5", d.name(), chunk) else {
            continue;
        };
        let (levels, t_seq) = time_median(3, || reference::bfs_levels(g, *src));
        let (_, t_par) = time_median(3, || bfs_parallel_default(g, *src));
        let edges = reachable_edges(g, &levels);
        let mteps = |secs: f64| edges as f64 / secs / 1e6;

        let base = *chunk[0];
        let best = match chunk[1..].iter().min() {
            Some(b) => **b,
            None => unreachable!("each chunk carries the per-method cycle counts"),
        };
        let gpu_mteps = |cycles: u64| edges as f64 / (cycles as f64 / clock as f64) / 1e6;
        println!(
            "{:<14} {:>10} {:>10} {:>12} {:>12}",
            d.name(),
            f(mteps(t_seq.as_secs_f64())),
            f(mteps(t_par.as_secs_f64())),
            f(gpu_mteps(base)),
            f(gpu_mteps(best)),
        );
    }
    println!(
        "(expected shape: gpu-warp > cpu-par > cpu-seq on big heavy-tailed graphs; CPU \
         competitive on RoadNet*, where the GPU has little parallel slack per level)"
    );
}
