//! The static warp-task launch costs what its work costs. A one-lane
//! virtual warp (`vw1`) walks the same vertices as the thread-per-vertex
//! baseline, one per lane, so where its instruction count is within 2 % of
//! the baseline's, its simulated cycles must be within 2 % as well. Every
//! catalog kernel is checked on the eight Tiny families and on Patents\*
//! Small, the first scale whose chunk count exceeds the device's resident
//! warps.

use maxwarp::catalog::{Inputs, KERNELS};
use maxwarp::{ExecConfig, Method};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig, KernelStats};

const TOLERANCE: f64 = 0.02;

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Check every kernel on each of `graphs`, failing with every cell whose
/// instruction counts agree within the tolerance but whose cycles do not.
fn check(graphs: &[(Dataset, Scale)]) {
    let mut checked = 0;
    let mut failures = Vec::new();
    for &(dataset, scale) in graphs {
        let inputs = Inputs::new(dataset.build(scale));
        for kernel in &KERNELS {
            let stats = |m: Method| -> KernelStats {
                let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
                let (run, _) = (kernel.run)(&inputs, &mut gpu, m, &ExecConfig::default())
                    .unwrap_or_else(|e| panic!("{} {}: {e}", kernel.name, m.label()));
                run.stats
            };
            let (base, vw1) = (stats(Method::Baseline), stats(Method::warp(1)));
            let instr = ratio(vw1.instructions, base.instructions);
            let cycles = ratio(vw1.cycles, base.cycles);
            let cell = format!(
                "{} {scale:?} {}: instr x{instr:.4}, cycles x{cycles:.4}",
                dataset.name(),
                kernel.name
            );
            println!("{cell}");
            if (instr - 1.0).abs() <= TOLERANCE {
                checked += 1;
                if (cycles - 1.0).abs() > TOLERANCE {
                    failures.push(cell);
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no cell had vw1 within 2 % of the baseline's work"
    );
    assert!(
        failures.is_empty(),
        "vw1 cycles left its instruction count behind:\n{}",
        failures.join("\n")
    );
}

#[test]
fn vw1_costs_the_baseline_on_tiny_families() {
    check(&Dataset::ALL.map(|d| (d, Scale::Tiny)));
}

/// 1 563 chunks of 16 vertices: more than the 672 warps Fermi keeps
/// resident.
#[test]
fn vw1_costs_the_baseline_on_patents_small() {
    check(&[(Dataset::PatentsLike, Scale::Small)]);
}
