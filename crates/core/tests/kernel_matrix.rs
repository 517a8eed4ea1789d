//! Cross-commit oracle for the kernel layer: every kernel × method cell of
//! the sweep matrix must reproduce, digit for digit, the iteration count,
//! cycles, instruction / transaction / replay / active-lane totals, the
//! per-warp instruction histogram and the answer recorded in
//! `golden/kernel_matrix.txt`. A refactor of `crates/core/src/kernels/`
//! that changes the emitted op sequence of any cell fails here. Every
//! answer must also agree with the kernel's sequential reference within its
//! catalog tolerance (`Kernel::agrees`).
//!
//! The golden file is written by this test when it does not exist (see
//! `crates/simt/tests/support/golden.rs`).

#[path = "../../simt/tests/support/golden.rs"]
mod golden;

use golden::assert_matches_golden;
use maxwarp::catalog::{Inputs, Kernel, KERNELS};
use maxwarp::{method_table, ExecConfig, Method, VirtualWarp, WarpCentricOpts};
use maxwarp_graph::{Dataset, Fnv64, Scale};
use maxwarp_simt::{Gpu, GpuConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Low enough that deferral fires on both Tiny graphs.
const DEFER_THRESHOLD: u32 = 16;

/// The K sweep and `+dyn` for every kernel (a kernel without the
/// dynamic distributor records them as rejected), `+defer` where deferral
/// is implemented.
fn methods(kernel: &Kernel) -> Vec<Method> {
    let opts = |k| WarpCentricOpts::plain(VirtualWarp::new(k));
    let mut v = method_table::k_sweep();
    v.push(Method::WarpCentric(opts(8).with_dynamic()));
    v.push(Method::WarpCentric(opts(32).with_dynamic()));
    let defer = opts(8).with_defer(DEFER_THRESHOLD);
    if kernel.supports(Method::WarpCentric(defer)) {
        v.push(Method::WarpCentric(defer));
        v.push(Method::WarpCentric(
            opts(32).with_dynamic().with_defer(DEFER_THRESHOLD),
        ));
    }
    v
}

/// The default geometry, plus the three `ExecConfig` knobs one at a time
/// for the kernels that honor `cached_graph_loads`.
fn exec_variants(kernel: &str) -> Vec<(&'static str, ExecConfig)> {
    let d = ExecConfig::default();
    let mut v = vec![("default", d)];
    if matches!(kernel, "bfs" | "bfs_hybrid") {
        v.push((
            "cached",
            ExecConfig {
                cached_graph_loads: true,
                ..d
            },
        ));
        v.push((
            "block64",
            ExecConfig {
                block_threads: 64,
                ..d
            },
        ));
        v.push((
            "chunk64",
            ExecConfig {
                chunk_vertices: 64,
                ..d
            },
        ));
    }
    v
}

fn fnv(words: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    for &x in words {
        h.u32(x);
    }
    h.finish()
}

/// One line per cell of `dataset`'s slice of the matrix; every supported
/// cell's answer is first checked against the kernel's reference.
fn cells(dataset: Dataset) -> String {
    let inputs = Inputs::new(dataset.build(Scale::Tiny));
    let mut out = String::new();
    for kernel in &KERNELS {
        let name = kernel.name;
        let want = (kernel.reference)(&inputs);
        for (tag, exec) in exec_variants(name) {
            for m in methods(kernel) {
                let _ = write!(out, "{} {name} {} {tag}:", dataset.name(), m.spec());
                if !kernel.supports(m) {
                    out.push_str(" rejected\n");
                    continue;
                }
                let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
                let (run, payload) = (kernel.run)(&inputs, &mut gpu, m, &exec)
                    .unwrap_or_else(|e| panic!("{} {name} {}: {e}", dataset.name(), m.spec()));
                if let Err(e) = (kernel.agrees)(&inputs, &payload, &want) {
                    panic!("{} {name} {} {tag}: {e}", dataset.name(), m.spec());
                }
                let s = &run.stats;
                let _ = writeln!(
                    out,
                    " iters={} cycles={} instr={} memtx={} replays={} lanes={} pwi={:016x} payload={:016x}",
                    run.iterations,
                    s.cycles,
                    s.instructions,
                    s.mem_transactions,
                    s.atomic_replays,
                    s.active_lane_sum,
                    fnv(&s.per_warp_instructions),
                    fnv(&payload),
                );
            }
        }
    }
    out
}

#[test]
fn every_cell_matches_the_golden_file() {
    let (rmat, hub) = std::thread::scope(|s| {
        let hub = s.spawn(|| cells(Dataset::WikiTalkLike));
        (cells(Dataset::Rmat), hub.join().unwrap())
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel_matrix.txt");
    assert_matches_golden(&path, &(rmat + &hub), "cells");
}
