//! `tool_sanitize` — run every kernel under the warp-hazard sanitizer.
//!
//! Sweeps the cells of `maxwarp::catalog` (every kernel × supported method
//! over a small RMAT graph and a pathological high-degree hub graph), with
//! the sanitizer (`GpuConfig::sanitize`) watching every warp-level
//! operation. Prints each finding and exits nonzero if any
//! *error*-severity hazard (race, divergent shuffle, out-of-bounds,
//! atomic/store mixing) was detected; warn-only perf lints (bank conflicts,
//! poor coalescing) are reported but do not fail the run.
//!
//! ```text
//! tool_sanitize [--device fermi|gtx280] [--verbose]
//! ```

use maxwarp_bench::util::{lines, observer_sweep, sweep_args, Verdict};
use maxwarp_simt::Severity;

fn main() {
    let (_, mut cfg, verbose) =
        sweep_args("usage: tool_sanitize [--device fermi|gtx280] [--verbose]");
    cfg.sanitize = true;
    let sweep = observer_sweep(&cfg, verbose, |_, gpu| {
        let san = gpu.sanitizer().expect("sanitizer must be on");
        let diags = san.diagnostics();
        Verdict {
            errors: san.error_count(),
            warnings: san.warning_count(),
            error_report: lines(diags.iter().filter(|d| d.severity == Severity::Error)),
            full_report: lines(diags),
        }
    });
    println!(
        "\nsanitize sweep: {} kernel/method/graph combos, {} error(s), {} warning(s)",
        sweep.combos, sweep.errors, sweep.warnings
    );
    sweep.exit_on_failures();
    println!("all combos hazard-free");
}
