//! `tool_analyze` — run every kernel under the static abstract-interpretation
//! analyzer and gate CI on error-severity findings.
//!
//! Sweeps the cells of `maxwarp::catalog` (every kernel × supported method
//! over a small RMAT graph and a pathological high-degree hub graph) with
//! the analyzer (`GpuConfig::analyze`) abstracting every warp-level
//! operation into affine access forms. Prints a per-combo status line, a
//! per-kernel summary table, and writes the machine-readable report to
//! `results/analyze_<device>.json`. Exits nonzero if any *error*-severity
//! finding (definite race, barrier divergence, shared uninitialized read,
//! out-of-bounds, divergent shuffle) was produced; warn-only findings
//! (may-races, coalescing/bank-conflict predictions, redundant ballots) are
//! reported but do not fail the run.
//!
//! ```text
//! tool_analyze [--device fermi|gtx280] [--verbose]
//! ```

use maxwarp_bench::util::{lines, observer_sweep, sweep_args, write_results, Verdict};
use maxwarp_simt::Severity;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn main() {
    let (device_name, mut cfg, verbose) =
        sweep_args("usage: tool_analyze [--device fermi|gtx280] [--verbose]");
    cfg.analyze = true;
    // kernel -> (combos, errors, warnings) for the summary table, and each
    // combo's JSON report.
    let mut per_kernel: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut reports: Vec<(String, String)> = Vec::new();
    let sweep = observer_sweep(&cfg, verbose, |cell, gpu| {
        let anl = gpu.analyzer().expect("analyzer must be on");
        let v = Verdict {
            errors: anl.error_count(),
            warnings: anl.warning_count(),
            error_report: lines(
                anl.findings()
                    .iter()
                    .filter(|f| f.severity == Severity::Error),
            ),
            full_report: anl.report(),
        };
        let slot = per_kernel.entry(cell.kernel.name).or_default();
        *slot = (slot.0 + 1, slot.1 + v.errors, slot.2 + v.warnings);
        reports.push((cell.label(), anl.to_json()));
        v
    });

    // Per-kernel summary table.
    println!(
        "\n{:<14} {:>7} {:>8} {:>9}",
        "kernel", "combos", "errors", "warnings"
    );
    for (k, (c, e, w)) in &per_kernel {
        println!("{k:<14} {c:>7} {e:>8} {w:>9}");
    }
    let (combos, errors, warnings) = (sweep.combos, sweep.errors, sweep.warnings);
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

    sweep.exit_on_failures();
    println!("all combos statically clean");
}
