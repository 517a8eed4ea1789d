//! `tool_chaos` — deterministic fault-injection sweep over every kernel.
//!
//! For each (kernel, graph, fault class) combo — the `vw8` cells of
//! `maxwarp::catalog` times three fault classes — the tool runs the kernel
//! twice on clean devices (asserting the simulator is deterministic), then
//! once more with seeded chaos injection (`GpuConfig::faults`) under
//! generous watchdog budgets, with the whole launch wrapped in
//! `catch_unwind`. Every injected fault must land in one of three bins:
//!
//! - **detected-by-error** — the launch returned a structured fault or
//!   watchdog error (`LaunchError::Fault`),
//! - **detected-by-validation** — the run completed but its functional
//!   output (the catalog's `Payload`) differs from the clean reference,
//! - **tolerated** — the output is byte-identical to the clean run.
//!
//! Violations exit nonzero: a panic escaping a launch (the structured
//! error layer must contain kernel failures), a nondeterministic clean
//! run, or a scheduling perturbation that changes functional output
//! (perturbations are timing-only by construction).
//!
//! ```text
//! tool_chaos [--seed N] [--verbose]
//! ```

use maxwarp::catalog::{cells, sweep_graphs, Cell, Payload};
use maxwarp::Method;
use maxwarp_bench::harness::panic_message;
use maxwarp_simt::{FaultConfig, Gpu, GpuConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

type Injector = fn(u64) -> FaultConfig;

/// The three injection classes, swept independently so a detection can be
/// attributed to the fault that caused it. Scheduling perturbations are
/// timing-only: they must never change or fail a run.
const CLASSES: [(&str, Injector); 3] = [
    ("bit-flips", FaultConfig::bit_flips),
    ("dropped-atomics", FaultConfig::dropped_atomics),
    ("sched-perturb", FaultConfig::sched_perturb),
];

/// FNV-1a, to derive a per-combo seed from the label so every combo
/// exercises a different (but reproducible) fault pattern.
fn fnv(base: u64, label: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ base;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

enum RunResult {
    Ok(Payload),
    Error(String),
    Panic(String),
}

/// One run of `cell` on a fresh device, panic-isolated, under generous
/// watchdog budgets so a fault that sends a kernel into a non-converging
/// loop terminates as a structured watchdog error instead of hanging the
/// tool. The answer is compared by bit pattern: the tolerated class means
/// *byte-identical*, not approximately equal.
fn run_isolated(faults: Option<FaultConfig>, cell: &Cell) -> RunResult {
    let mut cfg = GpuConfig::fermi_c2050();
    cfg.watchdog.max_instructions = Some(50_000_000);
    cfg.watchdog.max_cycles = Some(20_000_000_000);
    cfg.faults = faults;
    match catch_unwind(AssertUnwindSafe(|| cell.run(&mut Gpu::new(cfg)))) {
        Ok(Ok((_, payload))) => RunResult::Ok(payload),
        Ok(Err(e)) => RunResult::Error(e.to_string()),
        Err(p) => RunResult::Panic(panic_message(&*p).lines().next().unwrap_or("").to_string()),
    }
}

#[derive(Default)]
struct Tally {
    combos: u64,
    detected_error: u64,
    detected_validation: u64,
    tolerated: u64,
    panics: u64,
    sched_mismatches: u64,
    reference_failures: u64,
}

fn main() {
    let usage = || -> ! {
        eprintln!("usage: tool_chaos [--seed N] [--verbose]");
        exit(2)
    };
    let mut base_seed = 0xC0FFEEu64;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                base_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--verbose" | "-v" => verbose = true,
            _ => usage(),
        }
    }
    // This tool owns its fault configuration; a leaked MAXWARP_FAULTS from
    // the calling environment would overwrite the per-class configs that
    // `Gpu::new` receives (the env var takes precedence by design).
    std::env::remove_var("MAXWARP_FAULTS");
    std::env::remove_var("MAXWARP_MAX_CYCLES");
    std::env::remove_var("MAXWARP_MAX_ITERS");

    let mut tally = Tally::default();
    let graphs = sweep_graphs();
    for cell in cells(&graphs).filter(|c| c.method == Method::warp(8)) {
        let combo = format!("{}/{}", cell.kernel.name, cell.graph);
        // Clean reference, twice: the simulator must be deterministic with
        // faults off or the comparisons below mean nothing.
        let reference = match (run_isolated(None, &cell), run_isolated(None, &cell)) {
            (RunResult::Ok(a), RunResult::Ok(b)) if a == b => a,
            (RunResult::Ok(_), RunResult::Ok(_)) => {
                println!("FAIL  {combo}: clean runs are nondeterministic");
                tally.reference_failures += 1;
                continue;
            }
            (RunResult::Error(e), _) | (_, RunResult::Error(e)) => {
                println!("FAIL  {combo}: clean run errored: {e}");
                tally.reference_failures += 1;
                continue;
            }
            (RunResult::Panic(p), _) | (_, RunResult::Panic(p)) => {
                println!("FAIL  {combo}: clean run panicked: {p}");
                tally.reference_failures += 1;
                tally.panics += 1;
                continue;
            }
        };

        for (class, faults) in CLASSES {
            tally.combos += 1;
            let label = format!("{combo} {class}");
            let sched = class == "sched-perturb";
            match run_isolated(Some(faults(fnv(base_seed, &label))), &cell) {
                RunResult::Ok(d) if d == reference => {
                    tally.tolerated += 1;
                    if verbose {
                        println!("ok    {label}: tolerated (output identical)");
                    }
                }
                RunResult::Ok(_) if sched => {
                    println!("FAIL  {label}: scheduling perturbation changed functional output");
                    tally.sched_mismatches += 1;
                }
                RunResult::Ok(_) => {
                    tally.detected_validation += 1;
                    if verbose {
                        println!("ok    {label}: detected by result validation");
                    }
                }
                RunResult::Error(e) if sched => {
                    println!("FAIL  {label}: scheduling perturbation errored: {e}");
                    tally.sched_mismatches += 1;
                }
                RunResult::Error(e) => {
                    tally.detected_error += 1;
                    if verbose {
                        println!("ok    {label}: detected by structured error: {e}");
                    }
                }
                RunResult::Panic(p) => {
                    println!("FAIL  {label}: panic escaped the launch: {p}");
                    tally.panics += 1;
                }
            }
        }
    }

    println!(
        "\nchaos sweep (seed {base_seed}): {} combos — {} detected by error, {} detected by \
         validation, {} tolerated",
        tally.combos, tally.detected_error, tally.detected_validation, tally.tolerated
    );
    let failures = tally.panics + tally.sched_mismatches + tally.reference_failures;
    if failures > 0 {
        println!(
            "{} violation(s): {} panic escape(s), {} scheduling mismatch(es), {} reference \
             failure(s)",
            failures, tally.panics, tally.sched_mismatches, tally.reference_failures
        );
        exit(1);
    }
    println!("every injected fault was detected or tolerated");
}
