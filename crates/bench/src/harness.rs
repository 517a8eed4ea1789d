//! The parallel experiment harness.
//!
//! Experiments declare their measurements as a flat list of [`Cell`]s —
//! one independent unit of work each, typically one (dataset, method,
//! config) point owning its own `Gpu` and `DeviceGraph` — and hand them to
//! [`Harness::run`], which fans the cells out over worker threads and
//! returns the results **in input order**. Because every cell is
//! hermetic (fresh device, no shared mutable state) and all table
//! printing happens after collection, the stdout of every experiment is
//! byte-identical whatever the worker count: `--jobs 1` reproduces
//! today's serial output exactly, and `--jobs N` merely reproduces it
//! faster.
//!
//! Per-cell progress and timing go to **stderr** so they never perturb
//! the tables.
//!
//! Cells are **panic-isolated**: a cell that panics is retried once (host
//! failures like allocation pressure are transient; deterministic panics
//! just fail again cheaply), then reported to stderr and returned as
//! `None` in its input-order slot. The other cells' results survive, and
//! [`exit_code`] turns nonzero so batch drivers still fail loudly.

use maxwarp_simt::{cores, fan_out};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Set when any cell in this process failed both attempts.
static FAILED: AtomicBool = AtomicBool::new(false);

/// Process exit code for experiment binaries: 1 if any harness cell
/// failed (after its retry) since the process started, else 0.
pub fn exit_code() -> i32 {
    if FAILED.load(Ordering::Relaxed) {
        1
    } else {
        0
    }
}

/// One independent unit of experiment work: a label (for progress
/// reporting) and a closure producing the cell's measurement. The closure
/// may borrow graphs and configs from the caller's stack (`'a`); it is
/// `FnMut` so the harness can re-invoke it once after a panic.
pub struct Cell<'a, T> {
    label: String,
    run: Box<dyn FnMut() -> T + Send + 'a>,
}

impl<'a, T> Cell<'a, T> {
    /// A cell computing `run()`, reported as `label` in progress output.
    pub fn new(label: impl Into<String>, run: impl FnMut() -> T + Send + 'a) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The cell's progress label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The message of a caught panic, or a placeholder for a non-string payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one cell with panic isolation and a single retry. `None` = the
/// cell failed both attempts (already reported to stderr).
fn run_cell<T>(what: &str, label: &str, run: &mut Box<dyn FnMut() -> T + Send + '_>) -> Option<T> {
    for attempt in 0..2 {
        match catch_unwind(AssertUnwindSafe(&mut *run)) {
            Ok(v) => return Some(v),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                let msg = msg.lines().next().unwrap_or("");
                if attempt == 0 {
                    eprintln!("[{what}] {label}: FAILED ({msg}); retrying once");
                } else {
                    eprintln!("[{what}] {label}: FAILED twice ({msg}); dropping cell");
                    FAILED.store(true, Ordering::Relaxed);
                }
            }
        }
    }
    None
}

/// Runs cell lists across a fixed number of worker threads.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    jobs: usize,
}

impl Harness {
    /// Worker count from the environment: `--jobs N` (or `--jobs=N`) on
    /// the command line, else `MAXWARP_JOBS`, else the machine's available
    /// parallelism.
    pub fn from_env() -> Self {
        Harness::with_jobs(jobs_from_env())
    }

    /// Fixed worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Harness { jobs: jobs.max(1) }
    }

    /// The worker count this harness fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute every cell and return their results in input order, `None`
    /// for cells that failed both attempts (see the module docs on panic
    /// isolation).
    ///
    /// With one job (or one cell) the cells run serially on the calling
    /// thread, in order. Otherwise `min(jobs, cells)` threads pull cells
    /// in input order through [`fan_out`], which returns the results in
    /// input order, so the returned `Vec` is identical either way.
    ///
    /// `what` names the experiment in progress lines (stderr):
    /// `[F2] 3/40 rmat vw8: 412 ms`.
    pub fn run<T: Send>(&self, what: &str, cells: Vec<Cell<'_, T>>) -> Vec<Option<T>> {
        let total = cells.len();
        let done = AtomicUsize::new(0);
        fan_out(self.jobs, cells, |mut cell| {
            let t0 = Instant::now();
            let out = run_cell(what, &cell.label, &mut cell.run);
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            progress(what, n, total, &cell.label, t0);
            out
        })
    }
}

/// Unwrap one table row's worth of per-cell results. Returns the row's
/// values if every cell succeeded; otherwise reports to stderr and returns
/// `None` so the printer can skip the row while the remaining rows stay
/// chunk-aligned (failed cells keep their slots in the flat result list).
pub fn row<'c, T>(what: &str, label: &str, chunk: &'c [Option<T>]) -> Option<Vec<&'c T>> {
    let vals: Vec<&T> = chunk.iter().flatten().collect();
    if vals.len() == chunk.len() {
        Some(vals)
    } else {
        eprintln!(
            "[{what}] {label}: skipping row — {} of {} cells failed",
            chunk.len() - vals.len(),
            chunk.len()
        );
        None
    }
}

fn progress(what: &str, n: usize, total: usize, label: &str, t0: Instant) {
    eprintln!(
        "[{what}] {n}/{total} {label}: {} ms",
        t0.elapsed().as_millis()
    );
}

/// Resolve the worker count: `--jobs N` / `--jobs=N` argument, then the
/// `MAXWARP_JOBS` variable, then available parallelism.
pub fn jobs_from_env() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = if a == "--jobs" {
            args.next()
        } else {
            a.strip_prefix("--jobs=").map(str::to_string)
        };
        if let Some(n) = v.and_then(|v| v.parse::<usize>().ok()) {
            return n.max(1);
        }
    }
    if let Some(n) = std::env::var("MAXWARP_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    cores()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(h: &Harness, n: usize) -> Vec<Option<usize>> {
        let cells = (0..n)
            .map(|i| Cell::new(format!("cell{i}"), move || i * i))
            .collect();
        h.run("test", cells)
    }

    #[test]
    fn serial_and_parallel_agree_in_input_order() {
        let expect: Vec<Option<usize>> = (0..37).map(|i| Some(i * i)).collect();
        assert_eq!(squares(&Harness::with_jobs(1), 37), expect);
        assert_eq!(squares(&Harness::with_jobs(4), 37), expect);
        assert_eq!(
            squares(&Harness::with_jobs(64), 37),
            expect,
            "more jobs than cells"
        );
    }

    #[test]
    fn cells_borrow_the_callers_stack() {
        let data: Vec<u64> = (0..100).collect();
        let cells = data
            .chunks(7)
            .map(|c| Cell::new("chunk", move || c.iter().sum::<u64>()))
            .collect();
        let parts = Harness::with_jobs(3).run("borrow", cells);
        assert_eq!(
            parts.into_iter().flatten().sum::<u64>(),
            (0..100).sum::<u64>()
        );
    }

    #[test]
    fn single_job_runs_on_calling_thread() {
        let main_id = std::thread::current().id();
        let cells = vec![Cell::new("id", move || std::thread::current().id())];
        let ids = Harness::with_jobs(1).run("serial", cells);
        assert_eq!(ids[0], Some(main_id));
    }

    #[test]
    fn panicking_cell_yields_partial_results_and_failure_exit() {
        // One poisoned cell among nine: the harness must keep the other
        // results in their input-order slots, report the failure, and
        // flip the process exit code — without tearing down the workers.
        for jobs in [1usize, 4] {
            let cells: Vec<Cell<'_, usize>> = (0..9)
                .map(|i| {
                    Cell::new(format!("cell{i}"), move || {
                        assert!(i != 4, "deterministic failure in cell 4");
                        i * 10
                    })
                })
                .collect();
            let out = Harness::with_jobs(jobs).run("panic", cells);
            let expect: Vec<Option<usize>> = (0..9)
                .map(|i| if i == 4 { None } else { Some(i * 10) })
                .collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
        assert_eq!(exit_code(), 1, "a failed cell must fail the process");
    }

    #[test]
    fn transient_panic_is_retried_and_succeeds() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let cells = vec![Cell::new("flaky", || {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient host failure");
            }
            7u32
        })];
        let out = Harness::with_jobs(1).run("retry", cells);
        assert_eq!(out, vec![Some(7)]);
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_cell_list_is_fine() {
        let out: Vec<Option<u32>> = Harness::with_jobs(8).run("none", Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Harness::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn heterogeneous_durations_still_merge_in_order() {
        // Reverse-staggered sleeps: late cells finish first under
        // parallelism, so a naive completion-order collection would
        // reverse the list.
        let cells: Vec<Cell<'_, usize>> = (0..8)
            .map(|i| {
                Cell::new(format!("sleep{i}"), move || {
                    std::thread::sleep(std::time::Duration::from_millis(8 * (8 - i) as u64));
                    i
                })
            })
            .collect();
        let out = Harness::with_jobs(8).run("stagger", cells);
        assert_eq!(out, (0..8).map(Some).collect::<Vec<_>>());
    }
}
