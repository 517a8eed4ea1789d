//! The write-if-missing, line-by-line golden comparison of the workspace's
//! cross-commit oracles (`timing_replay`, `kernel_matrix`, the shard
//! identity sweeps). Each test target includes this file with `#[path]`.
//!
//! To move an oracle on purpose, delete its golden file, run the test at
//! the commit whose behaviour is the reference, and commit the result.

use std::path::Path;

/// Compare `got` with the golden file at `path` line by line; each line is
/// one of `unit` ("cells", "inputs") in the failure message. A missing
/// file is written from `got`, and the test fails so that it is committed.
pub fn assert_matches_golden(path: &Path, got: &str, unit: &str) {
    let Ok(want) = std::fs::read_to_string(path) else {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(path, got).unwrap();
        panic!("{} did not exist; wrote it — commit it", path.display());
    };
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  golden: {w}\n  now:    {g}"))
        .collect();
    let (lines, now) = (want.lines().count(), got.lines().count());
    assert!(
        !diffs.is_empty() || lines == now,
        "{} has {lines} {unit}, now {now}; the first {} match",
        path.display(),
        lines.min(now)
    );
    assert!(
        diffs.is_empty(),
        "{} of {lines} {unit} differ from {} ({now} lines now):\n{}",
        diffs.len(),
        path.display(),
        diffs[..diffs.len().min(12)].join("\n")
    );
}
