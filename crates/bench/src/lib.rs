//! # maxwarp-bench — the experiment harness
//!
//! One module per table/figure of the paper (see DESIGN.md's experiment
//! index) and one binary, `repro_all`, which regenerates all of them or the
//! ones named with `--only`:
//!
//! ```text
//! cargo run --release -p maxwarp-bench --bin repro_all [--only fig3,fig4] [tiny|small|medium] [--jobs N]
//! ```
//!
//! Every experiment expresses its measurements as independent cells run
//! through [`harness::Harness`], so `--jobs N` fans them out over N
//! worker threads while keeping the printed tables byte-identical to a
//! serial (`--jobs 1`) run.
//!
//! Criterion benches (in `benches/`) measure the *host* performance of the
//! simulator and baselines; the experiments report *simulated* GPU
//! cycles.

pub mod experiments;
pub mod harness;
pub mod util;
