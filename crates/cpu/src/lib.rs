//! # maxwarp-cpu — the paper's CPU BFS baselines
//!
//! The comparison points of the paper's GPU-vs-CPU figure (F5 in
//! DESIGN.md): a level-synchronous multicore BFS on crossbeam scoped
//! threads, timed against the sequential queue BFS of
//! `maxwarp_graph::reference`; the wall-clock helpers that time them; and
//! the serve tier's circuit-breaker fallback, which answers with the
//! sequential references.
//!
//! ```
//! use maxwarp_cpu::{bfs_parallel, measure};
//! use maxwarp_graph::{Dataset, Scale};
//!
//! let g = Dataset::Random.build(Scale::Tiny);
//! let (levels, elapsed) = measure::time_once(|| bfs_parallel(&g, 0, 2));
//! assert_eq!(levels[0], 0);
//! let _eps = measure::edges_per_second(g.num_edges(), elapsed);
//! ```

mod bfs;
mod fallback;
pub mod measure;

pub use bfs::{bfs_parallel, bfs_parallel_default};
pub use fallback::{
    run as fallback_run, supported as fallback_supported, FallbackData, FallbackParams,
};
pub use measure::{default_threads, edges_per_second, time_median, time_once};
