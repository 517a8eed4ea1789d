//! # maxwarp-cpu — multicore CPU baselines
//!
//! Wall-clock-measured CPU implementations of the graph algorithms, used
//! for the paper's GPU-vs-CPU comparison (figure F5 in DESIGN.md):
//! sequential queue BFS, level-synchronous parallel BFS, Bellman-Ford SSSP,
//! label-propagation connected components, and PageRank — each with a
//! parallel variant built on crossbeam scoped threads.
//!
//! ```
//! use maxwarp_cpu::{bfs, measure};
//! use maxwarp_graph::{Dataset, Scale};
//!
//! let g = Dataset::Random.build(Scale::Tiny);
//! let (levels, elapsed) = measure::time_once(|| bfs::bfs_parallel(&g, 0, 2));
//! assert_eq!(levels[0], 0);
//! let _eps = measure::edges_per_second(g.num_edges(), elapsed);
//! ```

pub mod bfs;
pub mod bfs_hybrid;
pub mod cc;
pub mod fallback;
pub mod measure;
pub mod pagerank;
pub mod sssp;

pub use bfs::{bfs_parallel, bfs_parallel_default, bfs_sequential};
pub use bfs_hybrid::{bfs_hybrid, bfs_hybrid_symmetric, HybridConfig, HybridStats};
pub use cc::{cc_label_propagation, cc_parallel, cc_parallel_default, min_reaching_label};
pub use fallback::{
    run as fallback_run, supported as fallback_supported, FallbackData, FallbackParams,
};
pub use measure::{default_threads, edges_per_second, time_median, time_once};
pub use pagerank::{pagerank_parallel, pagerank_parallel_default, pagerank_push, rank_linf};
pub use sssp::{sssp_bellman_ford, sssp_parallel, sssp_parallel_default};
