//! # maxwarp — virtual warp-centric graph processing
//!
//! A from-scratch reproduction of **"Accelerating CUDA Graph Algorithms at
//! Maximum Warp"** (Hong, Kim, Oguntebi, Olukotun — PPoPP 2011), running on
//! the [`maxwarp_simt`] SIMT GPU simulator instead of CUDA hardware.
//!
//! The paper's observation: thread-per-vertex GPU graph kernels collapse on
//! real-world graphs because (1) a warp runs as long as its slowest lane,
//! so one high-degree vertex stalls 31 lanes (*intra-warp workload
//! imbalance*), and (2) each lane walks a different adjacency list, so
//! memory accesses never coalesce. The proposed *virtual warp-centric*
//! method assigns each vertex to a K-lane **virtual warp** whose lanes
//! stride the adjacency list together — trading SIMD-lane (ALU)
//! utilization against imbalance via K — plus two refinements: **deferring
//! outliers** (huge-degree vertices go to a queue processed by whole
//! blocks) and **dynamic workload distribution** (warps fetch vertex chunks
//! from an atomic counter).
//!
//! ## Quick start
//!
//! ```
//! use maxwarp::{run_bfs, DeviceGraph, ExecConfig, Method};
//! use maxwarp_graph::{Dataset, Scale};
//! use maxwarp_simt::{Gpu, GpuConfig};
//!
//! // An extreme-hub graph: the workload class the paper targets.
//! let g = Dataset::WikiTalkLike.build(Scale::Tiny);
//! let src = Dataset::WikiTalkLike.source(&g);
//!
//! let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
//! let dg = DeviceGraph::upload(&mut gpu, &g);
//!
//! let baseline = run_bfs(&mut gpu, &dg, src, Method::Baseline, &ExecConfig::default()).unwrap();
//! let warp = run_bfs(&mut gpu, &dg, src, Method::warp(32), &ExecConfig::default()).unwrap();
//!
//! assert_eq!(baseline.levels, warp.levels); // same answer,
//! assert!(warp.run.cycles() < baseline.run.cycles()); // far fewer cycles.
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`vwarp`] | [`VirtualWarp`] sizes and the per-lane [`VwLayout`] registers |
//! | [`method`] | [`Method`] / [`WarpCentricOpts`] / [`ExecConfig`] |
//! | [`device_graph`] | [`DeviceGraph`] — CSR arrays on the device |
//! | `kernels::common` | the traversal operator every kernel below is written against: `item_sweep` (thread-per-item or virtual-warp-per-item launch geometry), `Sweep` (neighbor loop, item owners, outlier deferral), `outlier_sweep` |
//! | [`kernels::bfs`] | BFS (the paper's primary workload) |
//! | [`kernels::bfs_queue`] | frontier-queue BFS (ablation A2) |
//! | [`kernels::bfs_hybrid`] | direction-optimizing (top-down/bottom-up) BFS |
//! | [`kernels::sssp`] | Bellman-Ford SSSP |
//! | [`kernels::cc`] | label-propagation connected components |
//! | [`kernels::pagerank`] | push-style PageRank |
//! | [`kernels::bc`] | betweenness centrality (GPU Brandes) |
//! | [`kernels::triangles`] | forward-edge triangle counting |
//! | [`kernels::coloring`] | Luby-round graph coloring |
//! | [`kernels::kcore`] | k-core decomposition (parallel peel) |
//! | [`kernels::msbfs`] | multi-source BFS (bitmask frontiers) |
//! | [`kernels::spmv`] | CSR sparse matrix-vector product (scalar vs vector CSR) |
//! | [`runner`] | [`AlgoRun`] accumulation |
//! | [`metrics`] | [`RunRow`] table rows, speedups, geomeans |
//! | [`catalog`] | the kernel × method matrix: one entry per kernel above with its method-legality rule, and the hazard sweep's graphs, methods and cells |

pub mod catalog;
pub mod device_graph;
pub mod kernels;
pub mod method;
pub mod metrics;
pub mod runner;
pub mod vwarp;

pub use device_graph::DeviceGraph;
pub use kernels::bc::{run_betweenness, BcOutput};
pub use kernels::bfs::{bfs_round, run_bfs, BfsOutput, BfsState, INF as BFS_INF};
pub use kernels::bfs_hybrid::{run_bfs_hybrid, Direction, GpuHybridConfig, HybridBfsOutput};
pub use kernels::bfs_queue::run_bfs_queue;
pub use kernels::cc::{cc_round, run_cc, CcOutput, CcState};
pub use kernels::coloring::{run_coloring, ColoringOutput};
pub use kernels::kcore::{run_kcore, KcoreOutput};
pub use kernels::msbfs::{run_msbfs, MsBfsOutput};
pub use kernels::pagerank::{
    pagerank_apply_round, pagerank_base_fp, pagerank_damping_fp, pagerank_fp_to_f32,
    pagerank_push_round, run_pagerank, PagerankOutput, PagerankState, PR_SCALE,
};
pub use kernels::spmv::{run_spmv, SpmvOutput};
pub use kernels::sssp::{run_sssp, sssp_round, SsspOutput, SsspState, INF as SSSP_INF};
pub use kernels::triangles::{run_triangles, TriangleOutput};
pub use method::{table as method_table, ExecConfig, Method, WarpCentricOpts};
pub use metrics::{geomean, rows_to_json, RunRow};
pub use runner::{check_iteration_bound, AlgoRun};
pub use vwarp::{VirtualWarp, VwLayout};
