//! Circuit-breaker fallback entry point for the serve tier.
//!
//! When maxwarp-serve's per-`(graph, algorithm)` circuit breaker opens
//! (after K consecutive launch faults), requests are routed here: a
//! correct-but-slow CPU execution that keeps answers flowing while the
//! device path recovers. The interface is deliberately untyped on the
//! serve side — algorithms are named by their stable label (the same
//! strings `maxwarp_serve::Algo::label` produces) so this crate stays
//! independent of serve's request types.
//!
//! Every answer comes from the sequential references of
//! `maxwarp_graph::reference`. Only the BFS family, SSSP, CC and PageRank
//! are covered; [`supported`] lets the breaker decide between degrading to
//! fallback and failing fast.

use maxwarp_graph::{reference, Csr};

/// Fallback output, by shape (mirrors the serve tier's payload shapes).
#[derive(Clone, Debug, PartialEq)]
pub enum FallbackData {
    /// BFS levels / SSSP distances / CC labels.
    U32s(Vec<u32>),
    /// PageRank ranks.
    F32s(Vec<f32>),
}

/// Parameters a fallback run may need; callers fill what the algorithm
/// uses and leave the rest at `Default`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FallbackParams {
    /// Source vertex (BFS family, SSSP).
    pub src: u32,
    /// Iteration count (PageRank).
    pub iters: u32,
    /// Damping factor (PageRank).
    pub damping: f32,
}

/// True if [`run`] can serve this algorithm label.
pub fn supported(algo: &str) -> bool {
    matches!(
        algo,
        "bfs" | "bfs_queue" | "bfs_hybrid" | "sssp" | "cc" | "pagerank"
    )
}

/// Execute the CPU fallback for `algo` on `g`. Returns `None` for
/// algorithms without a CPU implementation (the breaker then fails fast
/// instead of degrading). `params.src` must be a vertex of `g`.
///
/// Correctness contract: BFS levels, shortest distances and min-reaching
/// labels equal the device kernel's fixpoint exactly, on directed graphs
/// too; PageRank is the `f64` reference narrowed to `f32`, within the
/// catalog's PageRank bound of the device's fixed-point ranks.
pub fn run(algo: &str, g: &Csr, weights: &[u32], params: FallbackParams) -> Option<FallbackData> {
    match algo {
        // All three BFS variants answer the same question — levels from
        // `src` — so one sequential queue BFS covers them.
        "bfs" | "bfs_queue" | "bfs_hybrid" => {
            Some(FallbackData::U32s(reference::bfs_levels(g, params.src)))
        }
        "sssp" => Some(FallbackData::U32s(reference::sssp_dijkstra(
            g, weights, params.src,
        ))),
        "cc" => Some(FallbackData::U32s(reference::min_reaching_label(g))),
        "pagerank" => Some(FallbackData::F32s(
            reference::pagerank(g, params.iters, params.damping as f64)
                .into_iter()
                .map(|r| r as f32)
                .collect(),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::{hub_graph, random_weights, reference};

    #[test]
    fn supported_matches_run_coverage() {
        let g = hub_graph(50, 1, 10, 2, 3);
        let w = random_weights(&g, 15, 7);
        for algo in [
            "bfs",
            "bfs_queue",
            "bfs_hybrid",
            "sssp",
            "cc",
            "pagerank",
            "triangles",
            "spmv",
            "nope",
        ] {
            let params = FallbackParams {
                src: 0,
                iters: 3,
                damping: 0.85,
            };
            assert_eq!(
                supported(algo),
                run(algo, &g, &w, params).is_some(),
                "{algo}"
            );
        }
    }

    #[test]
    fn bfs_fallback_matches_reference() {
        let g = hub_graph(200, 2, 40, 3, 11);
        let params = FallbackParams {
            src: 1,
            ..Default::default()
        };
        let Some(FallbackData::U32s(levels)) = run("bfs", &g, &[], params) else {
            panic!("bfs fallback missing");
        };
        assert_eq!(levels, reference::bfs_levels(&g, 1));
    }

    #[test]
    fn cc_labels_are_min_label_fixpoint() {
        // Symmetric input, where the fixpoint is the component partition.
        let g = hub_graph(120, 2, 30, 2, 5).symmetrize();
        let Some(FallbackData::U32s(labels)) = run("cc", &g, &[], FallbackParams::default()) else {
            panic!("cc fallback missing");
        };
        // There every label is its component's minimum, as in union-find.
        assert_eq!(labels, reference::connected_components(&g));
    }

    #[test]
    fn cc_fallback_follows_edge_direction() {
        // 1 -> 0 -> 2 <- 3. The device kernels push labels along out-edges
        // only: nothing reaches 1 or 3, so they keep their own ids, and 2
        // takes the 0 that flowed into it. Propagating both ways would put
        // every vertex in component 0.
        let g = Csr::from_edges(4, &[(1, 0), (0, 2), (3, 2)]);
        let Some(FallbackData::U32s(labels)) = run("cc", &g, &[], FallbackParams::default()) else {
            panic!("cc fallback missing");
        };
        assert_eq!(labels, vec![0, 1, 0, 3]);
    }
}
