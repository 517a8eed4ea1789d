//! Output checks. Every answer the benchmark times is compared with an
//! implementation that shares no code with the route that produced it: the
//! sequential references of `maxwarp_graph::reference`, plus one fixpoint
//! written here for connected components on directed graphs.

use crate::trace::Trace;
use maxwarp_graph::{reference, Csr};
use maxwarp_serve::{Query, ResultData};

/// PageRank damping used by every workload.
pub const DAMPING: f32 = 0.85;

/// Largest accepted `|device rank - f64 reference rank|`, as a multiple of
/// the uniform rank `1/n`. The device iterates in Q2.30 fixed point and
/// rounds each pushed share to the nearest unit, so a vertex's error grows
/// with its in-degree and the iteration count, and the answer is narrowed to
/// `f32`. The worst case measured is 1.5e-3 of `1/n` (Medium RMAT, 5
/// iterations) and 6.7e-4 on the Small graphs (README.md, "Oracles").
pub const PAGERANK_TOL_UNIFORM: f64 = 1e-2;

/// Labels the device's label propagation converges to. The kernels push a
/// vertex's label along its out-edges only, so on a symmetric graph the
/// fixpoint is the component minimum (the union-find reference), and on a
/// directed graph it is the smallest id among the vertices that reach it.
pub fn cc_labels(g: &Csr) -> Vec<u32> {
    if g.is_symmetric() {
        return reference::connected_components(g);
    }
    let mut label: Vec<u32> = (0..g.num_vertices()).collect();
    loop {
        let mut changed = false;
        for (u, v) in g.edges() {
            if label[u as usize] < label[v as usize] {
                label[v as usize] = label[u as usize];
                changed = true;
            }
        }
        if !changed {
            return label;
        }
    }
}

/// True when `data` is the right answer to `query` on `g`. The reference
/// runs under a `cpu`-layer span, so the traced run reports oracle time.
pub fn check(tr: &mut Trace, g: &Csr, weights: &[u32], query: &Query, data: &ResultData) -> bool {
    tr.call("cpu", "reference", || match (query, data) {
        (Query::Bfs { src: Some(s) }, ResultData::U32s(got)) => {
            *got == reference::bfs_levels(g, *s)
        }
        (Query::Sssp { src: Some(s) }, ResultData::U32s(got)) => {
            *got == reference::sssp_dijkstra(g, weights, *s)
        }
        (Query::Cc, ResultData::U32s(got)) => *got == cc_labels(g),
        (Query::Pagerank { iters, damping }, ResultData::F32s(got)) => {
            let want = reference::pagerank(g, *iters, *damping as f64);
            let err = pagerank_error_uniform(g, got, &want);
            if err > PAGERANK_TOL_UNIFORM {
                eprintln!("pagerank: largest error x n = {err}, above {PAGERANK_TOL_UNIFORM}");
            }
            got.len() == want.len() && err <= PAGERANK_TOL_UNIFORM
        }
        _ => false,
    })
}

/// Largest `|device rank - reference rank| x n` — what
/// [`PAGERANK_TOL_UNIFORM`] bounds.
fn pagerank_error_uniform(g: &Csr, got: &[f32], want: &[f64]) -> f64 {
    let n = g.num_vertices() as f64;
    got.iter()
        .zip(want)
        .map(|(a, b)| (*a as f64 - b).abs() * n)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_cc_takes_the_smallest_ancestor() {
        // 2 -> 0 -> 1, and 3 alone: 0 and 1 cannot hear from each other's
        // descendants, only from ancestors.
        let g = Csr::from_edges(4, &[(2, 0), (0, 1)]);
        assert_eq!(cc_labels(&g), vec![0, 0, 2, 3]);
        let sym = g.symmetrize();
        assert_eq!(cc_labels(&sym), vec![0, 0, 0, 3]);
    }

    #[test]
    fn check_rejects_a_wrong_level() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut tr = Trace::new(false);
        let q = Query::Bfs { src: Some(0) };
        assert!(check(
            &mut tr,
            &g,
            &[],
            &q,
            &ResultData::U32s(vec![0, 1, 2])
        ));
        assert!(!check(
            &mut tr,
            &g,
            &[],
            &q,
            &ResultData::U32s(vec![0, 1, 1])
        ));
        assert!(!check(
            &mut tr,
            &g,
            &[],
            &q,
            &ResultData::F32s(vec![0.0; 3])
        ));
    }
}
