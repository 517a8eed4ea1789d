//! Sequential reference implementations: one answer per algorithm.
//!
//! Every kernel result in the workspace is validated against these, and the
//! serve tier's CPU fallback answers with them. They favour obviousness
//! over speed. The triangle count lives in [`crate::triangles`]
//! ([`crate::count_triangles`]), beside the forward orientation the device
//! kernel shares.

use crate::csr::Csr;
use std::collections::{BinaryHeap, VecDeque};

/// Level assigned to unreachable vertices.
pub const INF_LEVEL: u32 = u32::MAX;

/// Distance assigned to unreachable vertices.
pub const INF_DIST: u32 = u32::MAX;

/// BFS levels from `src` (0 at the source, `INF_LEVEL` if unreachable).
pub fn bfs_levels(g: &Csr, src: u32) -> Vec<u32> {
    assert!(src < g.num_vertices());
    let mut levels = vec![INF_LEVEL; g.num_vertices() as usize];
    levels[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let next = levels[u as usize] + 1;
        for &v in g.neighbors(u) {
            if levels[v as usize] == INF_LEVEL {
                levels[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    levels
}

/// Single-source shortest paths with non-negative `u32` weights (aligned
/// with `g.col_indices()`), via Dijkstra. Distances saturate below
/// `INF_DIST`.
pub fn sssp_dijkstra(g: &Csr, weights: &[u32], src: u32) -> Vec<u32> {
    assert_eq!(weights.len() as u64, g.num_edges(), "one weight per edge");
    assert!(src < g.num_vertices());
    let mut dist = vec![INF_DIST; g.num_vertices() as usize];
    dist[src as usize] = 0;
    // Max-heap of Reverse((dist, vertex)).
    let mut heap = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u32, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        let row = g.row_offsets()[u as usize] as usize;
        for (k, &v) in g.neighbors(u).iter().enumerate() {
            let w = weights[row + k];
            let nd = d.saturating_add(w).min(INF_DIST - 1);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Connected components, treating every edge as undirected. Returns per-
/// vertex labels where each component's label is its smallest vertex id.
pub fn connected_components(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    for (u, v) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // Union by smaller label so roots are component minima.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[hi as usize] = lo;
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// The fixpoint the device CC kernels reach on any graph, directed or not:
/// every vertex takes the smallest id among the vertices that reach it
/// along out-edges, itself included. The kernels push labels along
/// out-edges only, so on a directed graph this differs from
/// [`connected_components`], which ignores direction; on a symmetric graph
/// both are the component minima.
///
/// Linear time: sources are searched in increasing id order, and a search
/// stops at vertices a smaller source already claimed — everything such a
/// vertex reaches, that source reached too.
pub fn min_reaching_label(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n as usize];
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = s;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = s;
                    stack.push(v);
                }
            }
        }
    }
    label
}

/// PageRank with uniform teleport, `iters` synchronous iterations,
/// damping `d`. Dangling mass is redistributed uniformly. Returns `f64`
/// ranks summing to ~1.
pub fn pagerank(g: &Csr, iters: u32, d: f64) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        let mut dangling = 0.0;
        next.fill(0.0);
        for u in 0..n as u32 {
            let deg = g.degree(u);
            if deg == 0 {
                dangling += rank[u as usize];
            } else {
                let share = rank[u as usize] / deg as f64;
                for &v in g.neighbors(u) {
                    next[v as usize] += share;
                }
            }
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        for r in next.iter_mut() {
            *r = base + d * *r;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Brandes betweenness centrality restricted to the given source set
/// (unnormalized; full BC uses all vertices as sources, which is O(nm) —
/// GPU evaluations conventionally sample sources).
///
/// Shortest-path counts are kept in `f64`: on meshes they grow like
/// central binomial coefficients and overflow any integer type.
pub fn betweenness(g: &Csr, sources: &[u32]) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
        // Forward phase: BFS computing shortest-path counts.
        let mut level = vec![u32::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        level[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            order.push(u);
            let next = level[u as usize] + 1;
            for &v in g.neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = next;
                    q.push_back(v);
                }
                if level[v as usize] == next {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        // Backward phase: dependency accumulation in reverse BFS order.
        let mut delta = vec![0.0f64; n];
        for &u in order.iter().rev() {
            let next = level[u as usize] + 1;
            for &v in g.neighbors(u) {
                if level[v as usize] == next {
                    delta[u as usize] +=
                        sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            if u != s {
                bc[u as usize] += delta[u as usize];
            }
        }
    }
    bc
}

/// Greedy sequential graph coloring (first-fit in vertex order) on a
/// symmetric graph; returns per-vertex colors. Uses at most `max_degree+1`
/// colors — the comparison bound for the parallel coloring kernels.
pub fn greedy_coloring(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut colors = vec![u32::MAX; n];
    let mut forbidden: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        forbidden.clear();
        for &u in g.neighbors(v) {
            if colors[u as usize] != u32::MAX {
                forbidden.push(colors[u as usize]);
            }
        }
        forbidden.sort_unstable();
        let mut c = 0u32;
        for &f in &forbidden {
            if f == c {
                c += 1;
            } else if f > c {
                break;
            }
        }
        colors[v as usize] = c;
    }
    colors
}

/// Core numbers of a symmetric graph by sequential peeling (bucket-free,
/// O(rounds·n), fine at test sizes): the core number of a vertex is the
/// largest k such that it belongs to a subgraph where every vertex has
/// degree ≥ k.
pub fn kcore(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut deg: Vec<i64> = (0..n as u32).map(|v| g.degree(v) as i64).collect();
    let mut core = vec![u32::MAX; n];
    let mut remaining = n;
    let mut k = 0u32;
    while remaining > 0 {
        let mut peeled_any = true;
        while peeled_any {
            peeled_any = false;
            for v in 0..n {
                if core[v] == u32::MAX && deg[v] <= k as i64 {
                    core[v] = k;
                    remaining -= 1;
                    peeled_any = true;
                    for &u in g.neighbors(v as u32) {
                        deg[u as usize] -= 1;
                    }
                }
            }
        }
        k += 1;
    }
    core
}

/// Sparse matrix-vector product `y = A·x`, where `A` is `g`'s adjacency
/// structure with one `f32` value per edge (aligned with
/// `g.col_indices()`). Each row sums in edge order.
pub fn spmv(g: &Csr, values: &[f32], x: &[f32]) -> Vec<f32> {
    assert_eq!(values.len() as u64, g.num_edges());
    assert_eq!(x.len() as u32, g.num_vertices());
    (0..g.num_vertices())
        .map(|r| {
            let row = g.row_offsets()[r as usize] as usize;
            g.neighbors(r)
                .iter()
                .enumerate()
                .map(|(k, &c)| values[row + k] * x[c as usize])
                .sum()
        })
        .collect()
}

/// True if no edge connects two vertices of the same color and every
/// vertex is colored.
pub fn is_proper_coloring(g: &Csr, colors: &[u32]) -> bool {
    if colors.len() as u32 != g.num_vertices() {
        return false;
    }
    if colors.contains(&u32::MAX) {
        return false;
    }
    g.edges()
        .all(|(u, v)| u == v || colors[u as usize] != colors[v as usize])
}

/// Number of distinct values in a label array (component count).
pub fn count_distinct(labels: &[u32]) -> usize {
    let mut l = labels.to_vec();
    l.sort_unstable();
    l.dedup();
    l.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, grid2d, random_weights};

    fn path4() -> Csr {
        // 0 - 1 - 2 - 3 (symmetric), 4 isolated
        Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path4();
        let lv = bfs_levels(&g, 0);
        assert_eq!(lv, vec![0, 1, 2, 3, INF_LEVEL]);
        let lv2 = bfs_levels(&g, 2);
        assert_eq!(lv2, vec![2, 1, 0, 1, INF_LEVEL]);
    }

    #[test]
    fn bfs_on_grid_diameter() {
        let g = grid2d(10, 10);
        let lv = bfs_levels(&g, 0);
        // Manhattan distance to opposite corner.
        assert_eq!(lv[99], 18);
        assert!(lv.iter().all(|&l| l != INF_LEVEL));
    }

    #[test]
    fn sssp_unit_weights_matches_bfs() {
        let g = erdos_renyi(300, 2400, 4);
        let w = vec![1u32; g.num_edges() as usize];
        let d = sssp_dijkstra(&g, &w, 0);
        let lv = bfs_levels(&g, 0);
        for v in 0..300 {
            if lv[v] == INF_LEVEL {
                assert_eq!(d[v], INF_DIST);
            } else {
                assert_eq!(d[v], lv[v]);
            }
        }
    }

    #[test]
    fn sssp_prefers_cheap_detour() {
        // 0->1 cost 10; 0->2 cost 1, 2->1 cost 1.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let d = sssp_dijkstra(&g, &[10, 1, 1], 0);
        assert_eq!(d, vec![0, 2, 1]);
    }

    #[test]
    fn components_on_disconnected_graph() {
        let g = path4();
        let cc = connected_components(&g);
        assert_eq!(cc, vec![0, 0, 0, 0, 4]);
        assert_eq!(count_distinct(&cc), 2);
    }

    #[test]
    fn components_ignore_direction() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 1), (3, 2)]);
        let cc = connected_components(&g);
        assert!(cc.iter().all(|&c| c == 0));
    }

    #[test]
    fn min_reaching_label_matches_brute_force() {
        let g = erdos_renyi(60, 90, 9);
        let n = g.num_vertices() as usize;
        // reach[u][v]: v reachable from u (transitive closure by DFS).
        let reach: Vec<Vec<bool>> = (0..n as u32)
            .map(|u| {
                let mut seen = vec![false; n];
                let mut stack = vec![u];
                seen[u as usize] = true;
                while let Some(x) = stack.pop() {
                    for &y in g.neighbors(x) {
                        if !seen[y as usize] {
                            seen[y as usize] = true;
                            stack.push(y);
                        }
                    }
                }
                seen
            })
            .collect();
        let want: Vec<u32> = (0..n)
            .map(|v| (0..n).find(|&u| reach[u][v]).unwrap() as u32)
            .collect();
        assert_eq!(min_reaching_label(&g), want);
        // Symmetric input: the component minima.
        let sym = g.symmetrize();
        assert_eq!(min_reaching_label(&sym), connected_components(&sym));
    }

    #[test]
    fn kcore_on_known_graphs() {
        // A triangle with a tail: triangle vertices are 2-core, tail 1.
        let g = Csr::from_edges(
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 2),
                (2, 3),
                (3, 2),
            ],
        );
        assert_eq!(kcore(&g), vec![2, 2, 2, 1]);
        // K5: everyone is 4-core.
        let mut e5 = Vec::new();
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    e5.push((a, b));
                }
            }
        }
        assert_eq!(kcore(&Csr::from_edges(5, &e5)), vec![4; 5]);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        // Star pointing at vertex 0.
        let edges: Vec<(u32, u32)> = (1..50u32).map(|v| (v, 0)).collect();
        let g = Csr::from_edges(50, &edges);
        let pr = pagerank(&g, 30, 0.85);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        for v in 1..50 {
            assert!(pr[0] > pr[v]);
        }
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let edges: Vec<(u32, u32)> = (0..8u32).map(|v| (v, (v + 1) % 8)).collect();
        let g = Csr::from_edges(8, &edges);
        let pr = pagerank(&g, 50, 0.85);
        for p in &pr {
            assert!((p - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_handles_dangling() {
        // 0 -> 1, 1 dangling.
        let g = Csr::from_edges(2, &[(0, 1)]);
        let pr = pagerank(&g, 40, 0.85);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pr[1] > pr[0]);
    }

    #[test]
    fn betweenness_on_path() {
        // Path 0-1-2-3-4 (symmetric): with all sources, interior vertices
        // carry the classic values 2*(k*(n-1-k)) pairs... check vertex 2 is
        // the maximum and endpoints are 0.
        let mut edges = Vec::new();
        for v in 0..4u32 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let g = Csr::from_edges(5, &edges);
        let sources: Vec<u32> = (0..5).collect();
        let bc = betweenness(&g, &sources);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
        assert!(bc[2] > bc[1] && bc[2] > bc[3]);
        // Path BC (directed sum over ordered pairs): v1 carries (1,3)x2
        // pairs... exact: bc[k] = 2*k*(4-k) for path of 5? vertex1: pairs
        // {0}x{2,3,4} and reverse = 6; vertex2: {0,1}x{3,4} x2 = 8.
        assert!((bc[1] - 6.0).abs() < 1e-9, "{}", bc[1]);
        assert!((bc[2] - 8.0).abs() < 1e-9, "{}", bc[2]);
    }

    #[test]
    fn betweenness_star_center_carries_all() {
        let mut edges = Vec::new();
        for v in 1..6u32 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        let g = Csr::from_edges(6, &edges);
        let sources: Vec<u32> = (0..6).collect();
        let bc = betweenness(&g, &sources);
        // Center mediates all 5*4 ordered leaf pairs.
        assert!((bc[0] - 20.0).abs() < 1e-9, "{}", bc[0]);
        for b in &bc[1..6] {
            assert_eq!(*b, 0.0);
        }
    }

    #[test]
    fn betweenness_subset_of_sources() {
        let g = erdos_renyi(100, 800, 5).symmetrize();
        let all: Vec<u32> = (0..100).collect();
        let bc_all = betweenness(&g, &all);
        let bc_one = betweenness(&g, &[0]);
        for v in 0..100 {
            assert!(bc_one[v] <= bc_all[v] + 1e-9);
        }
    }

    #[test]
    fn greedy_coloring_is_proper() {
        let g = erdos_renyi(300, 3000, 7).symmetrize();
        let colors = greedy_coloring(&g);
        assert!(is_proper_coloring(&g, &colors));
        let max_deg = (0..300).map(|v| g.degree(v)).max().unwrap();
        assert!(*colors.iter().max().unwrap() <= max_deg);
    }

    #[test]
    fn coloring_validator_catches_errors() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]);
        assert!(is_proper_coloring(&g, &[0, 1, 0]));
        assert!(!is_proper_coloring(&g, &[0, 0, 1]), "adjacent same color");
        assert!(!is_proper_coloring(&g, &[0, 1]), "wrong length");
        assert!(!is_proper_coloring(&g, &[0, u32::MAX, 0]), "uncolored");
    }

    #[test]
    fn grid_is_two_colorable() {
        let g = grid2d(8, 8);
        let colors = greedy_coloring(&g);
        assert!(is_proper_coloring(&g, &colors));
        assert!(*colors.iter().max().unwrap() <= 1, "meshes are bipartite");
    }

    #[test]
    fn weights_align_with_edges() {
        let g = erdos_renyi(100, 500, 8);
        let w = random_weights(&g, 8, 1);
        let d = sssp_dijkstra(&g, &w, 0);
        assert_eq!(d[0], 0);
    }
}
