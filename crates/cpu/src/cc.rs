//! CPU connected-components baselines: sequential union-find (the
//! reference) lives in `maxwarp-graph`; here is the iterative
//! label-propagation algorithm the GPU kernels mirror, sequential and
//! parallel.

use crate::measure::default_threads;
use maxwarp_graph::Csr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Label propagation to a fixpoint: every vertex repeatedly takes the
/// minimum label over itself and its neighbors (edges treated as
/// undirected by propagating both ways). Labels end up as each component's
/// minimum vertex id — identical to the union-find reference.
pub fn cc_label_propagation(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n).collect();
    loop {
        let mut changed = false;
        for u in 0..n {
            for &v in g.neighbors(u) {
                let (lu, lv) = (label[u as usize], label[v as usize]);
                if lu < lv {
                    label[v as usize] = lu;
                    changed = true;
                } else if lv < lu {
                    label[u as usize] = lv;
                    changed = true;
                }
            }
        }
        // Pointer-jump so labels converge to component minima quickly.
        for u in 0..n as usize {
            while label[u] != label[label[u] as usize] {
                label[u] = label[label[u] as usize];
            }
        }
        if !changed {
            return label;
        }
    }
}

/// The fixpoint the device CC kernels reach on any graph, directed or not:
/// every vertex takes the smallest id among the vertices that reach it
/// along out-edges, itself included. The kernels push labels along
/// out-edges only, so on a directed graph this differs from
/// [`cc_label_propagation`], which propagates both ways; on a symmetric
/// graph both are the component minima.
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

/// Parallel label propagation with atomic min updates.
pub fn cc_parallel(g: &Csr, threads: usize) -> Vec<u32> {
    let threads = threads.max(1);
    let n = g.num_vertices() as usize;
    let label: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();

    fn atomic_min(a: &AtomicU32, v: u32) -> bool {
        let mut cur = a.load(Ordering::Relaxed);
        while v < cur {
            match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    loop {
        let changed = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let chunk = (n / (threads * 8)).max(256);
        let scope_result = crossbeam::scope(|scope| {
            for _ in 0..threads {
                let label = &label;
                let changed = &changed;
                let cursor = &cursor;
                scope.spawn(move |_| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for u in start..end {
                        let lu = label[u].load(Ordering::Relaxed);
                        for &v in g.neighbors(u as u32) {
                            let lv = label[v as usize].load(Ordering::Relaxed);
                            let m = lu.min(lv);
                            if atomic_min(&label[v as usize], m) | atomic_min(&label[u], m) {
                                changed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        if scope_result.is_err() {
            panic!("cc scope panicked");
        }
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }

    // Sequential pointer-jump to canonical minima.
    let mut out: Vec<u32> = label.into_iter().map(|a| a.into_inner()).collect();
    for u in 0..n {
        while out[u] != out[out[u] as usize] {
            out[u] = out[out[u] as usize];
        }
    }
    out
}

/// [`cc_parallel`] with the default worker count.
pub fn cc_parallel_default(g: &Csr) -> Vec<u32> {
    cc_parallel(g, default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::{connected_components, count_distinct};
    use maxwarp_graph::{erdos_renyi, grid2d};

    #[test]
    fn matches_union_find_on_er() {
        let g = erdos_renyi(1000, 3000, 4);
        let want = connected_components(&g);
        assert_eq!(cc_label_propagation(&g), want);
        for threads in [1, 2, 4] {
            assert_eq!(cc_parallel(&g, threads), want, "x{threads}");
        }
    }

    #[test]
    fn grid_is_one_component() {
        let g = grid2d(30, 30);
        let cc = cc_label_propagation(&g);
        assert!(cc.iter().all(|&c| c == 0));
        assert_eq!(count_distinct(&cc_parallel_default(&g)), 1);
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
    fn disconnected_parts() {
        let g = maxwarp_graph::Csr::from_edges(6, &[(0, 1), (2, 3)]);
        let cc = cc_label_propagation(&g);
        assert_eq!(cc, vec![0, 0, 2, 2, 4, 5]);
        assert_eq!(cc_parallel(&g, 2), cc);
    }
}
