//! The multicore CPU BFS baseline of the paper's "GPU vs CPU" figure (our
//! F5): level-synchronous, over crossbeam scoped threads. Its sequential
//! counterpart is `maxwarp_graph::reference::bfs_levels`.

use crate::measure::default_threads;
use maxwarp_graph::reference::INF_LEVEL;
use maxwarp_graph::Csr;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Level-synchronous parallel BFS over `threads` workers (crossbeam scoped
/// threads). Each level, the frontier is chunked; workers claim chunks from
/// an atomic cursor, expand them, and CAS vertex levels; per-worker next
/// -frontiers are concatenated at the level barrier. With `threads = 1`
/// this degrades gracefully to roughly the sequential algorithm plus
/// atomics.
pub fn bfs_parallel(g: &Csr, src: u32, threads: usize) -> Vec<u32> {
    assert!(src < g.num_vertices());
    let threads = threads.max(1);
    let n = g.num_vertices() as usize;
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF_LEVEL)).collect();
    levels[src as usize].store(0, Ordering::Relaxed);

    let mut frontier = vec![src];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let cursor = AtomicUsize::new(0);
        let chunk = (frontier.len() / (threads * 8)).max(64);
        let mut next_parts: Vec<Vec<u32>> = Vec::with_capacity(threads);

        let scope_result = crossbeam::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let frontier = &frontier;
                let levels = &levels;
                let cursor = &cursor;
                handles.push(scope.spawn(move |_| {
                    let mut local_next = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= frontier.len() {
                            break;
                        }
                        let end = (start + chunk).min(frontier.len());
                        for &u in &frontier[start..end] {
                            for &v in g.neighbors(u) {
                                if levels[v as usize].load(Ordering::Relaxed) == INF_LEVEL
                                    && levels[v as usize]
                                        .compare_exchange(
                                            INF_LEVEL,
                                            level,
                                            Ordering::Relaxed,
                                            Ordering::Relaxed,
                                        )
                                        .is_ok()
                                {
                                    local_next.push(v);
                                }
                            }
                        }
                    }
                    local_next
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(p) => next_parts.push(p),
                    Err(_) => panic!("bfs worker panicked"),
                }
            }
        });
        if scope_result.is_err() {
            panic!("bfs scope panicked");
        }

        frontier.clear();
        for mut p in next_parts {
            frontier.append(&mut p);
        }
    }

    levels.into_iter().map(|a| a.into_inner()).collect()
}

/// [`bfs_parallel`] with the default worker count.
pub fn bfs_parallel_default(g: &Csr, src: u32) -> Vec<u32> {
    bfs_parallel(g, src, default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::reference::bfs_levels;
    use maxwarp_graph::{erdos_renyi, grid2d, hub_graph, rmat, RmatConfig};

    fn check_matches_reference(g: &Csr, src: u32) {
        let want = bfs_levels(g, src);
        for threads in [1, 2, 4] {
            assert_eq!(bfs_parallel(g, src, threads), want, "parallel x{threads}");
        }
    }

    #[test]
    fn matches_reference_on_er() {
        let g = erdos_renyi(2000, 16_000, 3);
        check_matches_reference(&g, 0);
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat(&RmatConfig::classic(11, 8, 5));
        let src = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        check_matches_reference(&g, src);
    }

    #[test]
    fn matches_reference_on_grid() {
        let g = grid2d(40, 40);
        check_matches_reference(&g, 0);
    }

    #[test]
    fn matches_reference_on_hub() {
        let g = hub_graph(3000, 6, 600, 3, 2);
        let src = (0..g.num_vertices()).max_by_key(|&v| g.degree(v)).unwrap();
        check_matches_reference(&g, src);
    }

    #[test]
    fn isolated_source() {
        let g = Csr::from_edges(4, &[(1, 2)]);
        assert_eq!(
            bfs_parallel(&g, 0, 2),
            vec![0, INF_LEVEL, INF_LEVEL, INF_LEVEL]
        );
    }

    #[test]
    fn default_wrapper_works() {
        let g = erdos_renyi(500, 4000, 1);
        assert_eq!(bfs_parallel_default(&g, 0), bfs_levels(&g, 0));
    }
}
