//! Wall-clock performance of the CPU baselines (the F5 comparison points).

use criterion::{criterion_group, criterion_main, Criterion};
use maxwarp_cpu::bfs_parallel;
use maxwarp_graph::{reference, Dataset, Scale};

fn bench_cpu_bfs(c: &mut Criterion) {
    let mut grp = c.benchmark_group("cpu_bfs");
    grp.sample_size(20);
    let g = Dataset::Rmat.build(Scale::Small);
    let src = Dataset::Rmat.source(&g);
    grp.bench_function("sequential", |b| b.iter(|| reference::bfs_levels(&g, src)));
    for threads in [1usize, 2, 4] {
        grp.bench_function(format!("parallel_x{threads}"), |b| {
            b.iter(|| bfs_parallel(&g, src, threads))
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_cpu_bfs);
criterion_main!(benches);
