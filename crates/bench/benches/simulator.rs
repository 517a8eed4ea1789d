//! Host-side performance of the SIMT simulator itself: coalescing
//! analysis, the timing engine, and end-to-end kernel launches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use maxwarp_simt::{
    coalesce, timing, BlockCtx, Gpu, GpuConfig, Lanes, Mask, Op, TimingInput, WarpTrace,
};

fn bench_coalesce(c: &mut Criterion) {
    let mut g = c.benchmark_group("coalesce");
    let seq: Vec<u64> = (0..32u64).map(|i| 4096 + i * 4).collect();
    let scat: Vec<u64> = (0..32u64).map(|i| i * 4096).collect();
    g.bench_function("sequential_addresses", |b| {
        b.iter(|| coalesce::transactions(std::hint::black_box(&seq).iter().copied(), 128))
    });
    g.bench_function("scattered_addresses", |b| {
        b.iter(|| coalesce::transactions(std::hint::black_box(&scat).iter().copied(), 128))
    });
    g.finish();
}

fn bench_timing_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("timing_engine");
    g.sample_size(20);
    let cfg = GpuConfig::fermi_c2050();
    // 256 warps x 1000 mixed ops.
    let trace = WarpTrace {
        ops: (0..1000)
            .map(|i| {
                if i % 5 == 0 {
                    Op::LdGlobal { active: 32, tx: 4 }
                } else {
                    Op::Alu { active: 32 }
                }
            })
            .collect(),
    };
    g.bench_function("256_warps_x_1000_ops", |b| {
        b.iter_batched(
            || {
                TimingInput::new(
                    (0..32).map(|_| (0..8).map(|_| [&trace])),
                    256,
                    0,
                    Vec::new(),
                )
            },
            |input| timing::simulate(&input, &cfg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_kernel_launch(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_launch");
    g.sample_size(20);
    let n = 100_000u32;
    g.bench_function("map_kernel_100k", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuConfig::fermi_c2050());
            let x = gpu.mem.alloc::<u32>(n);
            let kernel = move |blk: &mut BlockCtx<'_>| {
                blk.phase(|w| {
                    let tid = w.global_thread_ids();
                    let m = w.lt_scalar(Mask::FULL, &tid, n);
                    let v = w.ld(m, x, &tid);
                    let r = w.alu2(m, &v, &Lanes::splat(3u32), |a, b| a * b + 1);
                    w.st(m, x, &tid, &r);
                });
            };
            gpu.launch(n.div_ceil(256), 256, &kernel).unwrap().cycles
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_coalesce,
    bench_timing_engine,
    bench_kernel_launch
);
criterion_main!(benches);
