//! Probes that isolate what the workloads cannot: one public function
//! timed alone, many times, median reported. Each runs only in the traced
//! run of the workload whose end-to-end metric it is meant to explain.

use crate::util::{median, SplitMix64};
use maxwarp::ExecConfig;
use maxwarp_obs::{Registry, Tracer};
use maxwarp_serve::{CacheKey, CachedResult, ResultCache, ResultData};
use maxwarp_simt::timing::time_kernel_trace;
use maxwarp_simt::{
    BlockCtx, BlockTrace, DeviceMem, Gpu, GpuConfig, KernelStats, KernelTrace, Op, WarpTrace,
};
use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` timings of `f`, in ns per call, `inner` calls per timing.
fn ns_per_call(reps: usize, inner: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&samples)
}

/// `Gpu::launch` of a kernel that does nothing, at the resident grid: the
/// fixed host cost every launch pays.
pub fn empty_launch_us(cfg: &GpuConfig, exec: &ExecConfig) -> f64 {
    let mut gpu = Gpu::new(cfg.clone());
    let grid = exec.resident_grid(cfg);
    let kernel = |_: &mut BlockCtx<'_>| {};
    ns_per_call(15, 20, || {
        black_box(gpu.launch(grid, exec.block_threads, &kernel).is_ok());
    }) / 1e3
}

/// `timing::time_kernel_trace` on a seeded synthetic trace (the resident
/// grid, 8 warps a block, a memory-heavy instruction mix): simulated
/// warp-instructions replayed per host second, in millions.
pub fn timing_replay_minstr_per_s(cfg: &GpuConfig, exec: &ExecConfig, seed: u64) -> f64 {
    const OPS_PER_WARP: usize = 2_000;
    let mut rng = SplitMix64::new(seed);
    let warps_per_block = exec.block_threads / 32;
    let blocks = (0..exec.resident_grid(cfg))
        .map(|_| BlockTrace {
            warps: (0..warps_per_block)
                .map(|_| WarpTrace {
                    ops: (0..OPS_PER_WARP)
                        .map(|_| {
                            let active = 1 + rng.below(32) as u8;
                            let tx = 1 + rng.below(active as u32) as u8;
                            match rng.below(10) {
                                0..=4 => Op::Alu { active },
                                5..=7 => Op::LdGlobal { active, tx },
                                8 => Op::StGlobal { active, tx },
                                _ => Op::Atomic {
                                    active,
                                    tx,
                                    replays: rng.below(4) as u8,
                                },
                            }
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    let trace = KernelTrace {
        blocks,
        block_threads: exec.block_threads,
        shared_words_per_block: 0,
    };
    let instr = trace.instructions() as f64;
    let ns = ns_per_call(5, 1, || {
        black_box(time_kernel_trace(&trace, cfg).is_ok());
    });
    instr / 1e6 / (ns / 1e9)
}

/// `Gpu::new`, in us.
pub fn gpu_new_us(cfg: &GpuConfig) -> f64 {
    ns_per_call(9, 200, || {
        black_box(Gpu::new(cfg.clone()));
    }) / 1e3
}

/// `DeviceMem::clone` of a device image, in ms.
pub fn mem_clone_ms(mem: &DeviceMem) -> f64 {
    ns_per_call(9, 1, || {
        black_box(mem.clone());
    }) / 1e6
}

/// `ResultCache::get` (hit) and `insert` (at capacity, so with an
/// eviction) in ns, on a payload of `payload_words` u32s.
pub fn cache_get_insert_ns(payload_words: usize) -> (f64, f64) {
    const CAP: usize = 256;
    let key = |i: u64| CacheKey {
        graph: 0x1234,
        query: i,
        method: "vw8".to_string(),
        device: 0x5678,
    };
    let value = || CachedResult {
        data: ResultData::U32s(vec![7; payload_words]),
        stats: KernelStats::default(),
        iterations: 9,
        method: "vw8".to_string(),
    };
    let mut cache = ResultCache::new(CAP);
    for i in 0..CAP as u64 {
        cache.insert(key(i), value());
    }
    let mut i = 0u64;
    let get = ns_per_call(9, 2_000, || {
        i = (i + 1) % CAP as u64;
        black_box(cache.get(&key(i)).is_some());
    });
    let mut next = CAP as u64;
    let insert = ns_per_call(9, 500, || {
        next += 1;
        cache.insert(key(next), value());
    });
    (get, insert)
}

/// ns per `Counter::inc`, `HistogramHandle::record` and span begin+finish
/// on a private, enabled registry and tracer.
pub fn obs_ns() -> (f64, f64, f64) {
    const N: u32 = 20_000;
    let reg = Registry::new();
    reg.set_enabled(true);
    let counter = reg.counter("bench_probe_total");
    let hist = reg.histogram("bench_probe_ns");
    let inc = ns_per_call(9, N, || counter.inc());
    let mut v = 0u64;
    let rec = ns_per_call(9, N, || {
        v = v.wrapping_add(977);
        hist.record(v & 0xfffff);
    });
    // Capacity above what the probe records, so no span takes the cheaper
    // dropped path.
    let tracer = Tracer::with_capacity(true, 9 * N as usize + 1);
    let span = ns_per_call(9, N, || tracer.begin("probe").finish());
    black_box((counter.get(), hist.snapshot().is_empty(), tracer.len()));
    (inc, rec, span)
}
