//! Cross-commit oracle for the timing engine: a few hundred seeded random
//! `TimingInput`s, replayed on four machine configurations at issue widths
//! 1, 2 and 4, must reproduce digit for digit the cycles, DRAM busy time,
//! per-SM instruction counts, per-SM stall breakdown and a hash of the warp
//! timeline recorded in `golden/timing_replay.txt`. A rewrite of the event
//! loop in `src/timing.rs` that moves any warp by one cycle fails here.
//!
//! The inputs cover every `Op` kind, block barriers (and barrier deadlocks,
//! whose error must match too), multi-trace static streams and dynamic task
//! queues, occupancy limited by warps and by shared memory, and a config
//! whose ALU, shared and cache-hit latencies are zero, so completions land
//! in the issuing cycle and compete with the issue port at once.
//!
//! The golden file is written by this test when it does not exist (see
//! `support/golden.rs`).

#[path = "support/golden.rs"]
mod golden;

use golden::assert_matches_golden;
use maxwarp_simt::timing::{self, StallBreakdown, TimingInput, WarpSpan};
use maxwarp_simt::{GpuConfig, Op, WarpTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS_PER_CELL: u64 = 5;
const WIDTHS: [u32; 3] = [1, 2, 4];

/// Input shapes; each (config, width, shape) cell gets `SEEDS_PER_CELL`
/// random inputs.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One trace per warp, no barriers: an ordinary kernel launch.
    Kernel,
    /// All-ALU traces: the issue port is the only contended resource.
    Alu,
    /// One trace per warp with the same number of barriers in every warp
    /// of a block.
    Barrier,
    /// Several traces per warp (some empty), barriers spread across them.
    Streams,
    /// Short (often empty) fixed streams plus a dynamic task queue.
    Queue,
    /// Barrier input with one warp of one block missing its last barrier.
    Deadlock,
}

const SHAPES: [Shape; 6] = [
    Shape::Kernel,
    Shape::Alu,
    Shape::Barrier,
    Shape::Streams,
    Shape::Queue,
    Shape::Deadlock,
];

fn configs() -> Vec<GpuConfig> {
    let mut zero = GpuConfig::tiny_test();
    zero.name = "tiny-zero-latency".to_string();
    zero.alu_latency = 0;
    zero.shared_latency = 0;
    zero.l2_hit_latency = 0;
    vec![
        GpuConfig::tiny_test(),
        GpuConfig::fermi_c2050(),
        GpuConfig::gtx280(),
        zero,
    ]
}

/// A random non-barrier op, weighted towards ALU so the issue port is the
/// contended resource in most inputs.
fn random_op(rng: &mut StdRng) -> Op {
    let active = rng.gen_range(1u8..=32);
    match rng.gen_range(0u32..10) {
        0..=3 => Op::Alu { active },
        4 => Op::LdGlobal {
            active,
            tx: rng.gen_range(1u8..=32),
        },
        5 => Op::LdCached {
            active,
            hits: rng.gen_range(0u8..=4),
            misses: rng.gen_range(0u8..=4),
        },
        6 => Op::StGlobal {
            active,
            tx: rng.gen_range(1u8..=8),
        },
        7 => Op::Shared {
            active,
            cost: rng.gen_range(1u8..=8),
        },
        _ => Op::Atomic {
            active,
            tx: rng.gen_range(1u8..=4),
            replays: rng.gen_range(0u8..=8),
        },
    }
}

fn random_ops(rng: &mut StdRng, max: u32) -> Vec<Op> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| random_op(rng)).collect()
}

/// An owned random workload; `input()` borrows it as a `TimingInput`.
struct Workload {
    /// `streams[b][w]` = indices into `traces` for warp `w` of block `b`.
    streams: Vec<Vec<Vec<usize>>>,
    queue: Vec<usize>,
    traces: Vec<WarpTrace>,
    block_threads: u32,
    shared_words_per_block: u32,
}

impl Workload {
    fn push(&mut self, ops: Vec<Op>) -> usize {
        self.traces.push(WarpTrace { ops });
        self.traces.len() - 1
    }

    fn input(&self) -> TimingInput<'_> {
        TimingInput::new(
            self.streams
                .iter()
                .map(|b| b.iter().map(|s| s.iter().map(|&i| &self.traces[i]))),
            self.block_threads,
            self.shared_words_per_block,
            self.queue.iter().map(|&i| &self.traces[i]).collect(),
        )
    }
}

/// One warp's ops for a barrier shape: `bars` phases of random ops each
/// ending in a barrier, then a random tail.
fn barrier_ops(rng: &mut StdRng, bars: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..bars {
        ops.extend(random_ops(rng, 12));
        ops.push(Op::Bar);
    }
    ops.extend(random_ops(rng, 12));
    ops
}

fn workload(rng: &mut StdRng, cfg: &GpuConfig, shape: Shape) -> Workload {
    let max_wpb = (cfg.max_threads_per_block / 32)
        .min(cfg.max_warps_per_sm)
        .min(8);
    let warps_per_block = rng.gen_range(1..=max_wpb);
    // From a single block up to a little past full occupancy of the whole
    // chip, so some inputs fill every SM's warp slots and some make
    // dispatch wait for a slot to free.
    let slots = cfg.blocks_per_sm(warps_per_block * 32, 0).max(1);
    let grid = rng.gen_range(1..=cfg.num_sms * slots + slots);
    // One input in four limits occupancy by shared memory instead.
    let shared_words_per_block = if rng.gen_range(0u32..4) == 0 {
        cfg.shared_words_per_sm / rng.gen_range(1u32..=3)
    } else {
        0
    };
    let mut wl = Workload {
        streams: Vec::new(),
        queue: Vec::new(),
        traces: Vec::new(),
        block_threads: warps_per_block * 32,
        shared_words_per_block,
    };
    let deadlock_block = rng.gen_range(0..grid);
    for b in 0..grid {
        let bars = rng.gen_range(1u32..=3);
        let streams_with_bars = rng.gen_bool(0.5);
        let mut block = Vec::new();
        for w in 0..warps_per_block {
            let stream = match shape {
                Shape::Kernel => vec![wl.push(random_ops(rng, 40))],
                Shape::Alu => {
                    let n = rng.gen_range(1u32..=60);
                    let ops = (0..n)
                        .map(|_| Op::Alu {
                            active: rng.gen_range(1u8..=32),
                        })
                        .collect();
                    vec![wl.push(ops)]
                }
                Shape::Barrier => vec![wl.push(barrier_ops(rng, bars))],
                Shape::Deadlock => {
                    let mut ops = barrier_ops(rng, bars);
                    if b == deadlock_block && w + 1 == warps_per_block && warps_per_block > 1 {
                        let last = ops.iter().rposition(|o| matches!(o, Op::Bar)).unwrap();
                        ops.remove(last);
                    }
                    vec![wl.push(ops)]
                }
                Shape::Streams => {
                    // Cut the warp's ops (barriers included) into 1..=4
                    // traces at random points; empty pieces are kept.
                    let ops = if streams_with_bars {
                        barrier_ops(rng, bars)
                    } else {
                        random_ops(rng, 40)
                    };
                    let pieces = rng.gen_range(1usize..=4);
                    let mut cuts: Vec<usize> =
                        (1..pieces).map(|_| rng.gen_range(0..=ops.len())).collect();
                    cuts.sort_unstable();
                    cuts.push(ops.len());
                    let mut start = 0;
                    cuts.into_iter()
                        .map(|end| {
                            let i = wl.push(ops[start..end].to_vec());
                            start = end;
                            i
                        })
                        .collect()
                }
                Shape::Queue => (0..rng.gen_range(0u32..=2))
                    .map(|_| wl.push(random_ops(rng, 10)))
                    .collect(),
            };
            block.push(stream);
        }
        wl.streams.push(block);
    }
    if matches!(shape, Shape::Queue) {
        let tasks = rng.gen_range(0..=grid * warps_per_block * 3);
        for _ in 0..tasks {
            let task = wl.push(random_ops(rng, 24));
            wl.queue.push(task);
        }
    }
    wl
}

/// FNV-1a over the little-endian bytes of every span field.
fn span_hash(spans: &[WarpSpan]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in spans {
        for v in [
            s.sm as u64,
            s.block as u64,
            s.warp_in_block as u64,
            s.start,
            s.end,
            s.instructions,
        ] {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn breakdown(b: &StallBreakdown) -> String {
    format!(
        "{}.{}.{}.{}.{}.{}",
        b.issue, b.mem_stall, b.atomic_stall, b.bank_stall, b.barrier_stall, b.idle
    )
}

/// One line per input of the (config, width, shape) matrix.
fn lines() -> String {
    let mut out = String::new();
    for base in configs() {
        for width in WIDTHS {
            let mut cfg = base.clone();
            cfg.issue_width = width;
            for shape in SHAPES {
                for seed in 0..SEEDS_PER_CELL {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ ((width as u64) << 8)
                            ^ ((shape as u64) << 16)
                            ^ ((cfg.alu_latency << 24) + ((cfg.num_sms as u64) << 32)),
                    );
                    let wl = workload(&mut rng, &cfg, shape);
                    let _ = write!(out, "{} w{width} {shape:?} s{seed}:", cfg.name);
                    match timing::simulate_spans(&wl.input(), &cfg) {
                        Ok((r, spans)) => {
                            let _ = write!(
                                out,
                                " cycles={} dram={} spans={:016x} sm=",
                                r.cycles,
                                r.dram_busy_cycles,
                                span_hash(&spans)
                            );
                            // SMs that never issued are pure idle; print
                            // only the ones that did, keyed by index.
                            let mut idle_sms = 0;
                            for (sm, (instr, b)) in
                                r.sm_instructions.iter().zip(&r.sm_breakdown).enumerate()
                            {
                                if *instr == 0 {
                                    assert_eq!(
                                        *b,
                                        StallBreakdown {
                                            idle: r.cycles,
                                            ..StallBreakdown::default()
                                        },
                                        "SM {sm} issued nothing but has non-idle cycles"
                                    );
                                    idle_sms += 1;
                                } else {
                                    let _ = write!(out, " {sm}:{instr}:{}", breakdown(b));
                                }
                            }
                            let _ = writeln!(out, " idle_sms={idle_sms}");
                        }
                        Err(e) => {
                            let _ = writeln!(out, " err={e:?}");
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_input_matches_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/timing_replay.txt");
    assert_matches_golden(&path, &lines(), "inputs");
}
