//! Property-based tests of the simulator's core invariants.

use maxwarp_simt::{
    coalesce, shared, timing, Gpu, GpuConfig, KernelStats, Lanes, Mask, Op, TimingInput, WarpTrace,
};
use proptest::prelude::*;

fn arb_mask() -> impl Strategy<Value = Mask> {
    any::<u32>().prop_map(Mask)
}

/// Arbitrary launch statistics. Counter values are u32-sized so summing a
/// handful can never overflow the u64 fields.
fn arb_stats() -> impl Strategy<Value = KernelStats> {
    (
        proptest::collection::vec(any::<u32>(), 16),
        proptest::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(|(v, per_warp)| KernelStats {
            cycles: v[0] as u64,
            instructions: v[1] as u64,
            alu_instructions: v[2] as u64,
            mem_instructions: v[3] as u64,
            atomic_instructions: v[4] as u64,
            shared_instructions: v[5] as u64,
            barriers: v[6] as u64,
            mem_transactions: v[7] as u64,
            cached_load_instructions: v[8] as u64,
            cache_hit_segments: v[9] as u64,
            cache_miss_segments: v[10] as u64,
            atomic_replays: v[11] as u64,
            shared_replay_passes: v[12] as u64,
            active_lane_sum: v[13] as u64,
            warps: v[14] as u64,
            blocks: v[15] as u64,
            per_warp_instructions: per_warp,
        })
}

proptest! {
    // ------------------------------------------------------------- masks

    #[test]
    fn mask_de_morgan(a in arb_mask(), b in arb_mask()) {
        prop_assert_eq!(!(a & b), (!a) | (!b));
        prop_assert_eq!(!(a | b), (!a) & (!b));
    }

    #[test]
    fn mask_andnot_is_intersection_with_complement(a in arb_mask(), b in arb_mask()) {
        prop_assert_eq!(a.andnot(b), a & !b);
    }

    #[test]
    fn mask_count_matches_iter(a in arb_mask()) {
        prop_assert_eq!(a.count() as usize, a.iter().count());
        let from_iter = a.iter().fold(Mask::NONE, |m, l| m.or(Mask::lane(l)));
        prop_assert_eq!(from_iter, a);
    }

    #[test]
    fn mask_rank_is_monotone(a in arb_mask()) {
        let mut prev = 0;
        for lane in 0..32 {
            let r = a.rank(lane);
            prop_assert!(r >= prev && r <= lane as u32);
            prev = r;
        }
    }

    // Branch partition identity: a divergent branch splits the active mask
    // into taken/not-taken halves whose union reconverges to exactly the
    // original mask, with no lane on both sides. This is the invariant the
    // SIMT reconvergence stack relies on, for every mask including the
    // empty-mask and full-warp-uniform edge cases.
    #[test]
    fn mask_branch_partition_reconverges(m in arb_mask(), c in arb_mask()) {
        let taken = m & c;
        let fallthrough = m & !c;
        prop_assert_eq!(taken | fallthrough, m);
        prop_assert_eq!(taken & fallthrough, Mask::NONE);
        // Uniform branch (all active lanes agree): one side is empty and
        // the other is the whole mask — no divergence to reconverge.
        let uniform_taken = m & Mask::FULL;
        let uniform_fallthrough = m & !Mask::FULL;
        prop_assert_eq!(uniform_taken, m);
        prop_assert_eq!(uniform_fallthrough, Mask::NONE);
    }

    // Nested divergence: re-splitting a branch side stays inside it, and
    // the inner partition reconverges to the outer mask level by level.
    #[test]
    fn mask_nested_divergence_restores_each_level(m in arb_mask(), c1 in arb_mask(), c2 in arb_mask()) {
        let outer = m & c1;
        let inner_t = outer & c2;
        let inner_f = outer & !c2;
        prop_assert_eq!(inner_t & outer, inner_t, "inner stays inside outer");
        prop_assert_eq!(inner_t | inner_f, outer, "inner partition reconverges");
        prop_assert_eq!((inner_t | inner_f) | (m & !c1), m, "outer partition reconverges");
        // An empty outer side forces both inner sides empty.
        if outer == Mask::NONE {
            prop_assert_eq!(inner_t, Mask::NONE);
            prop_assert_eq!(inner_f, Mask::NONE);
        }
    }

    // span() is the tight active-lane interval: both endpoints active,
    // nothing active outside, and None exactly for the empty mask.
    #[test]
    fn mask_span_is_tight(m in arb_mask()) {
        match m.span() {
            None => prop_assert_eq!(m, Mask::NONE),
            Some((lo, hi)) => {
                prop_assert!(lo <= hi && hi < 32);
                prop_assert!(m.get(lo) && m.get(hi));
                for l in 0..32 {
                    if m.get(l) {
                        prop_assert!(lo <= l && l <= hi);
                    }
                }
            }
        }
    }

    // --------------------------------------------------------- coalescing

    #[test]
    fn transactions_bounded_by_active_count(addrs in proptest::collection::vec(any::<u32>(), 0..32)) {
        let tx = coalesce::transactions(addrs.iter().map(|&a| a as u64), 128);
        prop_assert!(tx as usize <= addrs.len());
        if !addrs.is_empty() {
            prop_assert!(tx >= 1);
        }
    }

    #[test]
    fn transactions_monotone_in_segment_size(addrs in proptest::collection::vec(any::<u32>(), 1..32)) {
        let t128 = coalesce::transactions(addrs.iter().map(|&a| a as u64), 128);
        let t32 = coalesce::transactions(addrs.iter().map(|&a| a as u64), 32);
        prop_assert!(t32 >= t128, "smaller segments cannot merge more");
    }

    #[test]
    fn transactions_invariant_under_duplication(addrs in proptest::collection::vec(any::<u32>(), 1..16)) {
        let once = coalesce::transactions(addrs.iter().map(|&a| a as u64), 128);
        let doubled = coalesce::transactions(
            addrs.iter().chain(addrs.iter()).map(|&a| a as u64), 128);
        prop_assert_eq!(once, doubled);
    }

    // ------------------------------------------------------ bank conflicts

    #[test]
    fn bank_cost_bounds(offsets in proptest::collection::vec(0u32..4096, 0..32)) {
        let cost = shared::bank_conflict_cost(offsets.iter().copied());
        prop_assert!(cost as usize <= offsets.len().max(1));
        if !offsets.is_empty() {
            prop_assert!(cost >= 1);
        } else {
            prop_assert_eq!(cost, 0);
        }
    }

    // ----------------------------------------------------------- timing

    #[test]
    fn timing_monotone_in_trace_length(len_a in 1usize..200, extra in 1usize..200) {
        let cfg = GpuConfig::tiny_test();
        let mk = |n: usize| WarpTrace { ops: vec![Op::Alu { active: 32 }; n] };
        let short = mk(len_a);
        let long = mk(len_a + extra);
        let time = |t: &WarpTrace| {
            timing::simulate(&TimingInput::new(vec![vec![vec![t]]], 32, 0, Vec::new()), &cfg).unwrap()
        };
        prop_assert!(time(&long) > time(&short));
    }

    #[test]
    fn timing_deterministic(ops in proptest::collection::vec(0u8..4, 1..100), warps in 1u32..8) {
        let cfg = GpuConfig::tiny_test();
        let trace = WarpTrace {
            ops: ops.iter().map(|&k| match k {
                0 => Op::Alu { active: 32 },
                1 => Op::LdGlobal { active: 16, tx: 4 },
                2 => Op::Shared { active: 32, cost: 2 },
                _ => Op::Atomic { active: 8, tx: 2, replays: 1 },
            }).collect(),
        };
        let run = || {
            timing::simulate(&TimingInput::new([(0..warps).map(|_| [&trace])], warps * 32, 0, Vec::new()), &cfg).unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn dynamic_queue_never_slower_than_worst_static(n_heavy in 1usize..6, n_light in 1usize..6) {
        // All heavy tasks piled on one warp (worst static) must be at least
        // as slow as dynamic distribution over 2 warps.
        let cfg = GpuConfig::tiny_test();
        let heavy = WarpTrace { ops: vec![Op::Alu { active: 32 }; 300] };
        let light = WarpTrace { ops: vec![Op::Alu { active: 32 }; 5] };
        let mut queue: Vec<&WarpTrace> = Vec::new();
        for _ in 0..n_heavy { queue.push(&heavy); }
        for _ in 0..n_light { queue.push(&light); }
        let dynamic = timing::simulate(&TimingInput::new(vec![vec![vec![], vec![]]], 64, 0, queue.clone()), &cfg).unwrap();
        let static_worst = timing::simulate(&TimingInput::new(vec![vec![
                (0..n_heavy).map(|_| &heavy).collect::<Vec<_>>(),
                (0..n_light).map(|_| &light).collect(),
            ]], 64, 0, Vec::new()), &cfg).unwrap();
        // Dynamic distribution pays a counter-fetch (DRAM tx + memory
        // round-trip) per queue pull that the static split does not; in the
        // worst case every pull lands on the critical-path warp.
        let pulls = (n_heavy + n_light) as u64;
        let fetch_slack = pulls * (cfg.mem_latency + cfg.dram_cycles_per_transaction);
        prop_assert!(
            dynamic <= static_worst + fetch_slack + 50,
            "dyn {dynamic} vs static {static_worst} (+{fetch_slack} fetch slack)"
        );
    }

    #[test]
    fn barrier_traces_terminate_and_are_deterministic(
        seed_ops in proptest::collection::vec(proptest::collection::vec(1u8..20, 1..4), 1..5),
        warps in 1u32..4,
    ) {
        // Build per-warp traces with identical barrier counts and random
        // ALU runs between barriers; the engine must terminate, be
        // deterministic, and respect the per-warp critical path.
        let cfg = GpuConfig::tiny_test();
        let phases = seed_ops.len();
        let traces: Vec<WarpTrace> = (0..warps)
            .map(|w| {
                let mut ops = Vec::new();
                for (p, lens) in seed_ops.iter().enumerate() {
                    let len = lens[(w as usize + p) % lens.len()] as usize;
                    ops.extend(std::iter::repeat_n(Op::Alu { active: 32 }, len));
                    ops.push(Op::Bar);
                }
                WarpTrace { ops }
            })
            .collect();
        let input = || TimingInput::new([traces.iter().map(std::slice::from_ref)], warps * 32, 0, Vec::new());
        let c1 = timing::simulate(&input(), &cfg).unwrap();
        let c2 = timing::simulate(&input(), &cfg).unwrap();
        prop_assert_eq!(c1, c2);
        // Lower bound: at each barrier all warps wait for the slowest run,
        // so total >= sum over phases of (max run length) * alu issue.
        let mut lower = 0u64;
        for (p, lens) in seed_ops.iter().enumerate() {
            let max_len = (0..warps)
                .map(|w| lens[(w as usize + p) % lens.len()] as u64)
                .max()
                .unwrap();
            lower += max_len; // 1 issue slot per op at minimum
        }
        prop_assert!(c1 >= lower, "cycles {} below barrier lower bound {}", c1, lower);
        prop_assert!(c1 < 1_000_000, "runaway simulation: {} cycles for {} phases", c1, phases);
    }

    // -------------------------------------------- divergence / reconvergence

    #[test]
    fn branch_both_ways_reconverges(active in arb_mask(), taken in arb_mask()) {
        // Simulate an if/else: the taken side runs under `active & taken`,
        // the else side under `active & !taken`; after reconvergence the two
        // sides' effects must partition the active lanes exactly — even when
        // one (or both) sides have an empty mask.
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let out = gpu.mem.alloc::<u32>(32);
        gpu.launch(1, 32, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
            b.phase(|w| {
                let then_m = active & taken;
                let else_m = active.andnot(taken);
                let ids = w.lane_ids();
                w.st(then_m, out, &ids, &Lanes::splat(1u32));
                w.st(else_m, out, &ids, &Lanes::splat(2u32));
                // Reconverged: a full-active op over the original mask.
                let ones = w.alu1(active, &ids, |_| 10u32);
                let _ = ones;
            });
        }).unwrap();
        let host = gpu.mem.download(out);
        for (lane, &got) in host.iter().enumerate().take(32) {
            let expect = match (active.get(lane), taken.get(lane)) {
                (false, _) => 0,
                (true, true) => 1,
                (true, false) => 2,
            };
            prop_assert_eq!(got, expect, "lane {}", lane);
        }
    }

    #[test]
    fn nested_divergence_reenters_outer_mask(active in arb_mask(), inner in arb_mask(), deeper in arb_mask()) {
        // Two levels of nesting: masks only ever narrow, and popping a level
        // restores the enclosing mask exactly.
        let outer = active;
        let level1 = outer & inner;
        let level2 = level1 & deeper;
        prop_assert_eq!(level2 & outer, level2, "nested mask must be a subset");
        prop_assert_eq!(level1 | level1.andnot(outer), level1);
        // Re-entry: (taken ∪ not-taken) at each level restores the parent.
        prop_assert_eq!((level1 & deeper) | level1.andnot(deeper), level1);
        prop_assert_eq!((outer & inner) | outer.andnot(inner), outer);
    }

    #[test]
    fn ballot_respects_disjoint_predicate_and_active_mask(active in arb_mask(), pred in arb_mask()) {
        // ballot() must only report lanes that are BOTH active and
        // predicated — inactive lanes never vote, even if their (stale)
        // predicate bit is set.
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let got = std::cell::Cell::new(Mask::NONE);
        let got_ref = &got;
        gpu.launch(1, 32, &|b: &mut maxwarp_simt::BlockCtx<'_>| {
            b.phase(|w| {
                if !active.none() {
                    got_ref.set(w.ballot(active, pred));
                }
            });
        }).unwrap();
        if !active.none() {
            prop_assert_eq!(got.get(), active & pred);
            prop_assert_eq!(got.get() & !active, Mask::NONE, "inactive lanes voted");
        }
    }

    // --------------------------------------------------- sanitizer cleanness

    #[test]
    fn barrier_correct_two_phase_kernel_never_flagged(
        bits in any::<u32>(),
        vals in proptest::collection::vec(any::<u32>(), 32),
        warps in 1u32..4,
    ) {
        // Property (no false positives): a two-phase kernel in which every
        // warp writes its own shared slice, barriers, then reads a
        // neighbouring warp's slice is hazard-free — the sanitizer must
        // stay completely clean for every mask and every input.
        let mask = Mask(bits);
        let mut cfg = GpuConfig::tiny_test();
        cfg.sanitize = true;
        let mut gpu = Gpu::new(cfg);
        let vals_l = Lanes::from_fn(|l| vals[l]);
        let n = warps * 32;
        let out = gpu.mem.alloc::<u32>(n);
        gpu.mem.fill(out, 0u32);
        gpu.launch(1, n, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
            let tile = b.shared_alloc::<u32>(n);
            // Phase 1: each warp fills its own 32-word slice (fully, so the
            // later read never touches an uninitialized word).
            b.phase(|w| {
                let wid = w.id().warp_in_block;
                let ids = w.lane_ids();
                let local = w.alu1(Mask::FULL, &ids, |l| wid * 32 + l);
                w.sh_st(Mask::FULL, tile, &local, &vals_l);
            });
            b.barrier();
            // Phase 2: each warp reads the *next* warp's slice under the
            // random mask — cross-warp, but barrier-ordered.
            b.phase(|w| {
                let wid = w.id().warp_in_block;
                let next = (wid + 1) % w.id().warps_per_block;
                let ids = w.lane_ids();
                let remote = w.alu1(mask, &ids, |l| next * 32 + l);
                let v = w.sh_ld(mask, tile, &remote);
                let gid = w.global_thread_ids();
                w.st(mask, out, &gid, &v);
            });
        }).unwrap();
        let san = gpu.sanitizer().unwrap();
        prop_assert!(
            san.is_clean(),
            "false positive on barrier-correct kernel:\n{}",
            san.report()
        );
        // And the data really moved: masked lanes hold the neighbour's value.
        let host = gpu.mem.download(out);
        for w in 0..warps as usize {
            for lane in 0..32usize {
                if mask.get(lane) {
                    prop_assert_eq!(host[w * 32 + lane], vals[lane]);
                }
            }
        }
    }

    // ----------------------------------------------------- stats algebra

    #[test]
    fn stats_accumulate_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        // (a + b) + c == a + (b + c): multi-launch aggregation must not
        // depend on how drivers group their absorb calls.
        let mut left = a.clone();
        left.accumulate(&b);
        left.accumulate(&c);
        let mut bc = b.clone();
        bc.accumulate(&c);
        let mut right = a.clone();
        right.accumulate(&bc);
        prop_assert_eq!(&left, &right);
        // Identity: accumulating the default is a no-op.
        let mut with_zero = left.clone();
        with_zero.accumulate(&KernelStats::default());
        prop_assert_eq!(&with_zero, &left);
    }

    // ------------------------------------------------- functional executor

    #[test]
    fn masked_store_touches_exactly_active_lanes(bits in any::<u32>()) {
        let mask = Mask(bits);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let p = gpu.mem.alloc::<u32>(32);
        gpu.launch(1, 32, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
            b.phase(|w| {
                let ids = w.lane_ids();
                w.st(mask, p, &ids, &Lanes::splat(7u32));
            });
        }).unwrap();
        let host = gpu.mem.download(p);
        for (lane, &v) in host.iter().enumerate().take(32) {
            prop_assert_eq!(v, if mask.get(lane) { 7 } else { 0 });
        }
    }

    #[test]
    fn atomic_add_totals_match_active_count(bits in any::<u32>(), v in 1u32..100) {
        let mask = Mask(bits);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let p = gpu.mem.alloc::<u32>(1);
        gpu.launch(1, 32, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
            b.phase(|w| {
                let _ = w.atomic_add(mask, p, &Lanes::splat(0u32), &Lanes::splat(v));
            });
        }).unwrap();
        prop_assert_eq!(gpu.mem.read(p, 0), mask.count() * v);
    }

    #[test]
    fn scan_add_is_exclusive_prefix_sum(bits in any::<u32>(), vals in proptest::collection::vec(0u32..1000, 32)) {
        let mask = Mask(bits);
        let mut gpu = Gpu::new(GpuConfig::tiny_test());
        let vals_l = Lanes::from_fn(|l| vals[l]);
        let out = gpu.mem.alloc::<u32>(32);
        gpu.launch(1, 32, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
            b.phase(|w| {
                let s = w.scan_add_exclusive(mask, &vals_l);
                w.st(Mask::FULL, out, &w.lane_ids(), &s);
            });
        }).unwrap();
        let host = gpu.mem.download(out);
        let mut acc = 0u32;
        for lane in 0..32 {
            prop_assert_eq!(host[lane], acc, "lane {}", lane);
            if mask.get(lane) {
                acc += vals[lane];
            }
        }
    }
}

// ------------------------------------------------------ fault containment

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_panic_escapes_launch(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..10),
        buf_len in 1u32..64,
        budget_raw in 0u64..600,
        has_budget in any::<bool>(),
        chaos_seed in any::<u64>(),
        has_chaos in any::<bool>(),
    ) {
        // Whatever a kernel does — wild out-of-bounds accesses, absurd
        // shared allocations, busy loops against a zero instruction
        // budget, seeded chaos injection — the failure must surface as a
        // structured `LaunchError`, never as a panic unwinding out of
        // `Gpu::launch`.
        let ops_owned = ops.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut cfg = GpuConfig::tiny_test();
            if has_budget {
                cfg.watchdog.max_instructions = Some(budget_raw);
            }
            if has_chaos {
                cfg.faults = Some(maxwarp_simt::FaultConfig::all(chaos_seed));
            }
            let mut gpu = Gpu::new(cfg);
            let buf = gpu.mem.alloc::<u32>(buf_len);
            let ops = ops_owned.clone();
            gpu.launch(1, 32, &move |b: &mut maxwarp_simt::BlockCtx<'_>| {
                for &(kind, val) in &ops {
                    if kind % 6 == 4 {
                        let _ = b.shared_alloc::<u32>(val);
                    }
                }
                let ops = ops.clone();
                b.phase(move |w| {
                    for &(kind, val) in &ops {
                        let idx = Lanes::splat(val);
                        match kind % 6 {
                            0 => {
                                let _ = w.ld(Mask::FULL, buf, &idx);
                            }
                            1 => w.st(Mask::FULL, buf, &idx, &Lanes::splat(7u32)),
                            2 => {
                                let _ = w.atomic_add(Mask::FULL, buf, &idx, &Lanes::splat(1u32));
                            }
                            3 => {
                                let _ = w.ld_uniform(Mask::FULL, buf, val);
                            }
                            4 => {} // shared_alloc, handled at block level
                            _ => {
                                for _ in 0..(val % 64) {
                                    w.alu_nop(Mask::FULL);
                                }
                            }
                        }
                    }
                });
            })
        }));
        match result {
            Ok(launch) => {
                if let Err(e) = launch {
                    prop_assert!(!e.to_string().is_empty(), "error must render a message");
                }
            }
            Err(_) => prop_assert!(false, "panic escaped Gpu::launch"),
        }
    }
}
