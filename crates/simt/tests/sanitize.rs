//! End-to-end tests of the warp-hazard sanitizer: deliberately hazardous
//! fixture kernels must be caught with correct attribution, and clean
//! kernels must stay clean with byte-identical statistics.

use maxwarp_simt::{BlockCtx, DiagKind, Gpu, GpuConfig, Lanes, Mask, Severity, TaskSchedule};

fn sanitized_gpu() -> Gpu {
    let mut cfg = GpuConfig::tiny_test();
    cfg.sanitize = true;
    Gpu::new(cfg)
}

// ------------------------------------------------------- shared-memory races

/// The canonical racy fixture: warp 0 writes a shared tile and warp 1 reads
/// it back in the same phase, with no barrier in between.
#[test]
fn missing_barrier_shared_race_is_caught_with_attribution() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("racy_two_phase");
    gpu.launch(1, 64, &|b: &mut BlockCtx<'_>| {
        let tile = b.shared_alloc::<u32>(32);
        b.phase(|w| {
            if w.id().warp_in_block == 0 {
                w.sh_st(Mask::FULL, tile, &Lanes::lane_ids(), &Lanes::lane_ids());
            } else {
                // BUG: reads the tile without waiting for the barrier.
                let _ = w.sh_ld(Mask::FULL, tile, &Lanes::lane_ids());
            }
        });
    })
    .unwrap();

    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors(), "missing barrier must be an error");
    let race = san
        .diagnostics()
        .iter()
        .find(|d| d.kind == DiagKind::SharedRace)
        .expect("a shared-race diagnostic");
    assert_eq!(race.severity, Severity::Error);
    assert_eq!(race.kernel, "racy_two_phase");
    assert_eq!(race.block, 0);
    assert_eq!(race.warp, 1, "detected at the racing read by warp 1");
    assert!(race.message.contains("write by warp 0"));
    assert_eq!(race.op, "sh_ld");
}

/// The same kernel with the barrier in place is completely clean.
#[test]
fn barrier_separated_two_phase_kernel_is_clean() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("correct_two_phase");
    gpu.launch(2, 64, &|b: &mut BlockCtx<'_>| {
        let tile = b.shared_alloc::<u32>(32);
        b.phase(|w| {
            if w.id().warp_in_block == 0 {
                w.sh_st(Mask::FULL, tile, &Lanes::lane_ids(), &Lanes::lane_ids());
            }
        });
        b.barrier();
        b.phase(|w| {
            if w.id().warp_in_block == 1 {
                let v = w.sh_ld(Mask::FULL, tile, &Lanes::lane_ids());
                assert_eq!(v.get(5), 5);
            }
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(
        san.is_clean(),
        "barrier-correct kernel flagged:\n{}",
        san.report()
    );
}

/// Write/write races between warps of the same block are errors too.
#[test]
fn cross_warp_shared_write_write_race_is_caught() {
    let mut gpu = sanitized_gpu();
    gpu.launch(1, 64, &|b: &mut BlockCtx<'_>| {
        let tile = b.shared_alloc::<u32>(32);
        b.phase(|w| {
            // Every warp writes the same words: warp 1's writes race warp 0's.
            let vals = Lanes::splat(w.id().warp_in_block);
            w.sh_st(Mask::FULL, tile, &Lanes::lane_ids(), &vals);
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    assert!(san
        .diagnostics()
        .iter()
        .any(|d| d.kind == DiagKind::SharedRace && d.op == "sh_st"));
}

/// Reading shared memory that no one has written is an error (real shared
/// memory is uninitialized at block start).
#[test]
fn uninitialized_shared_read_is_error() {
    let mut gpu = sanitized_gpu();
    gpu.launch(1, 32, &|b: &mut BlockCtx<'_>| {
        let tile = b.shared_alloc::<u32>(32);
        b.phase(|w| {
            let _ = w.sh_ld(Mask::lane(0), tile, &Lanes::splat(3u32));
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    let d = &san.diagnostics()[0];
    assert_eq!(d.kind, DiagKind::UninitRead);
    assert_eq!(d.lane, Some(0));
}

// ------------------------------------------------------------ global races

#[test]
fn cross_block_global_store_race_is_caught() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("global_race_fixture");
    let p = gpu.mem.alloc::<u32>(1);
    gpu.launch(2, 32, &move |b: &mut BlockCtx<'_>| {
        let block = b.block_id();
        b.phase(move |w| {
            // Both blocks store *different* values to word 0: a real race.
            w.st_uniform(Mask::lane(0), p, 0, block + 1);
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    let d = san
        .diagnostics()
        .iter()
        .find(|d| d.kind == DiagKind::GlobalRace)
        .expect("a global-race diagnostic");
    assert_eq!(d.block, 1, "detected at the second block's store");
    assert!(d.message.contains("unordered stores of different values"));
}

/// Same-value stores from different blocks (the classic level-splat in BFS)
/// are benign and must NOT be reported.
#[test]
fn same_value_splat_from_two_blocks_is_benign() {
    let mut gpu = sanitized_gpu();
    let p = gpu.mem.alloc::<u32>(1);
    gpu.launch(2, 32, &move |b: &mut BlockCtx<'_>| {
        b.phase(move |w| {
            w.st_uniform(Mask::lane(0), p, 0, 7);
        });
    })
    .unwrap();
    assert!(!gpu.sanitizer().unwrap().has_errors());
}

#[test]
fn mixing_atomics_and_plain_stores_is_error() {
    let mut gpu = sanitized_gpu();
    let p = gpu.mem.alloc::<u32>(1);
    gpu.mem.fill(p, 0u32);
    gpu.launch(2, 32, &move |b: &mut BlockCtx<'_>| {
        let block = b.block_id();
        b.phase(move |w| {
            if block == 0 {
                let _ = w.atomic_add(Mask::lane(0), p, &Lanes::splat(0u32), &Lanes::splat(1u32));
            } else {
                w.st_uniform(Mask::lane(0), p, 0, 5);
            }
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    assert!(san
        .diagnostics()
        .iter()
        .any(|d| d.kind == DiagKind::MixedAtomic));
}

#[test]
fn uninitialized_device_read_is_warning_not_error() {
    let mut gpu = sanitized_gpu();
    let p = gpu.mem.alloc::<u32>(32); // allocated, never written
    gpu.launch(1, 32, &move |b: &mut BlockCtx<'_>| {
        b.phase(move |w| {
            let _ = w.ld(Mask::FULL, p, &w.lane_ids());
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(!san.has_errors());
    assert!(san.warning_count() > 0);
    assert_eq!(san.diagnostics()[0].kind, DiagKind::UninitRead);
}

// ------------------------------------------------------- divergence hazards

/// The divergent-shfl fixture: half the warp is active and shuffles from a
/// lane in the inactive half.
#[test]
fn divergent_shfl_is_caught_with_lane_attribution() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("divergent_shfl_fixture");
    gpu.launch(1, 32, &|b: &mut BlockCtx<'_>| {
        b.phase(|w| {
            let low_half = Mask::from_fn(|l| l < 16);
            let vals = w.lane_ids();
            // BUG: lane 20 is inactive, its register is undefined on hardware.
            let _ = w.shfl(low_half, &vals, &Lanes::splat(20u32));
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    let d = san
        .diagnostics()
        .iter()
        .find(|d| d.kind == DiagKind::DivergentShfl)
        .expect("a divergent-shfl diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.block, 0);
    assert_eq!(d.warp, 0);
    assert_eq!(d.lane, Some(0), "first reading lane is attributed");
    assert!(d.message.contains("from lane 20"));
    assert_eq!(d.kernel, "divergent_shfl_fixture");
}

#[test]
fn shfl_bcast_from_inactive_lane_is_caught() {
    let mut gpu = sanitized_gpu();
    gpu.launch(1, 32, &|b: &mut BlockCtx<'_>| {
        b.phase(|w| {
            let low_half = Mask::from_fn(|l| l < 16);
            let vals = w.lane_ids();
            let got = w.shfl_bcast(low_half, &vals, 31);
            assert_eq!(got.get(0), 0, "inactive source yields the default");
        });
    })
    .unwrap();
    assert!(gpu
        .sanitizer()
        .unwrap()
        .diagnostics()
        .iter()
        .any(|d| d.kind == DiagKind::DivergentShfl));
}

/// Satellite regression: without the sanitizer, a shuffle whose source lane
/// is inactive deterministically yields `T::default()` — never stale data.
#[test]
fn shfl_inactive_source_yields_default_without_sanitizer() {
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    let out = gpu.mem.alloc::<u32>(32);
    gpu.launch(1, 32, &move |b: &mut BlockCtx<'_>| {
        b.phase(move |w| {
            let low_half = Mask::from_fn(|l| l < 16);
            let vals = w.alu1(low_half, &w.lane_ids(), |x| x + 100);
            let got = w.shfl(low_half, &vals, &Lanes::splat(20u32));
            w.st(low_half, out, &w.lane_ids(), &got);
        });
    })
    .unwrap();
    let host = gpu.mem.download(out);
    for (lane, &got) in host.iter().enumerate().take(16) {
        assert_eq!(got, 0, "lane {lane}: inactive source must default");
    }
}

#[test]
fn empty_mask_collective_is_warning() {
    let mut gpu = sanitized_gpu();
    gpu.launch(1, 32, &|b: &mut BlockCtx<'_>| {
        b.phase(|w| {
            let _ = w.ballot(Mask::NONE, Mask::FULL);
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(!san.has_errors());
    assert!(san
        .diagnostics()
        .iter()
        .any(|d| d.kind == DiagKind::EmptyMaskCollective));
}

// ------------------------------------------------------------ out of bounds

/// With the sanitizer on, an out-of-bounds access becomes a structured
/// diagnostic and the kernel keeps running (the faulting lanes are dropped).
#[test]
fn oob_access_is_structured_diagnostic_when_sanitizing() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("oob_fixture");
    let p = gpu.mem.alloc::<u32>(4);
    gpu.mem.fill(p, 1u32);
    let sum = gpu.mem.alloc::<u32>(1);
    gpu.mem.fill(sum, 0u32);
    gpu.launch(1, 32, &move |b: &mut BlockCtx<'_>| {
        b.phase(move |w| {
            // Lanes 0..32 index an allocation of 4: lanes 4.. are OOB.
            let v = w.ld(Mask::FULL, p, &w.lane_ids());
            let _ = w.atomic_add(Mask::FULL, sum, &Lanes::splat(0u32), &v);
        });
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    let d = san
        .diagnostics()
        .iter()
        .find(|d| d.kind == DiagKind::OutOfBounds)
        .expect("an out-of-bounds diagnostic");
    assert_eq!(d.lane, Some(4), "first faulting lane");
    assert!(d.message.contains("illegal device address"));
    assert!(d.message.contains("allocation of 4"));
    // In-bounds lanes still executed: 4 valid loads of 1 were accumulated.
    assert_eq!(gpu.mem.read(sum, 0), 4);
}

// ------------------------------------------------- statistics transparency

/// A sanitized run must report byte-identical `KernelStats` to an
/// unsanitized run — even when diagnostics fire (observers never write the
/// trace).
#[test]
fn sanitized_and_unsanitized_stats_are_identical() {
    let run = |sanitize: bool| {
        let mut cfg = GpuConfig::tiny_test();
        cfg.sanitize = sanitize;
        let mut gpu = Gpu::new(cfg);
        let n = 256u32;
        let x = gpu.mem.alloc_from(&(0..n).collect::<Vec<_>>());
        let y = gpu.mem.alloc::<u32>(n);
        let uninit = gpu.mem.alloc::<u32>(n); // read-before-write: fires a warning
        let stats = gpu
            .launch(4, 64, &move |b: &mut BlockCtx<'_>| {
                let tile = b.shared_alloc::<u32>(64);
                b.phase(move |w| {
                    let tid = w.global_thread_ids();
                    let m = w.lt_scalar(Mask::FULL, &tid, n);
                    let v = w.ld(m, x, &tid);
                    let u = w.ld(m, uninit, &tid);
                    let wid = w.id().warp_in_block;
                    let ids = w.lane_ids();
                    let local = w.alu1(m, &ids, |l| l + 32 * wid);
                    w.sh_st(m, tile, &local, &v);
                    let s = w.sh_ld(m, tile, &local);
                    let r = w.alu1(m, &s, |a| a * 3);
                    let r2 = w.alu2(m, &r, &u, |a, b| a + b);
                    w.st(m, y, &tid, &r2);
                });
            })
            .unwrap();
        (stats, gpu.mem.download(y))
    };
    let (plain_stats, plain_mem) = run(false);
    let (san_stats, san_mem) = run(true);
    assert_eq!(plain_stats, san_stats, "sanitizer changed KernelStats");
    assert_eq!(plain_mem, san_mem, "sanitizer changed results");
}

/// Diagnostics must not count against the instruction watchdog: a warp that
/// issues exactly `max_instructions` ops, one of which draws a sanitizer
/// warning, succeeds with the sanitizer on exactly as it does with it off.
#[test]
fn sanitizer_findings_do_not_consume_the_instruction_budget() {
    let run = |sanitize: bool| {
        let mut cfg = GpuConfig::tiny_test();
        cfg.sanitize = sanitize;
        cfg.watchdog.max_instructions = Some(6);
        let mut gpu = Gpu::new(cfg);
        let uninit = gpu.mem.alloc::<u32>(32);
        let r = gpu.launch(1, 32, &move |b: &mut BlockCtx<'_>| {
            b.phase(move |w| {
                let ids = w.lane_ids();
                let _ = w.ld(Mask::FULL, uninit, &ids); // read-before-write
                for _ in 0..5 {
                    w.alu_nop(Mask::FULL);
                }
            });
        });
        let warnings = gpu.sanitizer().map(|s| s.warning_count());
        (r.map(|stats| stats.instructions), warnings)
    };
    assert_eq!(run(false), (Ok(6), None));
    assert_eq!(run(true), (Ok(6), Some(32)));
}

// -------------------------------------------------------------- warp tasks

#[test]
fn warp_task_launches_are_sanitized_too() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("task_oob");
    let p = gpu.mem.alloc::<u32>(4);
    gpu.launch_warp_tasks(1, 32, 8, TaskSchedule::Dynamic, |w, task| {
        // Task ids 4..8 index past the allocation.
        w.st_uniform(Mask::lane(0), p, task, task);
    })
    .unwrap();
    let san = gpu.sanitizer().unwrap();
    assert!(san.has_errors());
    assert!(san
        .diagnostics()
        .iter()
        .any(|d| d.kind == DiagKind::OutOfBounds && d.op == "st_uniform"));
}

// ----------------------------------------------------------------- report

#[test]
fn report_is_human_readable_and_counts_occurrences() {
    let mut gpu = sanitized_gpu();
    gpu.set_sanitize_context("report_fixture");
    let p = gpu.mem.alloc::<u32>(2);
    for _ in 0..3 {
        gpu.launch(1, 32, &move |b: &mut BlockCtx<'_>| {
            b.phase(move |w| {
                // One faulting lane per launch: lane 0 reads index 9 of 2.
                let _ = w.ld(Mask::lane(0), p, &Lanes::splat(9u32));
            });
        })
        .unwrap();
    }
    let san = gpu.sanitizer().unwrap();
    let report = san.report();
    assert!(report.contains("kernel `report_fixture`"));
    assert!(report.contains("error(s)"));
    // One OOB site + one uninit site, each hit three launches in a row,
    // deduplicated to two diagnostics.
    let oob = san
        .diagnostics()
        .iter()
        .find(|d| d.kind == DiagKind::OutOfBounds)
        .unwrap();
    assert_eq!(oob.count, 3, "occurrences fold into one diagnostic");
    assert_eq!(oob.launch, 1, "attributed to its first launch");
}

// ------------------------------------------------------------- environment

/// `MAXWARP_SANITIZE=1` forces the sanitizer on at `Gpu::new` time.
#[test]
fn env_var_enables_sanitizer() {
    // Serialize against other tests via a dedicated process-wide lock-free
    // pattern: set, construct, remove.
    std::env::set_var("MAXWARP_SANITIZE", "1");
    let gpu = Gpu::new(GpuConfig::tiny_test());
    std::env::remove_var("MAXWARP_SANITIZE");
    assert!(gpu.cfg.sanitize);
    assert!(gpu.sanitizer().is_some());

    let gpu2 = Gpu::new(GpuConfig::tiny_test());
    assert!(gpu2.sanitizer().is_none());
}
