//! Every launch splits its host time into functional, stats, timing and
//! wait phases in the process-wide `simt_launch_phase_ns{phase}` histogram:
//! `wait` is the time the submitting thread blocked on the replay, so it
//! adds a sample (0 when nothing was left to wait for) whether the replay
//! ran on a helper thread or inline.

use maxwarp_simt::{BlockCtx, Gpu, GpuConfig, Mask, TaskSchedule};

fn samples(phase: &str) -> u64 {
    maxwarp_obs::global()
        .histograms_of("simt_launch_phase_ns")
        .into_iter()
        .find(|(labels, _)| labels.iter().any(|(k, v)| k == "phase" && v == phase))
        .map_or(0, |(_, h)| h.count)
}

fn counts() -> [u64; 4] {
    ["functional", "stats", "timing", "wait"].map(samples)
}

#[test]
fn each_launch_adds_one_sample_per_phase() {
    // This file's only test, so no other launch runs in this process.
    maxwarp_obs::global().set_enabled(true);
    let mut g = Gpu::new(GpuConfig::tiny_test());
    let out = g.mem.alloc::<u32>(64);

    let before = counts();
    g.launch(2, 32, &|b: &mut BlockCtx<'_>| {
        b.phase(|w| {
            let tid = w.global_thread_ids();
            w.st(Mask::FULL, out, &tid, &tid);
        });
    })
    .unwrap();
    assert_eq!(counts(), before.map(|c| c + 1), "launch");

    for schedule in [TaskSchedule::StaticBlocked, TaskSchedule::Dynamic] {
        let before = counts();
        g.launch_warp_tasks(1, 64, 8, schedule, |w, task| {
            w.st_uniform(Mask::FULL, out, task, task);
        })
        .unwrap();
        assert_eq!(counts(), before.map(|c| c + 1), "{schedule:?}");
    }

    // Asynchronous launches add theirs when they settle.
    let before = counts();
    for schedule in [TaskSchedule::StaticBlocked, TaskSchedule::Dynamic] {
        g.submit_warp_tasks(1, 64, 8, schedule, |w, task| {
            w.st_uniform(Mask::FULL, out, task, task);
        })
        .unwrap();
    }
    g.synchronize().unwrap();
    assert_eq!(counts(), before.map(|c| c + 2), "submit");
}
