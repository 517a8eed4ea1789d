//! End-to-end autotuner behavior through the server: persistence across
//! server instances, method pinning, and agreement with the Fig. 3 sweep.

use maxwarp::{method_table, ExecConfig, Method};
use maxwarp_graph::{hub_graph, Dataset, Scale};
use maxwarp_serve::{
    probe_methods, probe_one, Algo, GraphEntry, Query, Request, Server, ServerConfig, Tuner,
};
use maxwarp_simt::GpuConfig;
use std::path::PathBuf;

fn temp_tuning_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maxwarp-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("tuning.json")
}

/// A server that probed a `(graph, algo)` pair persists the decision; a
/// second server with the same tuning path serves the same method without
/// a single probe.
#[test]
fn tuning_table_persists_across_servers() {
    let path = temp_tuning_path("persist");
    let _ = std::fs::remove_file(&path);
    let g = hub_graph(400, 2, 60, 3, 13);

    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.tuner_sample = 256;
    cfg.tuning_path = Some(path.clone());

    let first = Server::start(cfg.clone());
    let h = first.register_graph("hub", g.clone());
    let cold = first
        .call(Request::new(h, Query::Bfs { src: None }))
        .unwrap();
    let snap = first.snapshot();
    assert!(snap.tuner_probes > 0, "first sight must probe");
    assert_eq!(snap.tuner_decisions, 1);
    first.shutdown();

    let second = Server::start(cfg);
    let h = second.register_graph("hub", g);
    let warm = second
        .call(Request::new(h, Query::Bfs { src: None }))
        .unwrap();
    let snap = second.snapshot();
    assert_eq!(snap.tuner_probes, 0, "restart must not re-probe");
    assert_eq!(warm.method, cold.method, "same decision from disk");
    second.shutdown();

    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A config-level method pin overrides tuning entirely: the response
/// carries the pinned method and the tuner never runs.
#[test]
fn method_pin_bypasses_tuner() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.method_pin = Some(Method::warp(8));
    let server = Server::start(cfg);
    let h = server.register_graph("hub", hub_graph(300, 1, 40, 3, 17));

    let resp = server
        .call(Request::new(h, Query::Bfs { src: None }))
        .unwrap();
    assert_eq!(resp.method, Method::warp(8));
    let snap = server.snapshot();
    assert_eq!(snap.tuner_probes, 0);
    assert_eq!(snap.tuner_decisions, 0);
    server.shutdown();
}

/// Acceptance check from the issue: for the Fig. 3 RMAT dataset on the
/// figure device, the tuner's BFS choice agrees with the sweep's
/// best-cycles method. Both sides run through `probe_methods` — the exact
/// code path `fig3` uses per cell — so agreement is exact, not
/// approximate. The tuner's candidate set additionally contains dynamic
/// and deferral variants the sweep doesn't measure, so the comparison is
/// over the shared (plain) methods, with the tuner allowed to do strictly
/// better on its extras.
#[test]
fn tuner_choice_matches_fig3_sweep_on_rmat() {
    let exec = ExecConfig::default();
    let gpu = GpuConfig::fermi_c2050();
    let entry = GraphEntry::new("RMAT", Dataset::Rmat.build(Scale::Tiny));

    // The fig3 side: sweep the K ladder, keep the best.
    let sweep = probe_methods(&gpu, &exec, &entry, Algo::Bfs, &method_table::k_sweep());
    let sweep: Vec<(Method, u64)> = sweep
        .into_iter()
        .map(|(m, r)| (m, r.expect("sweep probe failed")))
        .collect();
    let (fig3_best, fig3_cycles) = sweep
        .iter()
        .min_by_key(|(_, c)| *c)
        .copied()
        .expect("non-empty sweep");

    // The tuner side: full-graph probing (sample target larger than the
    // graph disables sampling), no pin, no persistence.
    let mut tuner = Tuner::new(None, u32::MAX, None);
    let choice = tuner.choose(&gpu, &exec, &entry, Algo::Bfs);
    let record = tuner.entry(entry.digest, Algo::Bfs).expect("probed");

    // Every method both sides measured must agree cycle-for-cycle.
    let mut shared = 0;
    for (m, sweep_cycles) in &sweep {
        if let Some((_, tuner_cycles)) = record.probes.iter().find(|(spec, _)| *spec == m.spec()) {
            assert_eq!(
                tuner_cycles,
                sweep_cycles,
                "{} measured differently by fig3 and the tuner",
                m.spec()
            );
            shared += 1;
        }
    }
    assert!(shared >= 5, "baseline + vw4..vw32 are in both sets");

    // The winner over the shared methods is the same method on both sides.
    let shared_best = sweep
        .iter()
        .filter(|(m, _)| record.probes.iter().any(|(spec, _)| *spec == m.spec()))
        .min_by_key(|(_, c)| *c)
        .map(|(m, _)| *m)
        .unwrap();
    let tuner_shared_best = record
        .probes
        .iter()
        .filter(|(spec, _)| sweep.iter().any(|(m, _)| m.spec() == *spec))
        .min_by_key(|(_, c)| *c)
        .map(|(spec, _)| Method::parse(spec).unwrap())
        .unwrap();
    assert_eq!(shared_best, tuner_shared_best);

    // And the tuner's overall choice is at least as fast as the fig3 best:
    // equal to it, or one of the technique variants beating it.
    let (_, chosen_cycles) = record
        .probes
        .iter()
        .find(|(spec, _)| *spec == choice.method.spec())
        .expect("winner is a recorded probe");
    assert!(
        *chosen_cycles <= fig3_cycles,
        "tuner chose {} ({chosen_cycles} cyc) but fig3's best is {} ({fig3_cycles} cyc)",
        choice.method.spec(),
        fig3_best.spec()
    );
    if matches!(choice.method, Method::Baseline) || sweep.iter().any(|(m, _)| *m == choice.method) {
        assert_eq!(
            choice.method, fig3_best,
            "a plain-ladder winner must be the fig3 best exactly"
        );
    }
}

/// The tuner's probes run concurrently, yet each returns exactly what the
/// same probe returns alone: for every algorithm, `probe_methods` over its
/// candidates matches `probe_one`, in order and method for method.
#[test]
fn concurrent_probes_match_single_probes() {
    let exec = ExecConfig::default();
    let gpu = GpuConfig::tiny_test();
    let entry = GraphEntry::new("RMAT", Dataset::Rmat.build(Scale::Tiny));
    let threshold = maxwarp::catalog::defer_threshold(&entry.csr);
    for algo in Algo::ALL {
        let candidates: Vec<Method> = method_table::candidates(threshold)
            .into_iter()
            .filter(|m| algo.supports(*m))
            .collect();
        let probed = probe_methods(&gpu, &exec, &entry, algo, &candidates);
        assert_eq!(probed.len(), candidates.len(), "{algo:?}");
        for (&m, (pm, got)) in candidates.iter().zip(&probed) {
            assert_eq!(*pm, m, "{algo:?}: results out of candidate order");
            match (got, probe_one(&gpu, &exec, &entry, algo, m)) {
                (Ok(a), Ok(b)) => assert_eq!(*a, b, "{algo:?} {}: cycles", m.spec()),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(&b),
                    "{algo:?} {}: {a} vs {b}",
                    m.spec()
                ),
                (a, b) => panic!("{algo:?} {}: {a:?} alone gave {b:?}", m.spec()),
            }
        }
    }
}
