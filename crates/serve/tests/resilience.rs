//! Service-resilience behavior: worker supervision, crash recovery,
//! retries, admission shedding, the circuit breaker with CPU
//! fallback, and the acceptance contract that every resilience feature is
//! pure policy — non-degraded results are byte-identical with the whole
//! stack on or off.

use maxwarp::catalog::{Inputs, KERNELS};
use maxwarp::Method;
use maxwarp_graph::hub_graph;
use maxwarp_serve::resilience::{Backoff, CrashPolicy, RestartPolicy};
use maxwarp_serve::{
    BreakerConfig, ChaosConfig, Priority, Query, Request, ResponseSource, ResultData, RetryPolicy,
    ServeError, Server, ServerConfig, ShedConfig, ShedReason, WorkerHealth,
};
use maxwarp_simt::{GpuConfig, LaunchError, SimtError};
use std::time::Duration;

fn graph() -> maxwarp_graph::Csr {
    hub_graph(300, 2, 40, 3, 11)
}

fn pinned(h: maxwarp_serve::GraphHandle, q: Query) -> Request {
    let mut r = Request::new(h, q);
    r.method = Some(Method::Baseline);
    r
}

fn fast_backoff() -> Backoff {
    Backoff::new(Duration::from_micros(50), Duration::from_millis(2))
}

/// A worker that panics on batch pickup is restarted by the supervisor and
/// the in-flight request is requeued — until the per-request requeue
/// budget runs out, at which point the request fails with a structured
/// `WorkerCrashed` instead of hanging its ticket forever.
#[test]
fn supervisor_restarts_panicked_worker_and_bounds_requeues() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.restart = RestartPolicy {
        max_restarts: 100,
        backoff: fast_backoff(),
    };
    cfg.resilience.crash = CrashPolicy::Requeue { max_requeues: 2 };
    cfg.chaos = Some(ChaosConfig {
        seed: 7,
        worker_panic: 1.0,
        ..ChaosConfig::default()
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    // Every pickup panics: requeue twice, then fail the request.
    match server.call(pinned(h, Query::Bfs { src: Some(0) })) {
        Err(ServeError::WorkerCrashed { requeues }) => assert_eq!(requeues, 2),
        other => panic!("expected WorkerCrashed after requeue budget, got {other:?}"),
    }

    // Stop injecting: the restarted worker serves normally.
    server.set_chaos(None);
    let ok = server
        .call(pinned(h, Query::Bfs { src: Some(0) }))
        .expect("restarted worker serves");
    assert!(!ok.degraded);

    let health = server.worker_health();
    assert!(
        matches!(health[0], WorkerHealth::Running { restarts } if restarts >= 3),
        "worker restarted at least once per panic, got {health:?}"
    );
    let snap = server.snapshot();
    assert!(snap.resilience.worker_panics >= 3);
    assert!(snap.resilience.worker_restarts >= 3);
    assert_eq!(snap.resilience.crash_requeued, 2);
    assert_eq!(snap.resilience.crash_failed, 1);
    server.shutdown();
}

/// When every worker exhausts its restart budget the pool is dead: queued
/// and future requests fail fast with `WorkersDead`, never hanging.
#[test]
fn dead_pool_fails_fast() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.restart = RestartPolicy {
        max_restarts: 0,
        backoff: fast_backoff(),
    };
    cfg.chaos = Some(ChaosConfig {
        seed: 9,
        worker_panic: 1.0,
        ..ChaosConfig::default()
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    match server.call(pinned(h, Query::Cc)) {
        Err(ServeError::WorkersDead) | Err(ServeError::WorkerCrashed { .. }) => {}
        other => panic!("expected a structured crash error, got {other:?}"),
    }
    assert_eq!(server.workers_alive(), 0);
    match server.submit(pinned(h, Query::Cc)) {
        Err(ServeError::WorkersDead) => {}
        other => panic!("expected WorkersDead fast-fail, got {other:?}"),
    }
    server.shutdown();
}

/// Retries absorb transient launch faults: with a seeded fault rate and a
/// deep attempt budget, every request eventually succeeds and the retry
/// counters show real work was absorbed.
#[test]
fn retries_absorb_transient_faults() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.retry = RetryPolicy {
        max_attempts: 12,
        backoff: fast_backoff(),
    };
    cfg.chaos = Some(ChaosConfig {
        seed: 21,
        launch_fault: 0.5,
        ..ChaosConfig::default()
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    for src in 0..6 {
        let r = server
            .call(pinned(h, Query::Bfs { src: Some(src) }))
            .expect("retries outlast seeded faults");
        assert!(!r.degraded);
        assert!(r.attempts >= 1);
    }
    let snap = server.snapshot();
    assert!(snap.resilience.retries > 0, "faults must have fired");
    assert!(snap.resilience.retry_successes > 0);
    assert_eq!(snap.failed, 0);
    server.shutdown();
}

/// A server whose device always faults, with a breaker that opens after two
/// faults, and the graph registered on it.
fn faulting_server() -> (Server, maxwarp_serve::GraphHandle) {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.breaker = Some(BreakerConfig {
        threshold: 2,
        cooldown: Duration::from_secs(30),
    });
    cfg.chaos = Some(ChaosConfig {
        seed: 3,
        launch_fault: 1.0,
        ..ChaosConfig::default()
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());
    (server, h)
}

/// Two injected faults on `q`'s (graph, algorithm) open its breaker.
fn trip(server: &Server, h: maxwarp_serve::GraphHandle, q: &Query) {
    for _ in 0..2 {
        match server.call(pinned(h, q.clone())) {
            Err(ServeError::Panicked(_)) => {}
            other => panic!("expected injected fault, got {other:?}"),
        }
    }
}

/// A tripped circuit breaker routes requests to the CPU reference: the
/// response is flagged degraded, sourced `CpuFallback`, and carries the
/// same payload the device would have produced.
#[test]
fn breaker_trips_to_cpu_fallback() {
    let (server, h) = faulting_server();
    trip(&server, h, &Query::Bfs { src: Some(0) });

    let deg = server
        .call(pinned(h, Query::Bfs { src: Some(0) }))
        .expect("breaker fallback serves");
    assert!(deg.degraded);
    assert_eq!(deg.source, ResponseSource::CpuFallback);
    assert!(!deg.cached, "fallback results must not poison the cache");

    // The CPU reference computes the same answer the device would.
    let clean = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let hc = clean.register_graph("hub", graph());
    let want = clean.call(pinned(hc, Query::Bfs { src: Some(0) })).unwrap();
    assert_eq!(deg.data, want.data, "fallback payload matches the device");

    let snap = server.snapshot();
    assert!(snap.resilience.breaker_trips >= 1);
    assert!(snap.resilience.fallbacks >= 1);
    assert!(snap.resilience.degraded >= 1);
    clean.shutdown();
    server.shutdown();
}

/// Degraded SSSP and CC answers equal a clean server's device answers
/// exactly; degraded PageRank is within the catalog's PageRank bound.
#[test]
fn degraded_answers_agree_with_the_device() {
    let (server, h) = faulting_server();
    let clean = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let hc = clean.register_graph("hub", graph());
    let pagerank = KERNELS.iter().find(|k| k.name == "pagerank").unwrap();
    let words = |d: &ResultData| match d {
        ResultData::F32s(v) => v.iter().map(|r| r.to_bits()).collect(),
        other => panic!("pagerank answers are ranks, got {other:?}"),
    };
    let pr = Query::Pagerank {
        iters: 3,
        damping: 0.85,
    };
    for q in [Query::Sssp { src: Some(5) }, Query::Cc, pr.clone()] {
        trip(&server, h, &q);
        let deg = server.call(pinned(h, q.clone())).expect("fallback serves");
        assert_eq!(deg.source, ResponseSource::CpuFallback, "{q:?}");
        let want = clean.call(pinned(hc, q.clone())).unwrap();
        if q == pr {
            let got =
                (pagerank.agrees)(&Inputs::new(graph()), &words(&deg.data), &words(&want.data));
            assert_eq!(got, Ok(()));
        } else {
            assert_eq!(deg.data, want.data, "{q:?}");
        }
    }
    clean.shutdown();
    server.shutdown();
}

/// While the breaker is open, an out-of-range source or a zero iteration
/// count is the same `BadRequest` the device path gives, not a panic in the
/// CPU fallback that crashes the worker or an answer to a request the
/// device refuses.
#[test]
fn open_breaker_rejects_what_the_device_rejects() {
    let (server, h) = faulting_server();
    let pagerank = |iters| Query::Pagerank {
        iters,
        damping: 0.85,
    };
    for (ok, bad, why) in [
        (
            Query::Bfs { src: Some(0) },
            Query::Bfs {
                src: Some(1_000_000),
            },
            "out of range",
        ),
        (pagerank(3), pagerank(0), "iters must be >= 1"),
    ] {
        trip(&server, h, &ok);
        match server.call(pinned(h, bad)) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        let deg = server.call(pinned(h, ok)).expect("the worker still serves");
        assert_eq!(deg.source, ResponseSource::CpuFallback);
    }
    server.shutdown();
}

/// A request that overruns its own cycle deadline is the client's doing:
/// the simulator is deterministic, so a retry would overrun again, and it
/// says nothing about the device. It consumes no retries and does not
/// count toward the breaker, so healthy requests on the same (graph,
/// algorithm) still run on the device.
#[test]
fn deadline_overrun_neither_retries_nor_trips_the_breaker() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.retry = RetryPolicy::attempts(3);
    cfg.resilience.breaker = Some(BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_secs(30),
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let mut doomed = pinned(h, Query::Bfs { src: Some(0) });
    doomed.deadline_cycles = Some(1);
    match server.call(doomed) {
        Err(ServeError::Launch(LaunchError::Fault(SimtError::Watchdog(_)))) => {}
        other => panic!("expected the watchdog error, got {other:?}"),
    }

    let ok = server
        .call(pinned(h, Query::Bfs { src: Some(1) }))
        .expect("healthy request serves");
    assert!(!ok.degraded, "a healthy request must not be degraded");
    assert_eq!(ok.source, ResponseSource::Device);

    let snap = server.snapshot();
    assert_eq!(snap.resilience.retries, 0, "an overrun is not retried");
    assert_eq!(snap.resilience.breaker_trips, 0, "an overrun is no fault");
    server.shutdown();
}

/// A deadline overrun that lands on the breaker's half-open trial gives
/// no verdict, so the trial passes to the next request instead of leaving
/// the breaker open for good.
#[test]
fn deadline_overrun_hands_the_half_open_trial_on() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.resilience.breaker = Some(BreakerConfig {
        threshold: 1,
        cooldown: Duration::from_millis(20),
    });
    cfg.chaos = Some(ChaosConfig {
        seed: 3,
        launch_fault: 1.0,
        ..ChaosConfig::default()
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    assert!(matches!(
        server.call(pinned(h, Query::Bfs { src: Some(0) })),
        Err(ServeError::Panicked(_))
    ));
    server.set_chaos(None);
    std::thread::sleep(Duration::from_millis(30));

    let mut doomed = pinned(h, Query::Bfs { src: Some(1) });
    doomed.deadline_cycles = Some(1);
    assert!(matches!(
        server.call(doomed),
        Err(ServeError::Launch(LaunchError::Fault(SimtError::Watchdog(
            _
        ))))
    ));
    let ok = server
        .call(pinned(h, Query::Bfs { src: Some(2) }))
        .expect("the next request runs the trial");
    assert_eq!(ok.source, ResponseSource::Device);
    assert!(!ok.degraded);
    assert_eq!(server.snapshot().resilience.breaker_trips, 1);
    server.shutdown();
}

/// Token-bucket admission control sheds a flooding tenant with a
/// structured reason while leaving its already-admitted work untouched.
#[test]
fn tenant_flood_is_shed_with_structured_reason() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.paused = true;
    cfg.resilience.shed = Some(ShedConfig {
        high_watermark: 1.0,
        tenant_rate: 0.001,
        tenant_burst: 2.0,
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for src in 0..5 {
        let mut req = pinned(h, Query::Bfs { src: Some(src) });
        req.tenant = Some("flood".to_string());
        match server.submit(req) {
            Ok(t) => admitted.push(t),
            Err(ServeError::Shed { reason }) => {
                assert_eq!(reason, ShedReason::TenantRate);
                shed += 1;
            }
            other => panic!("expected admit or shed, got {other:?}"),
        }
    }
    assert_eq!(admitted.len(), 2, "burst of 2 admits exactly 2");
    assert_eq!(shed, 3);

    server.resume();
    for t in admitted {
        t.wait().expect("admitted work completes");
    }
    assert_eq!(server.snapshot().resilience.shed_tenant, 3);
    server.shutdown();
}

/// Past the high-watermark the queue stops growing: a high-priority
/// arrival displaces the most recent low-priority occupant (which gets a
/// structured shed), while an equal-priority arrival is shed itself.
#[test]
fn queue_pressure_sheds_by_priority() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.paused = true;
    cfg.resilience.shed = Some(ShedConfig {
        high_watermark: 0.5,
        tenant_rate: 1e9,
        tenant_burst: 1e9,
    });
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    // Fill to the watermark (ceil(4 * 0.5) = 2) with normal priority.
    let keeper = server
        .submit(pinned(h, Query::Bfs { src: Some(0) }))
        .expect("below watermark");
    let victim = server
        .submit(pinned(h, Query::Bfs { src: Some(1) }))
        .expect("at watermark");

    // Equal priority at the watermark: the incoming request is shed.
    match server.submit(pinned(h, Query::Bfs { src: Some(2) })) {
        Err(ServeError::Shed { reason }) => assert_eq!(reason, ShedReason::QueuePressure),
        other => panic!("expected incoming shed, got {other:?}"),
    }

    // Higher priority displaces the most recent normal-priority occupant.
    let vip = server
        .submit(pinned(h, Query::Bfs { src: Some(3) }).with_priority(Priority::High))
        .expect("high priority displaces a victim");
    match victim.wait() {
        Err(ServeError::Shed { reason }) => assert_eq!(reason, ShedReason::QueuePressure),
        other => panic!("expected the victim to be shed, got {other:?}"),
    }

    server.resume();
    keeper.wait().expect("undisturbed occupant completes");
    vip.wait().expect("vip completes");
    assert_eq!(server.snapshot().resilience.shed_queue, 2);
    server.shutdown();
}

/// One poisoned request (a cycle deadline that trips the watchdog
/// immediately) inside a 4-request batch fails alone — its batch-mates
/// complete with correct results.
#[test]
fn poisoned_request_fails_alone_in_batch() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.batch_max = 4;
    cfg.paused = true;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let mut tickets = Vec::new();
    for src in 0..4u32 {
        let mut req = pinned(h, Query::Bfs { src: Some(src) });
        if src == 2 {
            req.deadline_cycles = Some(1); // poison: watchdog trips at once
        }
        tickets.push(server.submit(req).expect("queue has room"));
    }
    server.resume();

    let reference = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let hr = reference.register_graph("hub", graph());
    for (src, t) in tickets.into_iter().enumerate() {
        let src = src as u32;
        match t.wait() {
            Ok(r) => {
                assert_ne!(src, 2, "the poisoned request must not succeed");
                assert_eq!(r.batch_size, 4, "batch-mates stay batched");
                let want = reference
                    .call(pinned(hr, Query::Bfs { src: Some(src) }))
                    .unwrap();
                assert_eq!(r.data, want.data, "slot {src}");
                assert_eq!(r.stats, want.stats, "slot {src} stats");
            }
            Err(ServeError::Launch(_)) => {
                assert_eq!(src, 2, "only the poisoned request may fail");
            }
            other => panic!("unexpected outcome for slot {src}: {other:?}"),
        }
    }
    let snap = server.snapshot();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.failed, 1);
    reference.shutdown();
    server.shutdown();
}

/// Acceptance: resilience is pure policy. With retries, shedding headroom,
/// and the breaker all enabled (but no faults), every response
/// is byte-identical — data, stats, iterations, method — to a server with
/// the whole stack off.
#[test]
fn resilience_stack_is_byte_identical_when_healthy() {
    let baseline = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));

    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.resilience.retry = RetryPolicy::attempts(3);
    cfg.resilience.shed = Some(ShedConfig::default());
    cfg.resilience.breaker = Some(BreakerConfig::default());
    let armed = Server::start(cfg);

    let hb = baseline.register_graph("hub", graph());
    let ha = armed.register_graph("hub", graph());

    let queries = [
        Query::Bfs { src: None },
        Query::Bfs { src: Some(3) },
        Query::Sssp { src: None },
        Query::Cc,
        Query::Pagerank {
            iters: 3,
            damping: 0.85,
        },
    ];
    for q in queries {
        let want = baseline.call(pinned(hb, q.clone())).unwrap();
        let got = armed.call(pinned(ha, q.clone())).unwrap();
        assert!(!got.degraded, "{q:?} must not degrade on a healthy path");
        assert_eq!(got.data, want.data, "{q:?} payload");
        assert_eq!(got.stats, want.stats, "{q:?} KernelStats");
        assert_eq!(got.iterations, want.iterations, "{q:?} iterations");
        assert_eq!(got.method, want.method, "{q:?} method");
    }
    let snap = armed.snapshot();
    assert_eq!(snap.resilience.degraded, 0);
    assert_eq!(snap.resilience.fallbacks, 0);
    baseline.shutdown();
    armed.shutdown();
}
