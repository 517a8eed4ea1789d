//! Scheduler behavior under load: backpressure, batching, deadlines,
//! admission control, tenant accounting, and shutdown draining.

use maxwarp::Method;
use maxwarp_graph::hub_graph;
use maxwarp_serve::{Query, Request, ServeError, Server, ServerConfig};
use maxwarp_simt::GpuConfig;

fn graph() -> maxwarp_graph::Csr {
    hub_graph(300, 2, 40, 3, 11)
}

/// Pin the baseline so no test below depends on tuner probing.
fn pinned(h: maxwarp_serve::GraphHandle, q: Query) -> Request {
    let mut r = Request::new(h, q);
    r.method = Some(Method::Baseline);
    r
}

/// A paused single-worker server rejects the (capacity+1)-th submission
/// with structured backpressure — nothing dropped, nothing panicking —
/// and after `resume` every admitted request completes with the result
/// its slot asked for.
#[test]
fn saturation_gives_structured_backpressure() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.paused = true;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(pinned(h, Query::Bfs { src: Some(i) }))
                .expect("within capacity")
        })
        .collect();
    assert_eq!(server.queue_len(), 4);

    match server.submit(pinned(h, Query::Bfs { src: Some(4) })) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 4),
        other => panic!("expected QueueFull, got {other:?}"),
    }

    server.resume();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("admitted requests complete"))
        .collect();

    // Slot alignment: response i is the answer to src=i. A fresh server
    // computes the reference for each slot.
    let reference = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let hr = reference.register_graph("hub", graph());
    for (i, resp) in responses.iter().enumerate() {
        let want = reference
            .call(pinned(
                hr,
                Query::Bfs {
                    src: Some(i as u32),
                },
            ))
            .unwrap();
        assert_eq!(resp.data, want.data, "slot {i} got the wrong result");
    }

    let snap = server.snapshot();
    assert_eq!(snap.submitted, 4);
    assert_eq!(snap.rejected_full, 1);
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.failed, 0);

    reference.shutdown();
    server.shutdown();
}

/// Interleaved submissions for two graphs collapse into one batch per
/// graph when a single worker drains a pre-filled queue.
#[test]
fn same_graph_requests_batch() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.batch_max = 8;
    cfg.paused = true;
    let server = Server::start(cfg);
    let h1 = server.register_graph("a", hub_graph(200, 1, 30, 2, 3));
    let h2 = server.register_graph("b", hub_graph(200, 1, 30, 2, 5));

    let mut tickets = Vec::new();
    for i in 0..3u32 {
        for &h in &[h1, h2] {
            tickets.push(
                server
                    .submit(pinned(h, Query::Bfs { src: Some(i) }))
                    .unwrap(),
            );
        }
    }
    server.resume();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    for r in &responses {
        assert_eq!(r.batch_size, 3, "each graph's 3 requests share one batch");
    }
    let snap = server.snapshot();
    assert_eq!(snap.batches, 2);
    assert_eq!(snap.batched_requests, 6);
    server.shutdown();
}

/// A request with a tiny cycle budget trips the watchdog and fails with a
/// structured launch error; the worker survives and keeps serving.
#[test]
fn deadline_fails_request_not_worker() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let mut doomed = pinned(h, Query::Bfs { src: Some(0) });
    doomed.deadline_cycles = Some(1);
    match server.call(doomed) {
        Err(ServeError::Launch(_)) => {}
        other => panic!("expected a watchdog launch error, got {other:?}"),
    }

    // The failed run must not have been cached, and the worker still works.
    let ok = server.call(pinned(h, Query::Bfs { src: Some(0) })).unwrap();
    assert!(
        !ok.cached,
        "a deadline failure must never populate the cache"
    );

    let snap = server.snapshot();
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.completed, 1);
    server.shutdown();
}

/// A driver panic fails the request with `Panicked` carrying the panic's
/// own message, not a placeholder.
#[test]
fn panic_message_reaches_the_client() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let bad = pinned(
        h,
        Query::Pagerank {
            iters: 3,
            damping: 2.0,
        },
    );
    match server.call(bad) {
        Err(ServeError::Panicked(msg)) => assert!(
            msg.contains("damping must be in [0,1]"),
            "panic message lost: {msg:?}"
        ),
        other => panic!("expected Panicked, got {other:?}"),
    }
    server.shutdown();
}

/// Admission control rejects bad requests before they occupy queue slots:
/// unknown graph handles and method/algorithm mismatches.
#[test]
fn invalid_requests_rejected_at_admission() {
    let empty = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let other = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
    let foreign = other.register_graph("hub", graph());

    // `empty` has no graphs: any handle is unknown to it.
    match empty.submit(Request::new(foreign, Query::Cc)) {
        Err(ServeError::UnknownGraph(_)) => {}
        other => panic!("expected UnknownGraph, got {other:?}"),
    }

    // Deferral on triangles is a capability violation.
    let mut bad = Request::new(foreign, Query::Triangles);
    bad.method = Method::parse("vw8+defer:64");
    assert!(bad.method.is_some(), "spec parses");
    match other.submit(bad) {
        Err(ServeError::Unsupported { algo, .. }) => {
            assert_eq!(algo, maxwarp_serve::Algo::Triangles)
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }

    assert_eq!(empty.snapshot().rejected_invalid, 1);
    assert_eq!(other.snapshot().rejected_invalid, 1);
    assert_eq!(other.snapshot().submitted, 0, "nothing was enqueued");

    // An in-range check the admission gate can't see (source ≥ n) still
    // fails structurally, at execution time.
    let mut oob = Request::new(foreign, Query::Bfs { src: Some(10_000) });
    oob.method = Some(Method::Baseline);
    match other.call(oob) {
        Err(ServeError::BadRequest(_)) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    empty.shutdown();
    other.shutdown();
}

/// Tenant tags are counted per tenant, independent of success/failure.
#[test]
fn per_tenant_accounting() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    for (tenant, src) in [("alice", 0u32), ("alice", 1), ("bob", 2)] {
        let mut r = pinned(h, Query::Bfs { src: Some(src) });
        r.tenant = Some(tenant.to_string());
        server.call(r).unwrap();
    }
    let snap = server.snapshot();
    assert_eq!(
        snap.per_tenant,
        vec![("alice".to_string(), 2), ("bob".to_string(), 1)]
    );
    server.shutdown();
}

/// Shutdown fails queued-but-unserved requests with `ShuttingDown` instead
/// of leaving their callers hanging.
#[test]
fn shutdown_drains_queue_with_structured_error() {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 1;
    cfg.paused = true;
    let server = Server::start(cfg);
    let h = server.register_graph("hub", graph());

    let t1 = server.submit(pinned(h, Query::Cc)).unwrap();
    let t2 = server.submit(pinned(h, Query::Kcore)).unwrap();
    server.shutdown();

    for t in [t1, t2] {
        match t.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
}
