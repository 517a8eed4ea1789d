//! `tool_chaos_serve` — service-level chaos harness for the resilient
//! serve tier.
//!
//! Runs a seeded fault-injection campaign against a live [`Server`] and
//! asserts the service-level invariants the resilience layer promises:
//!
//! * **Zero lost requests** — every submitted request resolves to a
//!   success or a *structured* error (shed, crashed, workers-dead,
//!   launch fault); never a dropped channel.
//! * **Byte identity under faults** — every non-degraded success is
//!   byte-identical (payload digest and `KernelStats`) to the clean
//!   baseline run of the same query.
//! * **Clean recovery** — after the faults stop, a warm pass over the
//!   same workload matches the clean warm baseline's cache hit rate and
//!   wall time within 10%.
//!
//! Scenarios (all driven by one `--seed`, fully reproducible):
//!
//! | scenario | injects | exercises |
//! |---|---|---|
//! | `worker_panic_storm` | worker-level panics outside the request unwind | supervision, bounded restarts, in-flight requeue |
//! | `launch_fault_breaker` | injected launch faults | retries, circuit breaker, CPU fallback degradation |
//! | `persistence_corruption` | truncation + bit flips on tuning/warmup files | crash-safe store, quarantine, rebuild |
//! | `tenant_flood` | one tenant flooding admission | token buckets, priority shedding |
//! | `deadline_storm` | tiny cycle deadlines on poisoned requests | per-request failure isolation in batches |
//! | `total_worker_loss` | certain panics with no restart budget | `WorkersDead` drain + fail-fast |
//!
//! ```text
//! tool_chaos_serve [--seed S] [--requests N] [--out PATH]
//! ```
//!
//! Writes `results/chaos_serve_<seed>.json` and exits nonzero if any
//! invariant is violated.

use maxwarp_graph::{Dataset, Scale};
use maxwarp_serve::json::{self, Value};
use maxwarp_serve::resilience::{Backoff, RestartPolicy};
use maxwarp_serve::{
    BreakerConfig, ChaosConfig, Priority, Query, Request, Response, ResponseSource, RetryPolicy,
    ServeError, Server, ServerConfig, ShedConfig, ShedReason, Ticket,
};
use maxwarp_simt::{GpuConfig, KernelStats};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// SplitMix64 request-stream RNG (same as serve_loadgen).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n`: P(rank) ∝ 1/(rank+1)^theta.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// The workload: a catalog of distinct queries over two graphs, plus a
/// zipf-drawn request stream over it.
struct Workload {
    graphs: Vec<(&'static str, maxwarp_graph::Csr)>,
    /// (graph index, query) per distinct catalog entry.
    catalog: Vec<(usize, Query)>,
    /// Catalog indices, in submission order.
    stream: Vec<usize>,
}

fn build_workload(seed: u64, requests: usize) -> Workload {
    let graphs = vec![
        ("rmat", Dataset::Rmat.build(Scale::Tiny)),
        ("wiki", Dataset::WikiTalkLike.build(Scale::Tiny)),
    ];
    let mut catalog = Vec::new();
    for gi in 0..graphs.len() {
        // Every query here has a CPU fallback, so the breaker scenario can
        // degrade any of them.
        catalog.push((gi, Query::Bfs { src: None }));
        catalog.push((gi, Query::Bfs { src: Some(1) }));
        catalog.push((gi, Query::Sssp { src: None }));
        catalog.push((gi, Query::Cc));
        catalog.push((
            gi,
            Query::Pagerank {
                iters: 3,
                damping: 0.85,
            },
        ));
    }
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let zipf = Zipf::new(catalog.len(), 1.1);
    let stream = (0..requests).map(|_| zipf.draw(&mut rng)).collect();
    Workload {
        graphs,
        catalog,
        stream,
    }
}

/// Clean-run identity of one catalog entry.
#[derive(Clone)]
struct CleanDigest {
    data: u64,
    stats: KernelStats,
    iterations: u32,
}

/// Structured-outcome tally for one scenario phase.
#[derive(Default)]
struct Tally {
    submitted: u64,
    ok: u64,
    ok_degraded: u64,
    shed_tenant: u64,
    shed_queue: u64,
    queue_full: u64,
    worker_crashed: u64,
    workers_dead: u64,
    launch_failed: u64,
    panicked: u64,
    other_errors: u64,
    /// Non-degraded successes whose payload or stats diverged from clean.
    mismatches: u64,
    max_attempts_seen: u32,
}

impl Tally {
    fn absorb(
        &mut self,
        idx: usize,
        outcome: &Result<Response, ServeError>,
        clean: &HashMap<usize, CleanDigest>,
        violations: &mut Vec<String>,
        scenario: &str,
    ) {
        match outcome {
            Ok(r) => {
                self.ok += 1;
                self.max_attempts_seen = self.max_attempts_seen.max(r.attempts);
                if r.degraded {
                    self.ok_degraded += 1;
                    if matches!(r.source, ResponseSource::Device | ResponseSource::Cache) {
                        violations.push(format!(
                            "{scenario}: degraded response with non-degraded source {:?}",
                            r.source
                        ));
                    }
                } else if let Some(c) = clean.get(&idx) {
                    if r.data.digest() != c.data
                        || r.stats != c.stats
                        || r.iterations != c.iterations
                    {
                        self.mismatches += 1;
                        violations.push(format!(
                            "{scenario}: catalog[{idx}] non-degraded response diverged from clean baseline"
                        ));
                    }
                }
            }
            Err(e) => match e {
                ServeError::Shed {
                    reason: ShedReason::TenantRate,
                } => self.shed_tenant += 1,
                ServeError::Shed {
                    reason: ShedReason::QueuePressure,
                } => self.shed_queue += 1,
                ServeError::QueueFull { .. } => self.queue_full += 1,
                ServeError::WorkerCrashed { .. } => self.worker_crashed += 1,
                ServeError::WorkersDead => self.workers_dead += 1,
                ServeError::Launch(_) => self.launch_failed += 1,
                ServeError::Panicked(_) => self.panicked += 1,
                ServeError::WorkerLost => {
                    self.other_errors += 1;
                    violations.push(format!(
                        "{scenario}: unstructured WorkerLost outcome (lost request)"
                    ));
                }
                _ => self.other_errors += 1,
            },
        }
    }

    fn to_json(&self) -> Value {
        json::obj(vec![
            ("submitted", json::n(self.submitted as f64)),
            ("ok", json::n(self.ok as f64)),
            ("ok_degraded", json::n(self.ok_degraded as f64)),
            ("shed_tenant", json::n(self.shed_tenant as f64)),
            ("shed_queue", json::n(self.shed_queue as f64)),
            ("queue_full", json::n(self.queue_full as f64)),
            ("worker_crashed", json::n(self.worker_crashed as f64)),
            ("workers_dead", json::n(self.workers_dead as f64)),
            ("launch_failed", json::n(self.launch_failed as f64)),
            ("panicked", json::n(self.panicked as f64)),
            ("other_errors", json::n(self.other_errors as f64)),
            ("mismatches", json::n(self.mismatches as f64)),
            ("max_attempts", json::n(self.max_attempts_seen as f64)),
        ])
    }

    fn accounted(&self) -> u64 {
        self.ok
            + self.shed_tenant
            + self.shed_queue
            + self.queue_full
            + self.worker_crashed
            + self.workers_dead
            + self.launch_failed
            + self.panicked
            + self.other_errors
    }
}

fn base_config() -> ServerConfig {
    let mut cfg = ServerConfig::for_tests(GpuConfig::tiny_test());
    cfg.workers = 2;
    cfg.queue_capacity = 64;
    cfg.batch_max = 4;
    cfg
}

fn start_with_graphs(
    cfg: ServerConfig,
    wl: &Workload,
) -> (Server, Vec<maxwarp_serve::GraphHandle>) {
    let server = Server::start(cfg);
    let handles = wl
        .graphs
        .iter()
        .map(|(name, csr)| server.register_graph(*name, csr.clone()))
        .collect();
    (server, handles)
}

/// Submit the stream (blocking retry on backpressure), wait for everything,
/// and tally outcomes.
fn run_stream(
    server: &Server,
    handles: &[maxwarp_serve::GraphHandle],
    wl: &Workload,
    stream: &[usize],
    clean: &HashMap<usize, CleanDigest>,
    violations: &mut Vec<String>,
    scenario: &str,
) -> (Tally, Duration) {
    let start = Instant::now();
    let mut tickets: Vec<(usize, Option<Ticket>, Option<ServeError>)> = Vec::new();
    let mut tally = Tally::default();
    for &idx in stream {
        let (gi, query) = &wl.catalog[idx];
        let req = Request::new(handles[*gi], query.clone());
        tally.submitted += 1;
        let mut backoff = 0u32;
        loop {
            match server.submit(req.clone()) {
                Ok(t) => {
                    tickets.push((idx, Some(t), None));
                    break;
                }
                Err(ServeError::QueueFull { .. }) if backoff < 200 => {
                    backoff += 1;
                    std::thread::sleep(Duration::from_micros(100 << backoff.min(6)));
                }
                Err(e) => {
                    tickets.push((idx, None, Some(e)));
                    break;
                }
            }
        }
    }
    for (idx, ticket, early) in tickets {
        let outcome = match (ticket, early) {
            (Some(t), _) => t.wait(),
            (None, Some(e)) => Err(e),
            (None, None) => unreachable!("ticket or admission error"),
        };
        tally.absorb(idx, &outcome, clean, violations, scenario);
    }
    (tally, start.elapsed())
}

struct ScenarioReport {
    name: &'static str,
    tally: Tally,
    wall: Duration,
    notes: Vec<(&'static str, f64)>,
}

impl ScenarioReport {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("outcomes", self.tally.to_json()),
            ("wall_seconds", json::n(self.wall.as_secs_f64())),
        ];
        for (k, v) in &self.notes {
            fields.push((*k, json::n(*v)));
        }
        json::obj(fields)
    }
}

fn main() {
    let mut seed = 1u64;
    let mut requests = 160usize;
    let mut out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().unwrap_or_else(|| die("flag needs a value"));
        match flag.as_str() {
            "--seed" => seed = val().parse().unwrap_or_else(|_| die("bad --seed")),
            "--requests" => requests = val().parse().unwrap_or_else(|_| die("bad --requests")),
            "--out" => out = Some(val()),
            other => die(&format!("unknown flag {other}")),
        }
    }

    println!("== tool_chaos_serve: seed {seed}, {requests} requests per scenario ==");
    let wl = build_workload(seed, requests);
    let mut violations: Vec<String> = Vec::new();
    let mut scenarios: Vec<ScenarioReport> = Vec::new();

    // ---- Clean baseline: digests for every catalog entry, plus a warm
    // pass that sets the recovery bar. -------------------------------------
    let (clean_server, clean_handles) = start_with_graphs(base_config(), &wl);
    let mut clean: HashMap<usize, CleanDigest> = HashMap::new();
    for (idx, (gi, query)) in wl.catalog.iter().enumerate() {
        match clean_server.call(Request::new(clean_handles[*gi], query.clone())) {
            Ok(r) => {
                clean.insert(
                    idx,
                    CleanDigest {
                        data: r.data.digest(),
                        stats: r.stats,
                        iterations: r.iterations,
                    },
                );
            }
            Err(e) => die(&format!("clean baseline failed on catalog[{idx}]: {e}")),
        }
    }
    let (clean_tally, clean_warm_wall) = run_stream(
        &clean_server,
        &clean_handles,
        &wl,
        &wl.stream,
        &clean,
        &mut violations,
        "clean_warm",
    );
    let clean_snap = clean_server.snapshot();
    let clean_hit_rate = clean_snap.cache.hit_rate();
    if clean_tally.ok != clean_tally.submitted {
        violations.push("clean_warm: not every request succeeded".to_string());
    }
    clean_server.shutdown();
    println!(
        "clean baseline: {} catalog entries, warm pass {:.1} ms, hit rate {:.2}",
        wl.catalog.len(),
        clean_warm_wall.as_secs_f64() * 1e3,
        clean_hit_rate
    );

    // ---- Scenario 1: worker panic storm. --------------------------------
    {
        let mut cfg = base_config();
        // A storm needs a deep restart budget — the point is supervision at
        // scale, not the budget bound (scenario 6 covers that).
        cfg.resilience.restart = RestartPolicy {
            max_restarts: 1000,
            backoff: Backoff::new(Duration::from_micros(50), Duration::from_millis(2)),
        };
        let (server, handles) = start_with_graphs(cfg, &wl);
        server.set_chaos(Some(ChaosConfig {
            seed,
            worker_panic: 0.15,
            ..ChaosConfig::default()
        }));
        let (tally, wall) = run_stream(
            &server,
            &handles,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "worker_panic_storm",
        );
        let snap = server.snapshot();
        if snap.resilience.worker_panics == 0 {
            violations.push("worker_panic_storm: no panics injected (chaos inert)".to_string());
        }
        if snap.resilience.worker_restarts == 0 {
            violations.push("worker_panic_storm: no supervised restarts".to_string());
        }
        if tally.accounted() != tally.submitted {
            violations.push("worker_panic_storm: lost requests".to_string());
        }
        // Recovery: faults off, warm pass must match the clean bar.
        server.set_chaos(None);
        let (rec_tally, rec_wall) = run_stream(
            &server,
            &handles,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "worker_panic_storm/recovery",
        );
        if rec_tally.ok != rec_tally.submitted {
            violations.push("worker_panic_storm: recovery pass had failures".to_string());
        }
        let budget = clean_warm_wall.mul_f64(1.1) + Duration::from_millis(250);
        if rec_wall > budget {
            violations.push(format!(
                "worker_panic_storm: recovery wall {:?} exceeds clean {:?} (+10% & slack)",
                rec_wall, clean_warm_wall
            ));
        }
        scenarios.push(ScenarioReport {
            name: "worker_panic_storm",
            tally,
            wall,
            notes: vec![
                ("worker_panics", snap.resilience.worker_panics as f64),
                ("worker_restarts", snap.resilience.worker_restarts as f64),
                ("crash_requeued", snap.resilience.crash_requeued as f64),
                ("crash_failed", snap.resilience.crash_failed as f64),
                ("recovery_wall_seconds", rec_wall.as_secs_f64()),
            ],
        });
        server.shutdown();
    }

    // ---- Scenario 2: launch faults → retries, breaker, CPU fallback. ----
    {
        let mut cfg = base_config();
        cfg.resilience.retry = RetryPolicy::attempts(3);
        cfg.resilience.breaker = Some(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        let (server, handles) = start_with_graphs(cfg, &wl);
        server.set_chaos(Some(ChaosConfig {
            seed,
            launch_fault: 0.7,
            ..ChaosConfig::default()
        }));
        let (tally, wall) = run_stream(
            &server,
            &handles,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "launch_fault_breaker",
        );
        let snap = server.snapshot();
        if snap.resilience.retries == 0 {
            violations.push("launch_fault_breaker: no retries consumed".to_string());
        }
        if snap.resilience.breaker_trips == 0 {
            violations.push("launch_fault_breaker: breaker never tripped".to_string());
        }
        if snap.resilience.fallbacks == 0 {
            violations.push("launch_fault_breaker: CPU fallback never served".to_string());
        }
        if tally.accounted() != tally.submitted {
            violations.push("launch_fault_breaker: lost requests".to_string());
        }
        // Recovery: faults off; the breaker half-open trial must close it
        // and device serving must resume cleanly.
        server.set_chaos(None);
        std::thread::sleep(Duration::from_millis(25)); // let cooldowns lapse
        let (rec_tally, _) = run_stream(
            &server,
            &handles,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "launch_fault_breaker/recovery",
        );
        if rec_tally.ok != rec_tally.submitted {
            violations.push("launch_fault_breaker: recovery pass had failures".to_string());
        }
        scenarios.push(ScenarioReport {
            name: "launch_fault_breaker",
            tally,
            wall,
            notes: vec![
                ("retries", snap.resilience.retries as f64),
                ("retry_successes", snap.resilience.retry_successes as f64),
                ("breaker_trips", snap.resilience.breaker_trips as f64),
                ("fallbacks", snap.resilience.fallbacks as f64),
                ("degraded", snap.resilience.degraded as f64),
            ],
        });
        server.shutdown();
    }

    // ---- Scenario 3: persistence corruption. ----------------------------
    {
        let dir = std::env::temp_dir().join(format!("chaos_serve_{seed}_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let tuning = dir.join("tuning.json");
        let warmup = dir.join("warmup.snapshot");
        let mut cfg = base_config();
        cfg.tuning_path = Some(tuning.clone());
        cfg.warmup_path = Some(warmup.clone());
        let (server, handles) = start_with_graphs(cfg.clone(), &wl);
        let (tally0, _) = run_stream(
            &server,
            &handles,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "persistence_corruption/populate",
        );
        if tally0.ok != tally0.submitted {
            violations.push("persistence_corruption: populate pass had failures".to_string());
        }
        server.shutdown(); // persists tuning + warmup snapshot

        // Corrupt both files: truncate the snapshot mid-payload, flip a bit
        // in the tuning table.
        let mut rng = Rng(seed ^ 0xfeed);
        for (path, mode) in [(&warmup, "truncate"), (&tuning, "bitflip")] {
            if let Ok(mut bytes) = std::fs::read(path) {
                match mode {
                    "truncate" => {
                        let keep = bytes.len() / 2;
                        bytes.truncate(keep);
                    }
                    _ => {
                        if !bytes.is_empty() {
                            let at = (rng.next() as usize) % bytes.len();
                            bytes[at] ^= 0x40;
                        }
                    }
                }
                let _ = std::fs::write(path, &bytes);
            } else {
                violations.push(format!(
                    "persistence_corruption: {} was never written",
                    path.display()
                ));
            }
        }

        // Restart on the corrupt files: must quarantine, start cold, and
        // serve byte-identical results.
        let start = Instant::now();
        let (server2, handles2) = start_with_graphs(cfg, &wl);
        let snap_before = server2.snapshot();
        if snap_before.resilience.warmup_loaded != 0 {
            violations
                .push("persistence_corruption: corrupt warmup snapshot was loaded".to_string());
        }
        let (tally, wall) = run_stream(
            &server2,
            &handles2,
            &wl,
            &wl.stream,
            &clean,
            &mut violations,
            "persistence_corruption",
        );
        let _ = start;
        if tally.ok != tally.submitted {
            violations
                .push("persistence_corruption: post-corruption pass had failures".to_string());
        }
        let quarantined = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
                    .count()
            })
            .unwrap_or(0);
        if quarantined == 0 {
            violations.push("persistence_corruption: no quarantine files left behind".to_string());
        }
        scenarios.push(ScenarioReport {
            name: "persistence_corruption",
            tally,
            wall,
            notes: vec![("quarantined_files", quarantined as f64)],
        });
        server2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Scenario 4: tenant flood + priority shedding. ------------------
    {
        let mut cfg = base_config();
        cfg.queue_capacity = 16;
        cfg.paused = true; // hold the workers so queue pressure is real
        cfg.resilience.shed = Some(ShedConfig {
            high_watermark: 0.5,
            tenant_rate: 20.0,
            tenant_burst: 5.0,
        });
        let (server, handles) = start_with_graphs(cfg, &wl);
        let mut tally = Tally::default();
        let mut tickets: Vec<(usize, Ticket)> = Vec::new();
        let mut flood_sheds = 0u64;
        // The flood: one tenant hammers the service far past its bucket.
        for i in 0..100usize {
            let idx = wl.stream[i % wl.stream.len()];
            let (gi, query) = &wl.catalog[idx];
            let mut req = Request::new(handles[*gi], query.clone());
            req.tenant = Some("flood".to_string());
            tally.submitted += 1;
            match server.submit(req) {
                Ok(t) => tickets.push((idx, t)),
                Err(e) => {
                    if matches!(
                        e,
                        ServeError::Shed {
                            reason: ShedReason::TenantRate
                        }
                    ) {
                        flood_sheds += 1;
                    }
                    tally.absorb(idx, &Err(e), &clean, &mut violations, "tenant_flood");
                }
            }
        }
        // The VIP: high-priority work must still get through (displacing
        // queued flood work if needed).
        let mut vip_ok_submitted = 0u64;
        for i in 0..8usize {
            let idx = wl.catalog.len().min(i) % wl.catalog.len();
            let (gi, query) = &wl.catalog[idx];
            let mut req = Request::new(handles[*gi], query.clone()).with_priority(Priority::High);
            req.tenant = Some("vip".to_string());
            tally.submitted += 1;
            match server.submit(req) {
                Ok(t) => {
                    vip_ok_submitted += 1;
                    tickets.push((idx, t));
                }
                Err(e) => tally.absorb(idx, &Err(e), &clean, &mut violations, "tenant_flood"),
            }
        }
        server.resume();
        let start = Instant::now();
        for (idx, t) in tickets {
            tally.absorb(idx, &t.wait(), &clean, &mut violations, "tenant_flood");
        }
        let wall = start.elapsed();
        let snap = server.snapshot();
        if flood_sheds == 0 {
            violations.push("tenant_flood: token bucket never shed".to_string());
        }
        if snap.resilience.shed_queue == 0 {
            violations.push("tenant_flood: queue-pressure shedding never fired".to_string());
        }
        if vip_ok_submitted == 0 {
            violations.push("tenant_flood: no high-priority request was admitted".to_string());
        }
        if tally.accounted() != tally.submitted {
            violations.push("tenant_flood: lost requests".to_string());
        }
        scenarios.push(ScenarioReport {
            name: "tenant_flood",
            tally,
            wall,
            notes: vec![
                ("flood_tenant_sheds", flood_sheds as f64),
                ("queue_sheds", snap.resilience.shed_queue as f64),
                ("vip_admitted", vip_ok_submitted as f64),
            ],
        });
        server.shutdown();
    }

    // ---- Scenario 5: deadline storm (batch poison at scale). ------------
    {
        let (server, handles) = start_with_graphs(base_config(), &wl);
        let mut tally = Tally::default();
        let mut tickets: Vec<(usize, bool, Ticket)> = Vec::new();
        for (i, &idx) in wl.stream.iter().enumerate() {
            let (gi, query) = &wl.catalog[idx];
            let poisoned = i % 4 == 0;
            let mut req = Request::new(handles[*gi], query.clone());
            if poisoned {
                req.deadline_cycles = Some(1); // trips the watchdog instantly
            }
            tally.submitted += 1;
            match server.submit(req) {
                Ok(t) => tickets.push((idx, poisoned, t)),
                Err(e) => tally.absorb(idx, &Err(e), &clean, &mut violations, "deadline_storm"),
            }
        }
        let start = Instant::now();
        let mut poisoned_ok = 0u64;
        let mut healthy_failed = 0u64;
        for (idx, poisoned, t) in tickets {
            let outcome = t.wait();
            match (&outcome, poisoned) {
                // A poisoned request may legitimately succeed from cache
                // (hits consume no budget); device successes would mean
                // the deadline wasn't enforced.
                (Ok(r), true) if !r.cached => poisoned_ok += 1,
                (Err(_), false) => healthy_failed += 1,
                _ => {}
            }
            tally.absorb(idx, &outcome, &clean, &mut violations, "deadline_storm");
        }
        let wall = start.elapsed();
        if poisoned_ok > 0 {
            violations.push(format!(
                "deadline_storm: {poisoned_ok} poisoned requests executed past their deadline"
            ));
        }
        if healthy_failed > 0 {
            violations.push(format!(
                "deadline_storm: {healthy_failed} healthy batch-mates failed alongside poisoned ones"
            ));
        }
        if tally.accounted() != tally.submitted {
            violations.push("deadline_storm: lost requests".to_string());
        }
        scenarios.push(ScenarioReport {
            name: "deadline_storm",
            tally,
            wall,
            notes: vec![
                ("poisoned_ok", poisoned_ok as f64),
                ("healthy_failed", healthy_failed as f64),
            ],
        });
        server.shutdown();
    }

    // ---- Scenario 6: total worker loss. ---------------------------------
    {
        let mut cfg = base_config();
        cfg.workers = 1;
        cfg.resilience.restart = RestartPolicy {
            max_restarts: 0,
            backoff: Backoff::new(Duration::from_micros(50), Duration::from_millis(1)),
        };
        let (server, handles) = start_with_graphs(cfg, &wl);
        server.set_chaos(Some(ChaosConfig {
            seed,
            worker_panic: 1.0,
            ..ChaosConfig::default()
        }));
        let mut tally = Tally::default();
        let mut tickets = Vec::new();
        for &idx in wl.stream.iter().take(8) {
            let (gi, query) = &wl.catalog[idx];
            tally.submitted += 1;
            match server.submit(Request::new(handles[*gi], query.clone())) {
                Ok(t) => tickets.push((idx, t)),
                Err(e) => tally.absorb(idx, &Err(e), &clean, &mut violations, "total_worker_loss"),
            }
        }
        let start = Instant::now();
        for (idx, t) in tickets {
            tally.absorb(idx, &t.wait(), &clean, &mut violations, "total_worker_loss");
        }
        let wall = start.elapsed();
        if server.workers_alive() != 0 {
            violations.push("total_worker_loss: worker survived a certain panic".to_string());
        }
        // Fail-fast: new submissions get the structured terminal error.
        let (gi, query) = &wl.catalog[0];
        match server.submit(Request::new(handles[*gi], query.clone())) {
            Err(ServeError::WorkersDead) => {}
            other => violations.push(format!(
                "total_worker_loss: expected WorkersDead on submit, got {other:?}"
            )),
        }
        if tally.accounted() != tally.submitted {
            violations.push("total_worker_loss: lost requests".to_string());
        }
        scenarios.push(ScenarioReport {
            name: "total_worker_loss",
            tally,
            wall,
            notes: vec![],
        });
        server.shutdown();
    }

    // ---- Report. --------------------------------------------------------
    for s in &scenarios {
        println!(
            "{:<24} ok {:>4} degraded {:>3} shed {:>3} crashed {:>3} launch-fail {:>3} ({} ms)",
            s.name,
            s.tally.ok,
            s.tally.ok_degraded,
            s.tally.shed_tenant + s.tally.shed_queue,
            s.tally.worker_crashed + s.tally.workers_dead,
            s.tally.launch_failed + s.tally.panicked,
            s.wall.as_millis()
        );
    }
    let report = json::obj(
        vec![
            ("seed", json::n(seed as f64)),
            ("requests_per_scenario", json::n(requests as f64)),
            ("catalog_entries", json::n(wl.catalog.len() as f64)),
            (
                "clean_warm_wall_seconds",
                json::n(clean_warm_wall.as_secs_f64()),
            ),
            ("clean_hit_rate", json::n(clean_hit_rate)),
            (
                "violations",
                Value::Arr(violations.iter().map(json::s).collect()),
            ),
        ]
        .into_iter()
        .chain(scenarios.iter().map(|s| (s.name, s.to_json())))
        .collect(),
    );
    let out = out.unwrap_or_else(|| format!("results/chaos_serve_{seed}.json"));
    let path = std::path::PathBuf::from(&out);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("report -> {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    if violations.is_empty() {
        println!("CHAOS PASS: all scenarios held their invariants");
    } else {
        println!("CHAOS FAIL: {} violations", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tool_chaos_serve: {msg}");
    std::process::exit(2);
}
