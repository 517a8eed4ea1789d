//! The request scheduler: bounded admission queue, supervised worker pool,
//! same-graph batching, resilience policy enforcement, and the glue
//! between cache, tuner, and executor.
//!
//! Life of a request:
//!
//! 1. **Admission** — `submit` validates the graph handle and any pinned
//!    method, charges the tenant's token bucket (when admission control is
//!    on), then tries to enqueue. With shedding off, a full queue is a
//!    structured [`ServeError::QueueFull`]; with shedding on, crossing the
//!    high-watermark starts priority triage — the queue stops growing, and
//!    a higher-priority arrival displaces the most recent lowest-priority
//!    occupant (who gets a structured [`ServeError::Shed`]). Either way,
//!    errors here mean nothing was enqueued.
//! 2. **Batching** — a worker pops the oldest request, then pulls up to
//!    `batch_max - 1` more requests *for the same graph* out of the queue
//!    (preserving arrival order for everyone else). Device templates are
//!    cached per graph for the server's lifetime (`get_template`), so a
//!    batch saves no upload; it only reorders the queue.
//! 3. **Resolution** — the method comes from the request pin, the
//!    `MAXWARP_METHOD` override, the tuning table, or a fresh probe (in
//!    that order; see [`crate::autotune`]).
//! 4. **Cache** — the resolved `(graph, query, method, device)` key is
//!    looked up; hits replay the recorded payload and `KernelStats`
//!    (byte-identical by the template-layout argument in [`crate::exec`]).
//!    Graphs are immutable and the key names everything that shapes a
//!    result, so an entry never goes stale.
//! 5. **Execution** — misses run on a fresh device with the request's
//!    deadline wired into the watchdog. Panics are caught per request; a
//!    poisoned request fails alone, the worker and its batch survive.
//!    Retriable faults (launch errors other than a deadline overrun,
//!    panics) consume the request's retry budget with jittered backoff
//!    between attempts. A deadline overrun is the client's own budget:
//!    the simulator is deterministic, so a retry would overrun again, and
//!    it says nothing about the device's health. With the circuit
//!    breaker on, K consecutive faults per `(graph, algorithm)` open the
//!    breaker and route requests to the CPU reference implementation
//!    (degraded, zeroed stats) until a half-open trial succeeds.
//!
//! ## Supervision
//!
//! A panic that escapes the per-request `catch_unwind` (a worker-level
//! crash — in production a driver bug, here injected by [`ChaosConfig`])
//! no longer poisons the server: each worker slot runs under a supervisor
//! that records the panic, recovers the slot's in-flight requests
//! (requeue-or-fail per [`CrashPolicy`]), and restarts the worker with
//! jittered backoff up to [`RestartPolicy::max_restarts`] times. A slot
//! out of budget is [`WorkerHealth::Dead`]; when every slot is dead the
//! queue is drained with [`ServeError::WorkersDead`] and new submissions
//! fail fast. Server locks recover from poisoning (`into_inner`) — a
//! crashed worker cannot take the service down with it.
//!
//! ## Observability
//!
//! Every server owns a [`maxwarp_obs::Registry`] (so concurrent servers in
//! tests don't bleed into each other) holding all scheduler/cache/tuner
//! series — see [`crate::metrics::ServeMetrics`] for the inventory — and a
//! [`maxwarp_obs::Tracer`] that, when enabled, records one span tree per
//! request. Both are pure observers, and so is every resilience policy:
//! non-degraded responses stay byte-identical with every feature on or off
//! (asserted by `tests/obs_identity.rs` and `tests/resilience.rs`).

use crate::autotune::Tuner;
use crate::cache::{
    gpu_fingerprint, sharded_fingerprint, CacheKey, CacheStats, CachedResult, ResultCache,
};
use crate::exec::{
    check_iters, execute_labeled, execute_sharded, resolve_src, sharded_supported, DeviceTemplate,
    ShardedTemplate,
};
use crate::json::{self, Value};
use crate::metrics::ServeMetrics;
use crate::request::{Request, Response, ResponseSource, ResultData, ServeError};
use crate::resilience::{
    chaos_salt, BreakerState, ChaosConfig, CircuitBreaker, CrashPolicy, ResilienceConfig,
    ShedReason, TokenBucket,
};
use crate::stats::LatencySummary;
use crate::store::{GraphEntry, GraphHandle, GraphStore};
use maxwarp::{ExecConfig, Method};
use maxwarp_cpu::FallbackData;
use maxwarp_graph::{atomic as store_atomic, Csr};
use maxwarp_obs::{ActiveSpan, Registry, Tracer};
use maxwarp_shard::{CutStrategy, LinkConfig, PartitionSpec};
use maxwarp_simt::{GpuConfig, KernelStats, LaunchError, SimtError, SimulatingThread};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lock a mutex, recovering from poisoning. A poisoned server lock means a
/// worker panicked while holding it; the supervisor restarts the worker,
/// and every guarded structure here is valid at every step (no multi-field
/// invariants span an unwind point), so the data is safe to keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Server construction parameters. `ServerConfig::new` reads the
/// environment knobs; tests use [`ServerConfig::for_tests`] to stay
/// hermetic.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (simulated GPUs served concurrently).
    pub workers: usize,
    /// Bounded submission-queue depth (`MAXWARP_QUEUE_DEPTH`).
    pub queue_capacity: usize,
    /// Maximum same-graph requests served per batch.
    pub batch_max: usize,
    /// Simulated device preset every worker runs.
    pub gpu: GpuConfig,
    /// Kernel launch geometry.
    pub exec: ExecConfig,
    /// Result-cache capacity in entries (`MAXWARP_CACHE_CAP`); 0 disables.
    pub cache_capacity: usize,
    /// Persistent tuning-table path (`MAXWARP_TUNING`; `0`/`off` disables).
    pub tuning_path: Option<PathBuf>,
    /// Probe-sample size for the autotuner (vertices).
    pub tuner_sample: u32,
    /// Method override applied to every request (`MAXWARP_METHOD`).
    pub method_pin: Option<Method>,
    /// Start with workers paused (deterministic queue tests); call
    /// [`Server::resume`] to begin draining.
    pub paused: bool,
    /// Deadline in simulated cycles for requests that don't carry one.
    pub default_deadline: Option<u64>,
    /// Whether the metrics registry records (`MAXWARP_OBS`; default on).
    pub obs: bool,
    /// Whether request span tracing records (`MAXWARP_OBS_TRACE`; default
    /// off — spans cost an allocation per stage).
    pub trace: bool,
    /// Resilience policy bundle (retry defaults, admission control,
    /// circuit breaker, supervision). The default is everything off except
    /// supervision — see [`ResilienceConfig`].
    pub resilience: ResilienceConfig,
    /// Cache-warmup snapshot path (`MAXWARP_WARMUP`; unset disables).
    /// Loaded at startup, written at shutdown, framed through the
    /// crash-safe [`maxwarp_graph::atomic`] store.
    pub warmup_path: Option<PathBuf>,
    /// Seeded fault injection for the chaos harness; `None` in production.
    pub chaos: Option<ChaosConfig>,
    /// Shard devices per graph (`MAXWARP_SHARDS`; default 1 =
    /// single-device). Above 1, BFS/SSSP/CC/PageRank requests run on the
    /// multi-device BSP executor (`maxwarp-shard`) — payloads stay
    /// byte-identical to single-device, the device fingerprint folds the
    /// partition spec so cache entries never collide, and workers pick
    /// work with graph affinity. Other algorithms stay single-device.
    pub shards: u32,
    /// Vertex-to-shard cut strategy (`MAXWARP_CUT`: `block`/`degree`/`bfs`).
    pub cut: CutStrategy,
    /// Interconnect model for the shard fabric (`MAXWARP_LINK_BW` /
    /// `MAXWARP_LINK_LAT` / `MAXWARP_LINK_FANOUT`).
    pub link: LinkConfig,
}

impl ServerConfig {
    /// Defaults plus environment overrides.
    pub fn new(gpu: GpuConfig) -> ServerConfig {
        let mut cfg = ServerConfig::for_tests(gpu);
        cfg.tuning_path = match std::env::var("MAXWARP_TUNING") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => None,
            Ok(v) => Some(PathBuf::from(v)),
            Err(_) => Some(PathBuf::from("results/tuning.json")),
        };
        if let Ok(v) = std::env::var("MAXWARP_QUEUE_DEPTH") {
            if let Ok(d) = v.parse() {
                cfg.queue_capacity = d;
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_CACHE_CAP") {
            if let Ok(c) = v.parse() {
                cfg.cache_capacity = c;
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_METHOD") {
            match Method::parse(&v) {
                Some(m) => cfg.method_pin = Some(m),
                None => eprintln!("[serve] ignoring unparseable MAXWARP_METHOD={v}"),
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_OBS") {
            cfg.obs = !(v == "0" || v.eq_ignore_ascii_case("off"));
        }
        if let Ok(v) = std::env::var("MAXWARP_OBS_TRACE") {
            cfg.trace = v == "1" || v.eq_ignore_ascii_case("on");
        }
        cfg.warmup_path = match std::env::var("MAXWARP_WARMUP") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => None,
            Ok(v) => Some(PathBuf::from(v)),
            Err(_) => None,
        };
        cfg.resilience = ResilienceConfig::from_env();
        if let Ok(v) = std::env::var("MAXWARP_SHARDS") {
            if let Ok(s) = v.parse::<u32>() {
                cfg.shards = s.max(1);
            }
        }
        if let Ok(v) = std::env::var("MAXWARP_CUT") {
            cfg.cut = CutStrategy::parse(&v);
        }
        cfg.link = LinkConfig::from_env();
        cfg
    }

    /// Defaults with **no** environment reads, no tuning persistence, no
    /// warmup snapshot, and every resilience feature off.
    pub fn for_tests(gpu: GpuConfig) -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            batch_max: 8,
            gpu,
            exec: ExecConfig::default(),
            cache_capacity: 256,
            tuning_path: None,
            tuner_sample: 4096,
            method_pin: None,
            paused: false,
            default_deadline: None,
            obs: true,
            trace: false,
            resilience: ResilienceConfig::default(),
            warmup_path: None,
            chaos: None,
            shards: 1,
            cut: CutStrategy::Block,
            link: LinkConfig::default(),
        }
    }
}

/// Health of one supervised worker slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Serving (possibly after restarts).
    Running {
        /// Supervised restarts this slot has consumed.
        restarts: u32,
    },
    /// Restart budget exhausted; the slot will never serve again.
    Dead {
        /// Restarts consumed before giving up.
        restarts: u32,
    },
}

/// Resilience counters in a [`ServerSnapshot`] — all read back from the
/// metrics registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceSnapshot {
    pub retries: u64,
    pub retry_successes: u64,
    pub shed_tenant: u64,
    pub shed_queue: u64,
    pub breaker_trips: u64,
    pub breaker_open: u64,
    pub fallbacks: u64,
    pub degraded: u64,
    pub worker_panics: u64,
    pub worker_restarts: u64,
    pub workers_dead: u64,
    pub crash_requeued: u64,
    pub crash_failed: u64,
    pub warmup_loaded: u64,
}

impl ResilienceSnapshot {
    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("retries", json::n(self.retries as f64)),
            ("retry_successes", json::n(self.retry_successes as f64)),
            ("shed_tenant", json::n(self.shed_tenant as f64)),
            ("shed_queue", json::n(self.shed_queue as f64)),
            ("breaker_trips", json::n(self.breaker_trips as f64)),
            ("breaker_open", json::n(self.breaker_open as f64)),
            ("fallbacks", json::n(self.fallbacks as f64)),
            ("degraded", json::n(self.degraded as f64)),
            ("worker_panics", json::n(self.worker_panics as f64)),
            ("worker_restarts", json::n(self.worker_restarts as f64)),
            ("workers_dead", json::n(self.workers_dead as f64)),
            ("crash_requeued", json::n(self.crash_requeued as f64)),
            ("crash_failed", json::n(self.crash_failed as f64)),
            ("warmup_loaded", json::n(self.warmup_loaded as f64)),
        ])
    }
}

/// Point-in-time view of everything the server counts. Assembled from the
/// server's metrics registry — there is no second set of books.
#[derive(Clone, Debug)]
pub struct ServerSnapshot {
    pub submitted: u64,
    pub rejected_full: u64,
    pub rejected_invalid: u64,
    pub completed: u64,
    pub failed: u64,
    /// Failures caused by the per-request cycle deadline (watchdog).
    pub deadline_overruns: u64,
    /// Batches served (each covers ≥ 1 request).
    pub batches: u64,
    /// Requests that shared a batch with at least one other request.
    pub batched_requests: u64,
    pub templates_built: u64,
    /// Requests queued right now.
    pub queue_depth: u64,
    /// Deepest the queue has ever been.
    pub queue_depth_hwm: u64,
    pub queue_wait: LatencySummary,
    pub service: LatencySummary,
    pub cache: CacheStats,
    pub tuner_decisions: u64,
    pub tuner_probes: u64,
    pub per_tenant: Vec<(String, u64)>,
    /// Retry/shed/breaker/supervision counters.
    pub resilience: ResilienceSnapshot,
}

impl ServerSnapshot {
    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("submitted", json::n(self.submitted as f64)),
            ("rejected_full", json::n(self.rejected_full as f64)),
            ("rejected_invalid", json::n(self.rejected_invalid as f64)),
            ("completed", json::n(self.completed as f64)),
            ("failed", json::n(self.failed as f64)),
            ("deadline_overruns", json::n(self.deadline_overruns as f64)),
            ("batches", json::n(self.batches as f64)),
            ("batched_requests", json::n(self.batched_requests as f64)),
            ("templates_built", json::n(self.templates_built as f64)),
            ("queue_depth", json::n(self.queue_depth as f64)),
            ("queue_depth_hwm", json::n(self.queue_depth_hwm as f64)),
            ("queue_wait", self.queue_wait.to_json()),
            ("service", self.service.to_json()),
            ("cache", self.cache.to_json()),
            ("tuner_decisions", json::n(self.tuner_decisions as f64)),
            ("tuner_probes", json::n(self.tuner_probes as f64)),
            (
                "per_tenant",
                Value::Obj(
                    self.per_tenant
                        .iter()
                        .map(|(t, c)| (t.clone(), json::n(*c as f64)))
                        .collect(),
                ),
            ),
            ("resilience", self.resilience.to_json()),
        ])
    }
}

struct Job {
    req: Request,
    enqueued: Instant,
    tx: mpsc::Sender<Result<Response, ServeError>>,
    /// Root span of the request's trace (no-op guard when tracing is off).
    span: ActiveSpan,
    /// `queue_wait` child span, open from enqueue to worker pickup.
    queue_span: ActiveSpan,
    /// Crash-recovery requeues this request has consumed.
    crash_requeues: u32,
}

/// What a crashed worker was holding — enough to requeue or fail each
/// in-flight request.
struct InflightStub {
    req: Request,
    tx: mpsc::Sender<Result<Response, ServeError>>,
    crash_requeues: u32,
}

/// One supervised worker slot.
struct Slot {
    health: Mutex<WorkerHealth>,
    /// The jobs this slot's worker is currently serving (cleared as each
    /// completes); the supervisor recovers them after a crash.
    inflight: Mutex<Vec<Option<InflightStub>>>,
}

/// A submitted request's receipt; [`Ticket::wait`] blocks for the response.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the request completes (or the server drops it).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket { .. }")
    }
}

struct Inner {
    cfg: ServerConfig,
    store: GraphStore,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cache: Mutex<ResultCache>,
    tuner: Mutex<Tuner>,
    /// Device templates keyed by `(handle, with_reverse)`.
    templates: Mutex<HashMap<(u32, bool), Arc<DeviceTemplate>>>,
    /// Sharded templates keyed by handle (the cut and shard count are fixed
    /// per server config). Built only when `cfg.shards > 1`.
    sharded_templates: Mutex<HashMap<u32, Arc<ShardedTemplate>>>,
    metrics: ServeMetrics,
    tracer: Tracer,
    shutdown: AtomicBool,
    paused: AtomicBool,
    /// Fingerprint of `cfg.gpu` — the device half of every cache key.
    device_fp: u64,
    /// Supervised worker slots (health + in-flight recovery state).
    slots: Vec<Slot>,
    /// Slots whose restart budget is exhausted.
    dead_workers: AtomicUsize,
    /// Per-tenant admission token buckets (admission control on only).
    buckets: Mutex<HashMap<String, TokenBucket>>,
    /// Per-(graph, algorithm) circuit breaker (consulted only when
    /// `cfg.resilience.breaker` is set).
    breaker: Mutex<CircuitBreaker>,
    /// Fault-injection plan; swappable at runtime by the chaos harness.
    chaos: Mutex<Option<ChaosConfig>>,
    /// Sequence counters for the chaos decision streams (one per class of
    /// injection point so the streams stay independent).
    chaos_batch_seq: AtomicU64,
    chaos_exec_seq: AtomicU64,
}

/// The graph-query service: a [`GraphStore`], a bounded queue, and a pool
/// of supervised workers each driving a simulated GPU.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the worker pool (and load the warmup snapshot, if configured).
    pub fn start(cfg: ServerConfig) -> Server {
        // The device half of every cache key: a sharded server folds the
        // partition spec and interconnect model in, so sharded and
        // single-device results (identical payloads, different stats)
        // never share an entry.
        let device_fp = {
            let base = gpu_fingerprint(&cfg.gpu);
            if cfg.shards > 1 {
                sharded_fingerprint(base, cfg.shards, cfg.cut.label(), &cfg.link)
            } else {
                base
            }
        };
        let registry = Registry::new();
        registry.set_enabled(cfg.obs);
        let metrics = ServeMetrics::new(&registry);
        let tracer = Tracer::new(cfg.trace);
        let mut tuner = Tuner::new(cfg.tuning_path.clone(), cfg.tuner_sample, cfg.method_pin);
        tuner.set_probe_counter(metrics.tuner_probes.clone());
        let mut cache = ResultCache::with_counters(
            cfg.cache_capacity,
            metrics.cache_hits.clone(),
            metrics.cache_misses.clone(),
            metrics.cache_insertions.clone(),
            metrics.cache_evictions.clone(),
        );
        if let Some(path) = &cfg.warmup_path {
            match store_atomic::read_or_quarantine(path) {
                store_atomic::Recovered::Ok(payload) => {
                    let n = cache.import_snapshot(&payload);
                    metrics.warmup_loaded.add(n as u64);
                }
                store_atomic::Recovered::Missing => {}
                store_atomic::Recovered::Quarantined(dst, msg) => {
                    eprintln!(
                        "[serve] warmup snapshot corrupt ({msg}); quarantined to {:?}, starting cold",
                        dst
                    );
                }
            }
        }
        let slots = (0..cfg.workers.max(1))
            .map(|_| Slot {
                health: Mutex::new(WorkerHealth::Running { restarts: 0 }),
                inflight: Mutex::new(Vec::new()),
            })
            .collect();
        let breaker = CircuitBreaker::new(cfg.resilience.breaker.unwrap_or_default());
        let inner = Arc::new(Inner {
            cache: Mutex::new(cache),
            tuner: Mutex::new(tuner),
            store: GraphStore::new(),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            templates: Mutex::new(HashMap::new()),
            sharded_templates: Mutex::new(HashMap::new()),
            metrics,
            tracer,
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(cfg.paused),
            device_fp,
            slots,
            dead_workers: AtomicUsize::new(0),
            buckets: Mutex::new(HashMap::new()),
            breaker: Mutex::new(breaker),
            chaos: Mutex::new(cfg.chaos),
            chaos_batch_seq: AtomicU64::new(0),
            chaos_exec_seq: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..inner.slots.len())
            .map(|i| {
                let inner = Arc::clone(&inner);
                let spawned = std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_entry(&inner, i));
                match spawned {
                    Ok(h) => h,
                    Err(e) => panic!("spawn worker: {e}"),
                }
            })
            .collect();
        Server { inner, workers }
    }

    /// Register a graph for querying.
    pub fn register_graph(&self, name: impl Into<String>, csr: Csr) -> GraphHandle {
        self.inner.store.register(name, csr)
    }

    /// Look up a registered graph.
    pub fn graph(&self, h: GraphHandle) -> Option<Arc<GraphEntry>> {
        self.inner.store.get(h)
    }

    /// Admit a request. Errors here mean nothing was enqueued.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        if self.inner.dead_workers.load(Ordering::SeqCst) >= self.inner.slots.len() {
            return Err(ServeError::WorkersDead);
        }
        // Validate before taking a queue slot: a request that can never
        // execute should not consume capacity.
        if self.inner.store.get(req.graph).is_none() {
            self.inner.metrics.rejected_invalid.inc();
            return Err(ServeError::UnknownGraph(req.graph));
        }
        if let Some(m) = req.method {
            if !req.query.algo().supports(m) {
                self.inner.metrics.rejected_invalid.inc();
                return Err(ServeError::Unsupported {
                    algo: req.query.algo(),
                    method: m.spec(),
                });
            }
        }
        // Admission control: charge the tenant's token bucket.
        if let (Some(sc), Some(tenant)) = (&self.inner.cfg.resilience.shed, &req.tenant) {
            let now = Instant::now();
            let mut buckets = lock(&self.inner.buckets);
            let bucket = buckets
                .entry(tenant.clone())
                .or_insert_with(|| TokenBucket::new(sc.tenant_burst, sc.tenant_rate, now));
            if !bucket.try_take(now) {
                drop(buckets);
                self.inner.metrics.shed_tenant.inc();
                return Err(ServeError::Shed {
                    reason: ShedReason::TenantRate,
                });
            }
        }

        let (tx, rx) = mpsc::channel();
        let mut span = self.inner.tracer.begin("request");
        span.arg("algo", req.query.algo().label());
        if let Some(t) = &req.tenant {
            span.arg("tenant", t.clone());
        }
        let queue_span = span.child("queue_wait");
        let job = Job {
            req,
            enqueued: Instant::now(),
            tx,
            span,
            queue_span,
            crash_requeues: 0,
        };
        let cap = self.inner.cfg.queue_capacity;
        let victim = {
            let mut q = lock(&self.inner.queue);
            let victim = match &self.inner.cfg.resilience.shed {
                None => {
                    if q.len() >= cap {
                        drop(q);
                        self.inner.metrics.rejected_full.inc();
                        return Err(ServeError::QueueFull { capacity: cap });
                    }
                    q.push_back(job);
                    None
                }
                Some(sc) => {
                    let watermark =
                        ((cap as f64 * sc.high_watermark).ceil() as usize).clamp(1, cap);
                    if q.len() >= watermark {
                        // Above the watermark the queue stops growing:
                        // either the newcomer outranks the weakest occupant
                        // (displace the most recent of that class) or it is
                        // shed itself.
                        let min_pri = q.iter().map(|j| j.req.priority).min();
                        match min_pri {
                            Some(p) if p < job.req.priority => {
                                let idx = q.iter().rposition(|j| j.req.priority == p);
                                let victim = idx.and_then(|i| q.remove(i));
                                q.push_back(job);
                                victim
                            }
                            _ => {
                                drop(q);
                                self.inner.metrics.shed_queue.inc();
                                return Err(ServeError::Shed {
                                    reason: ShedReason::QueuePressure,
                                });
                            }
                        }
                    } else {
                        q.push_back(job);
                        None
                    }
                }
            };
            let depth = q.len() as u64;
            self.inner.metrics.queue_depth.set(depth);
            self.inner.metrics.queue_depth_hwm.set_max(depth);
            victim
        };
        if let Some(v) = victim {
            self.inner.metrics.shed_queue.inc();
            let _ = v.tx.send(Err(ServeError::Shed {
                reason: ShedReason::QueuePressure,
            }));
        }
        self.inner.metrics.submitted.inc();
        self.inner.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Submit and block for the response.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Unpause a server started with `paused: true`.
    pub fn resume(&self) {
        // Under the queue lock, like `shutdown_impl`: see there.
        {
            let _q = lock(&self.inner.queue);
            self.inner.paused.store(false, Ordering::SeqCst);
        }
        self.inner.cv.notify_all();
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_len(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// The device fingerprint used in this server's cache keys.
    pub fn device_fingerprint(&self) -> u64 {
        self.inner.device_fp
    }

    /// Health of every supervised worker slot.
    pub fn worker_health(&self) -> Vec<WorkerHealth> {
        self.inner.slots.iter().map(|s| *lock(&s.health)).collect()
    }

    /// Worker slots still able to serve.
    pub fn workers_alive(&self) -> usize {
        self.inner
            .slots
            .len()
            .saturating_sub(self.inner.dead_workers.load(Ordering::SeqCst))
    }

    /// Swap the fault-injection plan at runtime (chaos harness only).
    pub fn set_chaos(&self, chaos: Option<ChaosConfig>) {
        *lock(&self.inner.chaos) = chaos;
    }

    /// Write the cache-warmup snapshot now (also done at shutdown).
    /// Returns `false` when no warmup path is configured or the write
    /// failed.
    pub fn save_warmup(&self) -> bool {
        let Some(path) = &self.inner.cfg.warmup_path else {
            return false;
        };
        let snap = lock(&self.inner.cache).export_snapshot();
        match store_atomic::write(path, &snap) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("[serve] warmup snapshot write failed: {e}");
                false
            }
        }
    }

    /// This server's metrics registry (one per server; servers in the same
    /// process don't share series).
    pub fn registry(&self) -> &Registry {
        self.inner.metrics.registry()
    }

    /// This server's request tracer (no-op unless `cfg.trace`).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Prometheus text exposition of every serve-side series, with the
    /// occupancy gauges (queue depth, cache entries/bytes) refreshed first.
    pub fn prometheus_text(&self) -> String {
        self.refresh_gauges();
        self.registry().prometheus_text()
    }

    /// JSON snapshot of the registry (counters/gauges/histogram summaries),
    /// with occupancy gauges refreshed first.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.registry().snapshot_json()
    }

    /// Chrome-trace JSON of every recorded request span.
    pub fn trace_json(&self) -> String {
        self.inner.tracer.chrome_trace_json("maxwarp-serve")
    }

    fn refresh_gauges(&self) {
        let depth = lock(&self.inner.queue).len() as u64;
        self.inner.metrics.queue_depth.set(depth);
        let cache = lock(&self.inner.cache).stats();
        self.inner.metrics.cache_entries.set(cache.entries);
        self.inner.metrics.cache_bytes.set(cache.bytes);
        let open = lock(&self.inner.breaker).open_count();
        self.inner.metrics.breaker_open.set(open);
    }

    /// The cache key this server would use for `(graph, query, method)` —
    /// exposed for tests that reason about hit/miss identity.
    pub fn cache_key(&self, req: &Request, method: Method) -> Option<CacheKey> {
        let entry = self.inner.store.get(req.graph)?;
        Some(CacheKey {
            graph: entry.digest,
            query: req.query.digest(),
            method: method.spec(),
            device: self.inner.device_fp,
        })
    }

    /// Counters, cache, and tuner state in one snapshot, read back from the
    /// metrics registry.
    pub fn snapshot(&self) -> ServerSnapshot {
        self.refresh_gauges();
        let m = &self.inner.metrics;
        let cache = lock(&self.inner.cache).stats();
        let tuner = lock(&self.inner.tuner);
        let per_tenant = m
            .registry()
            .series_of("serve_tenant_requests_total")
            .into_iter()
            .filter_map(|(labels, v)| labels.into_iter().next().map(|(_, t)| (t, v)))
            .collect();
        ServerSnapshot {
            submitted: m.submitted.get(),
            rejected_full: m.rejected_full.get(),
            rejected_invalid: m.rejected_invalid.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            deadline_overruns: m.deadline_overruns.get(),
            batches: m.batches.get(),
            batched_requests: m.batched_requests.get(),
            templates_built: m.templates_built.get(),
            queue_depth: lock(&self.inner.queue).len() as u64,
            queue_depth_hwm: m.queue_depth_hwm.get(),
            queue_wait: LatencySummary::from_hist(&m.queue_wait.snapshot()),
            service: LatencySummary::from_hist(&m.service.snapshot()),
            cache,
            tuner_decisions: tuner.decisions() as u64,
            tuner_probes: tuner.probes_run(),
            per_tenant,
            resilience: ResilienceSnapshot {
                retries: m.retries.get(),
                retry_successes: m.retry_successes.get(),
                shed_tenant: m.shed_tenant.get(),
                shed_queue: m.shed_queue.get(),
                breaker_trips: m.breaker_trips.get(),
                breaker_open: m.breaker_open.get(),
                fallbacks: m.fallbacks.get(),
                degraded: m.degraded.get(),
                worker_panics: m.worker_panics.get(),
                worker_restarts: m.worker_restarts.get(),
                workers_dead: m.workers_dead.get(),
                crash_requeued: m.crash_requeued.get(),
                crash_failed: m.crash_failed.get(),
                warmup_loaded: m.warmup_loaded.get(),
            },
        }
    }

    /// Stop accepting work, finish in-flight batches, persist the warmup
    /// snapshot, fail queued requests with [`ServeError::ShuttingDown`],
    /// and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // A worker reads the flag under the queue lock and then waits on
        // `cv`. Setting it under that lock too keeps the notify below from
        // landing between a worker's read and its wait, where it would be
        // lost and `join` would hang.
        {
            let _q = lock(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.save_warmup();
        let drained: Vec<Job> = {
            let mut q = lock(&self.inner.queue);
            q.drain(..).collect()
        };
        for job in drained {
            let _ = job.tx.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// Supervisor for one worker slot: run the worker loop, and on a crash
/// recover its in-flight requests and restart it (bounded, with backoff).
fn worker_entry(inner: &Arc<Inner>, slot: usize) {
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| worker_loop(inner, slot)));
        match run {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                inner.metrics.worker_panics.inc();
                recover_inflight(inner, slot);
                let granted = {
                    let mut health = lock(&inner.slots[slot].health);
                    let restarts = match *health {
                        WorkerHealth::Running { restarts } | WorkerHealth::Dead { restarts } => {
                            restarts
                        }
                    };
                    if restarts >= inner.cfg.resilience.restart.max_restarts {
                        *health = WorkerHealth::Dead { restarts };
                        None
                    } else {
                        *health = WorkerHealth::Running {
                            restarts: restarts + 1,
                        };
                        Some(restarts)
                    }
                };
                match granted {
                    Some(prior) => {
                        inner.metrics.worker_restarts.inc();
                        std::thread::sleep(
                            inner
                                .cfg
                                .resilience
                                .restart
                                .backoff
                                .delay(prior, slot as u64),
                        );
                    }
                    None => {
                        let dead = inner.dead_workers.fetch_add(1, Ordering::SeqCst) + 1;
                        inner.metrics.workers_dead.set(dead as u64);
                        if dead >= inner.slots.len() {
                            // Nobody left to serve: drain the queue with a
                            // structured terminal error.
                            let drained: Vec<Job> = {
                                let mut q = lock(&inner.queue);
                                q.drain(..).collect()
                            };
                            for job in drained {
                                inner.metrics.failed.inc();
                                let _ = job.tx.send(Err(ServeError::WorkersDead));
                            }
                            inner.metrics.queue_depth.set(0);
                        }
                        return;
                    }
                }
            }
        }
    }
}

/// Requeue or fail everything a crashed worker was serving, per the crash
/// policy.
fn recover_inflight(inner: &Arc<Inner>, slot: usize) {
    let stubs: Vec<InflightStub> = {
        let mut inflight = lock(&inner.slots[slot].inflight);
        inflight.drain(..).flatten().collect()
    };
    for stub in stubs {
        let requeue = match inner.cfg.resilience.crash {
            CrashPolicy::Requeue { max_requeues } => stub.crash_requeues < max_requeues,
            CrashPolicy::Fail => false,
        };
        if requeue {
            let span = inner.tracer.begin("requeue");
            let queue_span = span.child("queue_wait");
            {
                let mut q = lock(&inner.queue);
                q.push_front(Job {
                    req: stub.req,
                    enqueued: Instant::now(),
                    tx: stub.tx,
                    span,
                    queue_span,
                    crash_requeues: stub.crash_requeues + 1,
                });
                inner.metrics.queue_depth.set(q.len() as u64);
            }
            inner.metrics.crash_requeued.inc();
            inner.cv.notify_one();
        } else {
            inner.metrics.crash_failed.inc();
            inner.metrics.failed.inc();
            let _ = stub.tx.send(Err(ServeError::WorkerCrashed {
                requeues: stub.crash_requeues,
            }));
        }
    }
}

fn worker_loop(inner: &Arc<Inner>, slot: usize) {
    loop {
        let batch = {
            let mut q = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.paused.load(Ordering::SeqCst) {
                    let next = pop_affine(&mut q, slot, inner.slots.len(), inner.cfg.shards > 1);
                    if let Some(first) = next {
                        let batch = extract_batch(&mut q, first, inner.cfg.batch_max);
                        inner.metrics.queue_depth.set(q.len() as u64);
                        break batch;
                    }
                }
                q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        // Record what this worker is about to serve *before* any code that
        // can crash, so the supervisor can recover it.
        {
            let mut inflight = lock(&inner.slots[slot].inflight);
            inflight.clear();
            inflight.extend(batch.iter().map(|j| {
                Some(InflightStub {
                    req: j.req.clone(),
                    tx: j.tx.clone(),
                    crash_requeues: j.crash_requeues,
                })
            }));
        }
        // Chaos: a worker-level panic, outside the per-request
        // catch_unwind — this genuinely crashes the worker and exercises
        // supervision + in-flight recovery.
        let panic_now = {
            let chaos = *lock(&inner.chaos);
            match chaos {
                Some(c) if c.worker_panic > 0.0 => {
                    let n = inner.chaos_batch_seq.fetch_add(1, Ordering::Relaxed);
                    c.roll(chaos_salt::WORKER_PANIC, n, c.worker_panic)
                }
                _ => false,
            }
        };
        if panic_now {
            panic!("chaos: injected worker panic");
        }
        // A worker serving a batch is a thread that simulates: its
        // launches' replays start helpers only beside an idle core.
        let simulating = SimulatingThread::enter();
        serve_batch(inner, slot, batch);
        drop(simulating);
        lock(&inner.slots[slot].inflight).clear();
    }
}

/// Pick the next job for worker `slot`. On a sharded server, workers
/// prefer the oldest queued job whose graph handle maps to their slot
/// (graph-affinity placement: the same worker set keeps serving the same
/// graphs, so a graph's shard-template clones stay off the other workers'
/// plates). When no affine job is queued the worker takes the queue head —
/// placement is work-conserving and never idles a worker.
fn pop_affine(q: &mut VecDeque<Job>, slot: usize, workers: usize, affinity: bool) -> Option<Job> {
    if affinity && workers > 1 {
        if let Some(i) = q
            .iter()
            .position(|j| j.req.graph.0 as usize % workers == slot)
        {
            return q.remove(i);
        }
    }
    q.pop_front()
}

/// Pull up to `batch_max - 1` additional same-graph jobs out of the queue,
/// preserving the relative order of everything left behind.
fn extract_batch(q: &mut VecDeque<Job>, first: Job, batch_max: usize) -> Vec<Job> {
    let handle = first.req.graph;
    let mut batch = vec![first];
    let mut i = 0;
    while i < q.len() && batch.len() < batch_max.max(1) {
        if q[i].req.graph == handle {
            if let Some(job) = q.remove(i) {
                batch.push(job);
            }
        } else {
            i += 1;
        }
    }
    batch
}

/// True when a failure's root cause is the per-request cycle deadline.
fn is_deadline_overrun(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Launch(LaunchError::Fault(SimtError::Watchdog(_)))
    )
}

/// True when retrying could plausibly change the outcome (transient
/// execution faults; not validation or admission errors, and not a
/// deadline overrun, which a deterministic re-run repeats exactly).
fn is_retriable(e: &ServeError) -> bool {
    matches!(e, ServeError::Launch(_) | ServeError::Panicked(_)) && !is_deadline_overrun(e)
}

fn serve_batch(inner: &Arc<Inner>, slot: usize, batch: Vec<Job>) {
    let batch_size = batch.len() as u32;
    let m = &inner.metrics;
    m.batches.inc();
    m.batch_size.record(batch_size as u64);
    if batch_size > 1 {
        m.batched_requests.add(batch_size as u64);
    }
    let mut batch_span = inner.tracer.begin("batch");
    batch_span.arg("graph", format!("{}", batch[0].req.graph.0));
    batch_span.arg("size", format!("{batch_size}"));
    for (idx, job) in batch.into_iter().enumerate() {
        serve_job(inner, slot, idx, job, batch_size);
    }
    batch_span.finish();
}

/// Serve one job end to end: retry loop, metrics, reply.
fn serve_job(inner: &Arc<Inner>, slot: usize, idx: usize, job: Job, batch_size: u32) {
    let m = &inner.metrics;
    job.queue_span.finish();
    let queue_wait = job.enqueued.elapsed();
    let started = Instant::now();
    let policy = job.req.retry.unwrap_or(inner.cfg.resilience.retry);
    let mut attempts: u32 = 0;
    let outcome = loop {
        attempts += 1;
        match serve_one(inner, &job.req, &job.span) {
            Ok(s) => break Ok(s),
            Err(e) => {
                if is_retriable(&e) && attempts < policy.max_attempts.max(1) {
                    m.retries.inc();
                    let seed = job.req.query.digest() ^ u64::from(job.req.graph.0);
                    std::thread::sleep(policy.backoff.delay(attempts - 1, seed));
                    continue;
                }
                break Err(e);
            }
        }
    };
    let service = started.elapsed();

    m.queue_wait.record_duration(queue_wait);
    m.service.record_duration(service);
    m.algo_service(job.req.query.algo())
        .record_duration(service);
    match &outcome {
        Ok(s) => {
            m.completed.inc();
            if attempts > 1 {
                m.retry_successes.inc();
            }
            if s.degraded {
                m.degraded.inc();
            }
        }
        Err(e) => {
            m.failed.inc();
            if is_deadline_overrun(e) {
                m.deadline_overruns.inc();
            }
        }
    }
    if let Some(t) = &job.req.tenant {
        m.tenant_requests(t).inc();
        m.tenant_service(t).record_duration(service);
    }

    let reply_span = job.span.child("reply");
    let span_id = job.span.id();
    let response = outcome.map(|s| Response {
        data: s.data,
        stats: s.stats,
        iterations: s.iterations,
        method: s.method,
        cached: s.source == ResponseSource::Cache,
        source: s.source,
        degraded: s.degraded,
        attempts,
        queue_wait,
        service,
        batch_size,
        span: span_id,
    });
    let _ = job.tx.send(response);
    reply_span.finish();
    job.span.finish();
    if let Some(s) = lock(&inner.slots[slot].inflight).get_mut(idx) {
        *s = None;
    }
}

/// One execution attempt's result, before it becomes a [`Response`].
struct Served {
    data: ResultData,
    stats: KernelStats,
    iterations: u32,
    method: Method,
    source: ResponseSource,
    degraded: bool,
}

fn serve_one(inner: &Arc<Inner>, req: &Request, span: &ActiveSpan) -> Result<Served, ServeError> {
    let entry = inner
        .store
        .get(req.graph)
        .ok_or(ServeError::UnknownGraph(req.graph))?;
    let algo = req.query.algo();

    // Resolve the method: request pin beats the tuner (including the env
    // pin, which the tuner itself applies).
    let method = match req.method {
        Some(m) => m,
        None => {
            let tuner_span = span.child("tuner");
            let mut tuner = lock(&inner.tuner);
            let choice = tuner.choose(&inner.cfg.gpu, &inner.cfg.exec, &entry, algo);
            drop(tuner);
            tuner_span.finish();
            choice.method
        }
    };
    if !algo.supports(method) {
        return Err(ServeError::Unsupported {
            algo,
            method: method.spec(),
        });
    }

    let key = CacheKey {
        graph: entry.digest,
        query: req.query.digest(),
        method: method.spec(),
        device: inner.device_fp,
    };
    let mut lookup_span = span.child("cache_lookup");
    let hit = lock(&inner.cache).get(&key);
    if let Some(hit) = hit {
        lookup_span.arg("outcome", "hit");
        lookup_span.finish();
        return Ok(Served {
            data: hit.data,
            stats: hit.stats,
            iterations: hit.iterations,
            method,
            source: ResponseSource::Cache,
            degraded: false,
        });
    }
    lookup_span.arg("outcome", "miss");
    lookup_span.finish();

    // Circuit breaker: an open breaker routes to the CPU reference
    // implementation (degraded) instead of burning device attempts on a
    // failing (graph, algorithm) pair.
    let bkey = (entry.digest, algo.label());
    if inner.cfg.resilience.breaker.is_some()
        && lock(&inner.breaker).admit(bkey, Instant::now()) == BreakerState::Open
    {
        if let Some(served) = cpu_fallback(&entry, &req.query)? {
            inner.metrics.fallbacks.inc();
            return Ok(served);
        }
        // No CPU implementation for this algorithm: fall through to the
        // device rather than fail a request the breaker can't cover.
    }

    // Sharded servers route the BSP-capable algorithms to the multi-device
    // executor; everything else runs single-device even when sharding is on.
    let use_sharded = inner.cfg.shards > 1 && sharded_supported(algo);
    let mut template_span = span.child("template");
    let (template, sharded, built) = if use_sharded {
        let (t, built) = get_sharded_template(inner, req.graph, &entry);
        (None, Some(t), built)
    } else {
        let (t, built) = get_template(inner, req.graph, &entry, algo.needs_reverse());
        (Some(t), None, built)
    };
    template_span.arg("built", if built { "upload" } else { "clone" });
    if use_sharded {
        template_span.arg("shards", format!("{}", inner.cfg.shards));
    }
    template_span.finish();

    // Chaos: an execution-level injection (inside the per-request unwind
    // boundary — it exercises retry and the breaker without crashing the
    // worker).
    {
        let chaos = *lock(&inner.chaos);
        if let Some(c) = chaos {
            if c.launch_fault > 0.0 {
                let n = inner.chaos_exec_seq.fetch_add(1, Ordering::Relaxed);
                if c.roll(chaos_salt::LAUNCH_FAULT, n, c.launch_fault) {
                    breaker_fault(inner, bkey);
                    return Err(ServeError::Panicked(
                        "chaos: injected launch fault".to_string(),
                    ));
                }
            }
        }
    }

    let deadline = req.deadline_cycles.or(inner.cfg.default_deadline);
    let mut exec_span = span.child("execute");
    exec_span.arg("method", method.spec());
    // When profiling, stamp the request's span id into the profiler context
    // so device-side launch timelines correlate with this trace.
    let label = (inner.tracer.enabled() && inner.cfg.gpu.profile)
        .then(|| format!("req-{} {} {}", span.id(), algo.label(), method.spec()));
    let run = catch_unwind(AssertUnwindSafe(|| match (&template, &sharded) {
        (_, Some(st)) => execute_sharded(
            &inner.cfg.gpu,
            &inner.cfg.exec,
            &entry,
            st,
            &req.query,
            method,
            deadline,
            &inner.cfg.link,
            Some(inner.metrics.registry()),
        ),
        (Some(t), None) => execute_labeled(
            &inner.cfg.gpu,
            &inner.cfg.exec,
            &entry,
            t,
            &req.query,
            method,
            deadline,
            label.as_deref(),
        ),
        (None, None) => unreachable!("one template variant is always built"),
    }));
    let run = match run {
        Err(p) => {
            breaker_fault(inner, bkey);
            return Err(ServeError::Panicked(panic_message(&*p)));
        }
        Ok(Err(e)) => {
            if is_deadline_overrun(&e) {
                // The request's own cycle budget ran out: no verdict on the
                // device, so neither a fault nor a success.
                lock(&inner.breaker).on_inconclusive(bkey);
            } else {
                breaker_fault(inner, bkey);
            }
            return Err(e);
        }
        Ok(Ok(r)) => {
            breaker_ok(inner, bkey);
            r
        }
    };
    exec_span.finish();

    let (data, algo_run) = run;
    let insert_span = span.child("cache_insert");
    lock(&inner.cache).insert(
        key,
        CachedResult {
            data: data.clone(),
            stats: algo_run.stats.clone(),
            iterations: algo_run.iterations,
            method: method.spec(),
        },
    );
    insert_span.finish();
    Ok(Served {
        data,
        stats: algo_run.stats,
        iterations: algo_run.iterations,
        method,
        source: ResponseSource::Device,
        degraded: false,
    })
}

/// Feed an execution fault to the breaker (no-op when disabled).
fn breaker_fault(inner: &Arc<Inner>, key: (u64, &'static str)) {
    if inner.cfg.resilience.breaker.is_none() {
        return;
    }
    let tripped = {
        let mut b = lock(&inner.breaker);
        let t = b.on_failure(key, Instant::now());
        inner.metrics.breaker_open.set(b.open_count());
        t
    };
    if tripped {
        inner.metrics.breaker_trips.inc();
    }
}

/// Feed an execution success to the breaker (no-op when disabled).
fn breaker_ok(inner: &Arc<Inner>, key: (u64, &'static str)) {
    if inner.cfg.resilience.breaker.is_none() {
        return;
    }
    let mut b = lock(&inner.breaker);
    b.on_success(key);
    inner.metrics.breaker_open.set(b.open_count());
}

/// Serve from the CPU reference implementation (breaker open). Stats are
/// zeroed — no device ran — and the result is **not** cached, preserving
/// the cache's byte-identity contract. The source and iteration count are
/// validated as on the device path, so a bad one is the same `BadRequest`
/// either way.
fn cpu_fallback(
    entry: &GraphEntry,
    query: &crate::request::Query,
) -> Result<Option<Served>, ServeError> {
    use crate::request::Query;
    let algo = query.algo();
    let params = match query {
        Query::Bfs { src }
        | Query::BfsQueue { src }
        | Query::BfsHybrid { src }
        | Query::Sssp { src } => maxwarp_cpu::FallbackParams {
            src: resolve_src(entry, *src)?,
            ..Default::default()
        },
        Query::Pagerank { iters, damping } => {
            check_iters(*iters)?;
            maxwarp_cpu::FallbackParams {
                iters: *iters,
                damping: *damping,
                ..Default::default()
            }
        }
        _ => maxwarp_cpu::FallbackParams::default(),
    };
    let data = match maxwarp_cpu::fallback_run(algo.label(), &entry.csr, &entry.weights, params) {
        None => return Ok(None),
        Some(FallbackData::U32s(v)) => ResultData::U32s(v),
        Some(FallbackData::F32s(v)) => ResultData::F32s(v),
    };
    Ok(Some(Served {
        data,
        stats: KernelStats::default(),
        iterations: 0,
        method: Method::Baseline,
        source: ResponseSource::CpuFallback,
        degraded: true,
    }))
}

/// Fetch or build the device template; the flag reports whether this call
/// paid the upload.
fn get_template(
    inner: &Arc<Inner>,
    handle: GraphHandle,
    entry: &GraphEntry,
    needs_reverse: bool,
) -> (Arc<DeviceTemplate>, bool) {
    let mut templates = lock(&inner.templates);
    if let Some(t) = templates.get(&(handle.0, needs_reverse)) {
        return (Arc::clone(t), false);
    }
    let t = Arc::new(DeviceTemplate::build(&inner.cfg.gpu, entry, needs_reverse));
    templates.insert((handle.0, needs_reverse), Arc::clone(&t));
    inner.metrics.templates_built.inc();
    (t, true)
}

/// Fetch or build the sharded template (partition + per-shard uploads);
/// the flag reports whether this call paid the partitioning/upload.
fn get_sharded_template(
    inner: &Arc<Inner>,
    handle: GraphHandle,
    entry: &GraphEntry,
) -> (Arc<ShardedTemplate>, bool) {
    let mut templates = lock(&inner.sharded_templates);
    if let Some(t) = templates.get(&handle.0) {
        return (Arc::clone(t), false);
    }
    let spec = PartitionSpec {
        shards: inner.cfg.shards,
        cut: inner.cfg.cut,
    };
    let t = Arc::new(ShardedTemplate::build(&inner.cfg.gpu, entry, &spec));
    templates.insert(handle.0, Arc::clone(&t));
    inner.metrics.templates_built.inc();
    (t, true)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
