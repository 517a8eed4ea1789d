//! # maxwarp-serve — a batched graph-query service over the SIMT simulator
//!
//! The paper benchmarks one kernel at a time; this crate asks what the
//! production shape of those kernels looks like: a **multi-tenant query
//! service**. Clients register graphs, then submit `(graph, algorithm,
//! params)` requests. A pool of workers — each driving its own simulated
//! GPU — executes them, and three mechanisms keep the service fast and
//! predictable:
//!
//! * **Scheduler** ([`scheduler`]) — a bounded submission queue with
//!   structured backpressure ([`ServeError::QueueFull`]), per-request
//!   cycle deadlines enforced through the simulator's watchdog, and
//!   same-graph batching. Device templates are built once per graph for
//!   the server's lifetime, so the upload is paid once per graph.
//! * **Result cache** ([`cache`]) — keyed by graph digest × query digest ×
//!   method × device fingerprint. Because every execution runs on a fresh
//!   device cloned from a per-graph template (identical memory layout),
//!   cache hits are *byte-identical* to the cold runs they replace — stats
//!   included.
//! * **Online autotuner** ([`autotune`]) — first sight of a `(graph,
//!   algorithm)` pair probes the candidate methods from
//!   [`maxwarp::method_table`] on an induced subgraph sample, persists the
//!   evidence to `results/tuning.json`, and serves the winner thereafter.
//!   `MAXWARP_METHOD` pins a method globally.
//!
//! A fourth layer — **resilience** ([`resilience`]) — keeps the service
//! standing when things break: supervised workers (panic-isolated, bounded
//! restarts with backoff, crash recovery of in-flight requests),
//! per-request retry with backoff, admission control (per-tenant token
//! buckets + priority shedding past a queue high-watermark), a
//! per-`(graph, algorithm)` circuit breaker routing to the CPU reference,
//! and crash-safe persistence (tuning table and cache-warmup snapshot
//! framed through [`maxwarp_graph::atomic`]). Every resilience policy is
//! strictly *around* execution: non-degraded responses are byte-identical
//! with the features on or off. Nothing runs in the background: the
//! kernels and the simulator are deterministic and graphs are immutable,
//! so a cached result never goes stale and a duplicate launch can only
//! repeat the original.
//!
//! A fifth layer — **sharding** — scales individual graphs across `N`
//! simulated devices: with `MAXWARP_SHARDS > 1`, BFS/SSSP/CC/PageRank
//! requests run on the [`maxwarp_shard`] multi-device BSP executor behind
//! a [`ShardedTemplate`] (partition + per-shard uploads paid once per
//! graph, fresh fleet cloned per request), workers pick work with
//! graph-affinity, and the cache's device fingerprint folds the partition
//! spec so sharded and single-device results never collide. Payloads stay
//! byte-identical to single-device by the `maxwarp-shard` identity
//! contract; per-request stats carry the merged multi-device record
//! including modeled interconnect cycles.
//!
//! ## Quick start
//!
//! ```
//! use maxwarp_serve::{Query, Request, Server, ServerConfig};
//! use maxwarp_graph::{Dataset, Scale};
//! use maxwarp_simt::GpuConfig;
//!
//! let server = Server::start(ServerConfig::for_tests(GpuConfig::tiny_test()));
//! let g = server.register_graph("rmat", Dataset::Rmat.build(Scale::Tiny));
//!
//! let cold = server.call(Request::new(g, Query::Bfs { src: None })).unwrap();
//! let warm = server.call(Request::new(g, Query::Bfs { src: None })).unwrap();
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(cold.data, warm.data); // byte-identical payload…
//! assert_eq!(cold.stats, warm.stats); // …and byte-identical stats.
//! server.shutdown();
//! ```
//!
//! ## Environment knobs
//!
//! | variable | effect |
//! |---|---|
//! | `MAXWARP_METHOD` | pin every request's method (`baseline`, `vw8`, `vw32+dyn`, `vw8+defer:512`, …) |
//! | `MAXWARP_TUNING` | tuning-table path (default `results/tuning.json`; `0`/`off` disables) |
//! | `MAXWARP_QUEUE_DEPTH` | submission-queue capacity (default 64) |
//! | `MAXWARP_CACHE_CAP` | result-cache entries (default 256; `0` disables) |
//! | `MAXWARP_GRAPH_CACHE` | generated-graph disk cache dir (default `target/graph-cache`; `0`/`off` disables) |
//! | `MAXWARP_OBS` | `0`/`off` disables the per-server metrics registry (default on) |
//! | `MAXWARP_OBS_TRACE` | `1` enables per-request span tracing (Chrome-trace export) |
//! | `MAXWARP_OBS_SPANS` | span buffer capacity (default 65536) |
//! | `MAXWARP_RETRY` | execution attempts per request (default 1 = retries off) |
//! | `MAXWARP_SHED` | queue high-watermark fraction for priority shedding (e.g. `0.75`; `0`/`off` keeps bare `QueueFull`) |
//! | `MAXWARP_BREAKER` | circuit-breaker trip threshold in consecutive faults (`0`/`off` disables) |
//! | `MAXWARP_WARMUP` | cache-warmup snapshot path (unset/`0`/`off` disables) |
//! | `MAXWARP_SHARDS` | shard devices per graph (default 1 = single-device; >1 routes BFS/SSSP/CC/PageRank to the multi-device BSP executor) |
//! | `MAXWARP_CUT` | vertex-to-shard cut strategy (`block`/`degree`/`bfs`) |
//! | `MAXWARP_LINK_BW` | interconnect bandwidth in bytes/cycle (default 16) |
//! | `MAXWARP_LINK_LAT` | interconnect per-round latency in cycles (default 600) |
//! | `MAXWARP_LINK_FANOUT` | shard devices sharing one link (default 2) |
//!
//! ## Observability
//!
//! Every [`Server`] owns a [`maxwarp_obs::Registry`] with the full
//! scheduler/cache/tuner series ([`metrics::ServeMetrics`]) and a
//! [`maxwarp_obs::Tracer`] that follows each request end-to-end
//! (`request` → `queue_wait`/`cache_lookup`/`template`/`execute`/
//! `cache_insert`/`reply`). Export via [`Server::prometheus_text`],
//! [`Server::metrics_json`], and [`Server::trace_json`]. All of it is a
//! pure observer: `KernelStats` and payloads are byte-identical with
//! observation on or off (`tests/obs_identity.rs`).

pub mod autotune;
pub mod cache;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod request;
pub mod resilience;
pub mod scheduler;
pub mod stats;
pub mod store;

pub use autotune::{probe_methods, probe_one, Choice, ChoiceSource, TuneEntry, Tuner};
pub use cache::{
    gpu_fingerprint, sharded_fingerprint, CacheKey, CacheStats, CachedResult, ResultCache,
};
pub use exec::{
    execute, execute_labeled, execute_sharded, sharded_supported, DeviceTemplate, ShardedTemplate,
};
pub use metrics::ServeMetrics;
pub use request::{
    Algo, Priority, Query, Request, Response, ResponseSource, ResultData, ServeError,
};
pub use resilience::{
    Backoff, BreakerConfig, BreakerState, ChaosConfig, CircuitBreaker, CrashPolicy,
    ResilienceConfig, RestartPolicy, RetryPolicy, ShedConfig, ShedReason, TokenBucket,
};
pub use scheduler::{
    ResilienceSnapshot, Server, ServerConfig, ServerSnapshot, Ticket, WorkerHealth,
};
pub use stats::{LatencyHistogram, LatencySummary};
pub use store::{GraphEntry, GraphHandle, GraphStore};
