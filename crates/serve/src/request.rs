//! Query/request/response types of the serving API.

use crate::resilience::{RetryPolicy, ShedReason};
use crate::store::GraphHandle;
use maxwarp::catalog::{Kernel, KERNELS};
use maxwarp::Method;
use maxwarp_graph::Fnv64;
use maxwarp_simt::{KernelStats, LaunchError};
use std::time::Duration;

/// The twelve algorithms the service exposes — one per kernel family in
/// `maxwarp::kernels`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    Bfs,
    BfsQueue,
    BfsHybrid,
    Sssp,
    Cc,
    Pagerank,
    Betweenness,
    Triangles,
    Coloring,
    Kcore,
    MsBfs,
    Spmv,
}

impl Algo {
    /// Every algorithm, in a stable order.
    pub const ALL: [Algo; 12] = [
        Algo::Bfs,
        Algo::BfsQueue,
        Algo::BfsHybrid,
        Algo::Sssp,
        Algo::Cc,
        Algo::Pagerank,
        Algo::Betweenness,
        Algo::Triangles,
        Algo::Coloring,
        Algo::Kcore,
        Algo::MsBfs,
        Algo::Spmv,
    ];

    /// Short stable name — used in tuning-table keys and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::BfsQueue => "bfs_queue",
            Algo::BfsHybrid => "bfs_hybrid",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::Pagerank => "pagerank",
            Algo::Betweenness => "betweenness",
            Algo::Triangles => "triangles",
            Algo::Coloring => "coloring",
            Algo::Kcore => "kcore",
            Algo::MsBfs => "msbfs",
            Algo::Spmv => "spmv",
        }
    }

    /// Parse a label produced by [`label`](Algo::label).
    pub fn parse(s: &str) -> Option<Algo> {
        Algo::ALL.iter().copied().find(|a| a.label() == s)
    }

    /// This algorithm's entry in the kernel catalog ([`Algo::ALL`] and
    /// [`KERNELS`] list the kernels in the same order).
    fn kernel(&self) -> &'static Kernel {
        &KERNELS[*self as usize]
    }

    /// True if `method` can legally run this algorithm.
    pub fn supports(&self, method: Method) -> bool {
        self.kernel().supports(method)
    }

    /// Whether execution needs the transposed graph on the device.
    pub(crate) fn needs_reverse(&self) -> bool {
        matches!(self, Algo::BfsHybrid)
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An algorithm plus its parameters. `None` sources default to the graph's
/// registered high-degree source vertex.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Level-synchronous BFS.
    Bfs { src: Option<u32> },
    /// Frontier-queue BFS.
    BfsQueue { src: Option<u32> },
    /// Direction-optimizing BFS.
    BfsHybrid { src: Option<u32> },
    /// Bellman-Ford SSSP over the graph's registered edge weights.
    Sssp { src: Option<u32> },
    /// Label-propagation connected components.
    Cc,
    /// Push-style PageRank.
    Pagerank { iters: u32, damping: f32 },
    /// Brandes betweenness from the top-degree `num_sources` vertices.
    Betweenness { num_sources: u32 },
    /// Forward-edge triangle count.
    Triangles,
    /// Luby-round greedy coloring.
    Coloring,
    /// Parallel-peel k-core decomposition.
    Kcore,
    /// Multi-source BFS from the top-degree `num_sources` (≤ 32) vertices.
    MsBfs { num_sources: u32 },
    /// CSR SpMV with the registered weights as values, x = 1.
    Spmv,
}

impl Query {
    /// Which algorithm this query runs.
    pub fn algo(&self) -> Algo {
        match self {
            Query::Bfs { .. } => Algo::Bfs,
            Query::BfsQueue { .. } => Algo::BfsQueue,
            Query::BfsHybrid { .. } => Algo::BfsHybrid,
            Query::Sssp { .. } => Algo::Sssp,
            Query::Cc => Algo::Cc,
            Query::Pagerank { .. } => Algo::Pagerank,
            Query::Betweenness { .. } => Algo::Betweenness,
            Query::Triangles => Algo::Triangles,
            Query::Coloring => Algo::Coloring,
            Query::Kcore => Algo::Kcore,
            Query::MsBfs { .. } => Algo::MsBfs,
            Query::Spmv => Algo::Spmv,
        }
    }

    /// The canonical query the autotuner probes candidates with — cheap,
    /// parameter-free defaults, since tuning decisions are per
    /// `(graph, algorithm)`, not per parameter set.
    pub fn canonical(algo: Algo) -> Query {
        match algo {
            Algo::Bfs => Query::Bfs { src: None },
            Algo::BfsQueue => Query::BfsQueue { src: None },
            Algo::BfsHybrid => Query::BfsHybrid { src: None },
            Algo::Sssp => Query::Sssp { src: None },
            Algo::Cc => Query::Cc,
            Algo::Pagerank => Query::Pagerank {
                iters: 5,
                damping: 0.85,
            },
            Algo::Betweenness => Query::Betweenness { num_sources: 4 },
            Algo::Triangles => Query::Triangles,
            Algo::Coloring => Query::Coloring,
            Algo::Kcore => Query::Kcore,
            Algo::MsBfs => Query::MsBfs { num_sources: 8 },
            Algo::Spmv => Query::Spmv,
        }
    }

    /// Content digest of the algorithm and every parameter — half of the
    /// result-cache key.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.str(self.algo().label());
        match self {
            Query::Bfs { src }
            | Query::BfsQueue { src }
            | Query::BfsHybrid { src }
            | Query::Sssp { src } => {
                h.u32(src.map_or(u32::MAX, |s| s));
            }
            Query::Pagerank { iters, damping } => {
                h.u32(*iters).f32(*damping);
            }
            Query::Betweenness { num_sources } | Query::MsBfs { num_sources } => {
                h.u32(*num_sources);
            }
            Query::Cc | Query::Triangles | Query::Coloring | Query::Kcore | Query::Spmv => {}
        }
        h.finish()
    }
}

/// Shedding priority class: under queue pressure, [`Priority::Low`] work
/// is dropped first (the derived `Ord` makes `Low < Normal < High`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

impl Priority {
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One query against one registered graph.
#[derive(Clone, Debug)]
pub struct Request {
    /// Which registered graph to run on.
    pub graph: GraphHandle,
    /// The algorithm and its parameters.
    pub query: Query,
    /// Pinned method, or `None` to let the autotuner choose.
    pub method: Option<Method>,
    /// Per-request compute budget in simulated cycles, enforced through the
    /// device watchdog. Cache hits consume no budget. `None` falls back to
    /// the server's default deadline.
    pub deadline_cycles: Option<u64>,
    /// Optional tenant tag for per-tenant accounting (and, when admission
    /// control is on, the token-bucket key).
    pub tenant: Option<String>,
    /// Shedding priority under queue pressure.
    pub priority: Priority,
    /// Retry policy for this request; `None` uses the server's
    /// default class ([`crate::resilience::ResilienceConfig::retry`]).
    pub retry: Option<RetryPolicy>,
}

impl Request {
    /// A tuner-scheduled query with no deadline or tenant.
    pub fn new(graph: GraphHandle, query: Query) -> Request {
        Request {
            graph,
            query,
            method: None,
            deadline_cycles: None,
            tenant: None,
            priority: Priority::Normal,
            retry: None,
        }
    }

    /// Set the shedding priority.
    pub fn with_priority(mut self, p: Priority) -> Request {
        self.priority = p;
        self
    }

    /// Attach a per-request retry policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Request {
        self.retry = Some(policy);
        self
    }
}

/// Algorithm output, by shape.
#[derive(Clone, Debug, PartialEq)]
pub enum ResultData {
    /// BFS levels / SSSP distances / CC labels / colors / core numbers.
    U32s(Vec<u32>),
    /// PageRank ranks / betweenness scores / SpMV output.
    F32s(Vec<f32>),
    /// Per-source level vectors (MS-BFS).
    U32Rows(Vec<Vec<u32>>),
    /// Triangle count.
    Count(u64),
}

impl ResultData {
    /// Content digest, for validation and reporting.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            ResultData::U32s(v) => {
                h.byte(0).u64(v.len() as u64);
                for &x in v {
                    h.u32(x);
                }
            }
            ResultData::F32s(v) => {
                h.byte(1).u64(v.len() as u64);
                for &x in v {
                    h.f32(x);
                }
            }
            ResultData::U32Rows(rows) => {
                h.byte(2).u64(rows.len() as u64);
                for r in rows {
                    h.u64(r.len() as u64);
                    for &x in r {
                        h.u32(x);
                    }
                }
            }
            ResultData::Count(c) => {
                h.byte(3).u64(*c);
            }
        }
        h.finish()
    }

    /// Approximate payload size, for the cache's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ResultData::U32s(v) => 4 * v.len(),
            ResultData::F32s(v) => 4 * v.len(),
            ResultData::U32Rows(rows) => rows.iter().map(|r| 4 * r.len() + 24).sum(),
            ResultData::Count(_) => 8,
        }
    }
}

/// Where a response's payload came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseSource {
    /// Executed on the simulated device this call.
    Device,
    /// Replayed from the result cache.
    Cache,
    /// Produced by the CPU reference implementation because the circuit
    /// breaker for this `(graph, algorithm)` is open — `degraded: true`,
    /// `stats` are zeroed (no device ran).
    CpuFallback,
}

impl ResponseSource {
    pub fn label(&self) -> &'static str {
        match self {
            ResponseSource::Device => "device",
            ResponseSource::Cache => "cache",
            ResponseSource::CpuFallback => "cpu_fallback",
        }
    }
}

/// A completed query: the payload plus everything a caller needs to reason
/// about how it was produced.
#[derive(Clone, Debug)]
pub struct Response {
    /// The algorithm output.
    pub data: ResultData,
    /// Kernel statistics accumulated over the run (the cached copy on a
    /// cache hit — byte-identical to the cold run's by construction).
    pub stats: KernelStats,
    /// Driver iterations (BFS levels, PR iterations, ...).
    pub iterations: u32,
    /// The method that produced the result (pinned or tuner-chosen).
    pub method: Method,
    /// True if served from the result cache.
    pub cached: bool,
    /// Which path produced the payload.
    pub source: ResponseSource,
    /// True for degraded serves: a CPU fallback while the breaker is open.
    /// Non-degraded responses are byte-identical to a clean cold run;
    /// degraded ones trade that guarantee for availability.
    pub degraded: bool,
    /// Execution attempts consumed (1 = first try; >1 means retries).
    pub attempts: u32,
    /// Host time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Host time spent executing (or fetching from cache).
    pub service: Duration,
    /// Number of requests in the batch this one was served in.
    pub batch_size: u32,
    /// Root span id of this request in the server's tracer (0 when request
    /// tracing is off). The same id appears in the Chrome-trace export and,
    /// when profiling, in the profiler's `req-<id>` context label — the
    /// correlation key between serve-side and device-side timelines.
    pub span: u64,
}

/// Structured service errors.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control: the submission queue is at capacity. Back off and
    /// retry — nothing was enqueued.
    QueueFull {
        /// The configured queue depth that was exhausted.
        capacity: usize,
    },
    /// The request named a graph handle that was never registered.
    UnknownGraph(GraphHandle),
    /// The pinned method cannot run this algorithm (e.g. deferral on a
    /// kernel without an outlier pass).
    Unsupported {
        /// The requested algorithm.
        algo: Algo,
        /// The offending method spec.
        method: String,
    },
    /// Parameters out of range (e.g. a source vertex beyond `n`).
    BadRequest(String),
    /// The launch exceeded its cycle deadline (watchdog) or faulted.
    Launch(LaunchError),
    /// Execution panicked inside the simulator. The worker survived (panics
    /// are caught per request) and the panic message is preserved.
    Panicked(String),
    /// Admission control shed this request (or evicted it from the queue
    /// in favor of higher-priority work). Nothing was executed; the
    /// structured reason says which limit was hit.
    Shed {
        /// Which admission limit rejected the request.
        reason: ShedReason,
    },
    /// The worker executing this request crashed and the crash policy (or
    /// its requeue budget) did not re-admit it. `requeues` counts how many
    /// times it had already been recovered.
    WorkerCrashed {
        /// Crash-recovery requeues this request had consumed.
        requeues: u32,
    },
    /// Every worker slot has exhausted its restart budget; the service can
    /// no longer execute anything.
    WorkersDead,
    /// The server is shutting down; the request was not executed.
    ShuttingDown,
    /// The worker serving this request disappeared (a bug — workers are
    /// panic-isolated per request).
    WorkerLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "submission queue full ({capacity} requests); back off and retry"
                )
            }
            ServeError::UnknownGraph(h) => write!(f, "unknown graph handle {h:?}"),
            ServeError::Unsupported { algo, method } => {
                write!(f, "method {method} cannot run {algo}")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Launch(e) => write!(f, "launch failed: {e}"),
            ServeError::Panicked(msg) => write!(f, "execution panicked: {msg}"),
            ServeError::Shed { reason } => {
                write!(f, "request shed by admission control ({})", reason.label())
            }
            ServeError::WorkerCrashed { requeues } => {
                write!(f, "worker crashed mid-request (after {requeues} requeues)")
            }
            ServeError::WorkersDead => {
                write!(f, "all worker slots dead (restart budgets exhausted)")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "worker lost before responding"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<LaunchError> for ServeError {
    fn from(e: LaunchError) -> Self {
        ServeError::Launch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for a in Algo::ALL {
            assert_eq!(Algo::parse(a.label()), Some(a));
        }
        assert_eq!(Algo::parse("nope"), None);
    }

    #[test]
    fn algos_follow_the_catalog_order() {
        for (i, a) in Algo::ALL.iter().enumerate() {
            assert_eq!(a.label(), KERNELS[i].name);
            assert_eq!(a.kernel().name, a.label());
        }
    }

    #[test]
    fn capability_matrix() {
        let defer = Method::parse("vw8+defer:64").unwrap();
        let dynq = Method::parse("vw32+dyn").unwrap();
        assert!(Algo::Bfs.supports(defer));
        assert!(!Algo::Triangles.supports(defer));
        // PageRank's push never read the threshold: the method ran as vw8.
        assert!(!Algo::Pagerank.supports(defer));
        assert!(!Algo::Spmv.supports(dynq));
        assert!(Algo::Kcore.supports(dynq));
        for a in Algo::ALL {
            assert!(a.supports(Method::Baseline));
            assert!(a.supports(Method::warp(8)));
        }
    }

    #[test]
    fn query_digest_separates_params() {
        let a = Query::Bfs { src: Some(3) };
        let b = Query::Bfs { src: Some(4) };
        let c = Query::BfsQueue { src: Some(3) };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest(), "same params, different algo");
        assert_eq!(a.digest(), Query::Bfs { src: Some(3) }.digest());
        let p1 = Query::Pagerank {
            iters: 5,
            damping: 0.85,
        };
        let p2 = Query::Pagerank {
            iters: 5,
            damping: 0.86,
        };
        assert_ne!(p1.digest(), p2.digest());
    }

    #[test]
    fn priority_orders_low_normal_high() {
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn canonical_queries_cover_all_algos() {
        for a in Algo::ALL {
            assert_eq!(Query::canonical(a).algo(), a);
        }
    }

    #[test]
    fn result_digest_discriminates_shape() {
        assert_ne!(
            ResultData::U32s(vec![1]).digest(),
            ResultData::F32s(vec![f32::from_bits(1)]).digest()
        );
        assert_ne!(
            ResultData::Count(0).digest(),
            ResultData::U32s(vec![]).digest()
        );
        assert_eq!(ResultData::U32s(vec![4]).approx_bytes(), 4);
    }
}
