//! Server metrics: every counter the scheduler, cache, and tuner report,
//! pre-registered on one [`Registry`].
//!
//! This module is the single source of truth for serve-side stats. The
//! scheduler used to keep a hand-rolled `Counters` struct behind a mutex;
//! those numbers now live in registry series, so the same values feed the
//! [`crate::scheduler::ServerSnapshot`] JSON, the Prometheus text export,
//! and the bench harness — no parallel bookkeeping to drift apart.
//!
//! Hot-path discipline: everything touched per request is a pre-registered
//! handle (relaxed atomics, no locks). Only the per-tenant series take the
//! registry lock, because tenants are an open set — and only on the worker
//! thread, after the simulated execution that dominates service time.

use crate::request::Algo;
use maxwarp_obs::{Counter, Gauge, HistogramHandle, Registry};

fn algo_idx(algo: Algo) -> usize {
    Algo::ALL.iter().position(|a| *a == algo).unwrap_or(0)
}

/// Pre-registered handles for every fixed serve-side series.
#[derive(Clone)]
pub struct ServeMetrics {
    registry: Registry,
    /// `serve_requests_submitted_total` — admitted into the queue.
    pub submitted: Counter,
    /// `serve_requests_rejected_total{reason="queue_full"}` — backpressure
    /// rejections (nothing was enqueued).
    pub rejected_full: Counter,
    /// `serve_requests_rejected_total{reason="invalid"}` — failed admission
    /// validation (unknown graph, unsupported method pin).
    pub rejected_invalid: Counter,
    /// `serve_requests_completed_total`.
    pub completed: Counter,
    /// `serve_requests_failed_total` (all failure classes).
    pub failed: Counter,
    /// `serve_deadline_overruns_total` — failures whose cause was the
    /// per-request cycle deadline tripping the device watchdog.
    pub deadline_overruns: Counter,
    /// `serve_batches_total`.
    pub batches: Counter,
    /// `serve_batched_requests_total` — requests that shared a batch.
    pub batched_requests: Counter,
    /// `serve_templates_built_total` — device uploads paid.
    pub templates_built: Counter,
    /// `serve_queue_depth` — queued requests right now.
    pub queue_depth: Gauge,
    /// `serve_queue_depth_hwm` — deepest the queue has ever been.
    pub queue_depth_hwm: Gauge,
    /// `serve_queue_wait_us` — host time from enqueue to worker pickup.
    pub queue_wait: HistogramHandle,
    /// `serve_service_us` — host time executing (or replaying from cache).
    pub service: HistogramHandle,
    /// `serve_batch_size` — requests per served batch.
    pub batch_size: HistogramHandle,
    /// `serve_cache_hits_total` / misses / insertions / evictions.
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub cache_insertions: Counter,
    pub cache_evictions: Counter,
    /// `serve_cache_entries` / `serve_cache_bytes` — current occupancy.
    pub cache_entries: Gauge,
    pub cache_bytes: Gauge,
    /// `serve_tuner_probes_total` — autotuner probe executions.
    pub tuner_probes: Counter,
    /// `serve_retries_total` — extra execution attempts consumed.
    pub retries: Counter,
    /// `serve_retry_successes_total` — requests that succeeded on attempt
    /// two or later.
    pub retry_successes: Counter,
    /// `serve_shed_total{reason="tenant_rate"}` — token-bucket sheds.
    pub shed_tenant: Counter,
    /// `serve_shed_total{reason="queue_pressure"}` — watermark sheds.
    pub shed_queue: Counter,
    /// `serve_breaker_trips_total` — Closed→Open transitions.
    pub breaker_trips: Counter,
    /// `serve_breaker_open` — breaker keys currently open.
    pub breaker_open: Gauge,
    /// `serve_cpu_fallbacks_total` — responses served by the CPU reference
    /// path while a breaker was open.
    pub fallbacks: Counter,
    /// `serve_degraded_total` — all degraded responses (CPU fallbacks).
    pub degraded: Counter,
    /// `serve_worker_panics_total` — panics that escaped a request and
    /// crashed a worker (supervised).
    pub worker_panics: Counter,
    /// `serve_worker_restarts_total` — supervised restarts granted.
    pub worker_restarts: Counter,
    /// `serve_workers_dead` — slots that exhausted their restart budget.
    pub workers_dead: Gauge,
    /// `serve_crash_requeued_total` — in-flight requests of a crashed
    /// worker put back on the queue.
    pub crash_requeued: Counter,
    /// `serve_crash_failed_total` — in-flight requests of a crashed worker
    /// failed (policy or requeue budget).
    pub crash_failed: Counter,
    /// `serve_warmup_entries_total` — cache entries loaded from the warmup
    /// snapshot at startup.
    pub warmup_loaded: Counter,
    /// `serve_algo_service_us{algo=…}`, indexed in `Algo::ALL` order.
    per_algo_service: Vec<HistogramHandle>,
}

impl ServeMetrics {
    /// Register every fixed series on `registry`.
    pub fn new(registry: &Registry) -> ServeMetrics {
        let per_algo_service = Algo::ALL
            .iter()
            .map(|a| registry.histogram_with("serve_algo_service_us", &[("algo", a.label())]))
            .collect();
        ServeMetrics {
            submitted: registry.counter("serve_requests_submitted_total"),
            rejected_full: registry
                .counter_with("serve_requests_rejected_total", &[("reason", "queue_full")]),
            rejected_invalid: registry
                .counter_with("serve_requests_rejected_total", &[("reason", "invalid")]),
            completed: registry.counter("serve_requests_completed_total"),
            failed: registry.counter("serve_requests_failed_total"),
            deadline_overruns: registry.counter("serve_deadline_overruns_total"),
            batches: registry.counter("serve_batches_total"),
            batched_requests: registry.counter("serve_batched_requests_total"),
            templates_built: registry.counter("serve_templates_built_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            queue_depth_hwm: registry.gauge("serve_queue_depth_hwm"),
            queue_wait: registry.histogram("serve_queue_wait_us"),
            service: registry.histogram("serve_service_us"),
            batch_size: registry.histogram("serve_batch_size"),
            cache_hits: registry.counter("serve_cache_hits_total"),
            cache_misses: registry.counter("serve_cache_misses_total"),
            cache_insertions: registry.counter("serve_cache_insertions_total"),
            cache_evictions: registry.counter("serve_cache_evictions_total"),
            cache_entries: registry.gauge("serve_cache_entries"),
            cache_bytes: registry.gauge("serve_cache_bytes"),
            tuner_probes: registry.counter("serve_tuner_probes_total"),
            retries: registry.counter("serve_retries_total"),
            retry_successes: registry.counter("serve_retry_successes_total"),
            shed_tenant: registry.counter_with("serve_shed_total", &[("reason", "tenant_rate")]),
            shed_queue: registry.counter_with("serve_shed_total", &[("reason", "queue_pressure")]),
            breaker_trips: registry.counter("serve_breaker_trips_total"),
            breaker_open: registry.gauge("serve_breaker_open"),
            fallbacks: registry.counter("serve_cpu_fallbacks_total"),
            degraded: registry.counter("serve_degraded_total"),
            worker_panics: registry.counter("serve_worker_panics_total"),
            worker_restarts: registry.counter("serve_worker_restarts_total"),
            workers_dead: registry.gauge("serve_workers_dead"),
            crash_requeued: registry.counter("serve_crash_requeued_total"),
            crash_failed: registry.counter("serve_crash_failed_total"),
            warmup_loaded: registry.counter("serve_warmup_entries_total"),
            per_algo_service,
            registry: registry.clone(),
        }
    }

    /// The registry all these handles live on.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-algorithm service-latency histogram.
    pub fn algo_service(&self, algo: Algo) -> &HistogramHandle {
        &self.per_algo_service[algo_idx(algo)]
    }

    /// Per-tenant request counter (`serve_tenant_requests_total{tenant=…}`).
    /// Takes the registry lock — tenants are an open set.
    pub fn tenant_requests(&self, tenant: &str) -> Counter {
        self.registry
            .counter_with("serve_tenant_requests_total", &[("tenant", tenant)])
    }

    /// Per-tenant service-latency histogram
    /// (`serve_tenant_service_us{tenant=…}`).
    pub fn tenant_service(&self, tenant: &str) -> HistogramHandle {
        self.registry
            .histogram_with("serve_tenant_service_us", &[("tenant", tenant)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algo_has_its_own_series() {
        let r = Registry::new();
        let m = ServeMetrics::new(&r);
        for a in Algo::ALL {
            m.algo_service(a).record(10);
        }
        let series = r.histograms_of("serve_algo_service_us");
        assert_eq!(series.len(), Algo::ALL.len());
        assert!(series.iter().all(|(_, h)| h.count == 1));
    }

    #[test]
    fn shed_reasons_share_one_series_family() {
        let r = Registry::new();
        let m = ServeMetrics::new(&r);
        m.shed_tenant.inc();
        m.shed_queue.add(2);
        let series = r.series_of("serve_shed_total");
        assert_eq!(series.len(), 2);
        let total: u64 = series.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn tenant_series_accumulate_per_label() {
        let r = Registry::new();
        let m = ServeMetrics::new(&r);
        m.tenant_requests("a").inc();
        m.tenant_requests("a").inc();
        m.tenant_requests("b").inc();
        let series = r.series_of("serve_tenant_requests_total");
        assert_eq!(series.len(), 2);
        let total: u64 = series.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn disabled_registry_silences_all_handles() {
        let r = Registry::new();
        let m = ServeMetrics::new(&r);
        r.set_enabled(false);
        m.submitted.inc();
        m.queue_wait.record(5);
        m.algo_service(Algo::Bfs).record(5);
        assert_eq!(m.submitted.get(), 0);
        assert_eq!(m.queue_wait.snapshot().count, 0);
    }
}
