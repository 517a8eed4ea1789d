//! Request execution against device templates.
//!
//! The cost the scheduler amortizes by batching is the *upload*: building the
//! device image of a graph (CSR arrays + weights, plus the transpose for
//! direction-optimizing BFS). A [`DeviceTemplate`] is that image, built once
//! per `(graph, reverse?)` pair; each request then runs on a **fresh** `Gpu`
//! whose memory is a clone of the template.
//!
//! The fresh-device-per-request rule is what makes the rest of the system
//! sound:
//!
//! * **Cache correctness** — allocations are segment-aligned and the L2 set
//!   index depends on absolute addresses, so cycle counts are only
//!   reproducible when the memory layout is identical. Cloning the template
//!   gives every request the exact layout a cold standalone run would see,
//!   which is why a cache hit can legally claim byte-identical stats.
//! * **Per-request deadlines** — the watchdog's cycle budget is cumulative
//!   per device; a fresh device scopes it to one request.

use crate::request::{Algo, Query, ResultData, ServeError};
use crate::store::GraphEntry;
use maxwarp::{
    run_betweenness, run_bfs, run_bfs_hybrid, run_bfs_queue, run_cc, run_coloring, run_kcore,
    run_msbfs, run_pagerank, run_spmv, run_sssp, run_triangles, AlgoRun, DeviceGraph, ExecConfig,
    GpuHybridConfig, Method,
};
use maxwarp_graph::Orientation;
use maxwarp_obs::Registry;
use maxwarp_shard::{
    run_bfs_sharded, run_cc_sharded, run_pagerank_sharded, run_sssp_sharded, LinkConfig,
    MultiDevice, Partition, PartitionSpec, ShardDevice,
};
use maxwarp_simt::{DeviceMem, Gpu, GpuConfig};

/// A graph uploaded to a device once, cloned per request.
pub struct DeviceTemplate {
    /// Device memory image after the upload(s).
    mem: DeviceMem,
    /// The forward graph (weights always uploaded — SSSP/SpMV need them,
    /// the rest ignore them).
    dg: DeviceGraph,
    /// The transposed graph, present when built with `needs_reverse`.
    rev: Option<DeviceGraph>,
}

impl DeviceTemplate {
    /// Upload `entry` (and its transpose if `needs_reverse`) on a fresh
    /// device built from `cfg`.
    pub fn build(cfg: &GpuConfig, entry: &GraphEntry, needs_reverse: bool) -> DeviceTemplate {
        let mut gpu = Gpu::new(cfg.clone());
        let dg = DeviceGraph::upload_weighted(&mut gpu, &entry.csr, &entry.weights);
        let rev = needs_reverse.then(|| DeviceGraph::upload(&mut gpu, entry.reverse()));
        DeviceTemplate {
            mem: gpu.mem.clone(),
            dg,
            rev,
        }
    }

    /// True if this template can serve `algo` (hybrid BFS needs the
    /// transpose).
    pub fn covers(&self, algo: Algo) -> bool {
        !algo.needs_reverse() || self.rev.is_some()
    }
}

/// A graph partitioned and uploaded across `N` shard devices once, cloned
/// into a fresh fleet per request.
///
/// The single-device fresh-`Gpu`-per-request rule applies per shard: each
/// request reconstructs every shard device from the template's memory
/// image, so allocation offsets — and therefore cycle counts — match a
/// cold sharded run exactly, keeping cache hits byte-identical.
pub struct ShardedTemplate {
    /// The edge-cut partition (host side, immutable).
    part: Partition,
    /// Per-shard device memory image after the local-graph upload.
    mems: Vec<DeviceMem>,
    /// Per-shard resident local graphs.
    dgs: Vec<DeviceGraph>,
}

impl ShardedTemplate {
    /// Partition `entry` per `spec` and upload each shard's local graph
    /// (always weighted — SSSP needs weights, the rest ignore them).
    pub fn build(cfg: &GpuConfig, entry: &GraphEntry, spec: &PartitionSpec) -> ShardedTemplate {
        let weights = (!entry.weights.is_empty()).then_some(entry.weights.as_slice());
        let part = Partition::new(&entry.csr, weights, spec);
        let md = MultiDevice::upload(cfg, part);
        let MultiDevice { part, devices } = md;
        let (mems, dgs) = devices
            .into_iter()
            .map(|d| (d.gpu.mem.clone(), d.dg))
            .unzip();
        ShardedTemplate { part, mems, dgs }
    }

    /// Shard count.
    pub fn num_shards(&self) -> u32 {
        self.mems.len() as u32
    }

    /// A fresh fleet cloned from the template images. `cfg` may differ
    /// from the build config only in observers/watchdog (the request
    /// deadline is composed into it).
    fn fleet(&self, cfg: &GpuConfig) -> MultiDevice {
        let devices = self
            .mems
            .iter()
            .zip(&self.dgs)
            .map(|(mem, dg)| {
                let mut gpu = Gpu::new(cfg.clone());
                gpu.mem = mem.clone();
                ShardDevice { gpu, dg: *dg }
            })
            .collect();
        MultiDevice {
            part: self.part.clone(),
            devices,
        }
    }
}

/// Whether the sharded BSP executor implements `algo`. The rest route to
/// the single-device path even on a sharded server.
pub fn sharded_supported(algo: Algo) -> bool {
    matches!(algo, Algo::Bfs | Algo::Sssp | Algo::Cc | Algo::Pagerank)
}

/// Resolve a query's source vertex, validating explicit ones.
pub(crate) fn resolve_src(entry: &GraphEntry, src: Option<u32>) -> Result<u32, ServeError> {
    let n = entry.csr.num_vertices();
    if n == 0 {
        return Err(ServeError::BadRequest("graph has no vertices".into()));
    }
    match src {
        None => Ok(entry.source()),
        Some(s) if s < n => Ok(s),
        Some(s) => Err(ServeError::BadRequest(format!(
            "source {s} out of range (n = {n})"
        ))),
    }
}

pub(crate) fn check_iters(iters: u32) -> Result<(), ServeError> {
    if iters == 0 {
        return Err(ServeError::BadRequest("pagerank iters must be >= 1".into()));
    }
    Ok(())
}

fn resolve_sources(entry: &GraphEntry, k: u32, max: u32) -> Result<Vec<u32>, ServeError> {
    if k == 0 {
        return Err(ServeError::BadRequest("num_sources must be >= 1".into()));
    }
    if k > max {
        return Err(ServeError::BadRequest(format!(
            "num_sources {k} exceeds limit {max}"
        )));
    }
    let top = entry.top_sources(k);
    if top.is_empty() {
        return Err(ServeError::BadRequest("graph has no vertices".into()));
    }
    Ok(top.to_vec())
}

/// Run one query on a fresh device cloned from `template`.
///
/// `deadline_cycles` is enforced through the device watchdog, composed (by
/// `min`) with any budget the config or environment already set.
pub fn execute(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    entry: &GraphEntry,
    template: &DeviceTemplate,
    query: &Query,
    method: Method,
    deadline_cycles: Option<u64>,
) -> Result<(ResultData, AlgoRun), ServeError> {
    execute_labeled(
        cfg,
        exec,
        entry,
        template,
        query,
        method,
        deadline_cycles,
        None,
    )
}

/// [`execute`] with an optional profile-context label. When the device is
/// profiling, the label (the scheduler passes `req-<span> <algo> <method>`)
/// is stamped into the profiler's context, so the per-launch timeline
/// carries the request's span id — the correlation key between the serve
/// tracer's Chrome-trace export and the profiler's.
#[allow(clippy::too_many_arguments)]
pub fn execute_labeled(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    entry: &GraphEntry,
    template: &DeviceTemplate,
    query: &Query,
    method: Method,
    deadline_cycles: Option<u64>,
    trace_label: Option<&str>,
) -> Result<(ResultData, AlgoRun), ServeError> {
    let algo = query.algo();
    if !algo.supports(method) {
        return Err(ServeError::Unsupported {
            algo,
            method: method.spec(),
        });
    }
    assert!(template.covers(algo), "scheduler built the wrong template");

    let mut gpu = Gpu::new(cfg.clone());
    if let Some(label) = trace_label {
        gpu.set_profile_context(label);
    }
    // Compose the per-request deadline with config/env budgets: tightest wins.
    gpu.cfg.watchdog.max_cycles = match (gpu.cfg.watchdog.max_cycles, deadline_cycles) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    // Triangle counting re-orients the graph on the host and uploads its own
    // forward graph — it runs templateless on the fresh device. Everything
    // else starts from the template's memory image.
    if algo != Algo::Triangles {
        gpu.mem = template.mem.clone();
    }
    let dg = &template.dg;

    let (data, run) = match query {
        Query::Bfs { src } => {
            let s = resolve_src(entry, *src)?;
            let out = run_bfs(&mut gpu, dg, s, method, exec)?;
            (ResultData::U32s(out.levels), out.run)
        }
        Query::BfsQueue { src } => {
            let s = resolve_src(entry, *src)?;
            let out = run_bfs_queue(&mut gpu, dg, s, method, exec)?;
            (ResultData::U32s(out.levels), out.run)
        }
        Query::BfsHybrid { src } => {
            let s = resolve_src(entry, *src)?;
            let Some(rev) = template.rev.as_ref() else {
                unreachable!("covers() checked above: hybrid templates carry a reverse graph");
            };
            let out = run_bfs_hybrid(
                &mut gpu,
                dg,
                rev,
                s,
                method,
                exec,
                &GpuHybridConfig::default(),
            )?;
            (ResultData::U32s(out.bfs.levels), out.bfs.run)
        }
        Query::Sssp { src } => {
            let s = resolve_src(entry, *src)?;
            let out = run_sssp(&mut gpu, dg, s, method, exec)?;
            (ResultData::U32s(out.dist), out.run)
        }
        Query::Cc => {
            let out = run_cc(&mut gpu, dg, method, exec)?;
            (ResultData::U32s(out.labels), out.run)
        }
        Query::Pagerank { iters, damping } => {
            check_iters(*iters)?;
            let out = run_pagerank(&mut gpu, dg, *iters, *damping, method, exec)?;
            (ResultData::F32s(out.ranks), out.run)
        }
        Query::Betweenness { num_sources } => {
            let sources = resolve_sources(entry, *num_sources, 256)?;
            let out = run_betweenness(&mut gpu, dg, &sources, method, exec)?;
            (ResultData::F32s(out.bc), out.run)
        }
        Query::Triangles => {
            let out = run_triangles(&mut gpu, &entry.csr, method, exec, Orientation::ByDegree)?;
            (ResultData::Count(out.count), out.run)
        }
        Query::Coloring => {
            let out = run_coloring(&mut gpu, dg, method, exec)?;
            (ResultData::U32s(out.colors), out.run)
        }
        Query::Kcore => {
            let out = run_kcore(&mut gpu, dg, method, exec)?;
            (ResultData::U32s(out.core), out.run)
        }
        Query::MsBfs { num_sources } => {
            let sources = resolve_sources(entry, *num_sources, 32)?;
            let out = run_msbfs(&mut gpu, dg, &sources, method, exec)?;
            (ResultData::U32Rows(out.levels), out.run)
        }
        Query::Spmv => {
            let values: Vec<f32> = entry.weights.iter().map(|&w| w as f32).collect();
            let x = vec![1.0f32; entry.csr.num_vertices() as usize];
            let out = run_spmv(&mut gpu, dg, &values, &x, method, exec)?;
            (ResultData::F32s(out.y), out.run)
        }
    };
    Ok((data, run))
}

/// Run one query on a fresh shard fleet cloned from `template`.
///
/// Only the algorithms in [`sharded_supported`] are accepted; the payload
/// is byte-identical to the single-device driver (the `maxwarp-shard`
/// identity contract) and the returned [`AlgoRun`] is the merged sharded
/// record — per-round critical-path cycles including modeled interconnect
/// time. Shard metrics land on `obs` when given (the scheduler passes the
/// server registry). `deadline_cycles` bounds each shard device's budget.
#[allow(clippy::too_many_arguments)]
pub fn execute_sharded(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    entry: &GraphEntry,
    template: &ShardedTemplate,
    query: &Query,
    method: Method,
    deadline_cycles: Option<u64>,
    link: &LinkConfig,
    obs: Option<&Registry>,
) -> Result<(ResultData, AlgoRun), ServeError> {
    let algo = query.algo();
    if !algo.supports(method) {
        return Err(ServeError::Unsupported {
            algo,
            method: method.spec(),
        });
    }
    assert!(
        sharded_supported(algo),
        "scheduler routed {algo} to the sharded path"
    );

    let mut cfg = cfg.clone();
    cfg.watchdog.max_cycles = match (cfg.watchdog.max_cycles, deadline_cycles) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let mut md = template.fleet(&cfg);

    let out = match query {
        Query::Bfs { src } => {
            let s = resolve_src(entry, *src)?;
            let out = run_bfs_sharded(&mut md, s, method, exec, link, obs)?;
            (ResultData::U32s(out.values), out.run)
        }
        Query::Sssp { src } => {
            let s = resolve_src(entry, *src)?;
            let out = run_sssp_sharded(&mut md, s, method, exec, link, obs)?;
            (ResultData::U32s(out.values), out.run)
        }
        Query::Cc => {
            let out = run_cc_sharded(&mut md, method, exec, link, obs)?;
            (ResultData::U32s(out.values), out.run)
        }
        Query::Pagerank { iters, damping } => {
            check_iters(*iters)?;
            let out = run_pagerank_sharded(&mut md, *iters, *damping, method, exec, link, obs)?;
            (ResultData::F32s(out.values), out.run)
        }
        _ => unreachable!("sharded_supported() checked above"),
    };
    let (data, sr) = out;
    Ok((data, sr.run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::hub_graph;

    fn entry() -> GraphEntry {
        GraphEntry::new("hub", hub_graph(400, 2, 64, 3, 11))
    }

    fn cfg() -> GpuConfig {
        GpuConfig::tiny_test()
    }

    #[test]
    fn template_runs_are_identical_to_cold_runs() {
        let e = entry();
        let exec = ExecConfig::default();
        let t = DeviceTemplate::build(&cfg(), &e, false);
        let q = Query::Bfs { src: None };

        // Cold run: its own device, its own upload.
        let mut cold_gpu = Gpu::new(cfg());
        let cold_dg = DeviceGraph::upload_weighted(&mut cold_gpu, &e.csr, &e.weights);
        let cold = run_bfs(&mut cold_gpu, &cold_dg, e.source(), Method::warp(8), &exec).unwrap();

        // Two template runs in a row (as a batch of 2 would execute).
        for _ in 0..2 {
            let (data, run) = execute(&cfg(), &exec, &e, &t, &q, Method::warp(8), None).unwrap();
            assert_eq!(data, ResultData::U32s(cold.levels.clone()));
            assert_eq!(run.stats, cold.run.stats, "byte-identical stats");
            assert_eq!(run.iterations, cold.run.iterations);
        }
    }

    #[test]
    fn every_algo_executes_on_a_covering_template() {
        let e = entry();
        let exec = ExecConfig::default();
        let t = DeviceTemplate::build(&cfg(), &e, true);
        for algo in Algo::ALL {
            let q = Query::canonical(algo);
            let (data, run) = execute(&cfg(), &exec, &e, &t, &q, Method::Baseline, None).unwrap();
            assert!(run.cycles() > 0, "{algo}: no cycles simulated");
            assert!(v_len(&data) > 0, "{algo}: empty payload");
        }
    }

    fn v_len(d: &ResultData) -> usize {
        match d {
            ResultData::U32s(v) => v.len(),
            ResultData::F32s(v) => v.len(),
            ResultData::U32Rows(r) => r.len(),
            ResultData::Count(_) => 1,
        }
    }

    #[test]
    fn sharded_payloads_match_single_device() {
        let e = entry();
        let exec = ExecConfig::default();
        let t = DeviceTemplate::build(&cfg(), &e, false);
        let st = ShardedTemplate::build(&cfg(), &e, &PartitionSpec::block(4));
        let link = LinkConfig::default();
        let queries = [
            Query::Bfs { src: None },
            Query::Sssp { src: None },
            Query::Cc,
            Query::Pagerank {
                iters: 5,
                damping: 0.85,
            },
        ];
        for q in queries {
            let (single, _) = execute(&cfg(), &exec, &e, &t, &q, Method::warp(8), None).unwrap();
            let (sharded, run) = execute_sharded(
                &cfg(),
                &exec,
                &e,
                &st,
                &q,
                Method::warp(8),
                None,
                &link,
                None,
            )
            .unwrap();
            assert_eq!(single, sharded, "{}: payload identity", q.algo());
            assert!(run.cycles() > 0, "{}: no cycles simulated", q.algo());
        }
    }

    #[test]
    fn sharded_template_runs_are_deterministic() {
        // Two template runs must agree byte for byte (stats included) —
        // the property that lets sharded responses be cached.
        let e = entry();
        let exec = ExecConfig::default();
        let st = ShardedTemplate::build(&cfg(), &e, &PartitionSpec::block(2));
        let link = LinkConfig::default();
        let q = Query::Bfs { src: None };
        let run = || {
            execute_sharded(
                &cfg(),
                &exec,
                &e,
                &st,
                &q,
                Method::warp(8),
                None,
                &link,
                None,
            )
            .unwrap()
        };
        let (d1, r1) = run();
        let (d2, r2) = run();
        assert_eq!(d1, d2);
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.iterations, r2.iterations);
    }

    #[test]
    fn sharded_deadline_trips_watchdog() {
        let e = entry();
        let exec = ExecConfig::default();
        let st = ShardedTemplate::build(&cfg(), &e, &PartitionSpec::block(2));
        let err = execute_sharded(
            &cfg(),
            &exec,
            &e,
            &st,
            &Query::Cc,
            Method::Baseline,
            Some(10),
            &LinkConfig::default(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Launch(_)), "got {err:?}");
    }

    #[test]
    fn deadline_trips_watchdog() {
        let e = entry();
        let exec = ExecConfig::default();
        let t = DeviceTemplate::build(&cfg(), &e, false);
        let q = Query::Cc;
        let err = execute(&cfg(), &exec, &e, &t, &q, Method::Baseline, Some(10)).unwrap_err();
        assert!(matches!(err, ServeError::Launch(_)), "got {err:?}");
        // A generous deadline does not trip.
        execute(&cfg(), &exec, &e, &t, &q, Method::Baseline, Some(u64::MAX)).unwrap();
    }

    #[test]
    fn unsupported_and_bad_params_are_structured_errors() {
        let e = entry();
        let exec = ExecConfig::default();
        let t = DeviceTemplate::build(&cfg(), &e, false);
        let defer = Method::parse("vw8+defer:64").unwrap();
        assert!(matches!(
            execute(&cfg(), &exec, &e, &t, &Query::Triangles, defer, None),
            Err(ServeError::Unsupported { .. })
        ));
        assert!(matches!(
            execute(
                &cfg(),
                &exec,
                &e,
                &t,
                &Query::Bfs { src: Some(9999) },
                Method::Baseline,
                None
            ),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            execute(
                &cfg(),
                &exec,
                &e,
                &t,
                &Query::MsBfs { num_sources: 33 },
                Method::Baseline,
                None
            ),
            Err(ServeError::BadRequest(_))
        ));
    }
}
