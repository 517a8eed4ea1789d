//! What a workload hands back to `main`, and the pieces every workload
//! builds it from.

use crate::spec::{Values, END_TO_END};
use crate::trace::Trace;
use crate::util::{json_num, median, peak_rss_mib, quantile};
use maxwarp::ExecConfig;
use maxwarp_simt::GpuConfig;
use std::time::Instant;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Report {
    pub attempted: u64,
    /// Ops that failed, were refused, or disagreed with their oracle or
    /// with an earlier pass.
    pub failed: u64,
    /// End-to-end metrics (tracing off) or per-layer metrics (traced run).
    pub metrics: Values,
    /// Effective configuration and counts, as rendered JSON values.
    pub config: Vec<(&'static str, String)>,
    pub trace: Trace,
}

/// How often set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times, dropping each state before the next is
/// built so peak memory is that of one, and keep the last.
pub fn repeat_setup<S>(tr: &mut Trace, mut setup: impl FnMut(&mut Trace) -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        tr.open("bench", "setup");
        state = Some(setup(tr));
        tr.close();
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS is at least 1"), times)
}

/// The six end-to-end metrics from a run's samples.
pub fn end_to_end(
    setup_s: &[f64],
    throughput_ops_s: f64,
    op_ms: &[f64],
    sim_cycles: u64,
    answered: u64,
) -> Values {
    let mut v = Values::new(END_TO_END);
    v.set("setup_s", median(setup_s));
    v.set("throughput_ops_s", throughput_ops_s);
    v.set("latency_p50_ms", quantile(op_ms, 0.5));
    v.set("latency_p90_ms", quantile(op_ms, 0.9));
    v.set("peak_rss_mib", peak_rss_mib());
    v.set(
        "sim_cycles_per_op",
        sim_cycles as f64 / answered.max(1) as f64,
    );
    v
}

/// The one simulated device every workload runs: the Fermi preset, with
/// every observer and fault knob spelled out rather than inherited.
pub fn gpu_config() -> GpuConfig {
    let mut cfg = GpuConfig::fermi_c2050();
    cfg.sanitize = false;
    cfg.profile = false;
    cfg.analyze = false;
    cfg.watchdog = Default::default();
    cfg.faults = None;
    cfg
}

pub fn exec_config() -> ExecConfig {
    ExecConfig {
        block_threads: 256,
        chunk_vertices: 16,
        cached_graph_loads: false,
    }
}

pub fn gpu_config_json(cfg: &GpuConfig) -> String {
    crate::util::json_obj(&[
        ("name", crate::util::json_str(&cfg.name)),
        ("num_sms", cfg.num_sms.to_string()),
        ("max_warps_per_sm", cfg.max_warps_per_sm.to_string()),
        ("mem_latency", cfg.mem_latency.to_string()),
        ("segment_bytes", cfg.segment_bytes.to_string()),
        ("l2_lines", cfg.l2_lines.to_string()),
        ("sanitize", cfg.sanitize.to_string()),
        ("profile", cfg.profile.to_string()),
        ("analyze", cfg.analyze.to_string()),
        ("faults", cfg.faults.is_some().to_string()),
    ])
}

pub fn list_json(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}
