//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table printed by `--print-benchmark-json`; README.md says
//! which end-to-end metric each layer metric should move.

use crate::util::{json_num, json_obj, json_str};
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "family_sweep",
        why: "8 Small graph families x BFS x {baseline, vw2..vw32}, fresh device per cell: many short launches, so per-launch fixed costs show; carries the paper's speedup shape",
    },
    Workload {
        name: "rmat_large",
        why: "Medium RMAT, bfs/sssp/pagerank/cc on one uploaded image: few long launches and a big footprint, so per-instruction simulator costs dominate",
    },
    Workload {
        name: "shard_bsp",
        why: "Medium RMAT over 4 shard devices, block cut, default link: the only workload where partition, supersteps, halo exchange and the interconnect model do work",
    },
    Workload {
        name: "serve_cold",
        why: "in-process server with the result cache off, distinct requests over 4 Small graphs: every request crosses admission, queue, batch, clone, launch and reply",
    },
    Workload {
        name: "serve_hot",
        why: "same server, 64-query working set drawn zipf(1.1), every answer a cache hit: the simulator is bypassed, so scheduler, cache, obs and reply path are what is measured",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median a later change may lose (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// Every workload reports every one of these with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.15),
    e2e("latency_p50_ms", "ms", "lower", 0.15),
    e2e("latency_p90_ms", "ms", "lower", 0.20),
    e2e("peak_rss_mib", "MiB", "lower", 0.20),
    e2e("sim_cycles_per_op", "cycles", "lower", 0.10),
];

/// The eight dataset suffixes of `core.family_ms.*` / `core.speedup.*`, in
/// `Dataset::ALL` order.
pub const FAMILIES: [&str; 8] = [
    "rmat",
    "random",
    "livejournal",
    "patents",
    "wikitalk",
    "roadnet",
    "smallworld",
    "regular",
];

/// The four algorithms every non-sweep workload runs, in op order.
pub const ALGOS: [&str; 4] = ["bfs", "sssp", "pagerank", "cc"];

/// Every workload reports every one of these in the traced run; a layer a
/// workload does not cross reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("graph.build_s", "s", "lower"),
    layer("graph.weights_s", "s", "lower"),
    layer("graph.digest_ms", "ms", "lower"),
    layer("graph.edges", "count", "higher"),
    layer("simt.instr", "count", "lower"),
    layer("simt.mem_tx", "count", "lower"),
    layer("simt.atomic_replays", "count", "lower"),
    layer("simt.shared_replay_passes", "count", "lower"),
    layer("simt.lane_util", "ratio", "higher"),
    layer("simt.tx_per_mem_instr", "ratio", "lower"),
    layer("simt.cache_hit_ratio", "ratio", "higher"),
    layer("simt.dram_util", "ratio", "higher"),
    layer("simt.sm_imbalance", "ratio", "lower"),
    layer("simt.stall.issue", "cycles", "lower"),
    layer("simt.stall.mem", "cycles", "lower"),
    layer("simt.stall.atomic", "cycles", "lower"),
    layer("simt.stall.bank", "cycles", "lower"),
    layer("simt.stall.barrier", "cycles", "lower"),
    layer("simt.stall.idle", "cycles", "lower"),
    layer("simt.host_ns_per_instr", "ns", "lower"),
    layer("simt.minstr_per_s", "Minstr/s", "higher"),
    layer("simt.empty_launch_us", "us", "lower"),
    layer("simt.timing_replay_minstr_per_s", "Minstr/s", "higher"),
    layer("simt.mem_clone_ms", "ms", "lower"),
    layer("simt.gpu_new_us", "us", "lower"),
    layer("core.upload_ms", "ms", "lower"),
    layer("core.run_ms.bfs", "ms", "lower"),
    layer("core.run_ms.sssp", "ms", "lower"),
    layer("core.run_ms.pagerank", "ms", "lower"),
    layer("core.run_ms.cc", "ms", "lower"),
    layer("core.cycles.bfs", "cycles", "lower"),
    layer("core.cycles.sssp", "cycles", "lower"),
    layer("core.cycles.pagerank", "cycles", "lower"),
    layer("core.cycles.cc", "cycles", "lower"),
    layer("core.rounds", "count", "lower"),
    layer("core.round_ms_p50", "ms", "lower"),
    layer("core.round_ms_p90", "ms", "lower"),
    layer("core.family_ms.rmat", "ms", "lower"),
    layer("core.family_ms.random", "ms", "lower"),
    layer("core.family_ms.livejournal", "ms", "lower"),
    layer("core.family_ms.patents", "ms", "lower"),
    layer("core.family_ms.wikitalk", "ms", "lower"),
    layer("core.family_ms.roadnet", "ms", "lower"),
    layer("core.family_ms.smallworld", "ms", "lower"),
    layer("core.family_ms.regular", "ms", "lower"),
    layer("core.speedup.rmat", "ratio", "higher"),
    layer("core.speedup.random", "ratio", "higher"),
    layer("core.speedup.livejournal", "ratio", "higher"),
    layer("core.speedup.patents", "ratio", "higher"),
    layer("core.speedup.wikitalk", "ratio", "higher"),
    layer("core.speedup.roadnet", "ratio", "higher"),
    layer("core.speedup.smallworld", "ratio", "higher"),
    layer("core.speedup.regular", "ratio", "higher"),
    layer("core.vw_speedup_geomean", "ratio", "higher"),
    layer("cpu.reference_s", "s", "lower"),
    layer("cpu.fallback_ms", "ms", "lower"),
    layer("shard.partition_ms", "ms", "lower"),
    layer("shard.upload_ms", "ms", "lower"),
    layer("shard.run_ms.bfs", "ms", "lower"),
    layer("shard.run_ms.sssp", "ms", "lower"),
    layer("shard.run_ms.pagerank", "ms", "lower"),
    layer("shard.run_ms.cc", "ms", "lower"),
    layer("shard.host_speedup", "ratio", "higher"),
    layer("shard.makespan_cycles.bfs", "cycles", "lower"),
    layer("shard.makespan_cycles.sssp", "cycles", "lower"),
    layer("shard.makespan_cycles.pagerank", "cycles", "lower"),
    layer("shard.makespan_cycles.cc", "cycles", "lower"),
    layer("shard.compute_cycles", "cycles", "lower"),
    layer("shard.comm_cycles", "cycles", "lower"),
    layer("shard.stall_cycles", "cycles", "lower"),
    layer("shard.halo_bytes", "bytes", "lower"),
    layer("shard.bsp_rounds", "count", "lower"),
    layer("shard.cut_edges", "count", "lower"),
    layer("shard.ghost_slots", "count", "lower"),
    layer("shard.efficiency_n2", "ratio", "higher"),
    layer("shard.efficiency_n4", "ratio", "higher"),
    layer("serve.queue_wait_ms_p50", "ms", "lower"),
    layer("serve.queue_wait_ms_p90", "ms", "lower"),
    layer("serve.service_ms_p50", "ms", "lower"),
    layer("serve.service_ms_p90", "ms", "lower"),
    layer("serve.batch_size_mean", "count", "higher"),
    layer("serve.execute_ms_p50", "ms", "lower"),
    layer("serve.overhead_us_p50", "us", "lower"),
    layer("serve.cache_get_ns", "ns", "lower"),
    layer("serve.cache_insert_ns", "ns", "lower"),
    layer("serve.template_build_ms", "ms", "lower"),
    layer("serve.tuner_probe_s", "s", "lower"),
    layer("serve.tuner_probes", "count", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.retries", "count", "lower"),
    layer("obs.counter_inc_ns", "ns", "lower"),
    layer("obs.histogram_record_ns", "ns", "lower"),
    layer("obs.span_ns", "ns", "lower"),
    layer("obs.serve_hot_cost_ratio", "ratio", "lower"),
    layer("obs.serve_hot_cost_iqr", "ratio", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// Metric values of one run, keyed by names from one of the tables above.
pub struct Values {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Every metric of `table`, reading 0 until set.
    pub fn new(table: &'static [Metric]) -> Values {
        Values {
            table,
            values: table.iter().map(|m| (m.name, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the metric table"));
        *slot = v;
    }

    /// True when every value can be written as a JSON number.
    pub fn all_finite(&self) -> bool {
        self.values.values().all(|v| v.is_finite())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in table order.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .map(|m| {
                format!(
                    "{}: {}",
                    json_str(m.name),
                    json_obj(&[
                        ("value", json_num(self.values[m.name])),
                        ("unit", json_str(m.unit)),
                    ])
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// `name value unit` lines for people.
    pub fn to_text(&self) -> String {
        self.table
            .iter()
            .map(|m| {
                format!(
                    "  {:<34} {:>18} {}\n",
                    m.name,
                    json_num(self.values[m.name]),
                    m.unit
                )
            })
            .collect()
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {}",
                json_obj(&[("name", json_str(w.name)), ("why", json_str(w.why))])
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {}",
                json_obj(&[
                    ("name", json_str(m.name)),
                    ("unit", json_str(m.unit)),
                    ("better", json_str(m.better)),
                    ("bound", json_num(m.bound)),
                ])
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {}",
                json_obj(&[
                    ("name", json_str(m.name)),
                    ("unit", json_str(m.unit)),
                    ("better", json_str(m.better)),
                ])
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for f in FAMILIES {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == format!("core.speedup.{f}")));
        }
    }

    #[test]
    fn values_render_every_metric() {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", 1.25);
        let j = v.to_json();
        assert!(j.starts_with("{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(j.matches("\"value\"").count(), END_TO_END.len());
    }
}
