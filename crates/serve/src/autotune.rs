//! The online method autotuner.
//!
//! The paper's central result is that the best execution strategy depends on
//! the graph: hub-heavy graphs want large virtual warps (and outlier
//! deferral), near-regular graphs want small ones. The service therefore
//! does not hard-code a method. On first sight of a `(graph, algorithm)`
//! pair it probes the candidate methods from [`maxwarp::method_table`] on an
//! induced subgraph sample, records every probe's cycle count in a
//! persistent tuning table, and serves all subsequent requests with the
//! winner. The table survives restarts (`results/tuning.json` by default) so
//! a warm server never re-probes.
//!
//! `MAXWARP_METHOD` pins a method for every request (when the algorithm
//! supports it), bypassing both table and probes — the escape hatch for
//! experiments and regression hunts.

use crate::exec::{execute, DeviceTemplate};
use crate::json::{self, Value};
use crate::request::{Algo, Query, ServeError};
use crate::store::GraphEntry;
use maxwarp::{catalog, method_table, ExecConfig, Method};
use maxwarp_graph::{atomic, induced_sample};
use maxwarp_obs::Counter;
use maxwarp_simt::{cores, fan_out, GpuConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Probe each method with the algorithm's canonical query on a fresh device
/// per method, returning simulated cycles in `methods` order.
///
/// The device image is built once and cloned per probe, which makes every
/// probe byte-identical to a standalone cold run of that method — the same
/// property the result cache relies on. So the probes are independent and
/// fan out over the machine's cores. Failed probes (watchdog, faults)
/// return the error instead of a count.
pub fn probe_methods(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    entry: &GraphEntry,
    algo: Algo,
    methods: &[Method],
) -> Vec<(Method, Result<u64, ServeError>)> {
    let template = DeviceTemplate::build(cfg, entry, algo.needs_reverse());
    let query = Query::canonical(algo);
    fan_out(cores(), methods.to_vec(), |m| {
        let outcome =
            execute(cfg, exec, entry, &template, &query, m, None).map(|(_, run)| run.cycles());
        (m, outcome)
    })
}

/// [`probe_methods`] for a single method — the figure experiments use this
/// as their per-cell measurement so that the bench sweeps and the tuner's
/// probes are the same code path (and therefore the same cycle counts).
pub fn probe_one(
    cfg: &GpuConfig,
    exec: &ExecConfig,
    entry: &GraphEntry,
    algo: Algo,
    method: Method,
) -> Result<u64, ServeError> {
    let Some((_, result)) = probe_methods(cfg, exec, entry, algo, &[method]).pop() else {
        unreachable!("one probe in, one result out");
    };
    result
}

/// One tuning decision: the winning method and the evidence behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    /// Winning method spec (`Method::spec()`).
    pub winner: String,
    /// Every successful probe as `(method spec, cycles)`, in probe order.
    pub probes: Vec<(String, u64)>,
    /// Vertices in the probed sample.
    pub sample_n: u32,
    /// Edges in the probed sample.
    pub sample_m: u64,
}

/// Where a [`Tuner::choose`] decision came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceSource {
    /// `MAXWARP_METHOD` (or an explicit pin) forced it.
    Pinned,
    /// Found in the tuning table — no probing.
    Table,
    /// Probed just now; the table was updated.
    Probed,
    /// Every probe failed; fell back to the baseline without recording.
    Fallback,
}

/// A resolved method plus its provenance.
#[derive(Clone, Copy, Debug)]
pub struct Choice {
    pub method: Method,
    pub source: ChoiceSource,
}

/// The tuning table plus probing machinery.
pub struct Tuner {
    table: HashMap<(u64, String), TuneEntry>,
    path: Option<PathBuf>,
    sample_target: u32,
    pin: Option<Method>,
    probes_run: Counter,
}

impl Tuner {
    /// Build a tuner. `path` is the persistent table (`None` disables
    /// persistence); an existing file is loaded, an unreadable one is
    /// ignored (the tuner re-probes — a torn write costs time, not
    /// correctness). `sample_target` bounds probe cost: graphs larger than
    /// this are probed through an induced subgraph of that many vertices.
    pub fn new(path: Option<PathBuf>, sample_target: u32, pin: Option<Method>) -> Tuner {
        let mut t = Tuner {
            table: HashMap::new(),
            path,
            sample_target,
            pin,
            probes_run: Counter::detached(),
        };
        if let Some(p) = t.path.clone() {
            t.load(&p);
        }
        t
    }

    /// The pinned method, if any.
    pub fn pin(&self) -> Option<Method> {
        self.pin
    }

    /// Number of probe executions performed by this tuner instance.
    pub fn probes_run(&self) -> u64 {
        self.probes_run.get()
    }

    /// Route probe accounting through a registry counter (the server
    /// passes its `serve_tuner_probes_total` series).
    pub fn set_probe_counter(&mut self, c: Counter) {
        self.probes_run = c;
    }

    /// Number of `(graph, algo)` decisions in the table.
    pub fn decisions(&self) -> usize {
        self.table.len()
    }

    /// Look up a recorded decision.
    pub fn entry(&self, graph_digest: u64, algo: Algo) -> Option<&TuneEntry> {
        self.table.get(&(graph_digest, algo.label().to_string()))
    }

    /// Resolve the method for `(entry, algo)`: pin, then table, then probe.
    pub fn choose(
        &mut self,
        cfg: &GpuConfig,
        exec: &ExecConfig,
        entry: &GraphEntry,
        algo: Algo,
    ) -> Choice {
        if let Some(p) = self.pin {
            if algo.supports(p) {
                return Choice {
                    method: p,
                    source: ChoiceSource::Pinned,
                };
            }
            // A pin the algorithm can't run falls through to tuning rather
            // than failing every request.
        }
        let key = (entry.digest, algo.label().to_string());
        if let Some(e) = self.table.get(&key) {
            if let Some(m) = Method::parse(&e.winner) {
                if algo.supports(m) {
                    return Choice {
                        method: m,
                        source: ChoiceSource::Table,
                    };
                }
            }
            // Corrupt or incompatible record: drop it and re-probe.
            self.table.remove(&key);
        }
        self.probe_and_record(cfg, exec, entry, algo)
    }

    fn probe_and_record(
        &mut self,
        cfg: &GpuConfig,
        exec: &ExecConfig,
        entry: &GraphEntry,
        algo: Algo,
    ) -> Choice {
        // Deterministic sample: seeded by graph content, so every server
        // instance probes the same subgraph and reaches the same winner.
        let (sample, _ids) = induced_sample(&entry.csr, self.sample_target, entry.digest);
        let sample_entry = if sample.num_vertices() == entry.csr.num_vertices() {
            None // probe the graph itself, skip rebuilding derived data
        } else {
            Some(GraphEntry::new(format!("{}#sample", entry.name), sample))
        };
        let probe_entry = sample_entry.as_ref().unwrap_or(entry);

        let threshold = catalog::defer_threshold(&probe_entry.csr);
        let candidates: Vec<Method> = method_table::candidates(threshold)
            .into_iter()
            .filter(|m| algo.supports(*m))
            .collect();
        let results = probe_methods(cfg, exec, probe_entry, algo, &candidates);
        self.probes_run.add(results.len() as u64);

        let probes: Vec<(String, u64)> = results
            .iter()
            .filter_map(|(m, r)| r.as_ref().ok().map(|&c| (m.spec(), c)))
            .collect();
        // Min cycles; ties break to the earlier (simpler) candidate.
        let winner = probes
            .iter()
            .min_by_key(|(_, c)| *c)
            .map(|(spec, _)| spec.clone());

        match winner {
            None => Choice {
                method: Method::Baseline,
                source: ChoiceSource::Fallback,
            },
            Some(spec) => {
                let Some(method) = Method::parse(&spec) else {
                    unreachable!("winner specs come from Method::spec() and round-trip");
                };
                self.table.insert(
                    (entry.digest, algo.label().to_string()),
                    TuneEntry {
                        winner: spec,
                        probes,
                        sample_n: probe_entry.csr.num_vertices(),
                        sample_m: probe_entry.csr.num_edges(),
                    },
                );
                self.persist();
                Choice {
                    method,
                    source: ChoiceSource::Probed,
                }
            }
        }
    }

    /// The table as a JSON document (what gets persisted).
    pub fn to_json(&self) -> Value {
        let mut keys: Vec<&(u64, String)> = self.table.keys().collect();
        keys.sort();
        let entries: Vec<Value> = keys
            .into_iter()
            .map(|k| {
                let e = &self.table[k];
                json::obj(vec![
                    ("graph", json::hex(k.0)),
                    ("algo", json::s(k.1.clone())),
                    ("winner", json::s(e.winner.clone())),
                    ("sample_n", json::n(e.sample_n)),
                    ("sample_m", json::n(e.sample_m as f64)),
                    (
                        "probes",
                        Value::Arr(
                            e.probes
                                .iter()
                                .map(|(spec, cycles)| {
                                    json::obj(vec![
                                        ("method", json::s(spec.clone())),
                                        ("cycles", json::n(*cycles as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        json::obj(vec![
            ("version", json::n(TABLE_VERSION)),
            ("entries", Value::Arr(entries)),
        ])
    }

    fn persist(&self) {
        let Some(path) = &self.path else { return };
        // Crash-safe publish through the checksummed atomic store: a
        // concurrent reader sees the old table or the new one, never a torn
        // file, and a torn/bit-flipped file is detected (and quarantined)
        // at load instead of being parsed as garbage.
        if let Err(e) = atomic::write(path, self.to_json().to_json().as_bytes()) {
            eprintln!("[serve] tuning table write failed: {e}");
        }
    }

    fn load(&mut self, path: &Path) {
        let payload = match atomic::read_or_quarantine(path) {
            atomic::Recovered::Ok(p) => p,
            atomic::Recovered::Missing => return,
            atomic::Recovered::Quarantined(dst, msg) => {
                eprintln!(
                    "[serve] tuning table {} corrupt ({msg}); quarantined to {dst:?}, re-probing",
                    path.display()
                );
                return;
            }
        };
        let Ok(text) = String::from_utf8(payload) else {
            eprintln!("[serve] tuning table {} not utf-8", path.display());
            return;
        };
        let Ok(doc) = json::parse(&text) else {
            eprintln!(
                "[serve] ignoring unparseable tuning table {}",
                path.display()
            );
            return;
        };
        if doc.get("version").and_then(Value::as_u64) != Some(TABLE_VERSION.into()) {
            eprintln!(
                "[serve] ignoring tuning table {} (unknown version)",
                path.display()
            );
            return;
        }
        let Some(entries) = doc.get("entries").and_then(Value::as_arr) else {
            return;
        };
        for e in entries {
            let (Some(graph), Some(algo), Some(winner)) = (
                e.get("graph").and_then(json::from_hex),
                e.get("algo").and_then(Value::as_str),
                e.get("winner").and_then(Value::as_str),
            ) else {
                continue;
            };
            let probes = e
                .get("probes")
                .and_then(Value::as_arr)
                .map(|ps| {
                    ps.iter()
                        .filter_map(|p| {
                            Some((
                                p.get("method")?.as_str()?.to_string(),
                                p.get("cycles")?.as_u64()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default();
            self.table.insert(
                (graph, algo.to_string()),
                TuneEntry {
                    winner: winner.to_string(),
                    probes,
                    sample_n: e.get("sample_n").and_then(Value::as_u64).unwrap_or(0) as u32,
                    sample_m: e.get("sample_m").and_then(Value::as_u64).unwrap_or(0),
                },
            );
        }
    }
}

/// Tuning-table version. Bumped whenever the cost model moves, since a
/// table's winners were chosen by the cycles of its day; a table of
/// another version is ignored and its pairs re-probed.
const TABLE_VERSION: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use maxwarp_graph::hub_graph;

    fn entry() -> GraphEntry {
        GraphEntry::new("hub", hub_graph(500, 2, 80, 3, 21))
    }

    fn cfg() -> GpuConfig {
        GpuConfig::tiny_test()
    }

    #[test]
    fn choose_probes_once_then_serves_from_table() {
        let e = entry();
        let exec = ExecConfig::default();
        let mut t = Tuner::new(None, 256, None);
        let first = t.choose(&cfg(), &exec, &e, Algo::Bfs);
        assert_eq!(first.source, ChoiceSource::Probed);
        let probes_after_first = t.probes_run();
        assert!(probes_after_first > 0);

        let second = t.choose(&cfg(), &exec, &e, Algo::Bfs);
        assert_eq!(second.source, ChoiceSource::Table);
        assert_eq!(second.method, first.method);
        assert_eq!(t.probes_run(), probes_after_first, "no re-probing");
    }

    #[test]
    fn same_seed_same_winner() {
        let e1 = entry();
        let e2 = entry();
        let exec = ExecConfig::default();
        let mut t1 = Tuner::new(None, 256, None);
        let mut t2 = Tuner::new(None, 256, None);
        let c1 = t1.choose(&cfg(), &exec, &e1, Algo::Bfs);
        let c2 = t2.choose(&cfg(), &exec, &e2, Algo::Bfs);
        assert_eq!(c1.method, c2.method, "deterministic tuning");
        assert_eq!(
            t1.entry(e1.digest, Algo::Bfs),
            t2.entry(e2.digest, Algo::Bfs),
            "identical evidence, not just identical winners"
        );
    }

    #[test]
    fn pin_bypasses_probing_unless_unsupported() {
        let e = entry();
        let exec = ExecConfig::default();
        let pin = Method::parse("vw8+defer:64").unwrap();
        let mut t = Tuner::new(None, 256, Some(pin));
        let c = t.choose(&cfg(), &exec, &e, Algo::Bfs);
        assert_eq!(c.source, ChoiceSource::Pinned);
        assert_eq!(c.method, pin);
        assert_eq!(t.probes_run(), 0);
        // Triangles can't defer: the pin falls through to tuning.
        let c = t.choose(&cfg(), &exec, &e, Algo::Triangles);
        assert_eq!(c.source, ChoiceSource::Probed);
        assert!(Algo::Triangles.supports(c.method));
    }

    #[test]
    fn table_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("maxwarp-tune-{}", std::process::id()));
        let path = dir.join("tuning.json");
        let _ = std::fs::remove_file(&path);
        let e = entry();
        let exec = ExecConfig::default();

        let mut warm = Tuner::new(Some(path.clone()), 256, None);
        let c = warm.choose(&cfg(), &exec, &e, Algo::Pagerank);
        assert_eq!(c.source, ChoiceSource::Probed);

        // A new tuner instance loads the decision instead of re-probing.
        let mut reloaded = Tuner::new(Some(path.clone()), 256, None);
        let c2 = reloaded.choose(&cfg(), &exec, &e, Algo::Pagerank);
        assert_eq!(c2.source, ChoiceSource::Table);
        assert_eq!(c2.method, c.method);
        assert_eq!(reloaded.probes_run(), 0);

        // Corruption degrades to re-probing, not a crash.
        std::fs::write(&path, "{ truncated").unwrap();
        let mut corrupt = Tuner::new(Some(path.clone()), 256, None);
        let c3 = corrupt.choose(&cfg(), &exec, &e, Algo::Pagerank);
        assert_eq!(c3.source, ChoiceSource::Probed);
        assert_eq!(c3.method, c.method);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_table_of_another_version_is_reprobed() {
        let dir = std::env::temp_dir().join(format!("maxwarp-tune-v1-{}", std::process::id()));
        let path = dir.join("tuning.json");
        let _ = std::fs::remove_file(&path);
        let e = entry();
        let exec = ExecConfig::default();
        let mut warm = Tuner::new(Some(path.clone()), 256, None);
        warm.choose(&cfg(), &exec, &e, Algo::Bfs);

        // The same decisions, published intact as a version-1 table.
        let mut doc = warm.to_json();
        if let Value::Obj(fields) = &mut doc {
            fields.insert("version".into(), json::n(1u32));
        }
        atomic::write(&path, doc.to_json().as_bytes()).unwrap();
        let mut old = Tuner::new(Some(path.clone()), 256, None);
        let c = old.choose(&cfg(), &exec, &e, Algo::Bfs);
        assert_eq!(c.source, ChoiceSource::Probed);
        assert!(old.probes_run() > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidates_respect_capabilities() {
        let e = entry();
        let exec = ExecConfig::default();
        let mut t = Tuner::new(None, 128, None);
        // SpMV: no dynamic, no defer — the probe set must still be nonempty
        // and the winner legal.
        let c = t.choose(&cfg(), &exec, &e, Algo::Spmv);
        assert!(Algo::Spmv.supports(c.method));
        let rec = t.entry(e.digest, Algo::Spmv).unwrap();
        assert!(!rec.probes.is_empty());
        for (spec, _) in &rec.probes {
            assert!(Algo::Spmv.supports(Method::parse(spec).unwrap()));
        }
    }
}
