//! Shared by the three workloads that run a fixed op list in passes:
//! timing, the oracle call after each first-pass op, and the determinism
//! guard that every later pass must repeat the first bit for bit.

use crate::report::{self, Report};
use crate::sim::SimAcc;
use crate::spec::{Values, PER_LAYER};
use crate::trace::Trace;
use crate::util::median;
use maxwarp_graph::Csr;
use std::time::Instant;

/// What one op leaves behind for the guard: every field is an exact function
/// of (code, seed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpOut {
    /// Simulated cycles (the makespan, for a sharded op).
    pub cycles: u64,
    /// Simulated warp-instructions over all devices.
    pub instr: u64,
    /// Digest of the payload.
    pub digest: u64,
}

pub trait Batch {
    /// Ops per pass.
    fn ops(&self) -> usize;
    /// Run op `i`; the caller times the whole call.
    fn run(&mut self, i: usize, tr: &mut Trace) -> Result<OpOut, String>;
    /// Check the payload op `i` just produced against its oracle (untimed).
    fn verify(&mut self, i: usize, tr: &mut Trace) -> bool;
    /// The `simt` counts `run` accumulates.
    fn acc(&mut self) -> &mut SimAcc;
}

#[derive(Default)]
pub struct PassLog {
    /// Seconds of op time per pass (oracle time excluded).
    pub pass_s: Vec<f64>,
    /// Latency of every op, all passes.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first pass's outcomes, op by op.
    pub first: Vec<OpOut>,
}

impl PassLog {
    pub fn cycles_per_pass(&self) -> u64 {
        self.first.iter().map(|o| o.cycles).sum()
    }
}

/// Run whole passes until `seconds` of op time are spent (at least one
/// pass, at most `max_passes`).
pub fn run_passes(b: &mut impl Batch, tr: &mut Trace, seconds: f64, max_passes: usize) -> PassLog {
    let mut log = PassLog::default();
    let mut spent = 0.0;
    while log.pass_s.len() < max_passes && (log.pass_s.is_empty() || spent < seconds) {
        let first_pass = log.pass_s.is_empty();
        let mut pass = 0.0;
        for i in 0..b.ops() {
            tr.set_op(i as u32);
            tr.open("bench", "op");
            let t = Instant::now();
            let out = b.run(i, tr);
            let dt = t.elapsed().as_secs_f64();
            tr.close();
            pass += dt;
            log.op_ms.push(dt * 1e3);
            log.attempted += 1;
            match out {
                Err(e) => {
                    eprintln!("op {i} failed: {e}");
                    log.failed += 1;
                    if first_pass {
                        // Keeps `first` aligned; never equal to a real op.
                        log.first.push(OpOut {
                            cycles: 0,
                            instr: 0,
                            digest: 0,
                        });
                    }
                }
                Ok(out) if first_pass => {
                    if !b.verify(i, tr) {
                        eprintln!("op {i}: output differs from its oracle");
                        log.failed += 1;
                    }
                    log.first.push(out);
                }
                Ok(out) => {
                    if out != log.first[i] {
                        eprintln!(
                            "op {i}: pass {} gave {out:?}, pass 1 gave {:?}",
                            log.pass_s.len() + 1,
                            log.first[i]
                        );
                        log.failed += 1;
                    }
                }
            }
        }
        spent += pass;
        log.pass_s.push(pass);
    }
    log
}

/// The untraced run: whole passes for `seconds`, then the end-to-end metrics.
/// `wrong` counts oracle disagreements found before the passes.
pub fn measure(
    b: &mut impl Batch,
    mut tr: Trace,
    seconds: f64,
    setup_s: &[f64],
    mut config: Vec<(&'static str, String)>,
    wrong: u64,
) -> Report {
    let log = run_passes(b, &mut tr, seconds, usize::MAX);
    config.push(("passes", log.pass_s.len().to_string()));
    config.push(("pass_s_samples", report::list_json(&log.pass_s)));
    config.push(("latency_samples", log.op_ms.len().to_string()));
    Report {
        attempted: log.attempted,
        failed: log.failed + wrong,
        metrics: report::end_to_end(
            setup_s,
            b.ops() as f64 / median(&log.pass_s),
            &log.op_ms,
            log.cycles_per_pass(),
            b.ops() as u64,
        ),
        config,
        trace: tr,
    }
}

/// The two passes of a traced run: recorder off, then on.
pub struct TracedPair {
    pub plain: PassLog,
    pub traced: PassLog,
    /// Failed ops of both passes, plus one for each broken guard.
    pub failed: u64,
    /// `simt` counts of the traced pass alone.
    pub acc: SimAcc,
}

/// One pass with the recorder off, one with it on. The two must agree
/// exactly (tracing is a pure observer), the stall buckets of the traced pass
/// must sum to cycles x SMs, and their time ratio is the recorder's overhead.
pub fn traced_pair(b: &mut impl Batch, tr: &mut Trace) -> TracedPair {
    let plain = run_passes(b, &mut Trace::new(false), 0.0, 1);
    *b.acc() = SimAcc::default();
    let traced = run_passes(b, tr, 0.0, 1);
    let acc = b.acc().clone();
    let mut failed = plain.failed + traced.failed;
    if plain.first != traced.first {
        eprintln!("traced pass differs from the untraced pass");
        failed += 1;
    }
    if acc.stall_total() != acc.timing_cycles() * report::gpu_config().num_sms as u64 {
        eprintln!("stall buckets do not sum to cycles x SMs");
        failed += 1;
    }
    TracedPair {
        plain,
        traced,
        failed,
        acc,
    }
}

impl TracedPair {
    /// The per-layer table with what every batch workload reports the same
    /// way: the `simt` counts, oracle time and the recorder's overhead.
    pub fn metrics(&self, tr: &Trace) -> Values {
        let mut m = Values::new(PER_LAYER);
        self.acc.report(&mut m);
        m.set("cpu.reference_s", tr.total_ms("reference") / 1e3);
        m.set(
            "bench.trace_overhead_ratio",
            self.traced.pass_s[0] / self.plain.pass_s[0],
        );
        m
    }

    pub fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.attempted
    }
}

/// The batch workloads draw each BFS/SSSP source from this many
/// highest-degree vertices. Simulated work is an exact function of the
/// source, and runs are compared across seeds: with 8 candidates the cycles of
/// a `family_sweep` pass spread 6.5 % over ten seeds, with 2 they spread 0.6 %.
pub const SOURCE_POOL: usize = 2;

/// The `k` highest-degree vertices (ties by ascending id), all inside the
/// giant component.
pub fn top_degree(g: &Csr, k: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..g.num_vertices()).collect();
    v.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    v.truncate(k);
    v
}
