//! Static kernel analyzer: abstract interpretation over warp programs.
//!
//! Enabled via [`GpuConfig::analyze`](crate::GpuConfig) or
//! `MAXWARP_ANALYZE=1`, the analyzer observes every instrumented warp
//! operation — like the sanitizer — but instead of shadowing concrete state
//! it *abstracts* each call site's lane values into the domains of
//! [`domain`]: lane-affine forms `c0 + c_lane·lane + c_warp·warp +
//! c_block·block` joined across all observing warps and blocks, with
//! interval hulls as the fallback. A pass pipeline then proves properties of
//! the whole launch from the per-site summaries:
//!
//! 1. **Barrier convergence** — every warp of a block must reach the same
//!    barrier sequence ([`passes::check_barrier_convergence`]).
//! 2. **May-happen-in-parallel races** — conflicting site pairs whose
//!    abstract address footprints intersect and whose agent summaries admit
//!    an unordered pair under the barrier-epoch ordering (warning), plus
//!    *definite* races proved from exact affine forms (error).
//! 3. **Coalescing / bank-conflict prediction** — transactions and bank
//!    passes computed from affine strides through the very same
//!    [`coalesce`](crate::coalesce) / [`shared`](crate::shared) models the
//!    simulator charges, and the same efficiency lint the sanitizer applies.
//! 4. **Redundant ballots** — collective sites whose predicate is uniform
//!    over every observation.
//! 5. **Uninitialized reads** — valid-bit over-approximation per site.
//!
//! ## Soundness contract
//!
//! Kernels here are Rust closures, so the analyzer cannot enumerate
//! unexecuted paths; it abstracts along the executed trace and generalizes
//! over the lane/warp/block space wherever the observations are
//! affine-exact. The guarantee — enforced by the containment harness in
//! `tests/` — is *relative soundness*: every finding the dynamic sanitizer
//! produces on an input is contained in the static report for the same run,
//! while the static report additionally warns about hazards (hull overlaps,
//! epoch-unordered pairs) the concrete interleaving happened not to trip.
//! Error severity is reserved for findings that are *definite* — provable
//! from exact affine forms or directly observed — so a hazard-free kernel
//! reports zero errors even though the may-analysis over-approximates.
//!
//! Like the sanitizer and profiler, the analyzer is purely observational: it
//! consumes the executor's [`Event`](crate::event) records and never writes
//! the trace, so `KernelStats` are byte-identical with it on or off.

pub mod domain;
pub mod passes;
mod report;

pub use domain::{AbsJoin, AbsVal, Interval, LaneAffine, SiteAffine};

use crate::event::{Event, EventKind, MemAccess};
use crate::sanitize::Severity;
use crate::warp::WarpId;
use std::collections::{HashMap, HashSet};
use std::panic::Location;

/// A kernel call site (`#[track_caller]` location of the `WarpCtx` method).
pub type Site = &'static Location<'static>;

/// Cap on distinct findings retained; further new sites are counted but
/// dropped.
const MAX_FINDINGS: usize = 1024;

/// Minimum sampled ops before the coalescing lint can fire for a site
/// (mirrors the sanitizer's threshold — the two lints must agree).
const COALESCE_MIN_OPS: u64 = 8;

/// Minimum observations before a uniform-predicate collective is called
/// redundant.
const BALLOT_MIN_OPS: u64 = 8;

/// What a memory site does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
    Atomic,
}

impl AccessKind {
    /// Can two accesses of these kinds race? Reads never conflict with
    /// reads, and atomics are ordered against each other by the hardware.
    pub fn conflicts(self, other: AccessKind) -> bool {
        !matches!(
            (self, other),
            (AccessKind::Read, AccessKind::Read) | (AccessKind::Atomic, AccessKind::Atomic)
        )
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        }
    }
}

/// Which address space a site touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    Global,
    Shared,
}

impl Space {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
        }
    }
}

/// The static finding classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FindKind {
    /// Warps of a block reach different barrier sequences.
    BarrierDivergence,
    /// A race proved from exact affine forms: unordered agents provably
    /// store different values to the same word.
    DefiniteRace,
    /// Two sites whose abstract footprints overlap with an unordered agent
    /// pair admitted by the epoch ordering — may race, cannot be proved.
    MayRace,
    /// An observed read of never-written shared memory (definite).
    UninitShared,
    /// A global read site where some observed lanes read never-written
    /// words.
    MayUninit,
    /// An observed access outside an allocation.
    OutOfBounds,
    /// An observed shuffle from a source lane outside the active mask.
    DivergentShfl,
    /// A collective executed under an empty active mask.
    EmptyMaskCollective,
    /// Lanes of one warp observed storing different values to one address
    /// in one instruction.
    StoreCollision,
    /// Shared access serialized into more than 4 bank passes.
    BankConflict,
    /// Global-memory site with coalescing efficiency below 25%.
    Coalescing,
    /// Collective whose predicate was uniform over every observation — the
    /// branch it guards is uniform and the ballot redundant.
    RedundantBallot,
}

impl FindKind {
    /// Severity is a property of the class: errors are definite (provable
    /// or directly observed), warnings are may-findings and perf lints.
    pub fn severity(self) -> Severity {
        match self {
            FindKind::BarrierDivergence
            | FindKind::DefiniteRace
            | FindKind::UninitShared
            | FindKind::OutOfBounds
            | FindKind::DivergentShfl => Severity::Error,
            FindKind::MayRace
            | FindKind::MayUninit
            | FindKind::EmptyMaskCollective
            | FindKind::StoreCollision
            | FindKind::BankConflict
            | FindKind::Coalescing
            | FindKind::RedundantBallot => Severity::Warning,
        }
    }

    /// Short kebab-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FindKind::BarrierDivergence => "barrier-divergence",
            FindKind::DefiniteRace => "definite-race",
            FindKind::MayRace => "may-race",
            FindKind::UninitShared => "uninit-shared",
            FindKind::MayUninit => "may-uninit",
            FindKind::OutOfBounds => "out-of-bounds",
            FindKind::DivergentShfl => "divergent-shfl",
            FindKind::EmptyMaskCollective => "empty-mask-collective",
            FindKind::StoreCollision => "store-collision",
            FindKind::BankConflict => "bank-conflict",
            FindKind::Coalescing => "coalescing",
            FindKind::RedundantBallot => "redundant-ballot",
        }
    }
}

/// One deduplicated static finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Error or warning ([`FindKind::severity`]).
    pub severity: Severity,
    /// Finding class.
    pub kind: FindKind,
    /// Kernel context label active when the finding first fired.
    pub kernel: String,
    /// 1-based launch index of the first occurrence.
    pub launch: u32,
    /// Block of the first occurrence.
    pub block: u32,
    /// Warp-in-block of the first occurrence.
    pub warp: u32,
    /// `WarpCtx` method of the (first) site.
    pub op: &'static str,
    /// Source location of the offending call.
    pub site: Site,
    /// For pairwise findings (may-races), the second involved site.
    pub other_site: Option<Site>,
    /// Human-readable description of the first occurrence.
    pub message: String,
    /// Occurrences folded into this finding.
    pub count: u64,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "warning",
        };
        write!(f, "{sev} [{}] {}", self.kind.label(), self.message)?;
        write!(f, "\n    at {} (op `{}`)", self.site, self.op)?;
        if let Some(o) = self.other_site {
            write!(f, "\n    with {}", o)?;
        }
        write!(f, "\n    first: ")?;
        if !self.kernel.is_empty() {
            write!(f, "kernel `{}` ", self.kernel)?;
        }
        write!(
            f,
            "launch {} block {} warp {}",
            self.launch, self.block, self.warp
        )?;
        if self.count > 1 {
            write!(f, "\n    occurrences: {}", self.count)?;
        }
        Ok(())
    }
}

/// Hull summary of the agents (block, warp, epoch) that executed a site.
/// Ranges over-approximate the observed sets, which is the safe direction
/// for a may-analysis: a pair the summary cannot exclude is reported.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AgentSummary {
    pub(crate) block: Interval,
    pub(crate) warp: Interval,
    pub(crate) epoch: Interval,
    pub(crate) count: u64,
}

impl Default for AgentSummary {
    fn default() -> Self {
        AgentSummary {
            block: Interval { lo: 0, hi: 0 },
            warp: Interval { lo: 0, hi: 0 },
            epoch: Interval { lo: 0, hi: 0 },
            count: 0,
        }
    }
}

impl AgentSummary {
    fn observe(&mut self, block: u32, warp: u32, epoch: u32) {
        let (b, w, e) = (block as i64, warp as i64, epoch as i64);
        if self.count == 0 {
            self.block = Interval::point(b);
            self.warp = Interval::point(w);
            self.epoch = Interval::point(e);
        } else {
            self.block = self.block.include(b);
            self.warp = self.warp.include(w);
            self.epoch = self.epoch.include(e);
        }
        self.count += 1;
    }

    /// Could an *unordered* agent pair (one from `self`, one from `other`)
    /// exist, under the launch ordering the dynamic shadow uses: different
    /// blocks are always unordered (global memory), same block is unordered
    /// only across warps within one barrier epoch; shared memory is
    /// per-block, so only same-block pairs count there.
    pub(crate) fn may_conflict(&self, other: &AgentSummary, space: Space) -> bool {
        if self.count == 0 || other.count == 0 {
            return false;
        }
        let warps_differ = !(self.warp.lo == self.warp.hi
            && other.warp.lo == other.warp.hi
            && self.warp.lo == other.warp.lo);
        let epochs_meet = self.epoch.intersects(other.epoch);
        match space {
            Space::Global => {
                let single_common_block = self.block.lo == self.block.hi
                    && other.block.lo == other.block.hi
                    && self.block.lo == other.block.lo;
                if !single_common_block {
                    return true;
                }
                warps_differ && epochs_meet
            }
            Space::Shared => self.block.intersects(other.block) && warps_differ && epochs_meet,
        }
    }
}

/// Per-launch coalescing accumulator — the same accounting as the
/// sanitizer's lint, so the two always agree on verdicts.
#[derive(Clone, Copy, Debug, Default)]
struct CoalAcc {
    ops: u64,
    actual: u64,
    ideal: u64,
}

/// Abstract summary of one memory call site within a launch.
#[derive(Debug)]
pub(crate) struct MemSite {
    pub(crate) op: &'static str,
    pub(crate) kind: AccessKind,
    pub(crate) space: Space,
    pub(crate) addr: AbsJoin,
    pub(crate) value: AbsJoin,
    pub(crate) agents: AgentSummary,
    pub(crate) lane_span: Option<(usize, usize)>,
    pub(crate) who: (u32, u32),
    pub(crate) obs: u64,
    pub(crate) segment_words: u32,
    coalesce: Option<CoalAcc>,
}

/// Per-launch statistics of one collective (ballot/any/all) site.
#[derive(Debug)]
struct CollSite {
    op: &'static str,
    obs: u64,
    uniform_true: u64,
    uniform_false: u64,
    who: (u32, u32),
}

/// Cross-launch abstract summary of a site, for the report.
#[derive(Debug)]
pub struct SiteSummary {
    /// `WarpCtx` method observed at this site (`"ld"`, `"st"`, ...).
    pub op: &'static str,
    /// Read, write, or atomic.
    pub kind: AccessKind,
    /// Global or shared memory.
    pub space: Space,
    /// Source location of the call.
    pub site: Site,
    /// Joined abstract address across every observation.
    pub addr: AbsJoin,
    /// Union of observed active-lane spans.
    pub lane_span: Option<(usize, usize)>,
    /// Observations folded in.
    pub obs: u64,
    /// Coalescing segment size in words at this site.
    pub segment_words: u32,
}

impl SiteSummary {
    /// Predicted transactions per access from the joined affine form, if
    /// exact — computed through the simulator's own coalescing model.
    pub fn predicted_tx(&self) -> Option<u32> {
        if self.space != Space::Global {
            return None;
        }
        let a = self.addr.value()?.affine()?;
        let span = self.lane_span?;
        Some(passes::predict_transactions(
            a,
            span,
            self.agents_anchor(),
            self.segment_words * 4,
        ))
    }

    /// Predicted bank-conflict cost from the joined affine form, if exact.
    pub fn predicted_bank_cost(&self) -> Option<u32> {
        if self.space != Space::Shared {
            return None;
        }
        let a = self.addr.value()?.affine()?;
        let span = self.lane_span?;
        Some(passes::predict_bank_cost(a, span, self.agents_anchor()))
    }

    fn agents_anchor(&self) -> (i64, i64) {
        (0, 0)
    }
}

/// A race finding buffered by `pass_races` before recording: kind, first
/// observing agent, op label, the two sites, and the message.
type RaceHit = (FindKind, WarpId, &'static str, Site, Option<Site>, String);

/// The static analyzer. One per [`Gpu`](crate::Gpu); accumulates
/// deduplicated findings across launches, with per-launch abstract state
/// reset at each launch boundary (races are a per-launch property, exactly
/// as in the dynamic shadow).
#[derive(Debug, Default)]
pub struct Analyzer {
    context: String,
    launch: u32,
    findings: Vec<Finding>,
    index: HashMap<(FindKind, Site, Option<Site>), usize>,
    errors: u64,
    warnings: u64,
    suppressed: u64,
    // ---- per-launch state, reset by begin_launch --------------------------
    mem_sites: HashMap<Site, MemSite>,
    coll_sites: HashMap<Site, CollSite>,
    /// Per block: per warp, the sequence of barrier sites reached.
    barriers: HashMap<u32, Vec<Vec<Site>>>,
    /// Shared-memory valid bits: `(block, word)` written this launch.
    shared_valid: HashSet<(u32, u32)>,
    // ---- cumulative -------------------------------------------------------
    summary: HashMap<Site, SiteSummary>,
}

impl Analyzer {
    /// Fresh analyzer with no findings.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Label subsequent launches with a kernel/context name for reports.
    pub fn set_context(&mut self, name: &str) {
        self.context = name.to_string();
    }

    /// Begin a launch: reset the per-launch abstract state.
    pub fn begin_launch(&mut self) {
        self.launch += 1;
        self.mem_sites.clear();
        self.coll_sites.clear();
        self.barriers.clear();
        self.shared_valid.clear();
    }

    /// End a launch: run the pass pipeline over the per-launch site
    /// summaries, then fold them into the cumulative report state.
    pub fn finish_launch(&mut self) {
        self.pass_barrier_convergence();
        self.pass_races();
        self.pass_coalescing();
        self.pass_redundant_ballots();
        self.merge_summaries();
    }

    /// True if any error-severity finding was recorded.
    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    /// Total error-severity occurrences.
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// Total warning-severity occurrences.
    pub fn warning_count(&self) -> u64 {
        self.warnings
    }

    /// True if nothing at all was recorded.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }

    /// All deduplicated findings, in first-occurrence order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Occurrences dropped after the distinct-findings cap was reached.
    /// Nonzero means [`findings`](Self::findings) is an incomplete list and
    /// containment arguments against it are void.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Cross-launch abstract site summaries, ordered by source location.
    pub fn site_summaries(&self) -> Vec<&SiteSummary> {
        let mut sites: Vec<&SiteSummary> = self.summary.values().collect();
        sites.sort_by_key(|s| (s.site.file(), s.site.line(), s.site.column()));
        sites
    }

    /// Human-readable report of all findings (errors first).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut ordered: Vec<&Finding> = self.findings.iter().collect();
        ordered.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for d in ordered {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "analyzer: {} error(s), {} warning(s), {} distinct finding(s){}",
            self.errors,
            self.warnings,
            self.findings.len(),
            if self.suppressed > 0 {
                format!(", {} suppressed after cap", self.suppressed)
            } else {
                String::new()
            }
        );
        out
    }

    // ---- the observer entry point -------------------------------------------

    /// Fold one warp-level operation into the launch's abstract state and
    /// emit the immediate (observed-event) findings.
    pub(crate) fn on_event(&mut self, ev: &Event<'_>) {
        let (id, op, site) = (ev.id, ev.op, ev.site);
        match ev.kind {
            EventKind::Mem(m) => self.mem_access(ev, &m),
            EventKind::Collective { active, pred } => self.collective(ev, active, pred),
            EventKind::EmptyMask => self.hit(
                FindKind::EmptyMaskCollective,
                id,
                op,
                site,
                None,
                format!("collective `{op}` executed under an empty active mask"),
            ),
            EventKind::DivergentShuffle { .. } => self.hit(
                FindKind::DivergentShfl,
                id,
                op,
                site,
                None,
                format!(
                    "`{op}` reads a source lane outside the active mask (undefined on hardware)"
                ),
            ),
            EventKind::Oob { space, .. } => self.hit(
                FindKind::OutOfBounds,
                id,
                op,
                site,
                None,
                format!(
                    "observed {}-memory access outside its allocation",
                    space.label()
                ),
            ),
            // Every warp of the block reaches the barrier at `site`.
            EventKind::Barrier { warps } => {
                let seqs = self
                    .barriers
                    .entry(id.block)
                    .or_insert_with(|| vec![Vec::new(); warps.max(1) as usize]);
                for s in seqs.iter_mut() {
                    s.push(site);
                }
            }
            EventKind::Issue(_) => {}
        }
    }

    /// Fold one memory operation into its site's abstract summary.
    fn mem_access(&mut self, ev: &Event<'_>, m: &MemAccess<'_>) {
        let (Some(first), Some(last)) = (m.lanes.first(), m.lanes.last()) else {
            return;
        };
        let id = ev.id;
        // Reads of never-written words. Global validity comes with the
        // event; shared memory has a per-block valid-bit shadow here: reads
        // of never-written words are definite uninitialized reads, writes
        // validate.
        let mut invalid = 0u32;
        for a in m.lanes {
            let fresh = match (m.space, m.access) {
                (Space::Global, _) => !a.valid,
                (Space::Shared, AccessKind::Read) => {
                    !self.shared_valid.contains(&(id.block, a.word))
                }
                (Space::Shared, _) => {
                    self.shared_valid.insert((id.block, a.word));
                    false
                }
            };
            invalid += fresh as u32;
        }

        let addrs = || m.lanes.iter().map(|a| (a.lane as usize, a.word as i64));
        let values = || m.lanes.iter().map(|a| (a.lane as usize, a.value as i64));
        let stores = m.access == AccessKind::Write;

        let site = self.mem_sites.entry(ev.site).or_insert_with(|| MemSite {
            op: ev.op,
            kind: m.access,
            space: m.space,
            addr: AbsJoin::default(),
            value: AbsJoin::default(),
            agents: AgentSummary::default(),
            lane_span: None,
            who: (id.block, id.warp_in_block),
            obs: 0,
            segment_words: m.segment_words,
            coalesce: None,
        });
        site.obs += 1;
        site.addr.observe(
            LaneAffine::fit(addrs()),
            hull_of(addrs()),
            id.warp_in_block,
            id.block,
        );
        if stores {
            site.value.observe(
                LaneAffine::fit(values()),
                hull_of(values()),
                id.warp_in_block,
                id.block,
            );
        }
        site.agents.observe(id.block, id.warp_in_block, ev.epoch);
        let span = (first.lane as usize, last.lane as usize);
        site.lane_span = Some(match site.lane_span {
            None => span,
            Some((lo, hi)) => (lo.min(span.0), hi.max(span.1)),
        });
        if let Some((tx, distinct)) = m.coalesce {
            let acc = site.coalesce.get_or_insert(CoalAcc::default());
            acc.ops += 1;
            acc.actual += tx as u64;
            acc.ideal += crate::coalesce::ideal_transactions(distinct, m.segment_words) as u64;
        }

        // Immediate, observed-event findings.
        if invalid > 0 {
            let (kind, message) = match m.space {
                Space::Global => (
                    FindKind::MayUninit,
                    format!("{invalid} lane(s) observed reading uninitialized device words"),
                ),
                Space::Shared => (
                    FindKind::UninitShared,
                    format!("{invalid} lane(s) read never-written shared words"),
                ),
            };
            self.hit(kind, id, ev.op, ev.site, None, message);
        }
        if m.space == Space::Shared && m.bank_cost > 4 {
            self.hit(
                FindKind::BankConflict,
                id,
                ev.op,
                ev.site,
                None,
                format!(
                    "shared-memory access serialized into {} bank passes (> 4)",
                    m.bank_cost
                ),
            );
        }
        if m.space == Space::Global && stores {
            let collision = m.lanes.iter().enumerate().find(|(i, a)| {
                m.lanes[..*i]
                    .iter()
                    .any(|k| k.word == a.word && k.value != a.value)
            });
            if let Some((_, a)) = collision {
                self.hit(
                    FindKind::StoreCollision,
                    id,
                    ev.op,
                    ev.site,
                    None,
                    format!(
                        "lanes store different values to word {} in one instruction (winner \
                         undefined on hardware)",
                        a.word
                    ),
                );
            }
        }
    }

    /// Record one ballot/any/all execution for the redundancy pass.
    fn collective(&mut self, ev: &Event<'_>, active: u32, hits: u32) {
        let c = self.coll_sites.entry(ev.site).or_insert_with(|| CollSite {
            op: ev.op,
            obs: 0,
            uniform_true: 0,
            uniform_false: 0,
            who: (ev.id.block, ev.id.warp_in_block),
        });
        if active == 0 {
            return;
        }
        c.obs += 1;
        if hits == active {
            c.uniform_true += 1;
        } else if hits == 0 {
            c.uniform_false += 1;
        }
    }

    // ---- passes (run at finish_launch) --------------------------------------

    fn pass_barrier_convergence(&mut self) {
        let mut blocks: Vec<(u32, &Vec<Vec<Site>>)> =
            self.barriers.iter().map(|(b, s)| (*b, s)).collect();
        blocks.sort_by_key(|(b, _)| *b);
        let mut found = Vec::new();
        for (block, seqs) in blocks {
            let views: Vec<&[Site]> = seqs.iter().map(|s| s.as_slice()).collect();
            if let Some(d) = passes::check_barrier_convergence(&views) {
                found.push((block, d));
            }
        }
        for (block, d) in found {
            let id = WarpId {
                block,
                warp_in_block: d.warp as u32,
                warps_per_block: 1,
                num_blocks: 1,
            };
            self.hit(
                FindKind::BarrierDivergence,
                id,
                "barrier",
                d.site,
                d.other_site,
                format!(
                    "warps of block {block} reach divergent barrier sequences: warp {} diverges \
                     from warp {} at step {}",
                    d.warp, d.other_warp, d.step
                ),
            );
        }
    }

    fn pass_races(&mut self) {
        let mut sites: Vec<(Site, &MemSite)> =
            self.mem_sites.iter().map(|(s, m)| (*s, m)).collect();
        sites.sort_by_key(|(s, _)| (s.file(), s.line(), s.column()));
        let mut found: Vec<RaceHit> = Vec::new();

        // Definite races from exact affine forms: every agent writes the
        // same single word, and the written value provably differs between
        // unordered agents.
        for &(loc, m) in &sites {
            if m.kind != AccessKind::Write {
                continue;
            }
            let (Some(addr), Some(val)) = (m.addr.value(), m.value.value()) else {
                continue;
            };
            let (Some(a), Some(v)) = (addr.affine(), val.affine()) else {
                continue;
            };
            let fixed_word = a.lane == 0 && a.warp == 0 && a.block == 0;
            if !fixed_word || v.lane != 0 {
                continue;
            }
            let cross_block = m.space == Space::Global
                && v.warp == 0
                && v.block != 0
                && m.agents.block.lo != m.agents.block.hi;
            let cross_warp_one_epoch = v.block == 0
                && v.warp != 0
                && m.agents.block.lo == m.agents.block.hi
                && m.agents.warp.lo != m.agents.warp.hi
                && m.agents.epoch.lo == m.agents.epoch.hi;
            if cross_block || cross_warp_one_epoch {
                let id = WarpId {
                    block: m.who.0,
                    warp_in_block: m.who.1,
                    warps_per_block: 1,
                    num_blocks: 1,
                };
                found.push((
                    FindKind::DefiniteRace,
                    id,
                    m.op,
                    loc,
                    None,
                    format!(
                        "unordered agents provably store different values to word {}: value = \
                         {} (exact affine form over all observed {})",
                        a.c0,
                        format_affine(v),
                        if cross_block { "blocks" } else { "warps" }
                    ),
                ));
            }
        }

        // May-races: conflicting kinds, overlapping footprint hulls, and an
        // agent pair the epoch ordering cannot exclude.
        for i in 0..sites.len() {
            for j in i..sites.len() {
                let (la, a) = sites[i];
                let (lb, b) = sites[j];
                if a.space != b.space || !a.kind.conflicts(b.kind) {
                    continue;
                }
                if a.addr.is_empty() || b.addr.is_empty() {
                    continue;
                }
                if !a.addr.hull.intersects(b.addr.hull) {
                    continue;
                }
                if !a.agents.may_conflict(&b.agents, a.space) {
                    continue;
                }
                let id = WarpId {
                    block: a.who.0,
                    warp_in_block: a.who.1,
                    warps_per_block: 1,
                    num_blocks: 1,
                };
                found.push((
                    FindKind::MayRace,
                    id,
                    a.op,
                    la,
                    Some(lb),
                    format!(
                        "{} {} footprint [{}, {}] may overlap {} {} footprint [{}, {}] from \
                         unordered agents",
                        a.space.label(),
                        a.kind.label(),
                        a.addr.hull.lo,
                        a.addr.hull.hi,
                        b.space.label(),
                        b.kind.label(),
                        b.addr.hull.lo,
                        b.addr.hull.hi,
                    ),
                ));
            }
        }

        for (kind, id, op, site, other, msg) in found {
            self.hit(kind, id, op, site, other, msg);
        }
    }

    fn pass_coalescing(&mut self) {
        let mut sites: Vec<(Site, &MemSite, CoalAcc)> = self
            .mem_sites
            .iter()
            .filter_map(|(s, m)| m.coalesce.map(|c| (*s, m, c)))
            .collect();
        sites.sort_by_key(|(s, _, _)| (s.file(), s.line(), s.column()));
        let mut found = Vec::new();
        for (loc, m, c) in sites {
            if c.ops < COALESCE_MIN_OPS || c.actual == 0 {
                continue;
            }
            let efficiency = c.ideal as f64 / c.actual as f64;
            if efficiency < 0.25 {
                let id = WarpId {
                    block: m.who.0,
                    warp_in_block: m.who.1,
                    warps_per_block: 1,
                    num_blocks: 1,
                };
                found.push((
                    id,
                    m.op,
                    loc,
                    format!(
                        "coalescing efficiency {:.0}% over {} ops ({} transactions issued, {} \
                         ideal)",
                        efficiency * 100.0,
                        c.ops,
                        c.actual,
                        c.ideal
                    ),
                ));
            }
        }
        for (id, op, site, msg) in found {
            self.hit(FindKind::Coalescing, id, op, site, None, msg);
        }
    }

    fn pass_redundant_ballots(&mut self) {
        let mut sites: Vec<(Site, &CollSite)> =
            self.coll_sites.iter().map(|(s, c)| (*s, c)).collect();
        sites.sort_by_key(|(s, _)| (s.file(), s.line(), s.column()));
        let mut found = Vec::new();
        for (loc, c) in sites {
            if c.obs < BALLOT_MIN_OPS {
                continue;
            }
            let verdict = if c.uniform_true == c.obs {
                Some("true")
            } else if c.uniform_false == c.obs {
                Some("false")
            } else {
                None
            };
            if let Some(v) = verdict {
                let id = WarpId {
                    block: c.who.0,
                    warp_in_block: c.who.1,
                    warps_per_block: 1,
                    num_blocks: 1,
                };
                found.push((
                    id,
                    c.op,
                    loc,
                    format!(
                        "predicate uniformly {v} over all {} observations — the guarded branch \
                         is uniform and the `{}` is redundant",
                        c.obs, c.op
                    ),
                ));
            }
        }
        for (id, op, site, msg) in found {
            self.hit(FindKind::RedundantBallot, id, op, site, None, msg);
        }
    }

    fn merge_summaries(&mut self) {
        for (site, m) in self.mem_sites.drain() {
            let s = self.summary.entry(site).or_insert_with(|| SiteSummary {
                op: m.op,
                kind: m.kind,
                space: m.space,
                site,
                addr: AbsJoin::default(),
                lane_span: None,
                obs: 0,
                segment_words: m.segment_words,
            });
            s.obs += m.obs;
            // Join launches by re-observing the per-launch joined form; an
            // inconsistency across launches demotes to the union hull.
            match m.addr.value() {
                Some(AbsVal::Affine(_)) if s.addr.is_empty() => s.addr = m.addr,
                Some(_) => {
                    let prev = s.addr;
                    let widened = prev.hull.lo > m.addr.hull.lo
                        || prev.hull.hi < m.addr.hull.hi
                        || prev.value() != m.addr.value();
                    if widened && (s.addr.is_empty() || prev.value() != m.addr.value()) {
                        // Different forms between launches: keep the hull.
                        let mut j = AbsJoin::default();
                        j.observe(None, prev.hull.join(m.addr.hull), 0, 0);
                        if s.addr.is_empty() {
                            j = m.addr;
                        }
                        s.addr = j;
                    }
                }
                None => {}
            }
            s.lane_span = match (s.lane_span, m.lane_span) {
                (None, sp) | (sp, None) => sp,
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            };
        }
    }

    // ---- recording ----------------------------------------------------------

    fn hit(
        &mut self,
        kind: FindKind,
        id: WarpId,
        op: &'static str,
        site: Site,
        other_site: Option<Site>,
        message: String,
    ) {
        let severity = kind.severity();
        match severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        crate::obs::analyzer_finding(severity);
        if let Some(&i) = self.index.get(&(kind, site, other_site)) {
            self.findings[i].count += 1;
            return;
        }
        if self.findings.len() >= MAX_FINDINGS {
            self.suppressed += 1;
            return;
        }
        self.index
            .insert((kind, site, other_site), self.findings.len());
        self.findings.push(Finding {
            severity,
            kind,
            kernel: self.context.clone(),
            launch: self.launch,
            block: id.block,
            warp: id.warp_in_block,
            op,
            site,
            other_site,
            message,
            count: 1,
        });
    }
}

fn hull_of(mut points: impl Iterator<Item = (usize, i64)>) -> Interval {
    let first = points.next().map_or(0, |(_, v)| v);
    points.fold(Interval::point(first), |h, (_, v)| h.include(v))
}

fn format_affine(a: SiteAffine) -> String {
    let mut s = format!("{}", a.c0);
    for (c, name) in [(a.lane, "lane"), (a.warp, "warp"), (a.block, "block")] {
        if c != 0 {
            s.push_str(&format!(" + {c}·{name}"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LaneAccess;

    fn id(block: u32, warp: u32) -> WarpId {
        WarpId {
            block,
            warp_in_block: warp,
            warps_per_block: 4,
            num_blocks: 4,
        }
    }

    #[track_caller]
    fn site() -> Site {
        Location::caller()
    }

    /// Lane records from `(lane, word)` pairs and, for writes, the matching
    /// `(lane, stored value)` pairs.
    fn lanes(addrs: &[(usize, i64)], values: Option<&[(usize, i64)]>) -> Vec<LaneAccess> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &(lane, word))| LaneAccess {
                lane: lane as u32,
                word: word as u32,
                value: values.map_or(0, |v| v[i].1 as u32),
                valid: true,
            })
            .collect()
    }

    /// Feed `a` one memory event from `who` in barrier epoch `epoch`.
    fn mem(
        a: &mut Analyzer,
        (who, epoch): (WarpId, u32),
        (access, space): (AccessKind, Space),
        loc: Site,
        lanes: &[LaneAccess],
        coalesce: Option<(u32, u32)>,
    ) {
        a.on_event(&Event {
            id: who,
            epoch,
            op: "test",
            site: loc,
            kind: EventKind::Mem(MemAccess {
                space,
                access,
                base: 0,
                lanes,
                coalesce,
                segment_words: 32,
                bank_cost: 1,
            }),
        });
    }

    fn event(a: &mut Analyzer, who: WarpId, loc: Site, kind: EventKind<'_>) {
        a.on_event(&Event {
            id: who,
            epoch: 0,
            op: "ballot",
            site: loc,
            kind,
        });
    }

    #[test]
    fn definite_race_from_block_varying_values_at_fixed_word() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for b in 0..4u32 {
            let addrs = [(0usize, 100i64)];
            let vals = [(0usize, b as i64)];
            mem(
                &mut a,
                (id(b, 0), 0),
                (AccessKind::Write, Space::Global),
                loc,
                &lanes(&addrs, Some(&vals)),
                None,
            );
        }
        a.finish_launch();
        assert!(a.has_errors());
        assert!(a
            .findings()
            .iter()
            .any(|f| f.kind == FindKind::DefiniteRace && f.site == loc));
    }

    #[test]
    fn same_value_splat_is_not_definite() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for b in 0..4u32 {
            let addrs = [(0usize, 100i64)];
            let vals = [(0usize, 7i64)];
            mem(
                &mut a,
                (id(b, 0), 0),
                (AccessKind::Write, Space::Global),
                loc,
                &lanes(&addrs, Some(&vals)),
                None,
            );
        }
        a.finish_launch();
        assert!(!a.has_errors());
        // Still a may-race warning: unordered same-word writes.
        assert!(a.findings().iter().any(|f| f.kind == FindKind::MayRace));
    }

    #[test]
    fn disjoint_footprints_do_not_race() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for b in 0..4u32 {
            let base = 32 * b as i64;
            let addrs: Vec<(usize, i64)> = (0..32).map(|l| (l, base + l as i64)).collect();
            let vals: Vec<(usize, i64)> = (0..32).map(|l| (l, 1i64)).collect();
            // Same site, per-block disjoint slices… hulls overlap? No:
            // block 0 covers [0,31], block 1 [32,63]… but the SITE hull is
            // the union, and the self-pair check sees one site whose hull
            // self-intersects. The affine form is exact though, and agents
            // write the same value → not definite. The may-race self-pair
            // does fire (the hull over-approximates) — that is the designed
            // warning behaviour for a single site spanning agents.
            mem(
                &mut a,
                (id(b, 0), 0),
                (AccessKind::Write, Space::Global),
                loc,
                &lanes(&addrs, Some(&vals)),
                None,
            );
        }
        a.finish_launch();
        assert!(!a.has_errors());
    }

    #[test]
    fn shared_uninit_read_is_error_and_write_validates() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let w = site();
        let r = site();
        let addrs = [(0usize, 5i64)];
        let vals = [(0usize, 1i64)];
        // Read before any write: definite uninit.
        mem(
            &mut a,
            (id(0, 0), 0),
            (AccessKind::Read, Space::Shared),
            r,
            &lanes(&addrs, None),
            None,
        );
        assert!(a.has_errors());
        assert_eq!(a.findings()[0].kind, FindKind::UninitShared);
        // After a write, reads of the same word in the same block are fine.
        let before = a.error_count();
        mem(
            &mut a,
            (id(1, 0), 0),
            (AccessKind::Write, Space::Shared),
            w,
            &lanes(&addrs, Some(&vals)),
            None,
        );
        mem(
            &mut a,
            (id(1, 0), 0),
            (AccessKind::Read, Space::Shared),
            r,
            &lanes(&addrs, None),
            None,
        );
        assert_eq!(a.error_count(), before);
        // …but another block's shared memory is separate.
        mem(
            &mut a,
            (id(2, 0), 0),
            (AccessKind::Read, Space::Shared),
            r,
            &lanes(&addrs, None),
            None,
        );
        assert!(a.error_count() > before);
    }

    #[test]
    fn shared_race_same_block_cross_warp_is_may_race() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        let addrs = [(0usize, 3i64)];
        let vals = [(0usize, 1i64)];
        mem(
            &mut a,
            (id(0, 0), 0),
            (AccessKind::Write, Space::Shared),
            loc,
            &lanes(&addrs, Some(&vals)),
            None,
        );
        mem(
            &mut a,
            (id(0, 1), 0),
            (AccessKind::Write, Space::Shared),
            loc,
            &lanes(&addrs, Some(&vals)),
            None,
        );
        a.finish_launch();
        assert!(a.findings().iter().any(|f| f.kind == FindKind::MayRace));
    }

    #[test]
    fn barrier_ordering_suppresses_shared_may_race() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let w = site();
        let r = site();
        let addrs = [(0usize, 3i64)];
        let vals = [(0usize, 1i64)];
        mem(
            &mut a,
            (id(0, 0), 0),
            (AccessKind::Write, Space::Shared),
            w,
            &lanes(&addrs, Some(&vals)),
            None,
        );
        // Read by another warp in the NEXT epoch: ordered by the barrier.
        mem(
            &mut a,
            (id(0, 1), 1),
            (AccessKind::Read, Space::Shared),
            r,
            &lanes(&addrs, None),
            None,
        );
        a.finish_launch();
        assert!(
            !a.findings().iter().any(|f| f.kind == FindKind::MayRace),
            "{}",
            a.report()
        );
    }

    #[test]
    fn warp_private_shared_never_races() {
        // Warp-task launches: block == task, every warp index 0 — shared
        // scratch is warp-private.
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        let vals = [(0usize, 9i64)];
        for t in 0..8u32 {
            let addrs = [(0usize, 3i64)];
            mem(
                &mut a,
                (id(t, 0), 0),
                (AccessKind::Write, Space::Shared),
                loc,
                &lanes(&addrs, Some(&vals)),
                None,
            );
        }
        a.finish_launch();
        assert!(!a.findings().iter().any(|f| f.kind == FindKind::MayRace));
    }

    #[test]
    fn coalescing_lint_matches_sanitizer_accounting() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for _ in 0..10 {
            let addrs: Vec<(usize, i64)> = (0..32).map(|l| (l, (l * 32) as i64)).collect();
            mem(
                &mut a,
                (id(0, 0), 0),
                (AccessKind::Read, Space::Global),
                loc,
                &lanes(&addrs, None),
                Some((32, 32)),
            );
        }
        a.finish_launch();
        let f = a
            .findings()
            .iter()
            .find(|f| f.kind == FindKind::Coalescing)
            .expect("lint must fire");
        assert_eq!(f.severity, Severity::Warning);
        assert!(f.message.contains("3%"), "{}", f.message);
    }

    #[test]
    fn broadcast_site_is_not_a_coalescing_finding() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for _ in 0..10 {
            let addrs: Vec<(usize, i64)> = (0..32).map(|l| (l, 4096i64)).collect();
            mem(
                &mut a,
                (id(0, 0), 0),
                (AccessKind::Read, Space::Global),
                loc,
                &lanes(&addrs, None),
                Some((1, 1)),
            );
        }
        a.finish_launch();
        assert!(!a.findings().iter().any(|f| f.kind == FindKind::Coalescing));
    }

    #[test]
    fn redundant_ballot_needs_uniformity_over_all_obs() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let uniform = site();
        let mixed = site();
        for _ in 0..10 {
            let all = EventKind::Collective {
                active: 32,
                pred: 32,
            };
            let some = EventKind::Collective {
                active: 32,
                pred: 7,
            };
            event(&mut a, id(0, 0), uniform, all);
            event(&mut a, id(0, 0), mixed, some);
        }
        a.finish_launch();
        let kinds: Vec<(FindKind, Site)> = a.findings().iter().map(|f| (f.kind, f.site)).collect();
        assert!(kinds.contains(&(FindKind::RedundantBallot, uniform)));
        assert!(!kinds.contains(&(FindKind::RedundantBallot, mixed)));
    }

    #[test]
    fn findings_deduplicate_and_count() {
        let mut a = Analyzer::new();
        a.set_context("fixture");
        a.begin_launch();
        let loc = site();
        event(&mut a, id(0, 0), loc, EventKind::EmptyMask);
        event(&mut a, id(1, 2), loc, EventKind::EmptyMask);
        assert_eq!(a.findings().len(), 1);
        assert_eq!(a.findings()[0].count, 2);
        assert_eq!(a.warning_count(), 2);
        let r = a.report();
        assert!(r.contains("empty-mask-collective"));
        assert!(r.contains("kernel `fixture`"));
    }

    #[test]
    fn barrier_divergence_detected_from_divergent_sequences() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let s1 = site();
        let s2 = site();
        // Warps of block 0 disagree on the barrier sequence (synthesized:
        // the public BlockCtx API cannot produce this, the pass still
        // guards against it).
        a.barriers.insert(0, vec![vec![s1, s2], vec![s1]]);
        a.finish_launch();
        assert!(a.has_errors());
        assert_eq!(a.findings()[0].kind, FindKind::BarrierDivergence);
    }

    #[test]
    fn site_summaries_expose_joined_affine_forms() {
        let mut a = Analyzer::new();
        a.begin_launch();
        let loc = site();
        for w in 0..4u32 {
            // Segment-aligned base so the warp's 32 words fill one segment.
            let base = 1024 + 32 * w as i64;
            let addrs: Vec<(usize, i64)> = (0..32).map(|l| (l, base + l as i64)).collect();
            mem(
                &mut a,
                (id(0, w), 0),
                (AccessKind::Read, Space::Global),
                loc,
                &lanes(&addrs, None),
                None,
            );
        }
        a.finish_launch();
        let sites = a.site_summaries();
        assert_eq!(sites.len(), 1);
        let s = sites[0];
        let AbsVal::Affine(f) = s.addr.value().unwrap() else {
            panic!("expected affine summary");
        };
        assert_eq!((f.c0, f.lane, f.warp, f.block), (1024, 1, 32, 0));
        // Unit-stride over 32 lanes in 32-word segments: one transaction.
        assert_eq!(s.predicted_tx(), Some(1));
    }
}
