//! Warp-hazard sanitizer: a racecheck/memcheck layer for the simulator.
//!
//! Enabled via [`GpuConfig::sanitize`](crate::GpuConfig) or the
//! `MAXWARP_SANITIZE=1` environment variable, the sanitizer shadows every
//! warp-level operation the functional executor routes through
//! `WarpCtx`/`BlockCtx` and reports structured [`Diagnostic`]s instead of
//! silently executing code that would be racy or undefined on real CUDA
//! hardware. It checks:
//!
//! 1. **Shared-memory races** — conflicting same-word accesses from
//!    different warps of a block with no intervening `barrier()`
//!    (epoch-per-barrier shadow cells).
//! 2. **Global-memory races** — non-atomic conflicting accesses to the same
//!    device word from unordered agents within one launch, plus
//!    atomic/non-atomic mixing.
//! 3. **Divergence hazards** — `shfl`/`shfl_bcast`/`seg_bcast` whose source
//!    lane is outside the active mask; collectives under an empty mask.
//! 4. **Uninitialized reads** — valid-bit shadow for device and shared
//!    memory.
//! 5. **Out-of-bounds** — structured diagnostics (with block/warp/lane,
//!    index, allocation length, bank) instead of bare panics.
//!
//! Plus two warn-only performance lints per static op site: bank-conflict
//! cost > 4 and coalescing efficiency < 25%.
//!
//! The sanitizer is observational: it consumes the [`Event`] records the
//! executor emits (see [`crate::event`]), never changes kernel results and
//! never writes the trace, so a sanitized run reports byte-identical
//! `KernelStats` to an unsanitized run.

mod diag;
mod shadow;

pub use diag::{DiagKind, Diagnostic, Severity};

use crate::analyze::{AccessKind, Space};
use crate::event::{Event, EventKind, LaneAccess, MemAccess};
use crate::shared::NUM_BANKS;
use shadow::{Agent, BlockShadow, GlobalCell};
use std::collections::HashMap;
use std::panic::Location;

/// Cap on distinct diagnostics retained; further new sites are counted but
/// dropped (`suppressed`).
const MAX_DIAGS: usize = 1024;

/// Minimum sampled ops before a coalescing lint can fire for a site.
const COALESCE_MIN_OPS: u64 = 8;

/// Per-site accumulator for the coalescing lint.
#[derive(Clone, Copy, Debug)]
struct CoalesceSite {
    op: &'static str,
    ops: u64,
    /// Transactions actually issued.
    actual: u64,
    /// Minimum transactions a perfectly coalesced access pattern needs.
    ideal: u64,
    /// `(block, warp)` of the first sampled op, for attribution.
    who: (u32, u32),
}

/// The shadow-state checker. One per [`Gpu`](crate::Gpu); accumulates
/// deduplicated diagnostics across launches.
#[derive(Debug, Default)]
pub struct Sanitizer {
    /// Kernel context label (set by the host between launches).
    context: String,
    /// 1-based launch counter.
    launch: u32,
    diags: Vec<Diagnostic>,
    index: HashMap<(DiagKind, &'static Location<'static>), usize>,
    /// Global-memory shadow for the current launch, one cell per word.
    global: Vec<GlobalCell>,
    /// Shared-memory shadow of the block currently executing.
    shared: BlockShadow,
    /// Coalescing-lint accumulators for the current launch.
    coalesce: HashMap<&'static Location<'static>, CoalesceSite>,
    errors: u64,
    warnings: u64,
    /// Occurrences dropped after `MAX_DIAGS` distinct sites.
    suppressed: u64,
}

impl Sanitizer {
    /// Fresh sanitizer with no findings.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Label subsequent launches with a kernel/context name for reports.
    pub fn set_context(&mut self, name: &str) {
        self.context = name.to_string();
    }

    /// Begin a launch: reset per-launch shadow state. `words` is the device
    /// heap size in words.
    pub fn begin_launch(&mut self, words: u32) {
        self.launch += 1;
        self.global.clear();
        self.global.resize(words as usize, GlobalCell::default());
        self.coalesce.clear();
    }

    /// End a launch: flush per-site coalescing lints.
    pub fn finish_launch(&mut self) {
        let mut sites: Vec<(&'static Location<'static>, CoalesceSite)> =
            self.coalesce.drain().collect();
        sites.sort_by_key(|(loc, _)| (loc.file(), loc.line(), loc.column()));
        for (site, c) in sites {
            if c.ops < COALESCE_MIN_OPS || c.actual == 0 {
                continue;
            }
            let efficiency = c.ideal as f64 / c.actual as f64;
            if efficiency < 0.25 {
                self.record(Diagnostic {
                    severity: Severity::Warning,
                    kind: DiagKind::CoalescingLint,
                    kernel: String::new(),
                    launch: 0,
                    block: c.who.0,
                    warp: c.who.1,
                    lane: None,
                    op: c.op,
                    site,
                    message: format!(
                        "coalescing efficiency {:.0}% over {} ops ({} transactions issued, \
                         {} ideal)",
                        efficiency * 100.0,
                        c.ops,
                        c.actual,
                        c.ideal
                    ),
                    count: 1,
                });
            }
        }
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
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Human-readable report of all findings (errors first).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut ordered: Vec<&Diagnostic> = self.diags.iter().collect();
        ordered.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for d in ordered {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "sanitizer: {} error(s), {} warning(s), {} distinct site(s){}",
            self.errors,
            self.warnings,
            self.diags.len(),
            if self.suppressed > 0 {
                format!(", {} suppressed after cap", self.suppressed)
            } else {
                String::new()
            }
        );
        out
    }

    /// Record one occurrence of `d` (its `kernel`/`launch` are filled in
    /// here), folding it into an existing diagnostic of the same kind and
    /// site.
    fn record(&mut self, mut d: Diagnostic) {
        match d.severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        crate::obs::sanitizer_finding(d.severity);
        if let Some(&i) = self.index.get(&(d.kind, d.site)) {
            self.diags[i].count += 1;
            return;
        }
        if self.diags.len() >= MAX_DIAGS {
            self.suppressed += 1;
            return;
        }
        self.index.insert((d.kind, d.site), self.diags.len());
        d.kernel = self.context.clone();
        d.launch = self.launch;
        self.diags.push(d);
    }

    /// Record a finding about the op `ev` describes.
    fn hit(
        &mut self,
        severity: Severity,
        kind: DiagKind,
        ev: &Event<'_>,
        lane: Option<u32>,
        message: String,
    ) {
        self.record(Diagnostic {
            severity,
            kind,
            kernel: String::new(),
            launch: 0,
            block: ev.id.block,
            warp: ev.id.warp_in_block,
            lane,
            op: ev.op,
            site: ev.site,
            message,
            count: 1,
        });
    }

    // ---- the observer entry point -------------------------------------------

    /// Start a block (or warp task): its shared memory is fresh.
    pub(crate) fn begin_block(&mut self) {
        self.shared.cells.clear();
    }

    /// Check one warp-level operation against the shadow state.
    pub(crate) fn on_event(&mut self, ev: &Event<'_>) {
        let id = ev.id;
        match ev.kind {
            EventKind::Mem(m) => match m.space {
                Space::Global => self.global_access(ev, &m),
                Space::Shared => self.shared_access(ev, &m),
            },
            EventKind::EmptyMask => self.hit(
                Severity::Warning,
                DiagKind::EmptyMaskCollective,
                ev,
                None,
                format!("collective `{}` executed under an empty active mask", ev.op),
            ),
            EventKind::DivergentShuffle { lanes } => {
                for &(lane, src_lane) in lanes {
                    self.hit(
                        Severity::Error,
                        DiagKind::DivergentShfl,
                        ev,
                        Some(lane),
                        format!(
                            "lane {lane} shuffles from lane {src_lane}, which is outside the \
                             active mask (undefined data on hardware; simulator substitutes the \
                             default value)"
                        ),
                    );
                }
            }
            EventKind::Oob {
                space,
                lane,
                index,
                len,
                word,
            } => {
                let message = match space {
                    Space::Global => format!(
                        "illegal device address: index {index} out of bounds for allocation of \
                         {len} (block {}, warp {}, lane {lane})",
                        id.block, id.warp_in_block
                    ),
                    Space::Shared => format!(
                        "illegal shared-memory address: index {index} out of bounds for \
                         allocation of {len} (block {}, warp {}, lane {lane}, bank {})",
                        id.block,
                        id.warp_in_block,
                        word % NUM_BANKS as u32
                    ),
                };
                self.hit(
                    Severity::Error,
                    DiagKind::OutOfBounds,
                    ev,
                    Some(lane),
                    message,
                );
            }
            EventKind::Collective { .. } | EventKind::Barrier { .. } | EventKind::Issue(_) => {}
        }
    }

    /// One global-memory op: coalescing sample, then each lane against the
    /// per-word shadow in ascending lane order.
    fn global_access(&mut self, ev: &Event<'_>, m: &MemAccess<'_>) {
        if let Some((tx, distinct)) = m.coalesce {
            self.coalesce_sample(ev, m.lanes.len(), tx, distinct, m.segment_words);
        }
        let me = Agent {
            block: ev.id.block,
            warp: ev.id.warp_in_block,
            epoch: ev.epoch,
        };
        for (i, a) in m.lanes.iter().enumerate() {
            match m.access {
                AccessKind::Read => self.global_read(ev, me, a),
                AccessKind::Atomic => self.global_atomic(ev, me, a),
                AccessKind::Write => {
                    self.global_write(ev, me, a);
                    // Intra-warp collision: a lower lane already targeted
                    // this word with a different value in this instruction.
                    let earlier = &m.lanes[..i];
                    if earlier
                        .iter()
                        .any(|k| k.word == a.word && k.value != a.value)
                    {
                        self.hit(
                            Severity::Warning,
                            DiagKind::StoreCollision,
                            ev,
                            Some(a.lane),
                            format!(
                                "intra-warp store collision at index {}: lanes store different \
                                 values in one instruction (highest lane wins deterministically \
                                 here; undefined on hardware)",
                                a.word - m.base
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Non-atomic global read of `a.word`.
    fn global_read(&mut self, ev: &Event<'_>, me: Agent, a: &LaneAccess) {
        let word = a.word;
        if !a.valid {
            self.hit(
                Severity::Warning,
                DiagKind::UninitRead,
                ev,
                Some(a.lane),
                format!("read of uninitialized device word {word}"),
            );
        }
        let Some(cell) = self.global.get_mut(word as usize) else {
            return;
        };
        let writer = cell.writer;
        let atomic = cell.atomic;
        cell.reader = Some(me);
        if let Some(w) = writer.filter(|w| w.conflicts(&me)) {
            self.hit(
                Severity::Warning,
                DiagKind::ReadWriteOverlap,
                ev,
                Some(a.lane),
                format!(
                    "word {word} read while unordered store from block {} warp {} is in \
                     flight this launch",
                    w.block, w.warp
                ),
            );
        }
        if let Some(at) = atomic.filter(|at| at.conflicts(&me)) {
            self.hit(
                Severity::Warning,
                DiagKind::ReadWriteOverlap,
                ev,
                Some(a.lane),
                format!(
                    "word {word} read non-atomically while block {} warp {} updates it \
                     atomically this launch",
                    at.block, at.warp
                ),
            );
        }
    }

    /// Non-atomic global store of `a.value` to `a.word`.
    fn global_write(&mut self, ev: &Event<'_>, me: Agent, a: &LaneAccess) {
        let (word, value) = (a.word, a.value);
        let Some(cell) = self.global.get_mut(word as usize) else {
            return;
        };
        let prev_writer = cell.writer;
        let prev_value = cell.value;
        let atomic = cell.atomic;
        let reader = cell.reader;
        cell.writer = Some(me);
        cell.value = value;
        if let Some(w) = prev_writer.filter(|w| w.conflicts(&me) && prev_value != value) {
            self.hit(
                Severity::Error,
                DiagKind::GlobalRace,
                ev,
                Some(a.lane),
                format!(
                    "word {word}: unordered stores of different values ({prev_value} from \
                     block {} warp {}, {value} from block {} warp {})",
                    w.block, w.warp, me.block, me.warp
                ),
            );
        }
        if let Some(at) = atomic.filter(|at| at.conflicts(&me)) {
            self.hit(
                Severity::Error,
                DiagKind::MixedAtomic,
                ev,
                Some(a.lane),
                format!(
                    "word {word} stored non-atomically while block {} warp {} updates it \
                     atomically this launch",
                    at.block, at.warp
                ),
            );
        }
        if let Some(r) = reader.filter(|r| r.conflicts(&me)) {
            self.hit(
                Severity::Warning,
                DiagKind::ReadWriteOverlap,
                ev,
                Some(a.lane),
                format!(
                    "word {word} stored while unordered read from block {} warp {} exists \
                     this launch",
                    r.block, r.warp
                ),
            );
        }
    }

    /// Atomic update of `a.word`.
    fn global_atomic(&mut self, ev: &Event<'_>, me: Agent, a: &LaneAccess) {
        let word = a.word;
        let Some(cell) = self.global.get_mut(word as usize) else {
            return;
        };
        let writer = cell.writer;
        cell.atomic = Some(me);
        if let Some(w) = writer.filter(|w| w.conflicts(&me)) {
            self.hit(
                Severity::Error,
                DiagKind::MixedAtomic,
                ev,
                Some(a.lane),
                format!(
                    "word {word} updated atomically while unordered plain store from \
                     block {} warp {} exists this launch",
                    w.block, w.warp
                ),
            );
        }
    }

    /// One shared-memory op: bank-conflict lint, then each lane against the
    /// block's per-word shadow (valid bit, per-warp reader/writer masks of
    /// the current barrier epoch).
    fn shared_access(&mut self, ev: &Event<'_>, m: &MemAccess<'_>) {
        let id = ev.id;
        if m.bank_cost > 4 {
            self.hit(
                Severity::Warning,
                DiagKind::BankConflictLint,
                ev,
                None,
                format!(
                    "shared-memory access serialized into {} bank passes (> 4)",
                    m.bank_cost
                ),
            );
        }
        let bit = 1u32 << (id.warp_in_block % 32);
        let write = m.access != AccessKind::Read;
        for a in m.lanes {
            let word = a.word;
            let cell = self.shared.cell_mut(word, ev.epoch);
            let (valid, readers, writers) = (cell.valid, cell.readers, cell.writers);
            if write {
                cell.writers |= bit;
                cell.valid = true;
            } else {
                cell.readers |= bit;
            }
            if !write && !valid {
                self.hit(
                    Severity::Error,
                    DiagKind::UninitRead,
                    ev,
                    Some(a.lane),
                    format!("read of uninitialized shared word {word}"),
                );
            }
            if writers & !bit != 0 {
                let other = (writers & !bit).trailing_zeros();
                let message = if write {
                    format!(
                        "shared word {word}: writes by warps {} and {other} with no barrier \
                         between them (block {})",
                        id.warp_in_block, id.block
                    )
                } else {
                    format!(
                        "shared word {word}: read by warp {} races with write by warp {other} \
                         (no barrier between them, block {})",
                        id.warp_in_block, id.block
                    )
                };
                self.hit(
                    Severity::Error,
                    DiagKind::SharedRace,
                    ev,
                    Some(a.lane),
                    message,
                );
            }
            if write && readers & !bit != 0 {
                let other = (readers & !bit).trailing_zeros();
                self.hit(
                    Severity::Error,
                    DiagKind::SharedRace,
                    ev,
                    Some(a.lane),
                    format!(
                        "shared word {word}: write by warp {} races with read by warp {other} \
                         (no barrier between them, block {})",
                        id.warp_in_block, id.block
                    ),
                );
            }
        }
    }

    /// Sample one global-memory op for the per-site coalescing lint.
    /// `distinct` is the op's distinct-address footprint
    /// ([`crate::coalesce::distinct_addrs`]): a broadcast read has a
    /// footprint of one word and is already perfectly coalesced at one
    /// transaction, so the ideal is derived from the footprint, not from the
    /// active lane count.
    fn coalesce_sample(
        &mut self,
        ev: &Event<'_>,
        active: usize,
        tx: u32,
        distinct: u32,
        segment_words: u32,
    ) {
        if active == 0 {
            return;
        }
        let ideal = crate::coalesce::ideal_transactions(distinct, segment_words) as u64;
        let entry = self.coalesce.entry(ev.site).or_insert(CoalesceSite {
            op: ev.op,
            ops: 0,
            actual: 0,
            ideal: 0,
            who: (ev.id.block, ev.id.warp_in_block),
        });
        entry.ops += 1;
        entry.actual += tx as u64;
        entry.ideal += ideal;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::WarpId;

    fn id(block: u32, warp: u32) -> WarpId {
        WarpId {
            block,
            warp_in_block: warp,
            warps_per_block: 2,
            num_blocks: 4,
        }
    }

    fn san() -> Sanitizer {
        let mut s = Sanitizer::new();
        s.begin_launch(64);
        s
    }

    /// One-lane (lane 0, valid) access of `word` storing `value`.
    fn lane(word: u32, value: u32) -> [LaneAccess; 1] {
        [LaneAccess {
            lane: 0,
            word,
            value,
            valid: true,
        }]
    }

    /// Feed `s` one memory event from `who` in barrier epoch `epoch`.
    fn mem(
        s: &mut Sanitizer,
        who: (WarpId, u32),
        site: &'static Location<'static>,
        (space, access): (Space, AccessKind),
        lanes: &[LaneAccess],
    ) {
        s.on_event(&Event {
            id: who.0,
            epoch: who.1,
            op: "test",
            site,
            kind: EventKind::Mem(MemAccess {
                space,
                access,
                base: 0,
                lanes,
                coalesce: None,
                segment_words: 32,
                bank_cost: 1,
            }),
        });
    }

    const G_READ: (Space, AccessKind) = (Space::Global, AccessKind::Read);
    const G_WRITE: (Space, AccessKind) = (Space::Global, AccessKind::Write);
    const G_ATOMIC: (Space, AccessKind) = (Space::Global, AccessKind::Atomic);
    const S_READ: (Space, AccessKind) = (Space::Shared, AccessKind::Read);
    const S_WRITE: (Space, AccessKind) = (Space::Shared, AccessKind::Write);

    fn oob(s: &mut Sanitizer, who: WarpId, lane: u32, site: &'static Location<'static>) {
        s.on_event(&Event {
            id: who,
            epoch: 0,
            op: "st",
            site,
            kind: EventKind::Oob {
                space: Space::Global,
                lane,
                index: 9,
                len: 4,
                word: 9,
            },
        });
    }

    #[test]
    fn dedup_folds_repeat_occurrences() {
        let mut s = san();
        let site = Location::caller();
        oob(&mut s, id(0, 0), 3, site);
        oob(&mut s, id(0, 1), 4, site);
        assert_eq!(s.diagnostics().len(), 1);
        assert_eq!(s.diagnostics()[0].count, 2);
        assert_eq!(s.error_count(), 2);
        assert!(s.has_errors());
    }

    #[test]
    fn global_race_needs_differing_values() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, G_WRITE, &lane(5, 7));
        // Same value from another block: benign splat, no error.
        mem(&mut s, (id(1, 0), 0), site, G_WRITE, &lane(5, 7));
        assert!(!s.has_errors());
        // Different value: race.
        mem(&mut s, (id(2, 0), 0), site, G_WRITE, &lane(5, 9));
        assert!(s.has_errors());
        assert_eq!(s.diagnostics()[0].kind, DiagKind::GlobalRace);
    }

    #[test]
    fn same_block_stores_ordered_across_epochs() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, G_WRITE, &lane(5, 7));
        mem(&mut s, (id(0, 1), 1), site, G_WRITE, &lane(5, 9));
        assert!(!s.has_errors());
    }

    #[test]
    fn mixed_atomic_and_store_is_error() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, G_ATOMIC, &lane(5, 0));
        mem(&mut s, (id(1, 0), 0), site, G_WRITE, &lane(5, 1));
        assert!(s.has_errors());
        assert_eq!(s.diagnostics()[0].kind, DiagKind::MixedAtomic);
    }

    #[test]
    fn read_of_atomic_word_is_warning_only() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, G_ATOMIC, &lane(5, 0));
        mem(&mut s, (id(1, 0), 0), site, G_READ, &lane(5, 0));
        assert!(!s.has_errors());
        assert_eq!(s.warning_count(), 1);
    }

    #[test]
    fn shared_race_cross_warp_same_epoch() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, S_WRITE, &lane(3, 0));
        mem(&mut s, (id(0, 1), 0), site, S_READ, &lane(3, 0));
        assert!(s.has_errors());
        assert_eq!(s.diagnostics()[0].kind, DiagKind::SharedRace);
    }

    #[test]
    fn shared_race_suppressed_by_barrier() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, S_WRITE, &lane(3, 0));
        mem(&mut s, (id(0, 1), 1), site, S_READ, &lane(3, 0));
        assert!(!s.has_errors());
        assert_eq!(s.warning_count(), 0);
    }

    #[test]
    fn shared_shadow_is_per_block() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, S_WRITE, &lane(3, 0));
        s.begin_block();
        mem(&mut s, (id(1, 0), 0), site, S_READ, &lane(3, 0));
        assert_eq!(s.diagnostics()[0].kind, DiagKind::UninitRead);
    }

    #[test]
    fn shared_uninit_read_is_error() {
        let mut s = san();
        mem(
            &mut s,
            (id(0, 0), 0),
            Location::caller(),
            S_READ,
            &lane(7, 0),
        );
        assert!(s.has_errors());
        assert_eq!(s.diagnostics()[0].kind, DiagKind::UninitRead);
    }

    #[test]
    fn device_uninit_read_is_warning() {
        let mut s = san();
        let mut a = lane(5, 0);
        a[0].valid = false;
        mem(&mut s, (id(0, 0), 0), Location::caller(), G_READ, &a);
        assert!(!s.has_errors());
        assert_eq!(s.warning_count(), 1);
        assert_eq!(s.diagnostics()[0].kind, DiagKind::UninitRead);
    }

    #[test]
    fn begin_launch_resets_global_shadow() {
        let mut s = san();
        let site = Location::caller();
        mem(&mut s, (id(0, 0), 0), site, G_WRITE, &lane(5, 7));
        s.begin_launch(64);
        mem(&mut s, (id(1, 0), 0), site, G_WRITE, &lane(5, 9));
        assert!(!s.has_errors());
    }

    /// Sample `n` 32-lane global loads at `site` with the given coalescing
    /// outcome and 8- or 32-word segments.
    fn sample(
        s: &mut Sanitizer,
        site: &'static Location<'static>,
        n: usize,
        coalesce: (u32, u32),
        segment_words: u32,
    ) {
        let lanes = [LaneAccess {
            valid: true,
            ..LaneAccess::default()
        }; 32];
        for _ in 0..n {
            s.on_event(&Event {
                id: id(0, 0),
                epoch: 0,
                op: "ld",
                site,
                kind: EventKind::Mem(MemAccess {
                    space: Space::Global,
                    access: AccessKind::Read,
                    base: 0,
                    lanes: &lanes,
                    coalesce: Some(coalesce),
                    segment_words,
                    bank_cost: 1,
                }),
            });
        }
    }

    #[test]
    fn coalesce_lint_fires_on_bad_sites_only() {
        let mut s = san();
        let bad = Location::caller();
        // 32 distinct words spread over 32 transactions, ideal 1 →
        // efficiency ~3%.
        sample(&mut s, bad, 10, (32, 32), 32);
        // Perfectly coalesced site.
        let good = Location::caller();
        sample(&mut s, good, 10, (1, 32), 32);
        s.finish_launch();
        assert_eq!(s.warning_count(), 1);
        assert_eq!(s.diagnostics()[0].kind, DiagKind::CoalescingLint);
        assert_eq!(s.diagnostics()[0].site, bad);
    }

    #[test]
    fn coalesce_lint_needs_min_ops() {
        let mut s = san();
        sample(&mut s, Location::caller(), 1, (32, 32), 32);
        s.finish_launch();
        assert!(s.is_clean());
    }

    #[test]
    fn broadcast_read_is_not_a_coalescing_false_positive() {
        // All 32 lanes load the same word: 1 transaction, footprint 1 word.
        // The old active-lane ideal (ceil(32/8) = 4 with 8-word segments)
        // called this 400% efficient, inflating the site's aggregate and
        // masking genuinely bad ops mixed into it; footprint ideal says 1/1.
        let mut s = san();
        sample(&mut s, Location::caller(), 10, (1, 1), 8);
        s.finish_launch();
        assert!(s.is_clean());
        // A broadcast-heavy site must not absolve scattered ops: 10
        // broadcasts + 10 fully scattered ops = 10·1 + 10·32 actual vs
        // 10·1 + 10·4 ideal → 15% < 25% lints. Under the active-lane ideal
        // this site scored 10·4 + 10·4 / 330 = 24%… and a slightly smaller
        // broadcast share pushed it over the lint threshold, hiding the bad
        // ops.
        let mut s2 = san();
        let mixed = Location::caller();
        sample(&mut s2, mixed, 10, (1, 1), 8);
        sample(&mut s2, mixed, 10, (32, 32), 8);
        s2.finish_launch();
        assert_eq!(s2.warning_count(), 1);
        assert_eq!(s2.diagnostics()[0].kind, DiagKind::CoalescingLint);
    }

    #[test]
    fn report_mentions_totals() {
        let mut s = san();
        s.set_context("fixture");
        oob(&mut s, id(1, 0), 2, Location::caller());
        let r = s.report();
        assert!(r.contains("1 error(s)"));
        assert!(r.contains("kernel `fixture`"));
        assert!(r.contains("block 1 warp 0 lane 2"));
    }
}
