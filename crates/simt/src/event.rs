//! The observer seam: one event record per warp-level operation.
//!
//! `WarpCtx` and `BlockCtx` execute; the sanitizer, the static analyzer and
//! the profiler observe. Every op describes what it did as one [`Event`] and
//! hands it to the launch's [`Observers`] bundle through a single
//! `emit`; each consumer has one `on_event` entry point and reads the
//! fields it cares about. Observers never write the trace, never touch
//! device memory and never change a result, so `KernelStats` and cycles are
//! byte-identical with any combination of them on or off.
//!
//! What is deliberately *not* an observer: bounds guards (and their
//! sanitizer-on ⇒ diagnose-and-mask / sanitizer-off ⇒ launch-fault policy),
//! the instruction watchdog and chaos fault injection. Those change what
//! executes and stay in `WarpCtx`; the guard merely *reports* through the
//! seam.

use crate::analyze::{AccessKind, Analyzer, Site, Space};
use crate::lanes::DeviceWord;
use crate::mem::DevPtr;
use crate::profile::Profiler;
use crate::sanitize::Sanitizer;
use crate::shared::SharedPtr;
use crate::trace::Op;
use crate::warp::WarpId;
use std::panic::Location;

/// Where an event comes from: the `WarpCtx`/`BlockCtx` method and the kernel
/// source line that called it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpSite {
    pub op: &'static str,
    pub site: Site,
}

impl OpSite {
    /// `op` at the caller's (`#[track_caller]`-propagated) location.
    #[inline]
    #[track_caller]
    pub(crate) fn caller(op: &'static str) -> Self {
        OpSite {
            op,
            site: Location::caller(),
        }
    }
}

/// The allocation a memory op addresses, in words.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Region {
    pub space: Space,
    pub base: u32,
    pub len: u32,
}

impl<T: DeviceWord> From<DevPtr<T>> for Region {
    #[inline]
    fn from(p: DevPtr<T>) -> Self {
        Region {
            space: Space::Global,
            base: p.base(),
            len: p.len(),
        }
    }
}

impl<T: DeviceWord> From<SharedPtr<T>> for Region {
    #[inline]
    fn from(p: SharedPtr<T>) -> Self {
        Region {
            space: Space::Shared,
            base: p.base(),
            len: p.len(),
        }
    }
}

/// One lane's part of a memory op.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LaneAccess {
    pub lane: u32,
    /// Absolute word address within the space.
    pub word: u32,
    /// Stored bit pattern (writes; 0 otherwise).
    pub value: u32,
    /// Global reads: the word had been written before this op.
    pub valid: bool,
}

/// A (bounds-guarded) memory op as the observers see it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemAccess<'a> {
    pub space: Space,
    pub access: AccessKind,
    /// First word of the addressed allocation.
    pub base: u32,
    /// The accessing lanes, ascending.
    pub lanes: &'a [LaneAccess],
    /// `(transactions issued, distinct addresses)` for the op classes the
    /// coalescing lints sample (lane-wise `ld`/`st`/atomics).
    pub coalesce: Option<(u32, u32)>,
    /// Coalescing segment size in words.
    pub segment_words: u32,
    /// Bank serialization passes of a shared access (1 for global).
    pub bank_cost: u32,
}

/// What happened.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind<'a> {
    /// A memory instruction's per-lane accesses.
    Mem(MemAccess<'a>),
    /// `ballot`/`any`/`all`: active lanes and how many had the predicate set.
    Collective { active: u32, pred: u32 },
    /// A warp collective ran under an empty active mask.
    EmptyMask,
    /// A shuffle read `(reading lane, source lane)` pairs whose source is
    /// outside the active mask.
    DivergentShuffle { lanes: &'a [(u32, u32)] },
    /// A lane addressed past its allocation (the guard dropped it).
    Oob {
        space: Space,
        lane: u32,
        index: u32,
        len: u32,
        /// `base + index`, for bank attribution.
        word: u32,
    },
    /// A block-wide barrier all `warps` of the block reached.
    Barrier { warps: u32 },
    /// An instruction entered the issuing warp's trace.
    Issue(Op),
}

/// One observed operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event<'a> {
    pub id: WarpId,
    /// Barrier epoch of the issuing block at the time of the op.
    pub epoch: u32,
    pub op: &'static str,
    pub site: Site,
    pub kind: EventKind<'a>,
}

/// The observers of one launch, borrowed from the [`Gpu`](crate::Gpu), plus
/// the block-scoped barrier epoch they order accesses by. Contexts hold an
/// `Option<Observers>` that is `None` when all three are off, so the
/// unobserved path is one branch per op.
pub(crate) struct Observers<'a> {
    san: Option<&'a mut Sanitizer>,
    anl: Option<&'a mut Analyzer>,
    prof: Option<&'a mut Profiler>,
    epoch: u32,
}

impl<'a> Observers<'a> {
    /// Bundle whichever observers are on and reset their per-launch state;
    /// `None` if there are none. `words` is the device heap size.
    pub(crate) fn begin_launch(
        san: Option<&'a mut Sanitizer>,
        anl: Option<&'a mut Analyzer>,
        prof: Option<&'a mut Profiler>,
        words: u32,
    ) -> Option<Self> {
        if san.is_none() && anl.is_none() && prof.is_none() {
            return None;
        }
        let mut obs = Observers {
            san,
            anl,
            prof,
            epoch: 0,
        };
        if let Some(s) = &mut obs.san {
            s.begin_launch(words);
        }
        if let Some(a) = &mut obs.anl {
            a.begin_launch();
        }
        Some(obs)
    }

    /// End the launch `begin_launch` opened: flush per-launch lints and run
    /// the analysis passes. (The profiler closes its launch later, with the
    /// timing report.)
    pub(crate) fn finish_launch(obs: Option<Self>) {
        let Some(obs) = obs else {
            return;
        };
        if let Some(s) = obs.san {
            s.finish_launch();
        }
        if let Some(a) = obs.anl {
            a.finish_launch();
        }
    }

    /// A shorter-lived handle on the same observers, at the same epoch.
    pub(crate) fn reborrow(&mut self) -> Observers<'_> {
        Observers {
            san: self.san.as_deref_mut(),
            anl: self.anl.as_deref_mut(),
            prof: self.prof.as_deref_mut(),
            epoch: self.epoch,
        }
    }

    /// A handle for a new block (or warp task): epoch 0, fresh shared-memory
    /// shadow.
    pub(crate) fn begin_block(&mut self) -> Observers<'_> {
        let mut obs = self.reborrow();
        obs.epoch = 0;
        if let Some(s) = &mut obs.san {
            s.begin_block();
        }
        obs
    }

    /// Whether out-of-bounds lanes are diagnosed (sanitizer on) rather than
    /// failing the launch.
    pub(crate) fn sanitizing(&self) -> bool {
        self.san.is_some()
    }

    /// Hand one event to every observer that is on.
    pub(crate) fn emit(&mut self, id: WarpId, at: OpSite, kind: EventKind<'_>) {
        let ev = Event {
            id,
            epoch: self.epoch,
            op: at.op,
            site: at.site,
            kind,
        };
        if let Some(s) = &mut self.san {
            s.on_event(&ev);
        }
        if let Some(a) = &mut self.anl {
            a.on_event(&ev);
        }
        if let Some(p) = &mut self.prof {
            p.on_event(&ev);
        }
    }

    /// A block-wide barrier: one `Bar` issued per warp of `block`, the
    /// rendezvous itself, and the start of the next epoch.
    pub(crate) fn barrier(&mut self, block: WarpId, at: OpSite) {
        for w in 0..block.warps_per_block {
            let id = WarpId {
                warp_in_block: w,
                ..block
            };
            self.emit(id, at, EventKind::Issue(Op::Bar));
        }
        self.emit(
            block,
            at,
            EventKind::Barrier {
                warps: block.warps_per_block,
            },
        );
        self.epoch += 1;
    }
}
