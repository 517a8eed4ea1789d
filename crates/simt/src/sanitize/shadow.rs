//! Shadow state backing the hazard checks.
//!
//! Two shadow structures mirror the two memory spaces:
//!
//! * **Global memory** — one [`GlobalCell`] per device word per launch,
//!   remembering the last unordered writer, atomic updater, and reader as an
//!   [`Agent`]. Agents from different blocks are never ordered within a
//!   launch; agents from different warps of the same block are ordered only
//!   across a barrier (epoch).
//! * **Shared memory** — a per-block [`BlockShadow`] of [`SharedCell`]s with
//!   per-warp reader/writer bitmasks, reset at every barrier: events carry
//!   the block's barrier epoch and cells lazily renormalize on the first
//!   touch in a new one. A conflicting access from a *different* warp in the
//!   *same* epoch is a race.
//!
//! Same-warp accesses are never racy: warps execute in lockstep in this
//! simulator (and warp-synchronous programming relies on exactly that), so
//! intra-warp ordering is by construction. That is also the model's known
//! false-negative surface — see DESIGN.md "Hazard semantics".

/// Who performed a memory access, at what point in barrier-ordered time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Agent {
    /// Block index (task index for warp-task launches).
    pub block: u32,
    /// Warp within the block.
    pub warp: u32,
    /// Barrier epoch within the block at the time of access.
    pub epoch: u32,
}

impl Agent {
    /// True if `self` and `other` are unordered — i.e. a conflicting access
    /// pair between them is a race.
    ///
    /// Different blocks are never ordered within a launch. Within a block,
    /// different warps are unordered unless a barrier separates them
    /// (different epochs). The same warp is always ordered with itself.
    pub fn conflicts(&self, other: &Agent) -> bool {
        if self.block != other.block {
            return true;
        }
        self.warp != other.warp && self.epoch == other.epoch
    }
}

/// Shadow state of one global-memory word for the current launch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GlobalCell {
    /// Last non-atomic writer and the value it stored.
    pub writer: Option<Agent>,
    /// Value stored by `writer` (same-value racy stores are benign).
    pub value: u32,
    /// Last atomic updater.
    pub atomic: Option<Agent>,
    /// Last non-atomic reader.
    pub reader: Option<Agent>,
}

/// Shadow state of one shared-memory word within a block.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SharedCell {
    /// Epoch the reader/writer masks belong to (lazily renormalized).
    pub epoch: u32,
    /// Bitmask of warps that read this word in `epoch`.
    pub readers: u32,
    /// Bitmask of warps that wrote this word in `epoch`.
    pub writers: u32,
    /// Word has been written at least once since block start.
    pub valid: bool,
}

/// Per-block shared-memory shadow. Cells from an earlier barrier epoch
/// renormalize (clear access masks, keep the valid bit) on next touch.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockShadow {
    pub(crate) cells: Vec<SharedCell>,
}

impl BlockShadow {
    /// Cell for `word`, grown on demand and renormalized to `epoch`, the
    /// accessing block's current barrier epoch.
    pub(crate) fn cell_mut(&mut self, word: u32, epoch: u32) -> &mut SharedCell {
        let idx = word as usize;
        if idx >= self.cells.len() {
            self.cells.resize(idx + 1, SharedCell::default());
        }
        let cell = &mut self.cells[idx];
        if cell.epoch != epoch {
            cell.epoch = epoch;
            cell.readers = 0;
            cell.writers = 0;
        }
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_blocks_always_conflict() {
        let a = Agent {
            block: 0,
            warp: 0,
            epoch: 0,
        };
        let b = Agent {
            block: 1,
            warp: 0,
            epoch: 5,
        };
        assert!(a.conflicts(&b));
        assert!(b.conflicts(&a));
    }

    #[test]
    fn same_block_warps_conflict_only_in_same_epoch() {
        let a = Agent {
            block: 2,
            warp: 0,
            epoch: 3,
        };
        let same_epoch = Agent {
            block: 2,
            warp: 1,
            epoch: 3,
        };
        let later_epoch = Agent {
            block: 2,
            warp: 1,
            epoch: 4,
        };
        assert!(a.conflicts(&same_epoch));
        assert!(!a.conflicts(&later_epoch));
    }

    #[test]
    fn same_warp_never_conflicts() {
        let a = Agent {
            block: 2,
            warp: 7,
            epoch: 3,
        };
        assert!(!a.conflicts(&a));
    }

    #[test]
    fn barrier_clears_access_masks_but_keeps_valid() {
        let mut shadow = BlockShadow::default();
        let c = shadow.cell_mut(10, 0);
        c.readers |= 1;
        c.writers |= 2;
        c.valid = true;
        let c = shadow.cell_mut(10, 1);
        assert_eq!(c.readers, 0);
        assert_eq!(c.writers, 0);
        assert!(c.valid);
    }
}
