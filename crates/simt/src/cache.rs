//! Read-only cache model (texture / L2).
//!
//! Paper-era CUDA graph kernels bound the CSR arrays to *texture memory*
//! to route scattered reads through a cache; Fermi added a real L2. This
//! module models a device-wide set-associative read-only cache with LRU
//! replacement at coalescing-segment granularity. Kernels opt in per load
//! via [`WarpCtx::ld_cached`](crate::warp::WarpCtx::ld_cached); hits skip
//! the DRAM channel and pay `l2_hit_latency` instead of `mem_latency`.
//!
//! The cache is cold at each kernel launch and is probed in functional
//! execution order — a deterministic approximation of the parallel
//! interleaving (documented in DESIGN.md).

/// A set-associative read-only cache over 128-byte segments.
#[derive(Clone, Debug)]
pub struct CacheModel {
    /// `tags[s * ways + w]` = tag of way `w` of set `s` (`u64::MAX` =
    /// invalid). One flat allocation: a launch builds a cold cache, so
    /// construction is on every launch's path.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    n_sets: usize,
    ways: usize,
    /// Segment-granularity shift (log2 of segment bytes).
    seg_shift: u32,
    hits: u64,
    misses: u64,
}

impl CacheModel {
    /// Build a cache of `lines` total lines (rounded down to a power-of-two
    /// set count), `ways`-associative, for segments of `segment_bytes`.
    /// `lines = 0` produces a disabled cache where every probe misses.
    pub fn new(lines: u32, ways: u32, segment_bytes: u32) -> CacheModel {
        let ways = ways.max(1) as usize;
        let n_sets = if lines == 0 {
            0
        } else {
            ((lines as usize / ways).max(1)).next_power_of_two()
        };
        CacheModel {
            tags: vec![u64::MAX; n_sets * ways],
            stamps: vec![0; n_sets * ways],
            clock: 0,
            n_sets,
            ways,
            seg_shift: segment_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// True if the cache holds no lines (always misses).
    pub fn is_disabled(&self) -> bool {
        self.n_sets == 0
    }

    /// Probe the segment containing `byte_addr`; inserts on miss. Returns
    /// true on hit.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        if self.n_sets == 0 {
            self.misses += 1;
            return false;
        }
        let seg = byte_addr >> self.seg_shift;
        let set = (seg as usize) & (self.n_sets - 1);
        self.clock += 1;
        let ways = set * self.ways..(set + 1) * self.ways;
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways];
        for w in 0..self.ways {
            if tags[w] == seg {
                stamps[w] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU way.
        let victim = (0..self.ways).min_by_key(|&w| stamps[w]).unwrap_or(0);
        tags[victim] = seg;
        stamps[victim] = self.clock;
        self.misses += 1;
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 if never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = CacheModel::new(0, 8, 128);
        assert!(c.is_disabled());
        assert!(!c.access(0));
        assert!(!c.access(0));
        assert_eq!(c.hit_rate(), 0.0);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = CacheModel::new(64, 8, 128);
        assert!(!c.access(4096));
        assert!(c.access(4096));
        assert!(c.access(4096 + 64)); // same 128B segment
        assert!(!c.access(4096 + 128)); // next segment
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set x 2 ways: segments A, B fill it; C evicts A.
        let mut c = CacheModel::new(2, 2, 128);
        assert_eq!(c.n_sets, 1);
        assert!(!c.access(0)); // A
        assert!(!c.access(128)); // B
        assert!(c.access(0)); // A hit (refreshes A)
        assert!(!c.access(256)); // C evicts B (LRU)
        assert!(c.access(0)); // A still resident
        assert!(!c.access(128)); // B gone
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits is all hits after warmup; one that
        // doesn't fit thrashes.
        let mut small = CacheModel::new(64, 8, 128);
        for _round in 0..4 {
            for seg in 0..32u64 {
                small.access(seg * 128);
            }
        }
        assert_eq!(small.misses(), 32, "fits: only cold misses");

        let mut thrash = CacheModel::new(16, 1, 128); // direct-mapped, 16 lines
        for _round in 0..4 {
            for seg in 0..32u64 {
                thrash.access(seg * 128);
            }
        }
        assert_eq!(
            thrash.hits(),
            0,
            "32-segment sweep over 16 direct-mapped lines"
        );
    }

    #[test]
    fn hit_rate_math() {
        let mut c = CacheModel::new(64, 8, 128);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
