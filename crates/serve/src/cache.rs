//! The result cache.
//!
//! Keyed by everything that influences a response byte-for-byte: graph
//! content digest, query digest (algo + params), *resolved* method spec, and
//! a fingerprint of the simulated device. Because the scheduler executes
//! every request on a fresh `Gpu` whose memory image is cloned from the
//! graph's device template, a cache hit really is byte-identical to the cold
//! run it replaced — the same `KernelStats`, the same payload — so hits can
//! be replayed without re-simulating.
//!
//! Eviction is LRU over a monotonic touch tick. Hit/miss/eviction counters
//! feed the server's JSON stats export.

use crate::json::{self, Value};
use crate::request::ResultData;
use maxwarp_obs::Counter;
use maxwarp_simt::{GpuConfig, KernelStats};
use std::collections::HashMap;

/// Full identity of a cacheable response.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Graph content digest ([`maxwarp_graph::csr_digest`]).
    pub graph: u64,
    /// Query digest: algorithm plus every parameter.
    pub query: u64,
    /// Resolved method spec (`Method::spec()`), never a wildcard.
    pub method: String,
    /// Device fingerprint ([`gpu_fingerprint`]).
    pub device: u64,
}

/// Fingerprint of the parts of a [`GpuConfig`] that can change results or
/// cycle counts.
///
/// Included: every functional/timing parameter and the fault-injection plan
/// (faults change payloads and stats). Excluded: `sanitize` and `profile`
/// (purely observational — the simt crate asserts byte-identical stats with
/// them on) and the watchdog (it only decides *whether* a run completes;
/// failed runs are never cached and hits consume no budget).
pub fn gpu_fingerprint(cfg: &GpuConfig) -> u64 {
    let mut h = maxwarp_graph::Fnv64::new();
    h.str(&cfg.name);
    for v in [
        cfg.num_sms,
        cfg.max_warps_per_sm,
        cfg.max_blocks_per_sm,
        cfg.max_threads_per_block,
        cfg.shared_words_per_sm,
        cfg.segment_bytes,
        cfg.l2_lines,
        cfg.l2_ways,
        cfg.issue_width,
    ] {
        h.u32(v);
    }
    for v in [
        cfg.clock_hz,
        cfg.alu_latency,
        cfg.mem_latency,
        cfg.shared_latency,
        cfg.dram_cycles_per_transaction,
        cfg.atomic_replay_cycles,
        cfg.l2_hit_latency,
    ] {
        h.u64(v);
    }
    match &cfg.faults {
        None => {
            h.byte(0);
        }
        Some(f) => {
            h.byte(1);
            h.u64(f.seed);
            h.byte(f.bit_flips as u8);
            h.byte(f.dropped_atomics as u8);
            h.byte(f.sched_perturb as u8);
        }
    }
    h.finish()
}

/// Device-fingerprint extension for sharded servers: folds the partition
/// spec and the interconnect model into the single-device fingerprint.
///
/// Payloads are byte-identical between the sharded and single-device paths
/// (the `maxwarp-shard` identity contract), but stats and cycle accounting
/// are not — so sharded and single-device results must never share a cache
/// entry, on disk (warmup snapshots) or in memory.
pub fn sharded_fingerprint(
    base: u64,
    shards: u32,
    cut: &str,
    link: &maxwarp_shard::LinkConfig,
) -> u64 {
    let mut h = maxwarp_graph::Fnv64::new();
    h.u64(base);
    h.str("shard");
    h.u32(shards);
    h.str(cut);
    h.u64(link.bytes_per_cycle);
    h.u64(link.latency_cycles);
    h.u32(link.devices_per_link);
    h.finish()
}

/// A cached response body.
#[derive(Clone, Debug)]
pub struct CachedResult {
    pub data: ResultData,
    pub stats: KernelStats,
    pub iterations: u32,
    /// Resolved method spec the result was produced with.
    pub method: String,
}

struct Entry {
    value: CachedResult,
    bytes: usize,
    touched: u64,
}

/// Running counters, exported in the server's stats JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Current number of cached entries.
    pub entries: u64,
    /// Approximate payload bytes currently held.
    pub bytes: u64,
}

impl CacheStats {
    /// Hits / (hits + misses); 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("hits", json::n(self.hits as f64)),
            ("misses", json::n(self.misses as f64)),
            ("insertions", json::n(self.insertions as f64)),
            ("evictions", json::n(self.evictions as f64)),
            ("entries", json::n(self.entries as f64)),
            ("approx_bytes", json::n(self.bytes as f64)),
            ("hit_rate", json::n(self.hit_rate())),
        ])
    }
}

/// LRU map from [`CacheKey`] to [`CachedResult`], bounded by entry count.
///
/// The hit/miss/insertion/eviction counters are [`maxwarp_obs::Counter`]
/// handles: the server wires them to its metrics registry
/// ([`ResultCache::with_counters`]) so the cache's numbers are registry
/// series, not a parallel set of fields.
pub struct ResultCache {
    map: HashMap<CacheKey, Entry>,
    capacity: usize,
    tick: u64,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries, counting on detached
    /// (unexported) counters. Capacity 0 disables caching (every lookup
    /// misses, inserts are dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache::with_counters(
            capacity,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// A cache whose counters are registry handles (the server passes its
    /// `serve_cache_*_total` series).
    pub fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        insertions: Counter,
        evictions: Counter,
    ) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits,
            misses,
            insertions,
            evictions,
        }
    }

    /// Look `key` up, refreshing its LRU position on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedResult> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.touched = self.tick;
                self.hits.inc();
                Some(e.value.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a result, evicting the least-recently-touched entry if full.
    pub fn insert(&mut self, key: CacheKey, value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions.inc();
            }
        }
        let bytes = value.data.approx_bytes();
        self.insertions.inc();
        self.map.insert(
            key,
            Entry {
                value,
                bytes,
                touched: self.tick,
            },
        );
    }

    /// Serialize every entry into the cache-warmup snapshot format: a
    /// versioned, deterministic (key-sorted) binary image. The caller
    /// frames it through `maxwarp_graph::atomic`, which adds the checksum
    /// and atomic publish — this layer only defines the payload.
    pub fn export_snapshot(&self) -> Vec<u8> {
        let mut keys: Vec<&CacheKey> = self.map.keys().collect();
        keys.sort_by(|a, b| {
            (a.graph, a.query, &a.method, a.device).cmp(&(b.graph, b.query, &b.method, b.device))
        });
        let mut w = Vec::new();
        put_u32(&mut w, SNAPSHOT_VERSION);
        put_u64(&mut w, keys.len() as u64);
        for k in keys {
            let e = &self.map[k];
            put_u64(&mut w, k.graph);
            put_u64(&mut w, k.query);
            put_u64(&mut w, k.device);
            put_str(&mut w, &k.method);
            put_u32(&mut w, e.value.iterations);
            put_str(&mut w, &e.value.method);
            put_stats(&mut w, &e.value.stats);
            put_data(&mut w, &e.value.data);
        }
        w
    }

    /// Load entries from a snapshot produced by
    /// [`export_snapshot`](ResultCache::export_snapshot). Returns the number
    /// of entries imported. A snapshot from an unknown version (or with
    /// trailing garbage — the atomic layer already rules out corruption)
    /// imports nothing: warmup is an optimization, never load-bearing.
    pub fn import_snapshot(&mut self, bytes: &[u8]) -> usize {
        let mut r = Reader { buf: bytes, at: 0 };
        let Some(version) = r.u32() else { return 0 };
        if version != SNAPSHOT_VERSION {
            return 0;
        }
        let Some(count) = r.u64() else { return 0 };
        let mut imported = 0;
        for _ in 0..count {
            let Some(entry) = read_entry(&mut r) else {
                break;
            };
            let (key, value) = entry;
            self.insert(key, value);
            imported += 1;
        }
        imported
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self.map.len() as u64,
            bytes: self.map.values().map(|e| e.bytes as u64).sum(),
        }
    }
}

/// Warmup-snapshot payload version, bumped on any layout change and
/// whenever the cost model moves (a hit must equal a recompute, cycles
/// included); old snapshots are then ignored and the cache warms
/// organically.
const SNAPSHOT_VERSION: u32 = 3;

fn put_u8(w: &mut Vec<u8>, v: u8) {
    w.push(v);
}
fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}
fn put_str(w: &mut Vec<u8>, s: &str) {
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

fn put_stats(w: &mut Vec<u8>, s: &KernelStats) {
    // Field-by-field (not a memcpy) so a struct change breaks the build
    // here instead of silently corrupting snapshots.
    for v in [
        s.cycles,
        s.instructions,
        s.alu_instructions,
        s.mem_instructions,
        s.atomic_instructions,
        s.shared_instructions,
        s.barriers,
        s.mem_transactions,
        s.cached_load_instructions,
        s.cache_hit_segments,
        s.cache_miss_segments,
        s.atomic_replays,
        s.shared_replay_passes,
        s.active_lane_sum,
        s.warps,
        s.blocks,
    ] {
        put_u64(w, v);
    }
    put_u32(w, s.per_warp_instructions.len() as u32);
    for &v in &s.per_warp_instructions {
        put_u32(w, v);
    }
}

fn put_data(w: &mut Vec<u8>, d: &ResultData) {
    match d {
        ResultData::U32s(v) => {
            put_u8(w, 0);
            put_u64(w, v.len() as u64);
            for &x in v {
                put_u32(w, x);
            }
        }
        ResultData::F32s(v) => {
            put_u8(w, 1);
            put_u64(w, v.len() as u64);
            for &x in v {
                put_u32(w, x.to_bits());
            }
        }
        ResultData::U32Rows(rows) => {
            put_u8(w, 2);
            put_u64(w, rows.len() as u64);
            for r in rows {
                put_u64(w, r.len() as u64);
                for &x in r {
                    put_u32(w, x);
                }
            }
        }
        ResultData::Count(c) => {
            put_u8(w, 3);
            put_u64(w, *c);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Some(u64::from_le_bytes(a))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        // An implausible length means a layout drift, not a real string.
        if len > 1 << 20 {
            return None;
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).ok()
    }
    /// Bounded element count: payloads are result vectors over graphs the
    /// process could actually hold, never multi-billion-entry claims.
    fn count(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = self.u64()? as usize;
        if n.checked_mul(elem_bytes)? > self.buf.len() {
            return None;
        }
        Some(n)
    }
}

fn read_stats(r: &mut Reader) -> Option<KernelStats> {
    let mut s = KernelStats {
        cycles: r.u64()?,
        instructions: r.u64()?,
        alu_instructions: r.u64()?,
        mem_instructions: r.u64()?,
        atomic_instructions: r.u64()?,
        shared_instructions: r.u64()?,
        barriers: r.u64()?,
        mem_transactions: r.u64()?,
        cached_load_instructions: r.u64()?,
        cache_hit_segments: r.u64()?,
        cache_miss_segments: r.u64()?,
        atomic_replays: r.u64()?,
        shared_replay_passes: r.u64()?,
        active_lane_sum: r.u64()?,
        warps: r.u64()?,
        blocks: r.u64()?,
        per_warp_instructions: Vec::new(),
    };
    let n = r.u32()? as usize;
    if n * 4 > r.buf.len() {
        return None;
    }
    let mut per_warp = Vec::with_capacity(n);
    for _ in 0..n {
        per_warp.push(r.u32()?);
    }
    s.per_warp_instructions = per_warp;
    Some(s)
}

fn read_data(r: &mut Reader) -> Option<ResultData> {
    match r.u8()? {
        0 => {
            let n = r.count(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Some(ResultData::U32s(v))
        }
        1 => {
            let n = r.count(4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(f32::from_bits(r.u32()?));
            }
            Some(ResultData::F32s(v))
        }
        2 => {
            let rows_n = r.count(8)?;
            let mut rows = Vec::with_capacity(rows_n);
            for _ in 0..rows_n {
                let n = r.count(4)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.u32()?);
                }
                rows.push(v);
            }
            Some(ResultData::U32Rows(rows))
        }
        3 => Some(ResultData::Count(r.u64()?)),
        _ => None,
    }
}

fn read_entry(r: &mut Reader) -> Option<(CacheKey, CachedResult)> {
    let key = CacheKey {
        graph: r.u64()?,
        query: r.u64()?,
        device: r.u64()?,
        method: r.str()?,
    };
    let iterations = r.u32()?;
    let method = r.str()?;
    let stats = read_stats(r)?;
    let data = read_data(r)?;
    Some((
        key,
        CachedResult {
            data,
            stats,
            iterations,
            method,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: u64) -> CacheKey {
        CacheKey {
            graph: 1,
            query: q,
            method: "vw8".into(),
            device: 2,
        }
    }

    fn result(iter: u32) -> CachedResult {
        CachedResult {
            data: ResultData::Count(iter as u64),
            stats: KernelStats::default(),
            iterations: iter,
            method: "vw8".into(),
        }
    }

    #[test]
    fn hit_returns_inserted_value_and_counts() {
        let mut c = ResultCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), result(7));
        let hit = c.get(&key(1)).unwrap();
        assert_eq!(hit.iterations, 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(key(1), result(1));
        c.insert(key(2), result(2));
        c.get(&key(1)); // 2 is now LRU
        c.insert(key(3), result(3));
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn snapshot_round_trips_every_payload_shape() {
        let mut c = ResultCache::new(16);
        let shapes = [
            ResultData::U32s(vec![0, 7, u32::MAX]),
            ResultData::F32s(vec![0.5, -1.25, f32::NAN]),
            ResultData::U32Rows(vec![vec![1, 2], vec![], vec![3]]),
            ResultData::Count(99),
        ];
        for (i, data) in shapes.iter().enumerate() {
            let stats = KernelStats {
                cycles: 1000 + i as u64,
                per_warp_instructions: vec![i as u32; 3],
                ..KernelStats::default()
            };
            c.insert(
                key(i as u64),
                CachedResult {
                    data: data.clone(),
                    stats,
                    iterations: i as u32,
                    method: format!("vw{}", 1 << i),
                },
            );
        }
        let snap = c.export_snapshot();
        // Deterministic bytes for the same content.
        assert_eq!(snap, c.export_snapshot());

        let mut warm = ResultCache::new(16);
        assert_eq!(warm.import_snapshot(&snap), shapes.len());
        for (i, data) in shapes.iter().enumerate() {
            let hit = warm.get(&key(i as u64)).unwrap();
            match (&hit.data, data) {
                (ResultData::F32s(a), ResultData::F32s(b)) => {
                    // Bit-exact, including the NaN.
                    let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                    let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(ab, bb);
                }
                (got, want) => assert_eq!(got, want),
            }
            assert_eq!(hit.iterations, i as u32);
            assert_eq!(hit.stats.cycles, 1000 + i as u64);
            assert_eq!(hit.stats.per_warp_instructions, vec![i as u32; 3]);
        }

        // Unknown version or truncation imports nothing/partially, never
        // panics.
        let mut bad = snap.clone();
        bad[0] ^= 0xff;
        assert_eq!(ResultCache::new(16).import_snapshot(&bad), 0);
        for cut in [0, 3, snap.len() / 2] {
            let mut partial = ResultCache::new(16);
            let n = partial.import_snapshot(&snap[..cut]);
            assert!(n <= shapes.len());
        }
    }

    #[test]
    fn a_version_1_snapshot_imports_nothing() {
        // Version 1 snapshots carry cycles of the old static launch
        // geometry, and version 2 sharded entries carry the cycles of
        // supersteps that swept ghost rows; a recompute produces neither.
        let mut c = ResultCache::new(4);
        c.insert(key(1), result(1));
        let mut snap = c.export_snapshot();
        for old in [1u32, 2] {
            snap[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(ResultCache::new(4).import_snapshot(&snap), 0);
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(key(1), result(1));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn sharded_fingerprint_separates_every_spec_dimension() {
        let base = gpu_fingerprint(&GpuConfig::tiny_test());
        let link = maxwarp_shard::LinkConfig::default();
        let f4 = sharded_fingerprint(base, 4, "block", &link);
        assert_ne!(f4, base, "sharded never collides with single-device");
        assert_ne!(f4, sharded_fingerprint(base, 2, "block", &link));
        assert_ne!(f4, sharded_fingerprint(base, 4, "degree", &link));
        let mut slow = link;
        slow.bytes_per_cycle = 1;
        assert_ne!(f4, sharded_fingerprint(base, 4, "block", &slow));
        assert_eq!(f4, sharded_fingerprint(base, 4, "block", &link));
    }

    #[test]
    fn fingerprint_separates_timing_and_faults_but_not_observers() {
        let base = GpuConfig::fermi_c2050();
        let f0 = gpu_fingerprint(&base);

        let mut observed = base.clone();
        observed.sanitize = true;
        observed.profile = true;
        observed.watchdog.max_cycles = Some(1);
        assert_eq!(
            gpu_fingerprint(&observed),
            f0,
            "observers and watchdog budgets don't change results"
        );

        let mut slower = base.clone();
        slower.mem_latency += 1;
        assert_ne!(gpu_fingerprint(&slower), f0);

        let mut faulty = base.clone();
        faulty.faults = Some(maxwarp_simt::FaultConfig::all(42));
        assert_ne!(gpu_fingerprint(&faulty), f0);

        assert_ne!(gpu_fingerprint(&GpuConfig::gtx280()), f0);
    }
}
