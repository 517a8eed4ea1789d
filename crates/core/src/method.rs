//! Method selection: which kernel family and which of the paper's
//! techniques to apply.

use crate::vwarp::VirtualWarp;
use maxwarp_simt::TaskSchedule;

/// Options of the virtual warp-centric method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpCentricOpts {
    /// Virtual warp size K.
    pub vw: VirtualWarp,
    /// Use dynamic workload distribution (warps fetch vertex chunks from an
    /// atomic counter) instead of static partitioning.
    pub dynamic: bool,
    /// Defer vertices with degree ≥ this threshold to a global outlier
    /// queue processed by whole blocks in a second kernel.
    pub defer_threshold: Option<u32>,
}

impl WarpCentricOpts {
    /// Plain virtual warp-centric execution with static partitioning.
    pub fn plain(vw: VirtualWarp) -> Self {
        WarpCentricOpts {
            vw,
            dynamic: false,
            defer_threshold: None,
        }
    }

    /// Enable dynamic workload distribution.
    pub fn with_dynamic(mut self) -> Self {
        self.dynamic = true;
        self
    }

    /// Enable outlier deferral at the given degree threshold.
    pub fn with_defer(mut self, threshold: u32) -> Self {
        self.defer_threshold = Some(threshold);
        self
    }

    pub(crate) fn schedule(&self) -> TaskSchedule {
        if self.dynamic {
            TaskSchedule::Dynamic
        } else {
            TaskSchedule::StaticBlocked
        }
    }
}

/// Which implementation runs an algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Thread-per-vertex — the conventional CUDA graph kernel the paper
    /// uses as its GPU baseline.
    Baseline,
    /// The paper's virtual warp-centric method.
    WarpCentric(WarpCentricOpts),
}

impl Method {
    /// Warp-centric with the given K and no extra techniques.
    pub fn warp(k: u32) -> Method {
        Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(k)))
    }

    /// Unambiguous round-trippable form: like [`label`](Method::label) but
    /// deferral carries its threshold (`vw8+defer:512`). This is what the
    /// tuning table persists and what `MAXWARP_METHOD` accepts.
    pub fn spec(&self) -> String {
        match self {
            Method::Baseline => "baseline".to_string(),
            Method::WarpCentric(o) => {
                let mut s = o.vw.to_string();
                if o.dynamic {
                    s.push_str("+dyn");
                }
                if let Some(t) = o.defer_threshold {
                    s.push_str(&format!("+defer:{t}"));
                }
                s
            }
        }
    }

    /// Parse a method spec: `baseline`, `vwK`, with optional `+dyn` and
    /// `+defer:N` (or bare `+defer`, threshold 64) suffixes in any order.
    /// Accepts everything [`spec`](Method::spec) emits plus the
    /// threshold-less [`label`](Method::label) form.
    pub fn parse(s: &str) -> Option<Method> {
        let s = s.trim();
        if s == "baseline" {
            return Some(Method::Baseline);
        }
        let mut parts = s.split('+');
        let head = parts.next()?;
        let k: u32 = head.strip_prefix("vw")?.parse().ok()?;
        if !(k.is_power_of_two() && k <= 32) {
            return None;
        }
        let mut opts = WarpCentricOpts::plain(VirtualWarp::new(k));
        for p in parts {
            if p == "dyn" {
                opts.dynamic = true;
            } else if p == "defer" {
                opts.defer_threshold = Some(64);
            } else if let Some(t) = p.strip_prefix("defer:") {
                opts.defer_threshold = Some(t.parse().ok()?);
            } else {
                return None;
            }
        }
        Some(Method::WarpCentric(opts))
    }

    /// Short label for tables ("baseline", "vw8", "vw32+dyn+defer", ...):
    /// the [`spec`](Method::spec) without the deferral threshold.
    pub fn label(&self) -> String {
        let mut s = self.spec();
        s.truncate(s.find(':').unwrap_or(s.len()));
        s
    }
}

/// The canonical method-candidate table. One definition serves every
/// consumer that used to hand-roll its own list: the figure/ablation
/// experiments and the serving layer's online autotuner all sweep the same
/// candidates, so "best method" means the same thing everywhere.
pub mod table {
    use super::*;

    /// The full candidate set the autotuner probes on first sight of a
    /// `(graph, algorithm)` pair: the GPU baseline, the paper's virtual-warp
    /// sizes, plus its two refinements (outlier deferral at `defer_threshold`
    /// and dynamic workload distribution).
    pub fn candidates(defer_threshold: u32) -> Vec<Method> {
        vec![
            Method::Baseline,
            Method::warp(4),
            Method::warp(8),
            Method::warp(16),
            Method::warp(32),
            Method::WarpCentric(
                WarpCentricOpts::plain(VirtualWarp::new(8)).with_defer(defer_threshold),
            ),
            Method::WarpCentric(WarpCentricOpts::plain(VirtualWarp::new(32)).with_dynamic()),
        ]
    }

    /// The Fig. 3 sweep: baseline plus every legal virtual warp size. The
    /// fig3 experiment and the fig3-vs-autotuner acceptance check both use
    /// exactly this list.
    pub fn k_sweep() -> Vec<Method> {
        let mut v = vec![Method::Baseline];
        v.extend(VirtualWarp::ALL.iter().map(|vw| Method::warp(vw.k())));
        v
    }

    /// The three-way comparison used by the per-algorithm tables (F6, A5):
    /// baseline vs a mid K vs the full-warp K.
    pub fn comparison_trio() -> [(&'static str, Method); 3] {
        [
            ("baseline", Method::Baseline),
            ("vw8", Method::warp(8)),
            ("vw32", Method::warp(32)),
        ]
    }

    /// The Fig. 4 technique ladder at one K: static partitioning, then each
    /// refinement alone, then both together.
    pub fn technique_variants(
        vw: VirtualWarp,
        defer_threshold: u32,
    ) -> [(&'static str, Method); 4] {
        [
            ("static", Method::WarpCentric(WarpCentricOpts::plain(vw))),
            (
                "+dynamic",
                Method::WarpCentric(WarpCentricOpts::plain(vw).with_dynamic()),
            ),
            (
                "+defer",
                Method::WarpCentric(WarpCentricOpts::plain(vw).with_defer(defer_threshold)),
            ),
            (
                "+both",
                Method::WarpCentric(
                    WarpCentricOpts::plain(vw)
                        .with_dynamic()
                        .with_defer(defer_threshold),
                ),
            ),
        ]
    }
}

/// Execution geometry shared by all drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Threads per block (multiple of 32).
    pub block_threads: u32,
    /// Vertices per work chunk in warp-task mode (static chunks and
    /// dynamic fetches use the same granularity).
    pub chunk_vertices: u32,
    /// Route the read-only CSR arrays (row offsets, column indices)
    /// through the device's read-only cache — the texture-binding trick of
    /// paper-era kernels. Honored by the BFS kernels (ablation A4).
    pub cached_graph_loads: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            block_threads: 256,
            // Small chunks give the dynamic distributor real granularity to
            // balance; each chunk pays one atomic fetch in dynamic mode.
            chunk_vertices: 16,
            cached_graph_loads: false,
        }
    }
}

impl ExecConfig {
    /// Resident grid size that fills the device for persistent warp-task
    /// kernels.
    pub fn resident_grid(&self, cfg: &maxwarp_simt::GpuConfig) -> u32 {
        (cfg.num_sms * cfg.blocks_per_sm(self.block_threads, 0)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Method::Baseline.label(), "baseline");
        assert_eq!(Method::warp(8).label(), "vw8");
        let full = Method::WarpCentric(
            WarpCentricOpts::plain(VirtualWarp::new(32))
                .with_dynamic()
                .with_defer(1024),
        );
        assert_eq!(full.label(), "vw32+dyn+defer");
    }

    #[test]
    fn schedule_mapping() {
        assert_eq!(
            WarpCentricOpts::plain(VirtualWarp::new(4)).schedule(),
            TaskSchedule::StaticBlocked
        );
        assert_eq!(
            WarpCentricOpts::plain(VirtualWarp::new(4))
                .with_dynamic()
                .schedule(),
            TaskSchedule::Dynamic
        );
    }

    #[test]
    fn spec_parse_round_trips() {
        let t = 512;
        for m in table::candidates(t).into_iter().chain(table::k_sweep()) {
            assert_eq!(Method::parse(&m.spec()), Some(m), "spec {}", m.spec());
        }
        for (_, m) in table::technique_variants(VirtualWarp::new(8), 100) {
            assert_eq!(Method::parse(&m.spec()), Some(m));
        }
    }

    #[test]
    fn parse_accepts_label_forms_and_rejects_junk() {
        assert_eq!(Method::parse("baseline"), Some(Method::Baseline));
        assert_eq!(Method::parse(" vw16 "), Some(Method::warp(16)));
        let defer = Method::parse("vw8+defer").unwrap();
        assert!(matches!(
            defer,
            Method::WarpCentric(o) if o.defer_threshold == Some(64)
        ));
        let both = Method::parse("vw32+dyn+defer:9").unwrap();
        assert!(matches!(
            both,
            Method::WarpCentric(o) if o.dynamic && o.defer_threshold == Some(9)
        ));
        for bad in ["", "vw3", "vw64", "vw8+turbo", "warp8", "vw8+defer:x"] {
            assert_eq!(Method::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn candidate_table_shape() {
        let c = table::candidates(64);
        assert_eq!(c.len(), 7);
        assert_eq!(c[0], Method::Baseline);
        assert!(c.iter().any(
            |m| matches!(m, Method::WarpCentric(o) if o.defer_threshold == Some(64) && !o.dynamic)
        ));
        assert!(c
            .iter()
            .any(|m| matches!(m, Method::WarpCentric(o) if o.dynamic)));
        // Specs are unique — the tuning table keys probes by spec.
        let mut specs: Vec<String> = c.iter().map(|m| m.spec()).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), 7);
        assert_eq!(table::k_sweep().len(), 1 + VirtualWarp::ALL.len());
    }

    #[test]
    fn resident_grid_fills_device() {
        let cfg = maxwarp_simt::GpuConfig::fermi_c2050();
        let e = ExecConfig::default();
        // 256-thread blocks: 6 blocks/SM x 14 SMs.
        assert_eq!(e.resident_grid(&cfg), 84);
    }
}
