//! Cost model for the inter-device fabric.
//!
//! The BSP executor is host-side and exact; what a real multi-GPU system
//! adds is the *interconnect* — finite per-link bandwidth, per-transfer
//! latency, and contention when several devices hang off one link (PCIe
//! switch / NVLink bridge style). This module charges those costs without
//! simulating wires: the executor reports every halo message
//! ([`Interconnect::charge`]) and, once per BSP round,
//! [`Interconnect::settle`] converts accumulated bytes into cycles:
//!
//! * `transfer = max over links of ceil(link_bytes / bytes_per_cycle)` —
//!   links move their queued bytes in parallel, each serializing its own
//!   traffic (an arbiter: two shards sharing a link halve its bandwidth);
//! * `ideal` is the same maximum computed per *device*, i.e. what a
//!   dedicated link per device would cost; `stall = transfer - ideal`
//!   isolates pure contention;
//! * `comm = transfer + latency_cycles` when any bytes moved, else 0.
//!
//! Devices map to links round-robin in groups of `devices_per_link`; a
//! message charges its bytes to both endpoint devices and to each
//! endpoint's link (once, when both ends share the link).

/// Interconnect shape and speed. Values resolve from the environment:
/// `MAXWARP_LINK_BW` (bytes/cycle), `MAXWARP_LINK_LAT` (cycles),
/// `MAXWARP_LINK_FANOUT` (devices per link).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkConfig {
    /// Link bandwidth in bytes per device cycle.
    pub bytes_per_cycle: u64,
    /// Fixed per-round transfer latency in cycles.
    pub latency_cycles: u64,
    /// Devices sharing one link (arbiter fan-in).
    pub devices_per_link: u32,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        // Roughly PCIe-gen3-x16 against a ~1 GHz device clock: 16 B/cycle,
        // with a microsecond-ish round setup cost.
        LinkConfig {
            bytes_per_cycle: 16,
            latency_cycles: 600,
            devices_per_link: 2,
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
}

impl LinkConfig {
    /// Defaults overridden by `MAXWARP_LINK_BW` / `MAXWARP_LINK_LAT` /
    /// `MAXWARP_LINK_FANOUT`. Zero values are clamped to 1; a fanout beyond
    /// `u32::MAX` saturates.
    pub fn from_env() -> LinkConfig {
        let d = LinkConfig::default();
        LinkConfig {
            bytes_per_cycle: env_u64("MAXWARP_LINK_BW")
                .unwrap_or(d.bytes_per_cycle)
                .max(1),
            latency_cycles: env_u64("MAXWARP_LINK_LAT").unwrap_or(d.latency_cycles),
            devices_per_link: env_u64("MAXWARP_LINK_FANOUT")
                .map_or(d.devices_per_link, |v| u32::try_from(v).unwrap_or(u32::MAX))
                .max(1),
        }
    }
}

/// Per-BSP-round cost breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundBreakdown {
    /// Critical-path device compute for the round (max over shards).
    pub compute_cycles: u64,
    /// Interconnect cycles: serialized transfer plus latency.
    pub comm_cycles: u64,
    /// Portion of `comm_cycles` attributable to link contention.
    pub stall_cycles: u64,
    /// Total halo bytes moved this round.
    pub halo_bytes: u64,
}

/// Accumulates halo traffic between settles.
#[derive(Clone, Debug)]
pub struct Interconnect {
    cfg: LinkConfig,
    /// Bytes queued on each link this round.
    link_bytes: Vec<u64>,
    /// Bytes touching each device this round (sent + received).
    device_bytes: Vec<u64>,
    /// Cumulative bytes per device across the whole run (for metrics).
    device_total: Vec<u64>,
}

impl Interconnect {
    /// A fabric connecting `devices` devices per `cfg`.
    pub fn new(cfg: LinkConfig, devices: u32) -> Interconnect {
        let links = devices.div_ceil(cfg.devices_per_link).max(1) as usize;
        Interconnect {
            cfg,
            link_bytes: vec![0; links],
            device_bytes: vec![0; devices.max(1) as usize],
            device_total: vec![0; devices.max(1) as usize],
        }
    }

    /// The link device `dev` hangs off.
    pub fn link_of(&self, dev: u32) -> u32 {
        dev / self.cfg.devices_per_link
    }

    /// Record `bytes` moving from device `src` to device `dst`.
    pub fn charge(&mut self, src: u32, dst: u32, bytes: u64) {
        if src == dst || bytes == 0 {
            return;
        }
        self.device_bytes[src as usize] += bytes;
        self.device_bytes[dst as usize] += bytes;
        self.device_total[src as usize] += bytes;
        self.device_total[dst as usize] += bytes;
        let (ls, ld) = (self.link_of(src), self.link_of(dst));
        self.link_bytes[ls as usize] += bytes;
        if ld != ls {
            self.link_bytes[ld as usize] += bytes;
        }
    }

    /// Close the round: convert accumulated bytes into a breakdown (with
    /// the given critical-path `compute_cycles`) and reset per-round state.
    pub fn settle(&mut self, compute_cycles: u64) -> RoundBreakdown {
        let bw = self.cfg.bytes_per_cycle.max(1);
        let transfer = self
            .link_bytes
            .iter()
            .map(|b| b.div_ceil(bw))
            .max()
            .unwrap_or(0);
        let ideal = self
            .device_bytes
            .iter()
            .map(|b| b.div_ceil(bw))
            .max()
            .unwrap_or(0);
        let halo_bytes: u64 = self.device_bytes.iter().sum::<u64>() / 2;
        let comm_cycles = if halo_bytes > 0 {
            transfer.saturating_add(self.cfg.latency_cycles)
        } else {
            0
        };
        for b in &mut self.link_bytes {
            *b = 0;
        }
        for b in &mut self.device_bytes {
            *b = 0;
        }
        RoundBreakdown {
            compute_cycles,
            comm_cycles,
            stall_cycles: transfer.saturating_sub(ideal),
            halo_bytes,
        }
    }

    /// Cumulative halo bytes touching each device over the whole run.
    pub fn device_totals(&self) -> &[u64] {
        &self.device_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bw: u64, lat: u64, fanout: u32) -> LinkConfig {
        LinkConfig {
            bytes_per_cycle: bw,
            latency_cycles: lat,
            devices_per_link: fanout,
        }
    }

    #[test]
    fn silent_round_costs_nothing() {
        let mut ic = Interconnect::new(cfg(16, 500, 2), 4);
        let rb = ic.settle(1000);
        assert_eq!(rb.comm_cycles, 0);
        assert_eq!(rb.stall_cycles, 0);
        assert_eq!(rb.halo_bytes, 0);
        assert_eq!(rb.compute_cycles, 1000);
    }

    #[test]
    fn paired_devices_share_a_link_without_stall() {
        // Devices 0 and 1 share link 0: one message between them crosses
        // only that link, so contention is impossible.
        let mut ic = Interconnect::new(cfg(4, 100, 2), 4);
        ic.charge(0, 1, 400);
        let rb = ic.settle(0);
        assert_eq!(rb.halo_bytes, 400);
        assert_eq!(rb.comm_cycles, 100 + 100);
        assert_eq!(rb.stall_cycles, 0);
    }

    #[test]
    fn link_sharing_serializes() {
        // Devices 0 and 1 share link 0 and each talk to the far pair:
        // link 0 carries both flows, a dedicated-link fabric would not.
        let mut ic = Interconnect::new(cfg(4, 0, 2), 4);
        ic.charge(0, 2, 400);
        ic.charge(1, 3, 400);
        let rb = ic.settle(0);
        assert_eq!(rb.halo_bytes, 800);
        assert_eq!(rb.comm_cycles, 200); // 800 bytes on link 0, bw 4
        assert_eq!(rb.stall_cycles, 100); // vs 400 bytes per device
    }

    #[test]
    fn self_and_empty_charges_ignored() {
        let mut ic = Interconnect::new(cfg(4, 50, 1), 2);
        ic.charge(0, 0, 400);
        ic.charge(0, 1, 0);
        let rb = ic.settle(7);
        assert_eq!(rb.halo_bytes, 0);
        assert_eq!(rb.comm_cycles, 0);
    }

    #[test]
    fn settle_resets_and_totals_accumulate() {
        let mut ic = Interconnect::new(cfg(1, 0, 1), 2);
        ic.charge(0, 1, 10);
        let a = ic.settle(0);
        let b = ic.settle(0);
        assert_eq!(a.halo_bytes, 10);
        assert_eq!(b.halo_bytes, 0);
        ic.charge(1, 0, 5);
        let _ = ic.settle(0);
        assert_eq!(ic.device_totals(), &[15, 15]);
    }

    #[test]
    fn env_defaults_are_sane() {
        let d = LinkConfig::default();
        assert!(d.bytes_per_cycle > 0);
        assert!(d.devices_per_link > 0);
    }
}
