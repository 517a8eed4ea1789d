//! `LinkConfig::from_env` under extreme environment values. This file is
//! its own test binary so that no other test sees the variables it sets.

use maxwarp_shard::{Interconnect, LinkConfig};

/// A fanout beyond `u32::MAX` saturates instead of wrapping to zero (which
/// made `Interconnect::new` divide by zero), and a latency near `u64::MAX`
/// saturates the round's comm cycles instead of overflowing.
#[test]
fn oversized_link_env_values_saturate() {
    std::env::set_var("MAXWARP_LINK_FANOUT", "4294967296");
    std::env::set_var("MAXWARP_LINK_LAT", u64::MAX.to_string());
    let cfg = LinkConfig::from_env();
    std::env::remove_var("MAXWARP_LINK_FANOUT");
    std::env::remove_var("MAXWARP_LINK_LAT");

    assert_eq!(cfg.devices_per_link, u32::MAX);
    assert_eq!(cfg.latency_cycles, u64::MAX);
    let mut ic = Interconnect::new(cfg, 4);
    assert_eq!(ic.link_of(3), 0, "every device shares the one link");
    ic.charge(0, 3, 64);
    let rb = ic.settle(0);
    assert_eq!(rb.halo_bytes, 64);
    assert_eq!(rb.comm_cycles, u64::MAX);

    assert_eq!(LinkConfig::from_env(), LinkConfig::default());
}
