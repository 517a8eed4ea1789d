//! No kernel may silently ignore a method option: on the hub graph, where
//! deferral must fire and dynamic fetches must be charged, `vw8+dyn` and
//! `vw8+defer:T` each either change `KernelStats` relative to plain `vw8`
//! or are refused by the driver. A method that is accepted, labelled and
//! cache-keyed but runs as plain `vw8` costs the autotuner a probe and
//! misleads whoever pins it.

mod common;

use common::{try_run, Inputs, KERNELS};
use maxwarp::{ExecConfig, Method, VirtualWarp, WarpCentricOpts};
use maxwarp_graph::Dataset;
use maxwarp_simt::{Gpu, GpuConfig};

#[test]
fn every_option_is_honored_or_rejected_by_every_kernel() {
    let inputs = Inputs::new(Dataset::WikiTalkLike);
    let exec = ExecConfig::default();
    let plain = WarpCentricOpts::plain(VirtualWarp::new(8));
    let options = [plain.with_dynamic(), plain.with_defer(16)].map(Method::WarpCentric);
    for (name, kernel) in KERNELS {
        let run = |m| {
            try_run(
                kernel,
                &inputs,
                &mut Gpu::new(GpuConfig::tiny_test()),
                m,
                &exec,
            )
        };
        let (base, answer) = run(Method::WarpCentric(plain)).unwrap();
        for m in options {
            match run(m) {
                Ok((with, same_answer)) => {
                    assert_eq!(answer, same_answer, "{name} {}: answer changed", m.spec());
                    assert!(
                        base.stats != with.stats,
                        "{name} accepts {} but runs it as plain vw8",
                        m.spec()
                    );
                }
                Err(why) => assert!(
                    why.contains("deferral") || why.contains("plain static"),
                    "{name} {}: not a rejection of the option: {why}",
                    m.spec()
                ),
            }
        }
    }
}
