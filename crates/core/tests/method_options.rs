//! No kernel may silently ignore a method option: on the hub graph, where
//! deferral must fire and dynamic fetches must be charged, `vw8+dyn` and
//! `vw8+defer:T` each either change `KernelStats` relative to plain `vw8`
//! or are refused by the driver. A method that is accepted, labelled and
//! cache-keyed but runs as plain `vw8` costs the autotuner a probe and
//! misleads whoever pins it. The driver refuses an option exactly when
//! the catalog's `Kernel::supports` says it is not implemented.

use maxwarp::catalog::{Inputs, Kernel, Payload, KERNELS};
use maxwarp::{AlgoRun, ExecConfig, Method, VirtualWarp, WarpCentricOpts};
use maxwarp_graph::{Dataset, Scale};
use maxwarp_simt::{Gpu, GpuConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `kernel`, or return the panic message when its driver rejects the
/// method (drivers refuse an option they do not implement with an
/// `assert!`).
fn try_run(kernel: &Kernel, inputs: &Inputs, m: Method) -> Result<(AlgoRun, Payload), String> {
    let mut gpu = Gpu::new(GpuConfig::tiny_test());
    catch_unwind(AssertUnwindSafe(|| {
        (kernel.run)(inputs, &mut gpu, m, &ExecConfig::default())
    }))
    .map(|r| r.unwrap_or_else(|e| panic!("{} {}: {e}", kernel.name, m.spec())))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn every_option_is_honored_or_rejected_by_every_kernel() {
    let inputs = Inputs::new(Dataset::WikiTalkLike.build(Scale::Tiny));
    let plain = WarpCentricOpts::plain(VirtualWarp::new(8));
    let options = [plain.with_dynamic(), plain.with_defer(16)].map(Method::WarpCentric);
    for kernel in &KERNELS {
        let name = kernel.name;
        let (base, answer) = try_run(kernel, &inputs, Method::WarpCentric(plain)).unwrap();
        for m in options {
            let result = try_run(kernel, &inputs, m);
            assert_eq!(
                result.is_ok(),
                kernel.supports(m),
                "{name} {}: the driver and Kernel::supports disagree",
                m.spec()
            );
            match result {
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
