//! Relative-soundness harness for the static analyzer: on the same
//! execution, every finding of the *dynamic* sanitizer must be contained in
//! the *static* report — same site (or the race pair's other endpoint), and
//! a kind the static abstraction maps it to. This is the formal sense in
//! which the abstract interpretation over-approximates the shadow-state
//! checker: anything the dynamic tool can observe, the static tool must
//! have predicted. The verdict runs over the `maxwarp::catalog` cells
//! under the baseline and `vw8`.

use maxwarp::catalog::{cells, sweep_graphs, Cell};
use maxwarp::Method;
use maxwarp_simt::analyze::FindKind;
use maxwarp_simt::{DiagKind, Gpu, GpuConfig};

/// Static kinds that may absorb a dynamic diagnostic of the given kind.
fn allowed(kind: DiagKind) -> &'static [FindKind] {
    match kind {
        DiagKind::SharedRace
        | DiagKind::GlobalRace
        | DiagKind::ReadWriteOverlap
        | DiagKind::MixedAtomic => &[FindKind::MayRace, FindKind::DefiniteRace],
        DiagKind::DivergentShfl => &[FindKind::DivergentShfl],
        DiagKind::EmptyMaskCollective => &[FindKind::EmptyMaskCollective],
        DiagKind::UninitRead => &[FindKind::MayUninit, FindKind::UninitShared],
        DiagKind::OutOfBounds => &[FindKind::OutOfBounds],
        DiagKind::StoreCollision => &[FindKind::StoreCollision],
        DiagKind::BankConflictLint => &[FindKind::BankConflict],
        DiagKind::CoalescingLint => &[FindKind::Coalescing],
    }
}

/// Run one cell with both observers on and assert containment.
fn assert_contained(cell: &Cell) {
    let label = &cell.label();
    let mut cfg = GpuConfig::fermi_c2050();
    cfg.sanitize = true;
    cfg.analyze = true;
    let mut gpu = Gpu::new(cfg);
    gpu.set_sanitize_context(label);
    gpu.set_analyze_context(label);
    cell.run(&mut gpu)
        .unwrap_or_else(|e| panic!("{label}: launch error: {e}"));
    let san = gpu.sanitizer().expect("sanitizer on");
    let anl = gpu.analyzer().expect("analyzer on");
    if anl.suppressed() > 0 {
        // The static findings list was capped: containment against an
        // incomplete list proves nothing, and the shipped kernels stay far
        // below the cap — hitting it is itself a failure.
        panic!(
            "{label}: static findings capped ({} suppressed)",
            anl.suppressed()
        );
    }
    for d in san.diagnostics() {
        let kinds = allowed(d.kind);
        let matched = anl
            .findings()
            .iter()
            .any(|f| kinds.contains(&f.kind) && (f.site == d.site || f.other_site == Some(d.site)));
        assert!(
            matched,
            "{label}: dynamic finding not statically predicted:\n{d}\n\nstatic report:\n{}",
            anl.report()
        );
    }
}

/// Every baseline and `vw8` cell of the sweep graph `graph`.
fn sweep(graph: &str) {
    let graphs = sweep_graphs();
    let methods = [Method::Baseline, Method::warp(8)];
    for cell in cells(&graphs).filter(|c| c.graph == graph && methods.contains(&c.method)) {
        assert_contained(&cell);
    }
}

#[test]
fn dynamic_findings_contained_in_static_report_rmat() {
    sweep("rmat");
}

#[test]
fn dynamic_findings_contained_in_static_report_hub() {
    sweep("hub");
}

/// The containment direction is meaningful only if the static side is not
/// trivially all-findings: the shipped kernels must stay free of
/// error-severity static findings (the CI lint gate's criterion).
#[test]
fn shipped_kernels_statically_error_free() {
    let graphs = sweep_graphs();
    let mut cfg = GpuConfig::fermi_c2050();
    cfg.analyze = true;
    let mut gpu = Gpu::new(cfg);
    let bfs = cells(&graphs)
        .find(|c| c.kernel.name == "bfs" && c.method == Method::warp(8))
        .unwrap();
    bfs.run(&mut gpu).unwrap();
    let anl = gpu.analyzer().unwrap();
    assert!(!anl.has_errors(), "{}", anl.report());
}
