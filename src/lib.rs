//! `maxwarp-suite` — umbrella crate for the maxwarp workspace.
//!
//! This crate only re-exports the workspace members so that the runnable
//! examples under `examples/` and the integration tests under `tests/` can
//! use every layer of the stack through one dependency. The real code lives
//! in:
//!
//! * [`maxwarp_simt`] — the SIMT GPU simulator substrate,
//! * [`maxwarp_graph`] — CSR graphs, generators, datasets, references,
//! * [`maxwarp_cpu`] — the multicore CPU BFS baseline and the CPU fallback,
//! * [`maxwarp`] — the virtual warp-centric programming method (the paper's
//!   contribution).

pub use maxwarp;
pub use maxwarp_cpu;
pub use maxwarp_graph;
pub use maxwarp_simt;
