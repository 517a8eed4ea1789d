//! Process-wide observability hooks for the simulator.
//!
//! Every counter lands in [`maxwarp_obs::global()`], so a host embedding
//! many simulated GPUs (the serve worker pool, the bench harness) sees one
//! aggregate view of device-side events: faults and watchdog trips, chaos
//! injections, and sanitizer/analyzer finding counts. Everything here is a
//! **pure observer** — recording never changes kernel results, stats, or
//! error propagation — and the whole module is inert when `MAXWARP_OBS=0`
//! disables the global registry.
//!
//! Hot series (sanitizer/analyzer findings can fire per-op inside kernel
//! loops) cache their [`Counter`] handle in a `OnceLock`, so the steady
//! state is one relaxed atomic add. Rare series (faults, watchdog trips)
//! look up their labeled handle per event.

use crate::fault::SimtError;
use crate::sanitize::Severity;
use maxwarp_obs::{Counter, HistogramHandle};
use std::sync::OnceLock;
use std::time::Instant;

/// The host-time phases of one launch.
#[derive(Clone, Copy)]
pub(crate) enum LaunchPhase {
    /// Running the kernel functionally and recording its traces.
    Functional,
    /// Folding the traces into `KernelStats`.
    Stats,
    /// Replaying the traces through the timing engine.
    Timing,
}

/// Record the host nanoseconds one launch phase took since `start`:
/// `simt_launch_phase_ns{phase}` with `phase` one of `functional`, `stats`,
/// `timing`. Every successful launch adds one sample to each.
pub(crate) fn launch_phase(phase: LaunchPhase, start: Instant) {
    static CELLS: [OnceLock<HistogramHandle>; 3] = [const { OnceLock::new() }; 3];
    let label = match phase {
        LaunchPhase::Functional => "functional",
        LaunchPhase::Stats => "stats",
        LaunchPhase::Timing => "timing",
    };
    CELLS[phase as usize]
        .get_or_init(|| {
            maxwarp_obs::global().histogram_with("simt_launch_phase_ns", &[("phase", label)])
        })
        .record(start.elapsed().as_nanos() as u64);
}

/// Record a fault at the moment it converts into a `LaunchError`:
/// `simt_faults_total{kind}` always, plus `simt_watchdog_trips_total{kind}`
/// for the watchdog class.
pub(crate) fn fault_recorded(e: &SimtError) {
    maxwarp_obs::global()
        .counter_with("simt_faults_total", &[("kind", e.kind_label())])
        .inc();
    if let SimtError::Watchdog(k) = e {
        maxwarp_obs::global()
            .counter_with("simt_watchdog_trips_total", &[("kind", k.kind_label())])
            .inc();
    }
}

/// Record one chaos injection: `simt_chaos_injections_total{kind}` with
/// `kind` one of `bit_flip`, `dropped_atomic`, `sched_perturb`.
pub(crate) fn chaos_injected(kind: &'static str) {
    static BIT_FLIP: OnceLock<Counter> = OnceLock::new();
    static DROPPED_ATOMIC: OnceLock<Counter> = OnceLock::new();
    static SCHED_PERTURB: OnceLock<Counter> = OnceLock::new();
    let cell = match kind {
        "bit_flip" => &BIT_FLIP,
        "dropped_atomic" => &DROPPED_ATOMIC,
        _ => &SCHED_PERTURB,
    };
    cell.get_or_init(|| {
        maxwarp_obs::global().counter_with("simt_chaos_injections_total", &[("kind", kind)])
    })
    .inc();
}

/// Record one sanitizer finding occurrence (pre-dedup, so counts match the
/// sanitizer's own `errors`/`warnings` totals):
/// `simt_sanitizer_findings_total{severity}`.
pub(crate) fn sanitizer_finding(severity: Severity) {
    static ERRORS: OnceLock<Counter> = OnceLock::new();
    static WARNINGS: OnceLock<Counter> = OnceLock::new();
    severity_counter(
        severity,
        "simt_sanitizer_findings_total",
        &ERRORS,
        &WARNINGS,
    )
    .inc();
}

/// Record one static-analyzer finding occurrence:
/// `simt_analyzer_findings_total{severity}`.
pub(crate) fn analyzer_finding(severity: Severity) {
    static ERRORS: OnceLock<Counter> = OnceLock::new();
    static WARNINGS: OnceLock<Counter> = OnceLock::new();
    severity_counter(severity, "simt_analyzer_findings_total", &ERRORS, &WARNINGS).inc();
}

fn severity_counter<'a>(
    severity: Severity,
    name: &'static str,
    errors: &'a OnceLock<Counter>,
    warnings: &'a OnceLock<Counter>,
) -> &'a Counter {
    let (cell, label) = match severity {
        Severity::Error => (errors, "error"),
        Severity::Warning => (warnings, "warning"),
    };
    cell.get_or_init(|| maxwarp_obs::global().counter_with(name, &[("severity", label)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{SimtError, WatchdogKind};

    fn series_value(name: &str, label: (&str, &str)) -> u64 {
        maxwarp_obs::global()
            .series_of(name)
            .into_iter()
            .find(|(labels, _)| labels.iter().any(|(k, v)| k == label.0 && v == label.1))
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    #[test]
    fn fault_recorded_counts_kind_and_watchdog() {
        // The global registry is shared across parallel tests, so assert
        // monotonic deltas rather than absolute values.
        let before_fault = series_value("simt_faults_total", ("kind", "watchdog"));
        let before_trip = series_value("simt_watchdog_trips_total", ("kind", "cycle_budget"));
        fault_recorded(&SimtError::Watchdog(WatchdogKind::CycleBudget {
            cycles: 10,
            budget: 5,
        }));
        assert!(series_value("simt_faults_total", ("kind", "watchdog")) > before_fault);
        assert!(series_value("simt_watchdog_trips_total", ("kind", "cycle_budget")) > before_trip);
    }

    #[test]
    fn non_watchdog_fault_skips_trip_counter() {
        let before = series_value("simt_faults_total", ("kind", "address_space_exhausted"));
        fault_recorded(&SimtError::AddressSpaceExhausted {
            requested_bytes: 1,
            available_bytes: 0,
        });
        assert!(series_value("simt_faults_total", ("kind", "address_space_exhausted")) > before);
    }

    #[test]
    fn chaos_and_finding_counters_increment() {
        let chaos = series_value("simt_chaos_injections_total", ("kind", "bit_flip"));
        chaos_injected("bit_flip");
        assert!(series_value("simt_chaos_injections_total", ("kind", "bit_flip")) > chaos);

        let san = series_value("simt_sanitizer_findings_total", ("severity", "warning"));
        sanitizer_finding(Severity::Warning);
        assert!(series_value("simt_sanitizer_findings_total", ("severity", "warning")) > san);

        let anl = series_value("simt_analyzer_findings_total", ("severity", "error"));
        analyzer_finding(Severity::Error);
        assert!(series_value("simt_analyzer_findings_total", ("severity", "error")) > anl);
    }
}
