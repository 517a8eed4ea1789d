//! Machine-readable JSON report for the static analyzer.
//!
//! The workspace deliberately carries no JSON dependency, so the report is
//! rendered by hand, mirroring the approach of the profiler's trace export.
//! The schema is consumed by the CI `analyze` job and archived as a build
//! artifact.

use super::{AbsVal, Analyzer, Severity};
use std::fmt::Write;

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Analyzer {
    /// Render the full report — summary counts, deduplicated findings, and
    /// per-site abstract summaries — as a JSON document.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n  \"tool\": \"maxwarp-analyze\",\n");
        let _ = write!(
            o,
            "  \"errors\": {},\n  \"warnings\": {},\n  \"distinct_findings\": {},\n  \
             \"suppressed\": {},\n",
            self.error_count(),
            self.warning_count(),
            self.findings().len(),
            self.suppressed,
        );

        o.push_str("  \"findings\": [");
        let mut ordered: Vec<&super::Finding> = self.findings().iter().collect();
        ordered.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for (i, f) in ordered.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"severity\": ");
            esc(
                match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                &mut o,
            );
            o.push_str(", \"kind\": ");
            esc(f.kind.label(), &mut o);
            o.push_str(", \"kernel\": ");
            esc(&f.kernel, &mut o);
            let _ = write!(
                o,
                ", \"launch\": {}, \"block\": {}, \"warp\": {}, \"op\": ",
                f.launch, f.block, f.warp
            );
            esc(f.op, &mut o);
            o.push_str(", \"site\": ");
            esc(&f.site.to_string(), &mut o);
            o.push_str(", \"other_site\": ");
            match f.other_site {
                Some(s) => esc(&s.to_string(), &mut o),
                None => o.push_str("null"),
            }
            o.push_str(", \"message\": ");
            esc(&f.message, &mut o);
            let _ = write!(o, ", \"count\": {}}}", f.count);
        }
        o.push_str("\n  ],\n");

        o.push_str("  \"sites\": [");
        for (i, s) in self.site_summaries().iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\"op\": ");
            esc(s.op, &mut o);
            o.push_str(", \"kind\": ");
            esc(s.kind.label(), &mut o);
            o.push_str(", \"space\": ");
            esc(s.space.label(), &mut o);
            o.push_str(", \"site\": ");
            esc(&s.site.to_string(), &mut o);
            let _ = write!(o, ", \"obs\": {}, \"addr\": ", s.obs);
            match s.addr.value() {
                Some(AbsVal::Affine(a)) => {
                    let _ = write!(
                        o,
                        "{{\"form\": \"affine\", \"c0\": {}, \"lane\": {}, \"warp\": {}, \
                         \"block\": {}, \"hull\": [{}, {}]}}",
                        a.c0, a.lane, a.warp, a.block, s.addr.hull.lo, s.addr.hull.hi
                    );
                }
                Some(AbsVal::Range(h)) => {
                    let _ = write!(o, "{{\"form\": \"hull\", \"hull\": [{}, {}]}}", h.lo, h.hi);
                }
                None => o.push_str("null"),
            }
            o.push_str(", \"predicted_tx\": ");
            match s.predicted_tx() {
                Some(t) => {
                    let _ = write!(o, "{t}");
                }
                None => o.push_str("null"),
            }
            o.push_str(", \"predicted_bank_cost\": ");
            match s.predicted_bank_cost() {
                Some(c) => {
                    let _ = write!(o, "{c}");
                }
                None => o.push_str("null"),
            }
            o.push('}');
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::event::LaneAccess;
    use crate::warp::WarpId;

    #[test]
    fn escaping_is_safe() {
        let mut out = String::new();
        super::esc("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_report_structure() {
        let mut a = Analyzer::new();
        a.set_context("bfs/rmat [warp]");
        a.begin_launch();
        let id = WarpId {
            block: 0,
            warp_in_block: 1,
            warps_per_block: 4,
            num_blocks: 2,
        };
        let event = |op, kind| Event {
            id,
            epoch: 0,
            op,
            site: std::panic::Location::caller(),
            kind,
        };
        a.on_event(&event("ballot", EventKind::EmptyMask));
        let lanes: Vec<LaneAccess> = (0..32)
            .map(|lane| LaneAccess {
                lane,
                word: 64 + lane,
                value: 0,
                valid: true,
            })
            .collect();
        let load = MemAccess {
            space: Space::Global,
            access: AccessKind::Read,
            base: 64,
            lanes: &lanes,
            coalesce: None,
            segment_words: 32,
            bank_cost: 1,
        };
        a.on_event(&event("ld", EventKind::Mem(load)));
        a.finish_launch();
        let j = a.to_json();
        assert!(j.contains("\"tool\": \"maxwarp-analyze\""));
        assert!(j.contains("\"kind\": \"empty-mask-collective\""));
        assert!(j.contains("\"kernel\": \"bfs/rmat [warp]\""));
        assert!(j.contains("\"form\": \"affine\""));
        assert!(j.contains("\"predicted_tx\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }
}
