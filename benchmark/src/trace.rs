//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the crates, around each call into a
//! crate's public function: name, layer (the crate), start, end, parent and
//! the op the call belongs to. They stay in memory until the run ends. With
//! tracing off every method is one predictable branch, so the end-to-end
//! run pays nothing for the recorder's existence.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Crate the call goes into (`bench` for the benchmark's own op spans).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open parent spans, innermost last.
    stack: Vec<u32>,
    op: u32,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` as a leaf span under the innermost open span.
    pub fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(layer, name, start_ns, end_ns, self.stack.last().copied());
        out
    }

    /// Open a parent span; later `call`s nest under it until `close`.
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let id = self.push(layer, name, now, now, self.stack.last().copied());
        self.stack.push(id);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let id = self.stack.pop().expect("close without a matching open");
        self.spans[id as usize].end_ns = now;
    }

    /// Record a finished span with an explicit parent — for ops that
    /// overlap in time (several requests in flight from one thread) and so
    /// cannot nest on the stack.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> Option<u32> {
        self.on
            .then(|| self.push(layer, name, start_ns, end_ns, parent))
    }

    fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations in ms of every span called `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total ms spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.ms_of(name).iter().sum()
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// direct children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\": {id}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                json_str(s.name),
                json_str(s.layer),
                s.start_ns,
                s.end_ns,
                s.op
            ));
        }
        out.push_str("\n]");
        out
    }

    pub fn self_ms_json(&self) -> String {
        let fields: Vec<String> = self
            .self_ms_by_layer()
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        t.set_op(3);
        let root = t.record("bench", "op", 0, 1_000_000, None);
        t.record("core", "run", 100_000, 700_000, root);
        let by = t.self_ms_by_layer();
        assert!((by["bench"] - 0.4).abs() < 1e-9);
        assert!((by["core"] - 0.6).abs() < 1e-9);
        assert_eq!(t.ms_of("run"), vec![0.6]);
        assert!(t.spans_json().contains("\"parent\": 0, \"op\": 3"));
    }

    #[test]
    fn nesting_follows_open_and_close() {
        let mut t = Trace::new(true);
        t.open("bench", "op");
        assert_eq!(t.call("simt", "leaf", || 7), 7);
        t.close();
        assert_eq!(t.len(), 2);
        assert!(t.spans_json().contains("\"name\": \"leaf\""));
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::new(false);
        t.open("bench", "op");
        assert_eq!(t.call("simt", "leaf", || 1), 1);
        t.close();
        assert_eq!(t.len(), 0);
    }
}
