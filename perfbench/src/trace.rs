//! In-memory spans recorded around calls into the program's public
//! functions, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = u64::MAX;

/// One span: a call into a layer, or a part of one derived from the
/// program's own span tree.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated device seconds, for spans imported from the program.
    pub sim_s: f64,
}

impl Span {
    pub fn wall_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-6
    }
}

/// Records spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: u64, request: u64) -> u64 {
        let start = self.now();
        self.record(name, parent, request, start, start, 0.0)
    }

    pub fn end(&mut self, id: u64) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: u64, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Adds a closed span with explicit times and returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        sim_s: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
            sim_s,
        });
        id
    }

    pub fn span(&self, id: u64) -> &Span {
        &self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per `(request, span name)`: each span's duration minus
    /// the duration of its direct children, summed over the spans of that
    /// name within the request.
    pub fn self_ms(&self) -> BTreeMap<(u64, String), f64> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ms[s.parent as usize] += s.wall_ms();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry((s.request, s.name.clone())).or_insert(0.0) +=
                s.wall_ms() - child_ms[s.id as usize];
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let parent = if sp.parent == ROOT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"sim_s\":{:?}}}",
                sp.id, parent, sp.request, sp.name, sp.start_ns, sp.end_ns, sp.sim_s
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.record("request", ROOT, 0, 0, 10_000_000, 0.0);
        let a = t.record("a", root, 0, 1_000_000, 4_000_000, 0.0);
        t.record("k", a, 0, 1_000_000, 2_000_000, 0.0);
        t.record("k", a, 0, 2_000_000, 3_000_000, 0.0);
        let s = t.self_ms();
        assert_eq!(s[&(0, "request".to_string())], 7.0);
        assert_eq!(s[&(0, "a".to_string())], 1.0);
        assert_eq!(s[&(0, "k".to_string())], 2.0);
    }
}
