//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (ns since the tracer's origin) and
//! the index of the span that caused it. Spans are recorded by the
//! benchmark's own code, outside the program under test, kept in memory,
//! and written out once the run ends. A disabled tracer records nothing,
//! so the end-to-end run pays for an `Instant` read per call and no more.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span (meaningless when the tracer is disabled).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `datagen.generate` or `engine.exact.step`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; cheap no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`] at the current instant.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.ns(Instant::now());
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Records a span whose bounds were timed elsewhere (calls made from
    /// inside a layer the benchmark wraps, e.g. the fleet's event loop).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time (duration minus the time covered by child spans) of every
    /// span whose root is `root`, summed per span name, in seconds.
    pub fn self_seconds_under(&self, root: Option<SpanId>) -> BTreeMap<String, f64> {
        let Some(root) = root else {
            return BTreeMap::new();
        };
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        // Parents are always recorded before their children.
        for (i, span) in self.spans.iter().enumerate() {
            in_tree[i] = i == root || span.parent.is_some_and(|p| in_tree[p]);
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let own = span.duration_ns().saturating_sub(child_ns[i]);
                *out.entry(span.name.clone()).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// The layer a span name belongs to: `engine.<e>.*` spans map to
/// `engine-<e>`, every other span to its first dotted component.
pub fn layer_of(name: &str) -> String {
    let mut parts = name.split('.');
    let first = parts.next().unwrap_or(name);
    match (first, parts.next()) {
        ("engine", Some(engine)) => format!("engine-{engine}"),
        _ => first.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("bench.round", None, at(0), at(100));
        let child = t.record("datagen.generate", root, at(10), at(40));
        t.record("engine.exact.step", child, at(20), at(30));
        let selfs = t.self_seconds_under(root);
        assert!((selfs["bench.round"] - 0.070).abs() < 1e-9);
        assert!((selfs["datagen.generate"] - 0.020).abs() < 1e-9);
        assert!((selfs["engine.exact.step"] - 0.010).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("bench.round", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans.is_empty());
    }

    #[test]
    fn layers_group_engines_by_name() {
        assert_eq!(layer_of("engine.wander.step"), "engine-wander");
        assert_eq!(layer_of("datagen.generate"), "datagen");
        assert_eq!(layer_of("bench.round"), "bench");
    }
}
