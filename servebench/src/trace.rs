//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`, timed against the
//! tracer's origin. Spans stay in memory until the run ends and are then
//! written as JSON lines.
//! Nothing here reaches inside the program: a span brackets a call into
//! a public function of one layer, so a layer's *self time* is its span
//! minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub rid: u64,
}

/// A span buffer. A disabled tracer records nothing and reads no clock,
/// so untraced runs pay nothing for the calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, rid: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds
    /// (0 when disabled).
    pub fn close(&mut self, id: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let t = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = t;
        t - span.start_ns
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, rid);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rid\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rid
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval (children
/// may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: the self times of all its spans, in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rid: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union [10, 50) counts once.
            span("b", 20, 50, Some(0)),
            // Runs past the parent's end: clipped to [90, 100).
            span("c", 90, 120, Some(0)),
            // A grandchild covers part of `b`, not of the root.
            span("d", 25, 45, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![50, 20, 10, 30, 20]);
    }

    #[test]
    fn leaf_self_time_is_its_duration_and_names_group() {
        let spans = vec![
            span("req", 0, 10, None),
            span("req", 20, 35, None),
            span("x", 22, 30, Some(1)),
        ];
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["req"], vec![10, 7]);
        assert_eq!(by_name["x"], vec![8]);
    }
}
