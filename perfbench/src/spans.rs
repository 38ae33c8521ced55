//! In-memory span recording for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around each call it
//! makes into a layer: workload → artifact or cell → layer probe. They
//! stay in memory until the run ends and are then written out as JSON.
//! A layer's self time is the time its spans cover minus the part of
//! that time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`artifact:fig5`, `cell:MCS/mesi/cw1500`, ...).
    pub name: String,
    /// Layer that owns the called entry point.
    pub layer: &'static str,
    /// Shared by every span of one rep or probe.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// A span recorder; when disabled, [`Spans::span`] only runs its body.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_group: u64,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_group: 0,
        }
    }

    /// Turns recording on or off for the spans started from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A fresh group id for the spans of one rep or probe.
    pub fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    /// The group of the innermost open span (0 when none is open).
    pub fn current_group(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].group)
    }

    /// Runs `body` inside a span named `name`, owned by `layer`.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        group: u64,
        body: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let open = self.open(name, layer, group);
        let out = body(self);
        self.close(open);
        out
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Spans::close`]. Returns `None` (and records nothing) when
    /// disabled.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        group: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            group,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span returned by [`Spans::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Self time per layer, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
                 \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.group, s.name, s.layer, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time per layer: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed by layer.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: layer.to_owned(),
            layer,
            group: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("bench", None, 0, 100),
            span("workloads", Some(0), 10, 40),
            span("workloads", Some(0), 50, 70),
            span("sched", Some(2), 55, 60),
        ];
        let st = self_seconds(&spans);
        assert!((st["bench"] - 50e-9).abs() < 1e-15);
        assert!((st["workloads"] - 45e-9).abs() < 1e-15);
        assert!((st["sched"] - 5e-9).abs() < 1e-15);
        // Self times add up to the root's duration.
        assert!((st.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children on parallel threads overlap in [20, 30].
        let spans = [
            span("bench", None, 0, 100),
            span("locks", Some(0), 10, 30),
            span("locks", Some(0), 20, 50),
            span("locks", Some(0), 90, 120),
        ];
        // Covered: [10, 50] plus [90, 100] (clipped) = 50.
        assert!((self_seconds(&spans)["bench"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut s = Spans::new(true);
        let g = s.group();
        let v = s.span("outer", "bench", g, |s| {
            s.span("inner", "workloads", g, |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.spans[0].start_ns <= s.spans[1].start_ns);
        assert!(s.spans[1].end_ns <= s.spans[0].end_ns);
        assert!(s.to_json().contains("\"layer\": \"workloads\""));

        let mut off = Spans::new(false);
        assert_eq!(off.span("x", "bench", 0, |_| 3), 3);
        assert!(off.spans.is_empty());
    }
}
