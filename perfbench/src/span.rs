//! Spans around the calls the benchmark makes into a layer's public API.
//!
//! Spans are recorded from the outside only: nothing in the program under
//! test knows about them. They are held in memory and written out once,
//! when the traced run ends. A span's *self time* is its duration minus
//! the part of it its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `parent` indexes the enclosing span, `sample` is
/// the identifier every span of one evaluation shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub sample: u32,
}

/// Handle of an open span, returned by [`Recorder::enter`].
pub struct Open(Option<u32>);

/// In-memory span recorder. Switched off it still times leaf calls (the
/// benchmark needs those durations either way) but stores nothing.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    sample: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
        }
    }

    /// Switches recording on or off (between samples, never inside one).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    /// Starts the next sample: later spans carry the new identifier.
    pub fn next_sample(&mut self) {
        self.sample += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span that will enclose further spans.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            sample: self.sample,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span and returns its result and duration in
    /// milliseconds. The duration is measured whether or not recording is
    /// on, with the same two clock reads.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: (end - self.t0).as_nanos() as u64,
                parent: self.open.last().copied(),
                sample: self.sample,
            });
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the time its children cover.
/// Children of one parent never overlap (one thread records them all), so
/// the covered part is the plain sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Total self time in milliseconds per span name, in first-seen order.
pub fn self_ms_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += ns as f64 / 1e6;
                row.2 += 1;
            }
            None => out.push((s.name, ns as f64 / 1e6, 1)),
        }
    }
    out
}

/// Renders the trace file: a header object plus one object per span.
pub fn trace_json(workload: &str, host_json: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::with_capacity(64 + spans.len() * 120);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"host\": {host_json}, \"spans\": ["
    );
    for (i, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"workload\": \"{workload}\", \"sample\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            s.sample
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            sample: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = [
            span("sample", 0, 100, None),
            span("new", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name[0].0, "sample");
        assert!((by_name[2].1 - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_samples() {
        let mut rec = Recorder::new(true);
        rec.next_sample();
        let outer = rec.enter("sample");
        let (v, ms) = rec.leaf("run", || 7);
        rec.exit(outer);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].sample, 1);
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn switched_off_recorder_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let outer = rec.enter("sample");
        let ((), ms) = rec.leaf("run", || ());
        rec.exit(outer);
        assert!(ms >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn trace_json_lists_every_span() {
        let spans = [span("a.b", 1, 5, None), span("c", 2, 3, Some(0))];
        let json = trace_json("w", "{}", &spans);
        assert!(json.contains("\"name\": \"a.b\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"self_ns\": 3"));
    }
}
