//! In-memory spans recorded by the benchmark around each call into a
//! layer of the program.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the workload pass it belongs to. Spans stay in memory while
//! the run measures and are written out once it ends. A span's self time
//! is its duration minus the part of it its child spans cover.
//!
//! With tracing off, [`Tracer::span`] calls straight through: no clock
//! read and no allocation, so untraced passes measure the program alone.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span brackets.
    pub name: &'static str,
    /// Workload pass the span belongs to.
    pub pass: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Starts a new workload pass: later spans carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start: origin.elapsed().as_nanos() as u64,
            end: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Sum of self time per span name, in ms.
pub fn self_ms_by_name(spans: &[Span], name: &str) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

/// Sum of duration per span name, in ms.
pub fn total_ms_by_name(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

/// The spans as JSON lines, each with its self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\": {i}, \"name\": \"{}\", \"pass\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.pass, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            pass: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) > run [10,90) > {a [20,50) > inner [30,40), b [60,80)}
        let spans = vec![
            span("pass", None, 0, 100),
            span("run", Some(0), 10, 90),
            span("a", Some(1), 20, 50),
            span("inner", Some(2), 30, 40),
            span("b", Some(1), 60, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 10, 20]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(self_ms_by_name(&spans, "run"), 30.0 / 1e6);
        assert_eq!(total_ms_by_name(&spans, "run"), 80.0 / 1e6);
    }

    #[test]
    fn recorded_nesting_adds_up() {
        let mut t = Tracer::on();
        t.next_pass();
        t.span("pass", |t| {
            t.span("setup", |_| std::hint::black_box(1 + 1));
            t.span("run", |t| t.span("leaf", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.pass == 1 && s.end >= s.start));
        let own = self_times(spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].end - spans[0].start);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
