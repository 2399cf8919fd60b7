//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in
//! a span: name, start, end, parent span and the id of the operation
//! (one pass or one set-up) it belongs to. Spans stay in memory until
//! the run ends and are written out then. A recorder that is off
//! records nothing. The untraced run uses a stage clock instead: it
//! keeps only the duration of each outermost span, a stage of the
//! operation, for the end-to-end estimate of
//! [`crate::stats::fastest_by_stage`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.characterize`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (pass or set-up) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Stages,
    On,
}

/// Records spans when on, stage durations when a stage clock; a
/// pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    mode: Mode,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    depth: usize,
    stage_s: Vec<f64>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Mode::Off)
    }

    /// A recorder that keeps the seconds of each outermost span only.
    pub fn stages() -> Tracer {
        Tracer::new(Mode::Stages)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer::new(Mode::On)
    }

    fn new(mode: Mode) -> Tracer {
        Tracer {
            mode,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            depth: 0,
            stage_s: Vec::new(),
        }
    }

    /// True when spans are kept.
    pub fn enabled(&self) -> bool {
        self.mode == Mode::On
    }

    /// The seconds of each outermost span since the last call, in the
    /// order they ran; empty unless this is a stage clock.
    pub fn take_stages(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.stage_s)
    }

    /// Starts a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        match self.mode {
            Mode::Off => return f(self),
            Mode::Stages => {
                self.depth += 1;
                let start = Instant::now();
                let out = f(self);
                let seconds = start.elapsed().as_secs_f64();
                self.depth -= 1;
                if self.depth == 0 {
                    self.stage_s.push(seconds);
                }
                return out;
            }
            Mode::On => {}
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span, in seconds: its duration minus the part
    /// its child spans cover. One thread opens every span, so children
    /// never overlap each other and their durations add up.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// For each span name, the self seconds summed within each
    /// operation that recorded it, in operation order.
    pub fn self_seconds_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_seconds();
        let mut sums: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (span, seconds) in self.spans.iter().zip(own) {
            *sums
                .entry(span.name)
                .or_default()
                .entry(span.op)
                .or_default() += seconds;
        }
        sums.into_iter()
            .map(|(name, per_op)| (name, per_op.into_values().collect()))
            .collect()
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The spans as JSON, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_stage_clock_times_only_the_outermost_spans() {
        let mut t = Tracer::stages();
        t.span("a", |t| t.span("b", |_| ()));
        t.span("c", |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(t.spans().is_empty());
        assert!(!t.enabled());
        let stages = t.take_stages();
        assert_eq!(stages.len(), 2);
        assert!(stages[1] >= 0.004);
        assert!(t.take_stages().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.next_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_seconds();
        assert!(own[1] >= 0.019);
        assert!(own[0] < own[1]);
        let per_op = t.self_seconds_per_op();
        assert_eq!(per_op["inner"].len(), 1);
    }
}
