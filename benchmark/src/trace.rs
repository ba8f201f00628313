//! In-memory spans recorded around the public library calls of a run.
//!
//! A disabled [`Trace`] does nothing — no clock reads, no allocation —
//! so the timed runs execute the same ladder code with tracing off.
//! Spans nest strictly (every `enter` is closed by the matching `exit`
//! before its parent's), which makes a span's self time its duration
//! minus the summed durations of its direct children.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `"coarsen.match"`.
    pub name: &'static str,
    /// Start, seconds since the trace began.
    pub start_s: f64,
    /// End, seconds since the trace began.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which setup repetition or solve pass the span belongs to.
    pub run: u32,
    /// Counters read when the span closed.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The named counter, or 0 when the span did not record it.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Trace {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Trace {
    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// A recorder whose clock starts now.
    pub fn on() -> Trace {
        Trace {
            origin: Some(Instant::now()),
            ..Trace::off()
        }
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let Some(origin) = self.origin else { return };
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_s: origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.iter().rev().nth(1).copied(),
            run: self.run,
            counters: Vec::new(),
        });
    }

    /// Closes the innermost open span, attaching `counters`.
    pub fn exit(&mut self, counters: &[(&'static str, f64)]) {
        let Some(origin) = self.origin else { return };
        let idx = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.end_s = origin.elapsed().as_secs_f64();
        span.counters.extend_from_slice(counters);
    }

    /// Closes every span left open by a solve that panicked, so the
    /// recorder stays usable for the next solve.
    pub fn close_open(&mut self) {
        while !self.open.is_empty() {
            self.exit(&[]);
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the durations of its direct
    /// children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(n, v)| format!("\"{n}\": {}", crate::json::number(*v)))
                .collect();
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"counters\": {{{}}}}}{}\n",
                s.name,
                crate::json::number(s.start_s),
                crate::json::number(s.end_s),
                s.run,
                counters.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::off();
        t.enter("a");
        t.exit(&[("x", 1.0)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::on();
        t.enter("root");
        t.enter("child");
        t.enter("grandchild");
        t.exit(&[]);
        t.exit(&[("n", 3.0)]);
        t.exit(&[]);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].counter("n"), 3.0);
        let own = t.self_times();
        let eps = 1e-12;
        assert!((own[0] - (spans[0].duration() - spans[1].duration())).abs() < eps);
        assert!((own[1] - (spans[1].duration() - spans[2].duration())).abs() < eps);
        assert!((own[2] - spans[2].duration()).abs() < eps);
    }

    #[test]
    fn close_open_unwinds_the_stack() {
        let mut t = Trace::on();
        t.enter("a");
        t.enter("b");
        t.close_open();
        assert!(t.spans().iter().all(|s| s.end_s.is_finite()));
    }
}
