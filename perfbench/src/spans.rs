//! Span recording for the traced run: one span per call into a layer,
//! kept in memory, reduced to per-layer self time when the run ends.
//!
//! When recording is off, [`Spans::enter`]/[`Spans::exit`] do nothing,
//! so the untraced runs execute the same code with no clock reads.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named after the layer call it wraps; its parent is
    /// the innermost span still open.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = Some(Instant::now());
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the parts of it its child spans cover. Consumes the log.
    pub fn take_self_times(&mut self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "every span is closed");
        let dur = |s: &Span| {
            s.end
                .expect("closed span")
                .duration_since(s.start)
                .as_secs_f64()
        };
        let mut own: Vec<f64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        self.spans.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        s.enter("outer");
        std::thread::sleep(Duration::from_millis(20));
        s.enter("inner");
        std::thread::sleep(Duration::from_millis(40));
        s.exit();
        s.exit();
        let t = s.take_self_times();
        assert!(t["inner"] >= 0.040);
        assert!(t["outer"] >= 0.020 && t["outer"] < 0.040, "{t:?}");
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("x");
        s.exit();
        assert!(s.take_self_times().is_empty());
    }
}
