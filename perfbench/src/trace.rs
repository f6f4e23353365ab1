//! In-memory spans recorded around calls into the library.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans are kept in memory for the whole run and rendered once,
//! when the run ends, with each name's self time (its duration minus the
//! part its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    /// Span name, as in the per-layer metric table.
    name: &'static str,
    /// Seconds since the tracer started.
    start: f64,
    /// Seconds since the tracer started; equal to `start` while open.
    end: f64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
}

impl Span {
    /// Wall seconds the span covered.
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans; see the module documentation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    ///
    /// # Panics
    /// Panics unless `id` is the innermost open span.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.duration()
    }

    /// Runs `f` inside a leaf span; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        let secs = self.exit(id);
        (out, secs)
    }

    /// Per-name totals `(count, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += s.duration() - children;
        }
        out
    }

    /// The span table written when the run ends: one line per name, then
    /// one line per span with its parent.
    pub fn render(&self) -> String {
        let mut out = String::from("# spans by name: count total_s self_s\n");
        for (name, (count, total, own)) in self.summary() {
            let _ = writeln!(out, "{name:<34} {count:>6} {total:>12.6} {own:>12.6}");
        }
        out.push_str("# spans: id name start_s end_s parent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{i} {} {:.6} {:.6} {parent}", s.name, s.start, s.end);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let outer = t.enter("outer");
        let ((), inner) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.exit(outer);
        let s = t.summary();
        assert_eq!(s["outer"].0, 1);
        assert!((s["outer"].2 - (total - inner)).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.render().contains("inner"));
    }
}
