//! Span recorder for the traced run.
//!
//! Spans (name, start, end, parent) and counters are kept in memory and
//! written out as JSON lines. Two moments trigger a write: the close of a
//! top-level span (its subtree and any counters are complete) and the open
//! of one, which first writes a `begin` line naming the layer about to be
//! called. A layer call that aborts the process therefore leaves every
//! span taken before it on the output, plus the `begin` line that tells
//! the reader which layer was running when the process died.
//!
//! A disabled recorder keeps no state and writes nothing; `run.py`
//! compares a disabled pass against an enabled one to report the
//! recorder's own overhead.

use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder<W: Write> {
    enabled: bool,
    t0: Instant,
    open: Vec<(usize, &'static str, u64)>,
    done: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
    next_id: usize,
    out: W,
}

impl<W: Write> Recorder<W> {
    pub fn new(out: W, enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
            counts: Vec::new(),
            next_id: 0,
            out,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        if self.open.is_empty() {
            self.flush();
            let _ = writeln!(self.out, "{{\"begin\":\"{name}\"}}");
            let _ = self.out.flush();
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, start));
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let (open_id, name, start_ns) = self.open.pop().expect("end without begin");
        assert_eq!(open_id, id, "spans must close innermost first");
        let parent = self.open.last().map(|&(p, _, _)| p);
        self.done.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        if self.open.is_empty() {
            self.flush();
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records a counter; counters with the same name are summed by the
    /// reader.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, value));
        }
    }

    /// Writes every closed span and pending counter.
    pub fn flush(&mut self) {
        for s in self.done.drain(..) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                self.out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            );
        }
        for (name, value) in self.counts.drain(..) {
            let _ = writeln!(self.out, "{{\"count\":\"{name}\",\"value\":{value}}}");
        }
        let _ = self.out.flush();
    }

    #[cfg(test)]
    pub fn into_inner(mut self) -> W {
        self.flush();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(rec: Recorder<Vec<u8>>) -> Vec<String> {
        String::from_utf8(rec.into_inner())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let mut rec = Recorder::new(Vec::new(), true);
        let outer = rec.begin("outer");
        rec.time("inner", || ());
        rec.end(outer);
        let out = lines(rec);
        assert_eq!(out[0], "{\"begin\":\"outer\"}");
        assert!(out[1].starts_with("{\"span\":\"inner\",\"id\":1,\"parent\":0,"));
        assert!(out[2].starts_with("{\"span\":\"outer\",\"id\":0,\"parent\":null,"));
    }

    #[test]
    fn closed_spans_are_written_before_the_next_layer_opens() {
        let mut rec = Recorder::new(Vec::new(), true);
        rec.time("load", || ());
        rec.count("bytes", 7.0);
        let _risky = rec.begin("hb.build");
        // The process could die here: everything before is already out.
        let out = String::from_utf8(rec.out.clone()).unwrap();
        let out: Vec<&str> = out.lines().collect();
        assert_eq!(out[0], "{\"begin\":\"load\"}");
        assert!(out[1].starts_with("{\"span\":\"load\""));
        assert_eq!(out[2], "{\"count\":\"bytes\",\"value\":7}");
        assert_eq!(out[3], "{\"begin\":\"hb.build\"}");
    }

    #[test]
    fn disabled_recorder_writes_nothing() {
        let mut rec = Recorder::new(Vec::new(), false);
        let id = rec.begin("a");
        rec.count("n", 1.0);
        rec.end(id);
        assert!(lines(rec).is_empty());
    }
}
