//! Span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in
//! [`Spans::time`]. With recording off the wrapper only runs the closure,
//! so the timed runs and the traced run execute the same code; the
//! difference between their wall times is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: host nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span buffer; written out once, when the benchmark ends.
pub struct Spans {
    on: bool,
    epoch: Instant,
    buf: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            buf: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut buf = self.buf.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            buf.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            buf.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.buf.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Each span's self time: its duration minus what its child spans
    /// cover.
    fn self_ns(buf: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = buf.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in buf {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        let buf = self.buf.borrow();
        buf.iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of every span that descends from a span named `root`,
    /// summed per name (the root's own self time included).
    pub fn self_under(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let buf = self.buf.borrow();
        let own = Self::self_ns(&buf);
        let under = |mut i: usize| loop {
            if buf[i].name == root {
                return true;
            }
            match buf[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        for (i, s) in buf.iter().enumerate() {
            if under(i) {
                *out.entry(s.name).or_insert(0) += own[i];
            }
        }
        out
    }

    /// Every span as one JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent` index or `null`).
    pub fn to_json(&self) -> String {
        let buf = self.buf.borrow();
        let mut out = String::from("[");
        for (i, s) in buf.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            ));
        }
        out.push(']');
        out
    }
}
