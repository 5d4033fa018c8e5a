//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only by the benchmark's own code, around
//! each call into a layer's public functions. A span has a name, start,
//! end, parent and op id. Nested spans on one thread never overlap, so
//! the time a span's children cover is the sum of their durations, and
//! self time is `duration - children`. Per-name totals are kept online;
//! the individual spans are stored up to a cap and written out at exit.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the stored list, `u32::MAX` for roots
    /// (and for parents that fell beyond the storage cap).
    parent: u32,
    op: u32,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans`, or `u32::MAX` past the cap.
    slot: u32,
}

/// Totals for one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    op: u32,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    totals: Vec<(&'static str, Totals)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        op: 0,
        cap: 0,
        spans: Vec::new(),
        dropped: 0,
        stack: Vec::with_capacity(64),
        totals: Vec::with_capacity(32),
    });
}

/// Reserve room for `cap` stored spans. Spans past the cap still count
/// in the totals but are not written out.
pub fn init(cap: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.cap = cap;
        r.spans = Vec::with_capacity(cap);
    });
}

/// Turn recording on or off. Off, [`span`] costs one thread-local read.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Start the next op: spans opened from now on carry its id.
pub fn next_op() {
    REC.with(|r| r.borrow_mut().op += 1);
}

/// Closes its span when dropped.
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.active {
            close();
        }
    }
}

/// Open a span named `name`; it closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { active: false };
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let slot = if r.spans.len() < r.cap {
            let parent = r.stack.last().map_or(u32::MAX, |o| o.slot);
            let op = r.op;
            r.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            (r.spans.len() - 1) as u32
        } else {
            r.dropped += 1;
            u32::MAX
        };
        r.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
        Guard { active: true }
    })
}

fn close() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let open = r.stack.pop().expect("span guard closes an open span");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.slot != u32::MAX {
            r.spans[open.slot as usize].end_ns = end_ns;
        }
        let t = match r.totals.iter().position(|(n, _)| *n == open.name) {
            Some(i) => &mut r.totals[i].1,
            None => {
                r.totals.push((open.name, Totals::default()));
                &mut r.totals.last_mut().expect("just pushed").1
            }
        };
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    })
}

/// Totals for `name` since the recorder started.
pub fn totals(name: &str) -> Totals {
    REC.with(|r| {
        r.borrow()
            .totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    })
}

/// Write the stored spans as CSV (`id,name,start_ns,end_ns,parent,op`)
/// followed by a per-name summary, both to `path`.
pub fn write(path: &Path) -> std::io::Result<()> {
    REC.with(|r| {
        let r = r.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,op")?;
        for (i, s) in r.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "# dropped past cap: {}", r.dropped)?;
        writeln!(w, "# name,calls,total_ns,self_ns")?;
        for (name, t) in &r.totals {
            writeln!(w, "# {name},{},{},{}", t.calls, t.total_ns, t.self_ns)?;
        }
        w.flush()
    })
}
