//! The benchmark's `LoopKernel` wrapper: forwards to the real kernel,
//! records every executed range for the output checks, and opens a
//! `kernels.execute` span in the traced run.

use crate::spans;
use homp_core::{LoopKernel, Range};
use homp_model::KernelIntensity;
use std::cell::RefCell;
use std::time::Instant;

/// Executed ranges, tagged by request (or pipeline stage).
#[derive(Default)]
pub struct Log {
    pub ranges: Vec<(u32, Range)>,
    pub calls: u64,
    /// When each tag's latest execute call ended, for tags below
    /// `last.len()` (the serve workload times requests by it).
    pub last: Vec<Option<Instant>>,
}

impl Log {
    /// Forget the previous op's ranges (capacity is kept).
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.calls = 0;
        self.last.iter_mut().for_each(|t| *t = None);
    }

    pub fn record(&mut self, tag: u32, r: Range) {
        self.ranges.push((tag, r));
        self.calls += 1;
        if let Some(t) = self.last.get_mut(tag as usize) {
            *t = Some(Instant::now());
        }
    }

    /// Whether, for every tag `t < tags`, the ranges recorded under `t`
    /// partition `[0, n_of(t))` exactly once.
    pub fn partitions(&mut self, tags: u32, n_of: impl Fn(u32) -> u64) -> bool {
        self.ranges.sort_unstable_by_key(|&(t, r)| (t, r.start));
        let mut it = self.ranges.iter().peekable();
        for t in 0..tags {
            let mut next = 0u64;
            while let Some(&&(tag, r)) = it.peek() {
                if tag != t {
                    break;
                }
                if r.start != next || r.end < r.start {
                    return false;
                }
                next = r.end;
                it.next();
            }
            if next != n_of(t) {
                return false;
            }
        }
        it.next().is_none()
    }
}

/// A kernel whose executed ranges land in a shared [`Log`].
pub struct Recorded<'a, K> {
    pub inner: K,
    pub tag: u32,
    pub log: &'a RefCell<Log>,
}

impl<K: LoopKernel> LoopKernel for Recorded<'_, K> {
    fn intensity(&self) -> KernelIntensity {
        self.inner.intensity()
    }

    fn execute(&mut self, range: Range) {
        let _s = spans::span("kernels.execute");
        self.inner.execute(range);
        self.log.borrow_mut().record(self.tag, range);
    }
}
