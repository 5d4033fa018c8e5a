//! Host-speed reference for the untraced timings.
//!
//! On a host shared with other tenants the same code runs up to 2×
//! slower for seconds at a time. The untraced run therefore times this
//! fixed, benchmark-owned loop — small-allocation churn plus a pointer
//! chase through an L2-sized table, the two kinds of work whose speed
//! tracked the runtime's best — between rounds, at most once a
//! millisecond, and expresses op times at the host speed on which the
//! loop takes [`NOMINAL_US`].
//! The loop uses only the standard library, so a change to the program
//! never changes the reference.

use std::hint::black_box;
use std::time::Instant;

/// Reference-loop time that defines the reported time scale.
pub const NOMINAL_US: f64 = 60.0;

pub struct Reference {
    /// A single-cycle permutation of `0..len`, as a successor table.
    next: Vec<u32>,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Reference {
    pub fn new() -> Self {
        let n = 1usize << 14;
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, (splitmix(i as u64) % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; n];
        for k in 0..n {
            next[order[k] as usize] = order[(k + 1) % n];
        }
        Reference { next }
    }

    fn work(&self) -> u64 {
        let mut live: Vec<Vec<u8>> = Vec::with_capacity(64);
        let mut acc = 0u64;
        for i in 0..1500u64 {
            let h = splitmix(i);
            live.push(vec![h as u8; (h % 200) as usize + 8]);
            if live.len() > 50 {
                acc += live.swap_remove((h % 50) as usize).len() as u64;
            }
        }
        let mut at = 0u32;
        for _ in 0..8000 {
            at = self.next[at as usize];
        }
        acc + u64::from(at)
    }

    /// The loop's wall time in µs: the fastest of three back-to-back
    /// runs, so caches the program just used are refilled first.
    pub fn time_us(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(self.work());
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min)
    }
}
