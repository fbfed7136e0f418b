//! How fast the host is running right now, from a fixed reference kernel.
//!
//! Shared cloud hosts switch between a fast and a slow state every few
//! seconds, with no steal time to show for it: on a 2-vCPU host the same
//! BPA lifetime ran at 9.5 and at 4.8 Gw/s a few seconds apart. That swamps
//! any change a simulator patch makes, so every measured run is bracketed
//! by this kernel and its host seconds are scaled by the speed the kernel
//! saw around it. The kernel runs none of the simulator's code, so no
//! change to the program moves it. It binary-searches a 4 MiB table: of
//! the kernels tried (sorting, hash and B-tree maps, a toy wear leveler),
//! it is the one whose slowdown in the slow state matched the simulator's
//! (a log-log slope of 0.97-1.04 across the four schemes).

use std::hint::black_box;
use std::time::Instant;

/// Entries of the searched table (4 MiB of `u32`).
const TABLE: usize = 1 << 20;
/// Lookups per measurement (about 4 ms).
const SEARCHES: u64 = 1 << 15;

/// Lookup rate of the nominal host: a 2-vCPU cloud host in its fast
/// state. It only sets the scale of a factor of 1.
const NOMINAL_SEARCHES_PER_S: f64 = 8e6;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's table, built once.
pub struct HostSpeed {
    table: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed { table: (0..TABLE as u32).map(|i| i * 3).collect() }
    }

    /// The host's speed now relative to the nominal host.
    pub fn factor(&mut self) -> f64 {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut hits = 0u64;
        let t = Instant::now();
        for _ in 0..SEARCHES {
            let k = (xorshift(&mut x) % (3 * TABLE as u64)) as u32;
            hits += u64::from(self.table.binary_search(&k).is_ok());
        }
        let searches_per_s = SEARCHES as f64 / t.elapsed().as_secs_f64();
        black_box(hits);
        searches_per_s / NOMINAL_SEARCHES_PER_S
    }

    /// Run `f`, and return its value with the host speed factor measured
    /// just before and just after it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, Speed) {
        let before = self.factor();
        let value = f();
        let after = self.factor();
        (value, Speed { before, after })
    }
}

/// Host speed factors measured around one run.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    pub before: f64,
    pub after: f64,
}

impl Speed {
    pub fn mean(self) -> f64 {
        (self.before + self.after) / 2.0
    }
}
