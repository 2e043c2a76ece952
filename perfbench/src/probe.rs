//! A fixed host-speed probe that uses none of the program's code.
//!
//! A few vCPUs of a shared VM drift in speed by up to about 1.6x within
//! a minute or two, as neighbours come and go on the same cores, and
//! process CPU time drifts with wall time. To tell that drift from a
//! change in the program, every worker runs a short probe slice between
//! cells, at most once per [`EVERY`]: a fixed interpreter-like loop of
//! data-dependent dispatch, loads and stores, as the VMs' inner loops
//! are, over a 64 KiB table on the stack (no heap, so the probe leaves
//! the allocator, and peak RSS, as the cells left them). The slices
//! sample the host's speed on the same threads and in the same seconds
//! as the cells, and `run.py` scales each time by `REFERENCE_PROBE_MS`
//! over the median slice time around it (wall times by the slices' wall
//! times, CPU time by their CPU times). Slice time is left out of every
//! reported time; the probe is about 5% of a round.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Loop iterations per slice: about 5 ms on a 2.1 GHz Xeon.
const ITERATIONS: u32 = 300_000;
const TABLE: usize = 1 << 14;
/// A worker runs a slice before its next cell once this much time has
/// passed since its last one.
const EVERY: Duration = Duration::from_millis(100);

fn work(seed: u64) -> u64 {
    let mut mem = [0u32; TABLE];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for i in 0..black_box(ITERATIONS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (x >> 40) as usize % TABLE;
        let v = mem[at];
        match (x >> 33) & 7 {
            0 => mem[at] = v.wrapping_add(i),
            1 => acc ^= u64::from(v),
            2 => acc = acc.wrapping_add(u64::from(v) << 3),
            3 => mem[(at + 1) % TABLE] = v ^ acc as u32,
            4 => acc = acc.rotate_left(v & 63),
            5 => mem[at] = (acc >> 7) as u32,
            6 if v & 1 == 0 => acc = acc.wrapping_mul(3),
            _ => acc = acc.wrapping_sub(u64::from(i)),
        }
    }
    black_box(acc ^ u64::from(mem[black_box(7)]))
}

/// One slice: its midpoint in seconds since `epoch`, and its wall and
/// thread CPU time in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub mid_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One probe slice on the calling thread, timed against `epoch`.
pub fn slice_at(epoch: Instant) -> Sample {
    let cpu0 = crate::thread_cpu_s();
    let t = Instant::now();
    black_box(work(black_box(3)));
    let wall_s = t.elapsed().as_secs_f64();
    Sample {
        mid_s: t.duration_since(epoch).as_secs_f64() + wall_s / 2.0,
        wall_s,
        cpu_s: crate::thread_cpu_s() - cpu0,
    }
}

/// One probe slice on the calling thread.
pub fn slice() -> Sample {
    slice_at(Instant::now())
}

thread_local! {
    static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The slices the grid's workers ran during one round.
pub struct Pacer {
    epoch: Instant,
    slices: Mutex<Vec<Sample>>,
}

impl Pacer {
    pub fn new(epoch: Instant) -> Self {
        Pacer {
            epoch,
            slices: Mutex::new(Vec::new()),
        }
    }

    /// Called by a worker before each cell: runs a slice if this thread
    /// has not run one in the last [`EVERY`] (or ever).
    pub fn tick(&self) {
        if LAST.with(|l| l.get().is_some_and(|t| t.elapsed() < EVERY)) {
            return;
        }
        let sample = slice_at(self.epoch);
        LAST.with(|l| l.set(Some(Instant::now())));
        self.slices.lock().expect("no slice panics").push(sample);
    }

    /// Every slice of the round, in time order.
    pub fn into_samples(self) -> Vec<Sample> {
        let mut v = self.slices.into_inner().expect("no slice panics");
        v.sort_by(|a, b| a.mid_s.total_cmp(&b.mid_s));
        v
    }
}
