//! A fixed reference kernel that calibrates the host's speed.
//!
//! The host is shared with other work, and its speed for cache-heavy
//! code drifts by up to 1.65x over minutes (see README.md,
//! *Steadiness*). An ALU-only loop barely moves with it. This kernel
//! does the same kind of work as the subcommands — it fills a hash map,
//! collects its keys and sorts them — and slows down with them. It uses
//! no code of the program, so no change to the program can move it.
//! Timed between the subcommands' passes, it gives each figure a
//! host-speed factor.
//!
//! Its buffers are allocated once and reused, so it never allocates
//! after start-up and its resident size is a constant that
//! `peak_rss_mb` leaves out.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Keys per kernel call: about 15 ms on a 2.0 GHz host.
const KEYS: usize = 200_000;

/// Untimed calls at start-up, which fault the buffers in.
const WARM_UP: usize = 2;

/// The kernel time of the reference host every figure is scaled to.
pub const NOMINAL: Duration = Duration::from_millis(15);

pub struct Reference {
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
    /// Resident size of the kernel's buffers, in KiB.
    pub resident_kib: u64,
}

impl Reference {
    /// Allocates and warms the kernel's buffers. Call it before any
    /// other work, so their resident size can be measured alone.
    pub fn new() -> Result<Reference, String> {
        let before = crate::status_kib("VmRSS")?;
        let mut r = Reference {
            map: HashMap::with_capacity(KEYS),
            keys: Vec::with_capacity(KEYS),
            resident_kib: 0,
        };
        for _ in 0..WARM_UP {
            r.time();
        }
        r.resident_kib = crate::status_kib("VmRSS")?.saturating_sub(before);
        Ok(r)
    }

    /// Runs the kernel once and returns its wall time.
    pub fn time(&mut self) -> Duration {
        let t0 = Instant::now();
        self.map.clear();
        self.keys.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..KEYS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.map.insert(x, i);
        }
        self.keys.extend(self.map.keys().copied());
        self.keys.sort_unstable();
        std::hint::black_box(self.keys[KEYS / 2]);
        t0.elapsed()
    }
}

/// How much slower than the reference host the host ran: the mean of
/// `samples` over `NOMINAL`.
pub fn slowdown(samples: &[Duration]) -> f64 {
    let total: Duration = samples.iter().sum();
    total.as_secs_f64() / samples.len().max(1) as f64 / NOMINAL.as_secs_f64()
}
