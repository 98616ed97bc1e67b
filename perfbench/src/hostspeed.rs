//! A fixed piece of work that gauges how fast the host runs right now.
//!
//! The host shares its cores with other machines' work, and its speed
//! drifts by ~10–20% over minutes, for every piece of code alike. The probe
//! does the same work every time — a small coset-style search: XOR each of
//! 64 candidate masks into a line, cost the result against the stored line
//! with bit-plane logic and popcounts, keep the cheapest — so the time it
//! takes moves with the host and never with the program's code.

use std::time::Instant;

/// Candidate masks per search.
const MASKS: usize = 64;
/// Lines searched per probe.
const LINES: usize = 1024;

/// Seconds one probe takes on the host these figures come from (2-vCPU
/// Xeon, 105 MiB L3) when it is not slowed down. Only ratios to it matter:
/// scaled times read as if the host had run at this speed.
pub const REFERENCE_S: f64 = 0.0017;

/// Alternate bits: the low bit of every 2-bit cell.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// The probe's fixed inputs and the contents it rewrites.
pub struct HostProbe {
    masks: Vec<[u64; 8]>,
    lines: Vec<[u64; 8]>,
    stored: Vec<[u64; 8]>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Generates the inputs (the same on every run).
    pub fn new() -> HostProbe {
        let mut state = 0x005E_ED0F_5EED_u64;
        let mut lines = |n: usize| -> Vec<[u64; 8]> {
            (0..n)
                .map(|_| {
                    let mut line = [0u64; 8];
                    for w in &mut line {
                        state = mix(state);
                        *w = state;
                    }
                    line
                })
                .collect()
        };
        HostProbe {
            masks: lines(MASKS),
            lines: lines(LINES),
            stored: lines(LINES),
        }
    }

    /// Runs the fixed work once and returns its wall seconds.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut total = 0u64;
        for (line, stored) in self.lines.iter().zip(self.stored.iter_mut()) {
            let mut best = (u64::MAX, 0);
            for (i, mask) in self.masks.iter().enumerate() {
                let mut cost = 0u64;
                for w in 0..8 {
                    let new = line[w] ^ mask[w];
                    let diff = new ^ stored[w];
                    let high = (diff >> 1) & LOW_BITS;
                    let low = diff & LOW_BITS;
                    let both = high & low;
                    let one = (high ^ low) & !(new & LOW_BITS);
                    cost += 3 * u64::from(both.count_ones())
                        + 2 * u64::from(one.count_ones())
                        + u64::from((low & !both).count_ones());
                }
                if cost < best.0 {
                    best = (cost, i);
                }
            }
            for w in 0..8 {
                stored[w] = line[w] ^ self.masks[best.1][w];
            }
            total += best.0;
        }
        std::hint::black_box(total);
        start.elapsed().as_secs_f64()
    }
}

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
