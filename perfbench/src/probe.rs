//! The reference probe: a fixed piece of benchmark-owned work whose wall
//! time gauges how fast the machine runs at the moment.
//!
//! A shared 2-vCPU VM switches between speed states about 1.5× apart, each
//! lasting from seconds to minutes, so there raw wall times of identical
//! runs spread by 20% and more. The benchmark
//! therefore times a probe on each side of every timed region and scales
//! the region's wall time to a machine on which the probe takes
//! [`REFERENCE_S`]. Raw times are reported beside the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe wall time that defines the reference speed.
pub const REFERENCE_S: f64 = 0.04;

/// Runs the probe and returns its wall seconds. The work mixes what the
/// engine spends its time on: small allocations with hashing (per-block
/// bookkeeping), lookups in a hash map larger than the L2 cache (routing
/// tables over a large block grid) and a dense multiply-add loop (block
/// kernels). Without the large map the probe tracked `nmf-wide` poorly: on
/// the 2-vCPU VM, over four minutes of alternating passes, medians of
/// 20-second windows spread 9.6% scaled by the other two parts alone and
/// 4.0% with all three.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut acc = 0.0;
    for round in 0..80u64 {
        for i in 0..2000u64 {
            map.insert(i, (0..16).map(|j| (i * 16 + j + round) as f64).collect());
        }
        acc += map.values().map(|v| v.iter().sum::<f64>()).sum::<f64>();
        map.clear();
    }

    const KEYS: u64 = 1 << 18;
    let lcg = |x: u64| {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    };
    let mut big: HashMap<u64, u64> = HashMap::with_capacity(KEYS as usize);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..KEYS {
        x = lcg(x);
        big.insert(x >> 8, i);
    }
    let mut y = 0x9E37_79B9_7F4A_7C15u64;
    let mut hits = 0u64;
    for _ in 0..KEYS {
        y = lcg(y);
        hits = hits.wrapping_add(big.get(&(y >> 8)).copied().unwrap_or(0));
    }

    const N: usize = 48;
    let a = black_box(vec![1.0001f64; N * N]);
    let mut c = vec![0.0f64; N * N];
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for (cj, aj) in c[i * N..(i + 1) * N].iter_mut().zip(&a[k * N..(k + 1) * N]) {
                    *cj += x * aj;
                }
            }
        }
    }
    black_box((acc, hits, c));
    start.elapsed().as_secs_f64()
}

/// A timed region: its raw wall seconds and the probes around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Raw wall seconds.
    pub raw_s: f64,
    /// Wall seconds scaled to the reference speed.
    pub scaled_s: f64,
}

impl Timed {
    /// Scales `raw_s` by the mean of the probes taken before and after.
    pub fn new(raw_s: f64, probe_before: f64, probe_after: f64) -> Timed {
        Timed {
            raw_s,
            scaled_s: raw_s * 2.0 * REFERENCE_S / (probe_before + probe_after),
        }
    }

    /// Scale factor from raw to reference seconds.
    pub fn factor(&self) -> f64 {
        self.scaled_s / self.raw_s
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, rhs: Timed) {
        self.raw_s += rhs.raw_s;
        self.scaled_s += rhs.scaled_s;
    }
}

/// Runs `f` between two probes, returning its result and its timing.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = probe();
    let start = Instant::now();
    let out = f();
    let raw_s = start.elapsed().as_secs_f64();
    (out, Timed::new(raw_s, before, probe()))
}
