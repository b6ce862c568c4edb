//! Small self-contained helpers: a seeded generator, FNV-1a digests,
//! percentiles and peak RSS. None of them comes from the crates under
//! test, so a checker never shares code with what it checks.

/// SplitMix64: the same seed gives the same stream on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Two distinct indices in `0..n` (`n > 1`).
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n);
        (a, (a + 1 + self.below(n - 1)) % n)
    }
}

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of `xs` (`0 < p < 100`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Whether `p` leaves at least ten samples above it among `n`.
pub fn tail_ok(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

/// Peak resident set size (`VmHWM`) of a process in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The reference computation's time, in µs, on the host speed that the
/// normalised metrics are stated at (about the fastest a 2-vCPU host of
/// a shared machine ran it; slower stretches read up to 850 µs).
pub const REFERENCE_US: f64 = 500.0;

/// Time in µs of one run of a fixed computation that touches none of the
/// crates under test: sort seeded words, then fold them into a B-tree.
/// Sampled between operations, its median tracks how fast the host runs
/// while the operations are timed.
pub fn reference_us() -> f64 {
    let t = std::time::Instant::now();
    let mut rng = Rng::new(7);
    let mut words: Vec<u64> = (0..5_000).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let mut tree = std::collections::BTreeMap::new();
    for (i, w) in words.iter().enumerate() {
        *tree.entry(w % 4096).or_insert(0u64) += i as u64;
    }
    std::hint::black_box(tree.values().sum::<u64>());
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert!(tail_ok(1000, 99.0));
        assert!(!tail_ok(999, 99.0));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(3);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(3);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(4).next_u64(), a[0]);
    }
}
