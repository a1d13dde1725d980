//! Seeded generator, order statistics and process memory readings.

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose, derived from a seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v`.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Interquartile distance of `v` as a share of its median (0 when the
/// median is 0), using the same linear interpolation as Python's
/// `statistics.quantiles(v, n=4)`.
pub fn spread(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / med
    }
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Current resident set in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// Peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}
