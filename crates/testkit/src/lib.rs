//! What the workspace's seeded randomized tests share: one PRNG and one
//! way to pick seeds.
//!
//! The generator is a hand-rolled xorshift64 so no test-only dependency
//! decides a property, and a seed replays the exact stream on every
//! platform. Every seeded suite runs its default seeds, or the one seed
//! in the `MCS_SEED` environment variable when it is set:
//! `MCS_SEED=<seed> cargo test -p mcs-net --test twin -- --nocapture`.

/// xorshift64 (shifts 13/7/17) — deterministic, seedable, no
/// dependencies. Seed 0 would be a fixed point, so it is mapped to a
/// fixed non-zero constant.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// A uniformly chosen element of `items` (non-empty).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// The seeds a randomized test runs: the one in `MCS_SEED` when it is set
/// (to replay a failure), otherwise `defaults`.
///
/// # Panics
///
/// If `MCS_SEED` is set but is not an unsigned integer — a typo must not
/// silently fall back to the defaults.
pub fn seeds(defaults: &[u64]) -> Vec<u64> {
    match std::env::var("MCS_SEED") {
        Ok(s) => vec![s.trim().parse().unwrap_or_else(|_| panic!("MCS_SEED={s:?} is not a u64"))],
        Err(_) => defaults.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream every seeded suite's recorded inputs were drawn from.
    #[test]
    fn stream_is_pinned() {
        let mut r = Rng::new(42);
        let first = [r.next(), r.next(), r.next()];
        assert_eq!(first, [45_454_805_674, 11_532_217_803_599_905_471, 10_021_416_941_527_320_954]);
        let mut z = Rng::new(0);
        let mut c = Rng::new(0x9E37_79B9_7F4A_7C15);
        assert_eq!(z.next(), c.next());
    }
}
