//! What the workspace's randomized tests share: one PRNG, one way to pick
//! seeds, and the few generators the property tests draw their inputs
//! from.
//!
//! The generator is a hand-rolled xorshift64 so no test-only dependency
//! decides a property, and a seed replays the exact stream on every
//! platform. Every randomized test in the workspace — the twin harness,
//! the index model, the frame fuzzer, the epoch test and the property
//! tests — runs its default seeds, or the one seed in the `MCS_SEED`
//! environment variable when it is set:
//! `MCS_SEED=<seed> cargo test -p mcs-net --test twin -- --nocapture`.
//!
//! A property test is a plain `#[test]` that calls [`check`]: one case per
//! seed, seeds `1..=cases` by default, and a failing case prints its seed
//! and the command that replays it. Nothing shrinks: a replay runs the
//! same input again, not a smaller one.

use std::ops::Range;

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

    /// The generator [`check`] hands the case of `seed`. The seed is
    /// multiplied by an odd constant first, so that neighbouring seeds
    /// start far apart and their first draws differ in every bit.
    pub fn for_case(seed: u64) -> Rng {
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
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

    /// True with probability `pct/100`.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A uniformly chosen element of `items` (non-empty).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A value in `r` (non-empty); any span up to the whole `i64` line.
    pub fn range(&mut self, r: Range<i64>) -> i64 {
        r.start.wrapping_add(self.below(r.end.wrapping_sub(r.start) as u64) as i64)
    }

    /// Any `f64`: half the time a raw bit pattern (extreme magnitudes,
    /// subnormals, infinities, NaN), otherwise a tame `i64 / 1e6`.
    pub fn f64(&mut self) -> f64 {
        if self.one_in(2) {
            f64::from_bits(self.next())
        } else {
            self.next() as i64 as f64 / 1e6
        }
    }

    /// `None` one time in four, otherwise a value drawn by `f`.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        if self.one_in(4) {
            None
        } else {
            Some(f(self))
        }
    }

    /// Items drawn by `f`, as many as a length uniform in `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(len.start as i64..len.end as i64);
        (0..n).map(|_| f(self)).collect()
    }

    /// A string of a length uniform in `len`, each character drawn
    /// uniformly from `class`: its characters, where `x-y` between two
    /// characters stands for the whole range (`"a-z0-9._-"`).
    pub fn string(&mut self, class: &str, len: Range<usize>) -> String {
        let pool = expand(class);
        self.vec(len, |r| *r.pick(&pool)).into_iter().collect()
    }

    /// Printable text, a length uniform in `len`: each character is
    /// printable ASCII (`' '..='~'`), or one time in ten one of
    /// `é ß α → 中 😀` (two, three and four bytes in UTF-8).
    pub fn text(&mut self, len: Range<usize>) -> String {
        self.vec(len, |r| {
            if r.one_in(10) {
                *r.pick(&MULTIBYTE)
            } else {
                char::from(b' ' + r.below(95) as u8)
            }
        })
        .into_iter()
        .collect()
    }
}

const MULTIBYTE: [char; 6] = ['é', 'ß', 'α', '→', '中', '😀'];

fn expand(class: &str) -> Vec<char> {
    let c: Vec<char> = class.chars().collect();
    let mut pool = Vec::new();
    let mut i = 0;
    while i < c.len() {
        if i + 2 < c.len() && c[i + 1] == '-' {
            pool.extend(c[i]..=c[i + 2]);
            i += 3;
        } else {
            pool.push(c[i]);
            i += 1;
        }
    }
    assert!(!pool.is_empty(), "empty character class");
    pool
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

/// Runs a property: `case` once per seed of `seeds(1..=cases)`, each time
/// on [`Rng::for_case`]. A case rejects an input it cannot use by drawing
/// again from its generator. When a case panics, the seed and the command
/// that replays it are printed: `MCS_SEED=<seed> cargo test <target>
/// <test>`, where `target` names the package and test file (`"-p xmlkit
/// --test proptests"`) and `<test>` is the running test.
pub fn check(target: &str, cases: u64, mut case: impl FnMut(&mut Rng)) {
    for seed in seeds(&(1..=cases).collect::<Vec<_>>()) {
        let _replay = Replay { seed, target };
        case(&mut Rng::for_case(seed));
    }
}

/// Prints the replay line if its case unwinds.
struct Replay<'a> {
    seed: u64,
    target: &'a str,
}

impl Drop for Replay<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            use std::io::Write;
            let test = std::thread::current().name().unwrap_or_default().to_string();
            // eprintln! panics if stderr fails, and a second panic aborts
            let _ = writeln!(
                std::io::stderr(),
                "failed at seed {0}; replay: MCS_SEED={0} cargo test {1} {test}",
                self.seed,
                self.target
            );
        }
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

    /// The helpers' streams, which the property tests' inputs are drawn
    /// from.
    #[test]
    fn helper_streams_are_pinned() {
        let mut r = Rng::for_case(42);
        let ranges: Vec<i64> = (0..4).map(|_| r.range(-5..5)).collect();
        let floats: Vec<u64> = (0..2).map(|_| r.f64().to_bits()).collect();
        let options: Vec<Option<u64>> = (0..4).map(|_| r.option(|r| r.below(100))).collect();
        let chances: Vec<bool> = (0..4).map(|_| r.chance(50)).collect();
        assert_eq!(ranges, [3, 1, -5, -1]);
        assert_eq!(floats, [15_842_840_095_881_983_634, 14_022_541_235_381_904_997]);
        assert_eq!(options, [None, None, Some(38), Some(50)]);
        assert_eq!(chances, [true, false, true, false]);
        assert_eq!(r.vec(1..5, |r| r.below(10)), [6, 5]);
        assert_eq!(r.string("a-c_-", 1..6), "-ba-a");
        assert_eq!(r.string("a-c_-", 1..6), "ac___");
        assert_eq!(r.text(3..8), "{K1wm4\"");
    }

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| Rng::for_case(seed).text(0..65);
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::for_case(1);
        let small: std::collections::BTreeSet<i64> = (0..200).map(|_| r.range(-2..3)).collect();
        assert_eq!(small.into_iter().collect::<Vec<_>>(), [-2, -1, 0, 1, 2]);
        for _ in 0..200 {
            let v = r.range(-50_000_000_000..50_000_000_000);
            assert!((-50_000_000_000..50_000_000_000).contains(&v));
            assert!(r.range(i64::MIN..i64::MAX) < i64::MAX);
        }
    }

    #[test]
    fn vec_sizes() {
        let mut r = Rng::for_case(1);
        let lens: std::collections::BTreeSet<usize> =
            (0..200).map(|_| r.vec(3..6, |r| r.next()).len()).collect();
        assert_eq!(lens.into_iter().collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    fn class_and_length() {
        assert_eq!(expand("a-c_-"), ['a', 'b', 'c', '_', '-']);
        assert_eq!(expand("-a-b"), ['-', 'a', 'b']);
        let mut r = Rng::for_case(1);
        for _ in 0..200 {
            let s = r.string("a-c", 2..6);
            assert!((2..6).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn printable_never_emits_controls() {
        let mut r = Rng::for_case(99);
        for _ in 0..200 {
            let s = r.text(0..17);
            assert!(!s.chars().any(char::is_control), "{s:?}");
        }
    }

    /// Over 64 default seeds, `text` reaches the whole pool it stands in
    /// for: XML's special characters, two-, three- and four-byte UTF-8,
    /// and both the shortest and the longest length.
    #[test]
    fn text_covers_its_pool_over_the_default_seeds() {
        let texts: Vec<String> = (1..=64).map(|seed| Rng::for_case(seed).text(0..65)).collect();
        let all: String = texts.concat();
        for c in ['<', '&', '>', '"', '\'', ' ', '~'] {
            assert!(all.contains(c), "no {c:?}");
        }
        for width in 2..=4 {
            assert!(all.chars().any(|c| c.len_utf8() == width), "no {width}-byte character");
        }
        assert!(texts.iter().any(String::is_empty), "no empty text");
        assert!(texts.iter().any(|t| t.chars().count() == 64), "no text of the longest length");
    }
}
