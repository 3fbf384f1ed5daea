//! Seeded case loops for property suites: plain `cargo test`, no
//! external generator crate. Each case draws from its own
//! `child_rng(SEED, "<property>/<case>")` stream, so a failure names a
//! case that replays alone.

use crate::{child_rng, Rng};

/// Parent seed of every case stream.
const SEED: u64 = 0x9e37_79b9;
/// Cases per property.
const CASES: usize = 256;

/// Names the failing case on the way out of a panicking property.
struct Case<'a>(&'a str, usize);

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property '{}' failed at case {} (seed {SEED:#x})",
                self.0, self.1
            );
        }
    }
}

/// Runs `body` once per case (256 of them) on that case's own random
/// stream.
pub fn cases(property: &str, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let _guard = Case(property, case);
        body(&mut child_rng(SEED, &format!("{property}/{case}")));
    }
}

/// A vector of `lo..=hi` items drawn by `item`.
pub fn vec_of<T>(
    rng: &mut Rng,
    lo: usize,
    hi: usize,
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    (0..rng.range_usize(lo, hi)).map(|_| item(rng)).collect()
}

/// A string of `lo..=hi` characters from `alphabet` (ASCII).
pub fn string_of(rng: &mut Rng, alphabet: &[u8], lo: usize, hi: usize) -> String {
    vec_of(rng, lo, hi, |r| char::from(*r.choose(alphabet)))
        .into_iter()
        .collect()
}
