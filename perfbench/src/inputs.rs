//! Seeded inputs: the workload programs each benchmark workload runs.
//!
//! Seed 0 reproduces `atum_workloads::mix_std()` exactly, so its figures
//! line up with EXPERIMENTS.md. Any other seed permutes the process order
//! of the mix and moves each program's work parameter (an iteration or
//! element count, or a data length) within ±`BAND_PERMILLE`‰ of its
//! default. The matrix order, whose work grows faster than linearly,
//! keeps its default.

use atum_workloads::{heap_walk, lexer, list_chase, matrix, Workload};

/// Half-width of the parameter band, in parts per thousand.
pub const BAND_PERMILLE: u64 = 20;

/// The mix's scheduling quantum, as in the Full-scale experiments.
pub const MIX_QUANTUM: u32 = 60_000;

/// SplitMix64: a tiny, well-mixed generator (no dependencies).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Picks work parameters from a seed; seed 0 keeps every default.
struct Params {
    rng: Option<Rng>,
}

impl Params {
    fn new(seed: u64) -> Params {
        Params {
            rng: (seed != 0).then_some(Rng(seed)),
        }
    }

    /// `base` moved within the band, rounded to a multiple of `step`.
    fn scaled(&mut self, base: u32, step: u32) -> u32 {
        let Some(rng) = self.rng.as_mut() else {
            return base;
        };
        let permille = 1000 - BAND_PERMILLE + rng.next() % (2 * BAND_PERMILLE + 1);
        let v = u64::from(base) * permille / 1000;
        let v = u32::try_from(v).expect("a value within 2% of a u32 fits");
        (v / step).max(1) * step
    }

    /// Fisher–Yates shuffle (identity at seed 0).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        let Some(rng) = self.rng.as_mut() else {
            return;
        };
        for i in (1..items.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The standard 4-process multiprogramming mix.
pub fn mix(seed: u64) -> Vec<Workload> {
    let mut p = Params::new(seed);
    let mut mix = vec![
        matrix("matrix", 16),
        list_chase("list", 1_024, p.scaled(40_000, 1)),
        lexer("lexer", p.scaled(8_192, 16), 3),
        heap_walk("heap", 24, p.scaled(1_500, 1)),
    ];
    p.shuffle(&mut mix);
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_standard_inputs() {
        assert_eq!(mix(0), atum_workloads::mix_std());
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
    }
}
