//! Host-speed calibration: a fixed reference loop timed between the
//! measured steps, so the run's host-time figures can be scaled to a
//! reference host speed.
//!
//! The host is shared. Other tenants slow it by up to 2× for minutes at
//! a time, which no sample taken inside one run can see past. The
//! reference loop is a small byte-code interpreter over a 1 MiB table:
//! branchy, indirect, cache-bound work like the simulator's, and none of
//! the repository's code, so a change to the program moves the measured
//! steps and never the loop. README.md (*Noise*) has the measurements
//! behind the choice.

use std::hint::black_box;
use std::time::Instant;

/// Interpreter steps per sample: about 13 ms on an uncontended host.
const STEPS: usize = 3_000_000;

/// The reference loop's time on the uncontended host the baseline was
/// recorded on (its median over a quiet minute). A run whose samples
/// have this median reports its figures unscaled.
pub const REFERENCE_S: f64 = 0.0133;

/// The reference loop's inputs and the times it took.
#[derive(Debug)]
pub struct Calibration {
    code: Vec<u8>,
    data: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            code: (0..1u64 << 16)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
            data: vec![7; 1 << 18],
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Runs the reference loop once and records its time.
    pub fn sample(&mut self) {
        self.data.fill(7);
        let t0 = Instant::now();
        black_box(interpret(black_box(&self.code), &mut self.data, STEPS));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// Every recorded time, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// How many times slower than the reference host this run's host
    /// was: the median sample over [`REFERENCE_S`] (1 with no samples).
    pub fn slowness(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            crate::median(&self.samples) / REFERENCE_S
        }
    }
}

/// An eight-opcode accumulator machine: `code` drives loads, stores,
/// arithmetic and data-dependent jumps over `data` (both lengths are
/// powers of two).
fn interpret(code: &[u8], data: &mut [u32], steps: usize) -> u32 {
    let (cmask, dmask) = (code.len() - 1, data.len() - 1);
    let (mut pc, mut acc) = (0usize, 0u32);
    for _ in 0..steps {
        let op = code[pc];
        pc = (pc + 1) & cmask;
        match op & 7 {
            0 => acc = acc.wrapping_add(data[acc as usize & dmask]),
            1 => data[(acc as usize ^ pc) & dmask] = acc,
            2 => acc ^= acc << 3,
            3 => {
                if acc & 1 == 0 {
                    pc = (pc + (acc as usize & 63)) & cmask;
                }
            }
            4 => acc = acc.rotate_left(5),
            5 => acc = acc.wrapping_mul(31),
            6 => acc = acc.wrapping_sub(data[pc & dmask]),
            _ => acc = !acc,
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_median_over_the_reference() {
        let mut c = Calibration::default();
        assert_eq!(c.slowness(), 1.0);
        c.samples = vec![REFERENCE_S, 3.0 * REFERENCE_S, 2.0 * REFERENCE_S];
        assert!((c.slowness() - 2.0).abs() < 1e-12);
        c.sample();
        assert_eq!(c.samples().len(), 4);
    }

    #[test]
    fn the_loop_is_deterministic() {
        let a = Calibration::default();
        let mut d1 = a.data.clone();
        let mut d2 = a.data.clone();
        assert_eq!(
            interpret(&a.code, &mut d1, 10_000),
            interpret(&a.code, &mut d2, 10_000)
        );
        assert_eq!(d1, d2);
    }
}
