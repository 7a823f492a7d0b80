//! Host-speed calibration.
//!
//! The benchmark's host is shared, and the speed of its CPUs changes with
//! what its neighbours run: over minutes, the same `execute` has taken
//! anywhere from 1× to 2.2× the CPU time, with hardly any steal. A fixed
//! unit of work owned by the benchmark, timed right beside every measured
//! operation, tracks that speed. Every end-to-end time is reported at the
//! reference speed: its CPU time × `NOMINAL_MS` / the calibration's CPU
//! time around it.
//!
//! The unit is a plain CSR × dense product over a fixed random input, run
//! on the calling thread: spawning threads for it would cost more CPU time,
//! and vary more, than the product itself. It shares no code with the
//! program, so no change to the program moves it.

use crate::clock::{Lap, Stopwatch};
use crate::rng::Rng;
use crate::stats::median;
use std::hint::black_box;

/// The calibration's CPU time, in ms, at the reference host speed: this
/// defines the reference. (On a shared 2-vCPU AVX-512 host the unit took
/// 0.9–1.0 ms.)
pub const NOMINAL_MS: f64 = 1.0;

/// Rows, columns and non-zeros per row of the calibration matrix,
/// columns of its dense operand, and timed passes over it per sample. The
/// input (~190 KiB) stays in a core's private caches.
const ROWS: usize = 1024;
const COLS: usize = 512;
const ROW_NNZ: usize = 16;
const N: usize = 32;
const PASSES: usize = 8;

/// Calibration samples each side of an operation that scale it.
const HALF_WINDOW: usize = 16;

/// The fixed calibration input and the speed samples taken so far.
pub struct Calibration {
    cols: Vec<u32>,
    vals: Vec<f32>,
    b: Vec<f32>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// The fixed input (independent of the run's seed).
    pub fn new() -> Self {
        let mut rng = Rng::new(0xCA11_B4A7E);
        let cols = (0..ROWS * ROW_NNZ).map(|_| rng.below(COLS) as u32).collect();
        let vals = (0..ROWS * ROW_NNZ).map(|_| rng.unit() as f32 - 0.5).collect();
        let b = (0..COLS * N).map(|_| rng.unit() as f32 - 0.5).collect();
        Self { cols, vals, b, samples_ms: Vec::new() }
    }

    /// One pass of the product.
    fn pass(&self) -> f32 {
        let mut out = [0f32; N];
        let mut acc = 0f32;
        for (r, (cols, vals)) in
            self.cols.chunks_exact(ROW_NNZ).zip(self.vals.chunks_exact(ROW_NNZ)).enumerate()
        {
            out.fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                let row = &self.b[c as usize * N..][..N];
                for (o, &bv) in out.iter_mut().zip(row) {
                    *o += v * bv;
                }
            }
            acc += out[r % N];
        }
        acc
    }

    /// Records the CPU time of `PASSES` passes, after one untimed pass that
    /// brings the input back into cache: what the operation before left
    /// there must not move the sample.
    fn sample(&mut self) {
        black_box(self.pass());
        let sw = Stopwatch::start();
        for _ in 0..PASSES {
            black_box(self.pass());
        }
        self.samples_ms.push(sw.lap().cpu_ms);
    }

    /// Host speed factor for the operation timed just before calibration
    /// sample `i`: `NOMINAL_MS` over the median of the samples within
    /// `HALF_WINDOW` of it.
    fn factor(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(HALF_WINDOW);
        let hi = (i + HALF_WINDOW + 1).min(self.samples_ms.len());
        NOMINAL_MS / median(&self.samples_ms[lo..hi])
    }

    /// The median calibration time of the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// An operation's times and the calibration sample taken right after it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lap: Lap,
    at: usize,
}

impl Calibration {
    /// Samples the host speed right after an operation timed as `lap`.
    pub fn follow(&mut self, lap: Lap) -> Sample {
        self.sample();
        Sample { lap, at: self.samples_ms.len() - 1 }
    }

    /// The CPU time of `lap` at the reference host speed, in ms, from the
    /// latest calibration samples: for virtual clocks, which cannot wait
    /// for later ones. Needs at least one sample taken.
    pub fn scale_latest(&self, lap: Lap) -> f64 {
        lap.cpu_ms * self.factor(self.samples_ms.len() - 1)
    }

    /// The CPU times of `samples` at the reference host speed, in ms.
    pub fn scaled_ms(&self, samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| s.lap.cpu_ms * self.factor(s.at)).collect()
    }
}
