//! Analog precision model for photonic computation.
//!
//! The paper's fabric performs "8-bit equivalent analog computation"
//! (Table 1). Three effects bound the precision of an MZIM matrix-vector
//! product:
//!
//! 1. **Input quantization** — the modulation DACs drive the input MZIs with
//!    finite resolution.
//! 2. **Phase quantization** — the phase-shifter DACs program θ/φ with
//!    finite resolution.
//! 3. **Readout noise** — shot/thermal noise at the PD + TIA + ADC chain,
//!    modelled as additive Gaussian noise before output quantization.
//!
//! [`AnalogModel`] bundles these knobs; `AnalogModel::eight_bit()` is the
//! paper's operating point.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Precision model applied around an ideal E-field simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogModel {
    /// Input DAC resolution in bits (0 disables input quantization).
    pub input_bits: u32,
    /// Phase-shifter DAC resolution in bits (0 disables phase quantization).
    pub phase_bits: u32,
    /// Readout ADC resolution in bits (0 disables output quantization).
    pub output_bits: u32,
    /// Standard deviation of additive readout noise, relative to the
    /// full-scale output amplitude.
    pub readout_noise_rel: f64,
}

impl AnalogModel {
    /// An ideal (noise- and quantization-free) model.
    pub fn ideal() -> Self {
        AnalogModel {
            input_bits: 0,
            phase_bits: 0,
            output_bits: 0,
            readout_noise_rel: 0.0,
        }
    }

    /// The paper's 8-bit equivalent operating point.
    ///
    /// Readout noise of 0.1 % of full scale keeps the end-to-end error at
    /// the 8-bit level (1 LSB ≈ 0.4 % of full scale).
    pub fn eight_bit() -> Self {
        AnalogModel {
            input_bits: 8,
            phase_bits: 8,
            output_bits: 8,
            readout_noise_rel: 1e-3,
        }
    }

    /// Quantizes `x` to a symmetric signed grid of `bits` bits over
    /// `[-full_scale, +full_scale]`. `bits == 0` returns `x` unchanged.
    pub fn quantize(x: f64, bits: u32, full_scale: f64) -> f64 {
        if bits == 0 || full_scale <= 0.0 {
            return x;
        }
        let levels = (1u64 << (bits - 1)) as f64 - 1.0; // e.g. 127 for 8 bits
        let clamped = x.clamp(-full_scale, full_scale);
        (clamped / full_scale * levels).round() / levels * full_scale
    }

    /// Quantizes a slice in place with the input DAC resolution, using the
    /// slice's own max magnitude as full scale.
    pub fn quantize_inputs(&self, xs: &mut [f64]) {
        if self.input_bits == 0 {
            return;
        }
        let fs = xs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for x in xs.iter_mut() {
            *x = Self::quantize(*x, self.input_bits, fs);
        }
    }

    /// Quantizes a phase (radians, full scale 2π).
    pub fn quantize_phase(&self, phase: f64) -> f64 {
        if self.phase_bits == 0 {
            return phase;
        }
        let step = 2.0 * std::f64::consts::PI / (1u64 << self.phase_bits) as f64;
        (phase / step).round() * step
    }

    /// Applies readout noise and output quantization to a slice, using the
    /// slice's own max magnitude as full scale. Deterministic for a given
    /// `seed`.
    pub fn apply_readout(&self, ys: &mut [f64], seed: u64) {
        let fs = ys.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if fs == 0.0 {
            return;
        }
        if self.readout_noise_rel > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed);
            for y in ys.iter_mut() {
                *y += gaussian(&mut rng) * self.readout_noise_rel * fs;
            }
        }
        if self.output_bits > 0 {
            for y in ys.iter_mut() {
                *y = Self::quantize(*y, self.output_bits, fs);
            }
        }
    }
}

impl Default for AnalogModel {
    fn default() -> Self {
        AnalogModel::eight_bit()
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > 1e-300 {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_passes_through() {
        let m = AnalogModel::ideal();
        let mut xs = vec![0.123456789, -0.987654321];
        let orig = xs.clone();
        m.quantize_inputs(&mut xs);
        assert_eq!(xs, orig);
        m.apply_readout(&mut xs, 1);
        assert_eq!(xs, orig);
        assert_eq!(m.quantize_phase(1.234567), 1.234567);
    }

    #[test]
    fn quantize_grid() {
        // 8 bits: 127 levels per side.
        let q = AnalogModel::quantize(0.5, 8, 1.0);
        assert!((q - (0.5f64 * 127.0).round() / 127.0).abs() < 1e-15);
        // Quantization error bounded by half an LSB.
        for i in 0..100 {
            let x = -1.0 + 0.02 * i as f64;
            let q = AnalogModel::quantize(x, 8, 1.0);
            assert!((q - x).abs() <= 0.5 / 127.0 + 1e-12);
        }
    }

    #[test]
    fn quantize_clamps_overrange() {
        assert_eq!(AnalogModel::quantize(2.0, 8, 1.0), 1.0);
        assert_eq!(AnalogModel::quantize(-2.0, 8, 1.0), -1.0);
    }

    #[test]
    fn quantize_idempotent() {
        let q1 = AnalogModel::quantize(0.3333, 8, 1.0);
        let q2 = AnalogModel::quantize(q1, 8, 1.0);
        assert_eq!(q1, q2);
    }

    #[test]
    fn eight_bit_error_is_small() {
        let m = AnalogModel::eight_bit();
        let mut xs: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.7).sin()).collect();
        let orig = xs.clone();
        m.quantize_inputs(&mut xs);
        for (a, b) in xs.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1.0 / 127.0);
        }
    }

    #[test]
    fn phase_quantization_step() {
        let m = AnalogModel::eight_bit();
        let q = m.quantize_phase(1.0);
        let step = 2.0 * std::f64::consts::PI / 256.0;
        assert!((q / step - (q / step).round()).abs() < 1e-9);
        assert!((q - 1.0).abs() <= step / 2.0 + 1e-12);
    }

    #[test]
    fn readout_noise_deterministic_per_seed() {
        let m = AnalogModel {
            readout_noise_rel: 0.01,
            ..AnalogModel::ideal()
        };
        let mut a = vec![1.0, -0.5, 0.25];
        let mut b = vec![1.0, -0.5, 0.25];
        m.apply_readout(&mut a, 7);
        m.apply_readout(&mut b, 7);
        assert_eq!(a, b);
        let mut c = vec![1.0, -0.5, 0.25];
        m.apply_readout(&mut c, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn readout_on_zero_vector_is_noop() {
        let m = AnalogModel::eight_bit();
        let mut zs = vec![0.0; 4];
        m.apply_readout(&mut zs, 3);
        assert_eq!(zs, vec![0.0; 4]);
    }

    #[test]
    fn default_is_eight_bit() {
        assert_eq!(AnalogModel::default(), AnalogModel::eight_bit());
    }
}
