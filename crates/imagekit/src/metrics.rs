//! Image quality / sharpness metrics.
//!
//! Used by the examples and tests to demonstrate that the pipeline actually
//! sharpens (gradient energy goes up) without blowing up the signal (PSNR
//! against the original stays bounded, overshoot keeps pixels in range).

use crate::image::{ImageF32, ImageU8};

/// Arithmetic mean of all pixels.
pub fn mean(img: &ImageF32) -> f64 {
    if img.is_empty() {
        return 0.0;
    }
    img.pixels().iter().map(|&v| f64::from(v)).sum::<f64>() / img.len() as f64
}

/// Mean squared error between two same-shaped images.
///
/// # Panics
/// If shapes differ.
pub fn mse(a: &ImageF32, b: &ImageF32) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "shape mismatch"
    );
    if a.is_empty() {
        return 0.0;
    }
    a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Peak signal-to-noise ratio in dB for 8-bit range, `inf` for identical
/// images.
pub fn psnr(a: &ImageF32, b: &ImageF32) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / e).log10()
    }
}

/// Mean absolute gradient (forward differences): a simple sharpness index.
/// Sharpened images score higher than their originals.
pub fn gradient_energy(img: &ImageF32) -> f64 {
    let mut g = GradientEnergy::new(img.width());
    for y in 0..img.height() {
        g.push_row(img.row(y));
    }
    g.finish()
}

/// [`gradient_energy`] of an 8-bit image, bit-identical to
/// `gradient_energy(&img.to_f32())`: every difference is an integer, so
/// the sum is exact in integers, as is every partial sum of the serial
/// f64 order (each stays below 2^53 for any image under ~10^13 pixels).
pub fn gradient_energy_u8(img: &ImageU8) -> f64 {
    let (w, h) = (img.width(), img.height());
    if w < 2 || h < 2 {
        return 0.0;
    }
    let mut acc = 0u64;
    for y in 0..h - 1 {
        let (row, below) = (img.row(y), img.row(y + 1));
        let row_sum: u64 = row
            .windows(2)
            .zip(below)
            .map(|(p, &d)| u64::from(p[1].abs_diff(p[0])) + u64::from(d.abs_diff(p[0])))
            .sum();
        acc += row_sum;
    }
    acc as f64 / ((w - 1) * (h - 1) * 2) as f64
}

/// Row-streaming [`gradient_energy`]: push the rows top to bottom, then
/// [`GradientEnergy::finish`]. It sums in the same serial f64 order as the
/// whole-image form, so the result is bit-identical; a row is folded in
/// when the row below it arrives.
#[derive(Debug, Clone)]
pub struct GradientEnergy {
    width: usize,
    rows: usize,
    prev: Vec<f32>,
    acc: f64,
}

impl GradientEnergy {
    /// An empty accumulator for rows of `width` pixels.
    pub fn new(width: usize) -> Self {
        GradientEnergy {
            width,
            rows: 0,
            prev: vec![0.0; width],
            acc: 0.0,
        }
    }

    /// Adds the next row (top to bottom).
    ///
    /// # Panics
    /// If `row.len()` differs from the width.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row length mismatch");
        if self.rows > 0 {
            for (p, &d) in self.prev.windows(2).zip(row) {
                let v = f64::from(p[0]);
                self.acc += (f64::from(p[1]) - v).abs();
                self.acc += (f64::from(d) - v).abs();
            }
        }
        self.prev.copy_from_slice(row);
        self.rows += 1;
    }

    /// The mean absolute gradient of the rows pushed so far.
    pub fn finish(self) -> f64 {
        let (w, h) = (self.width, self.rows);
        if w < 2 || h < 2 {
            return 0.0;
        }
        self.acc / ((w - 1) * (h - 1) * 2) as f64
    }
}

/// Fraction of pixels outside `[0, 255]` (overshoot-control verification:
/// must be zero on final output).
pub fn out_of_range_fraction(img: &ImageF32) -> f64 {
    if img.is_empty() {
        return 0.0;
    }
    let n = img
        .pixels()
        .iter()
        .filter(|&&v| !(0.0..=255.0).contains(&v))
        .count();
    n as f64 / img.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn mean_of_constant() {
        let img = ImageF32::filled(8, 8, 42.0);
        assert!((mean(&img) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn mse_and_psnr_basics() {
        let a = ImageF32::filled(4, 4, 100.0);
        let mut b = a.clone();
        assert_eq!(mse(&a, &b), 0.0);
        assert!(psnr(&a, &b).is_infinite());
        b.set(0, 0, 110.0);
        assert!((mse(&a, &b) - 100.0 / 16.0).abs() < 1e-9);
        assert!(psnr(&a, &b) > 30.0);
    }

    #[test]
    fn gradient_energy_orders_content() {
        let flat = ImageF32::filled(32, 32, 10.0);
        let soft = generate::gradient(32, 32);
        let hard = generate::checkerboard(32, 32, 4);
        assert_eq!(gradient_energy(&flat), 0.0);
        assert!(gradient_energy(&soft) > 0.0);
        assert!(gradient_energy(&hard) > gradient_energy(&soft));
    }

    /// The whole-image double loop `gradient_energy` was before it became
    /// a fold over rows: the oracle for bit-identity.
    fn gradient_energy_oracle(img: &ImageF32) -> f64 {
        let (w, h) = (img.width(), img.height());
        if w < 2 || h < 2 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for y in 0..h - 1 {
            for x in 0..w - 1 {
                let v = f64::from(img.get(x, y));
                acc += (f64::from(img.get(x + 1, y)) - v).abs();
                acc += (f64::from(img.get(x, y + 1)) - v).abs();
            }
        }
        acc / ((w - 1) * (h - 1) * 2) as f64
    }

    #[test]
    fn gradient_energy_forms_are_bit_identical() {
        let shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (17, 4), (1001, 701)];
        for (w, h) in shapes {
            for seed in [1, 7, 42] {
                let img = generate::natural(w, h, seed);
                let want = gradient_energy_oracle(&img).to_bits();
                assert_eq!(gradient_energy(&img).to_bits(), want, "{w}x{h} seed {seed}");
                let u = img.to_u8();
                let from_u8 = gradient_energy_u8(&u).to_bits();
                assert_eq!(from_u8, gradient_energy(&u.to_f32()).to_bits());
                assert_eq!(from_u8, gradient_energy_oracle(&u.to_f32()).to_bits());
            }
        }
    }

    #[test]
    fn out_of_range_detects() {
        let mut img = ImageF32::filled(2, 2, 10.0);
        assert_eq!(out_of_range_fraction(&img), 0.0);
        img.set(0, 0, -1.0);
        img.set(1, 1, 300.0);
        assert!((out_of_range_fraction(&img) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_images() {
        let empty = ImageF32::zeros(0, 0);
        assert_eq!(mean(&empty), 0.0);
        let line = ImageF32::filled(5, 1, 9.0);
        assert_eq!(gradient_energy(&line), 0.0);
    }
}
