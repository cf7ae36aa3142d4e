//! Interleaved RGB images and channel plumbing for the multi-channel
//! sharpening extension.
//!
//! The paper's pipeline is single-channel. The common production uses it
//! mentions (TV, camera) sharpen colour frames either per-channel or on a
//! luma plane; this module provides the conversions both modes need.

use crate::image::{quantize, ImageF32, ImageU8};

/// Interleaved 8-bit RGB image (`[r, g, b, r, g, b, ...]`, row major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImageU8 {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RgbImageU8 {
    /// Creates a black image.
    pub fn zeros(width: usize, height: usize) -> Self {
        RgbImageU8 {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Wraps an interleaved byte vector.
    ///
    /// # Panics
    /// If `data.len() != width * height * 3`.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height * 3, "RGB byte count mismatch");
        RgbImageU8 {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw interleaved bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Pixel accessor: `(r, g, b)` at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let i = (y * self.width + x) * 3;
        (self.data[i], self.data[i + 1], self.data[i + 2])
    }

    /// Pixel mutator.
    pub fn set(&mut self, x: usize, y: usize, rgb: (u8, u8, u8)) {
        let i = (y * self.width + x) * 3;
        self.data[i] = rgb.0;
        self.data[i + 1] = rgb.1;
        self.data[i + 2] = rgb.2;
    }

    /// One interleaved row: `3 * width` bytes.
    pub fn row(&self, y: usize) -> &[u8] {
        let stride = self.width * 3;
        &self.data[y * stride..(y + 1) * stride]
    }

    fn row_mut(&mut self, y: usize) -> &mut [u8] {
        let stride = self.width * 3;
        &mut self.data[y * stride..(y + 1) * stride]
    }

    /// A planar image whose row `y` is `fill(self.row(y), row)`.
    fn planar(&self, fill: impl Fn(&[u8], &mut [f32])) -> ImageF32 {
        let mut p = ImageF32::zeros(self.width, self.height);
        // A zero-width image has no rows to fill; `max(1)` only keeps the
        // chunk size valid.
        for (y, dst) in p
            .pixels_mut()
            .chunks_exact_mut(self.width.max(1))
            .enumerate()
        {
            fill(self.row(y), dst);
        }
        p
    }

    /// Splits into three planar `f32` channels `(r, g, b)`.
    pub fn split_channels(&self) -> (ImageF32, ImageF32, ImageF32) {
        let plane = |c| self.planar(|src, dst| channel_row(src, c, dst));
        (plane(0), plane(1), plane(2))
    }

    /// Recombines planar `f32` channels (clamped to `[0,255]`).
    ///
    /// # Panics
    /// If channel shapes differ.
    pub fn merge_channels(r: &ImageF32, g: &ImageF32, b: &ImageF32) -> Self {
        assert_eq!(
            (r.width(), r.height()),
            (g.width(), g.height()),
            "channel shape mismatch"
        );
        assert_eq!(
            (r.width(), r.height()),
            (b.width(), b.height()),
            "channel shape mismatch"
        );
        let mut out = RgbImageU8::zeros(r.width(), r.height());
        for (c, plane) in [r, g, b].into_iter().enumerate() {
            for y in 0..out.height {
                interleave_row(plane.row(y), c, out.row_mut(y));
            }
        }
        out
    }

    /// BT.601 luma plane (`0.299 R + 0.587 G + 0.114 B`).
    pub fn to_luma(&self) -> ImageF32 {
        self.planar(luma_row)
    }

    /// Rebuilds an RGB image from this one with its luma plane replaced:
    /// each pixel is scaled by `new_luma / old_luma`. This is the "sharpen
    /// luma only" mode that avoids colour fringing.
    pub fn with_luma(&self, new_luma: &ImageF32) -> RgbImageU8 {
        assert_eq!(
            (self.width, self.height),
            (new_luma.width(), new_luma.height()),
            "luma shape mismatch"
        );
        let mut out = RgbImageU8::zeros(self.width, self.height);
        for y in 0..self.height {
            rescale_row(self.row(y), new_luma.row(y), out.row_mut(y));
        }
        out
    }

    /// Builds an RGB test card from three generator functions.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> (u8, u8, u8),
    ) -> Self {
        let mut img = RgbImageU8::zeros(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }
}

/// BT.601 luma of one pixel.
#[inline]
fn luma(&[r, g, b]: &[u8; 3]) -> f32 {
    0.299 * f32::from(r) + 0.587 * f32::from(g) + 0.114 * f32::from(b)
}

// Row-level conversions between one interleaved RGB row (`3 * w` bytes)
// and one planar row (`w` values). The whole-image conversions above are
// folds over these, and the GPU pipeline's colour transfer edge calls them
// row by row, so both paths convert with the same code.

/// Widens channel `c` (0 = R, 1 = G, 2 = B) of an interleaved row into
/// `dst`.
///
/// # Panics
/// If `c > 2`.
pub fn channel_row(src: &[u8], c: usize, dst: &mut [f32]) {
    assert!(c < 3, "channel {c} out of range");
    for (d, px) in dst.iter_mut().zip(src.as_chunks::<3>().0) {
        *d = f32::from(px[c]);
    }
}

/// BT.601 luma of an interleaved row into `dst`.
pub fn luma_row(src: &[u8], dst: &mut [f32]) {
    for (d, px) in dst.iter_mut().zip(src.as_chunks::<3>().0) {
        *d = luma(px);
    }
}

/// Quantizes `src` (see [`quantize`]) into channel `c` of an interleaved
/// row, leaving the other two channels as they are.
///
/// # Panics
/// If `c > 2`.
pub fn interleave_row(src: &[f32], c: usize, dst: &mut [u8]) {
    assert!(c < 3, "channel {c} out of range");
    for (px, &v) in dst.as_chunks_mut::<3>().0.iter_mut().zip(src) {
        px[c] = quantize(v);
    }
}

/// Writes the interleaved row `src` rescaled to the luma row `new_luma`
/// into `dst`: each pixel is scaled by `max(new, 0) / max(old, 1e-3)`,
/// where `old` is the pixel's own BT.601 luma, and quantized.
pub fn rescale_row(src: &[u8], new_luma: &[f32], dst: &mut [u8]) {
    let pixels = src.as_chunks::<3>().0.iter().zip(new_luma);
    for (out, (px, &new)) in dst.as_chunks_mut::<3>().0.iter_mut().zip(pixels) {
        let scale = new.max(0.0) / luma(px).max(1e-3);
        *out = px.map(|v| quantize(f32::from(v) * scale));
    }
}

/// Converts a grayscale image to RGB (replicating the channel).
pub fn gray_to_rgb(img: &ImageU8) -> RgbImageU8 {
    RgbImageU8::from_fn(img.width(), img.height(), |x, y| {
        let v = img.get(x, y);
        (v, v, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_merge_roundtrip() {
        let img = RgbImageU8::from_fn(4, 3, |x, y| ((x * 20) as u8, (y * 30) as u8, 77));
        let (r, g, b) = img.split_channels();
        let back = RgbImageU8::merge_channels(&r, &g, &b);
        assert_eq!(back, img);
    }

    #[test]
    fn luma_weights() {
        let mut img = RgbImageU8::zeros(1, 1);
        img.set(0, 0, (255, 0, 0));
        assert!((img.to_luma().get(0, 0) - 0.299 * 255.0).abs() < 1e-3);
        img.set(0, 0, (255, 255, 255));
        assert!((img.to_luma().get(0, 0) - 255.0).abs() < 1e-3);
    }

    #[test]
    fn with_luma_scales_brightness() {
        let mut img = RgbImageU8::zeros(1, 1);
        img.set(0, 0, (100, 100, 100));
        let brighter = ImageF32::filled(1, 1, 200.0);
        let out = img.with_luma(&brighter);
        assert_eq!(out.get(0, 0), (200, 200, 200));
    }

    #[test]
    fn gray_to_rgb_replicates() {
        let g = ImageU8::from_vec(2, 1, vec![10, 250]);
        let rgb = gray_to_rgb(&g);
        assert_eq!(rgb.get(0, 0), (10, 10, 10));
        assert_eq!(rgb.get(1, 0), (250, 250, 250));
    }

    /// The per-pixel loops the whole-image conversions used before they
    /// became folds over the row helpers, kept as the oracle.
    fn oracle_luma(img: &RgbImageU8) -> Vec<f32> {
        img.bytes()
            .chunks_exact(3)
            .map(|px| {
                0.299 * f32::from(px[0]) + 0.587 * f32::from(px[1]) + 0.114 * f32::from(px[2])
            })
            .collect()
    }

    #[test]
    fn row_folds_match_the_per_pixel_loops() {
        let mut state = 0x2545_f491_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for (w, h) in [(1, 1), (3, 5), (17, 4), (64, 9)] {
            let img = RgbImageU8::from_fn(w, h, |_, _| {
                let v = next();
                (v as u8, (v >> 8) as u8, (v >> 16) as u8)
            });
            let old = oracle_luma(&img);
            let luma = img.to_luma();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(luma.pixels()), bits(&old), "{w}x{h}");
            // New luma values off the u8 grid, negative and above 255.
            let new = ImageF32::from_fn(w, h, |x, y| (x * 37 + y * 11) as f32 * 0.731 - 20.0);
            let mut want = Vec::new();
            for (i, px) in img.bytes().chunks_exact(3).enumerate() {
                let scale = new.pixels()[i].max(0.0) / old[i].max(1e-3);
                want.extend(
                    px.iter()
                        .map(|&v| (f32::from(v) * scale).clamp(0.0, 255.0).round() as u8),
                );
            }
            assert_eq!(img.with_luma(&new).bytes(), &want[..], "{w}x{h}");
            let (r, g, b) = img.split_channels();
            for (c, plane) in [&r, &g, &b].into_iter().enumerate() {
                let want: Vec<f32> = img
                    .bytes()
                    .iter()
                    .skip(c)
                    .step_by(3)
                    .map(|&v| f32::from(v))
                    .collect();
                assert_eq!(plane.pixels(), &want[..], "{w}x{h} channel {c}");
            }
            let shifted = |p: &ImageF32| ImageF32::from_fn(w, h, |x, y| p.get(x, y) * 1.3 - 9.5);
            let (r2, g2, b2) = (shifted(&r), shifted(&g), shifted(&b));
            let mut want = Vec::new();
            for i in 0..w * h {
                for p in [&r2, &g2, &b2] {
                    want.push(p.pixels()[i].clamp(0.0, 255.0).round() as u8);
                }
            }
            assert_eq!(RgbImageU8::merge_channels(&r2, &g2, &b2).bytes(), &want[..]);
        }
    }

    #[test]
    #[should_panic(expected = "RGB byte count mismatch")]
    fn from_vec_checks_len() {
        let _ = RgbImageU8::from_vec(2, 2, vec![0; 11]);
    }
}
