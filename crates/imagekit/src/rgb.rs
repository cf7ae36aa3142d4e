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

    /// Splits into three planar `f32` channels `(r, g, b)`.
    pub fn split_channels(&self) -> (ImageF32, ImageF32, ImageF32) {
        let n = self.width * self.height;
        let mut r = Vec::with_capacity(n);
        let mut g = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for px in self.data.chunks_exact(3) {
            r.push(f32::from(px[0]));
            g.push(f32::from(px[1]));
            b.push(f32::from(px[2]));
        }
        (
            ImageF32::from_vec(self.width, self.height, r),
            ImageF32::from_vec(self.width, self.height, g),
            ImageF32::from_vec(self.width, self.height, b),
        )
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
        let mut data = Vec::with_capacity(r.len() * 3);
        for ((&vr, &vg), &vb) in r.pixels().iter().zip(g.pixels()).zip(b.pixels()) {
            data.extend_from_slice(&[quantize(vr), quantize(vg), quantize(vb)]);
        }
        RgbImageU8 {
            width: r.width(),
            height: r.height(),
            data,
        }
    }

    /// BT.601 luma plane (`0.299 R + 0.587 G + 0.114 B`).
    pub fn to_luma(&self) -> ImageF32 {
        let mut data = Vec::with_capacity(self.width * self.height);
        for px in self.data.chunks_exact(3) {
            data.push(
                0.299 * f32::from(px[0]) + 0.587 * f32::from(px[1]) + 0.114 * f32::from(px[2]),
            );
        }
        ImageF32::from_vec(self.width, self.height, data)
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
        let old = self.to_luma();
        let mut out = RgbImageU8::zeros(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let (r, g, b) = self.get(x, y);
                let o = old.get(x, y).max(1e-3);
                let scale = new_luma.get(x, y).max(0.0) / o;
                out.set(
                    x,
                    y,
                    (
                        quantize(f32::from(r) * scale),
                        quantize(f32::from(g) * scale),
                        quantize(f32::from(b) * scale),
                    ),
                );
            }
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

    #[test]
    #[should_panic(expected = "RGB byte count mismatch")]
    fn from_vec_checks_len() {
        let _ = RgbImageU8::from_vec(2, 2, vec![0; 11]);
    }
}
