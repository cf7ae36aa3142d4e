//! Colour-frame sharpening built on the grayscale pipeline.
//!
//! The paper's algorithm is single-channel; its motivating applications
//! (TV, camera, VCR) process colour frames. Two standard strategies are
//! provided — both are thin orchestration over any [`Sharpener`]
//! implementation (CPU or GPU pipeline):
//!
//! * [`ColorMode::LumaOnly`] — sharpen the BT.601 luma plane and rescale
//!   the RGB pixels by the luma ratio. One pipeline run; chroma untouched,
//!   so no colour fringing.
//! * [`ColorMode::PerChannel`] — sharpen R, G and B independently. Three
//!   runs; maximum acuity, may fringe on saturated edges.
//!
//! [`sharpen_rgb_on_plan`] runs either mode on one prepared GPU plan at
//! the 8-bit transfer edge: no planar copy of the frame is made on the
//! host, and the output bytes and simulated seconds are those of
//! [`sharpen_rgb`] on a [`GpuPipeline`] of the same configuration.

use imagekit::rgb;
use imagekit::{ImageF32, RgbImageU8};

use crate::cpu::CpuPipeline;
use crate::gpu::pipeline::{FrameSource, RgbPlane};
use crate::gpu::{GpuPipeline, PipelinePlan};
use crate::report::RunReport;

/// Anything that can sharpen one grayscale plane.
pub trait Sharpener {
    /// Sharpens one plane, returning the full run report.
    ///
    /// # Errors
    /// On unsupported shapes or invalid parameters.
    fn sharpen(&self, plane: &ImageF32) -> Result<RunReport, String>;
}

impl Sharpener for CpuPipeline {
    fn sharpen(&self, plane: &ImageF32) -> Result<RunReport, String> {
        self.run(plane)
    }
}

impl Sharpener for GpuPipeline {
    fn sharpen(&self, plane: &ImageF32) -> Result<RunReport, String> {
        self.run(plane)
    }
}

/// Colour sharpening strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorMode {
    /// Sharpen the luma plane only (one run, fringe-free).
    LumaOnly,
    /// Sharpen each RGB channel (three runs, maximum acuity).
    PerChannel,
}

/// Result of sharpening a colour frame.
#[derive(Debug, Clone)]
pub struct ColorRun {
    /// The sharpened frame.
    pub output: RgbImageU8,
    /// Total simulated time across the underlying plane runs.
    pub total_s: f64,
    /// Number of grayscale pipeline runs performed (1 or 3).
    pub plane_runs: usize,
}

/// Sharpens a colour frame with the given strategy.
///
/// # Errors
/// Propagates plane-run failures (e.g. frame dimensions not multiples
/// of 4).
pub fn sharpen_rgb(
    sharpener: &impl Sharpener,
    frame: &RgbImageU8,
    mode: ColorMode,
) -> Result<ColorRun, String> {
    match mode {
        ColorMode::LumaOnly => {
            let luma = frame.to_luma();
            let run = sharpener.sharpen(&luma)?;
            Ok(ColorRun {
                output: frame.with_luma(&run.output),
                total_s: run.total_s,
                plane_runs: 1,
            })
        }
        ColorMode::PerChannel => {
            let (r, g, b) = frame.split_channels();
            let mut total = 0.0;
            let mut outs = Vec::with_capacity(3);
            for ch in [r, g, b] {
                let run = sharpener.sharpen(&ch)?;
                total += run.total_s;
                outs.push(run.output);
            }
            Ok(ColorRun {
                output: RgbImageU8::merge_channels(&outs[0], &outs[1], &outs[2]),
                total_s: total,
                plane_runs: 3,
            })
        }
    }
}

/// Sharpens a colour frame with the given strategy on one prepared plan,
/// through the 8-bit transfer edge: the padded upload gathers each plane
/// (or computes the luma plane) straight from the interleaved bytes, and
/// the readback quantizes each final row into its channel of the
/// interleaved output (or rescales the row's pixels by the luma ratio).
///
/// Output bytes and `total_s` (summed `0.0 + r + g + b` per channel) are
/// bit-identical to [`sharpen_rgb`] with a [`GpuPipeline`] of the plan's
/// configuration. Afterwards the plan's records, spans and telemetry
/// describe the last frame it ran: the B plane, or the luma plane.
///
/// # Errors
/// If the frame's shape differs from the plan's, or on simulated-runtime
/// faults.
pub fn sharpen_rgb_on_plan(
    plan: &mut PipelinePlan,
    frame: &RgbImageU8,
    mode: ColorMode,
) -> Result<ColorRun, String> {
    let (w, h) = (frame.width(), frame.height());
    let mut out = vec![0u8; w * h * 3];
    let row = |y: usize| y * w * 3..(y + 1) * w * 3;
    let (total_s, plane_runs) = match mode {
        ColorMode::LumaOnly => {
            let src = FrameSource::Rgb(frame, RgbPlane::Luma);
            let s = plan.run_rows(src, &mut |y, luma| {
                rgb::rescale_row(frame.row(y), luma, &mut out[row(y)])
            })?;
            (s, 1)
        }
        ColorMode::PerChannel => {
            let mut total = 0.0;
            for c in 0..3 {
                let src = FrameSource::Rgb(frame, RgbPlane::Channel(c));
                total += plan.run_rows(src, &mut |y, plane| {
                    rgb::interleave_row(plane, c, &mut out[row(y)])
                })?;
            }
            (total, 3)
        }
    };
    Ok(ColorRun {
        output: RgbImageU8::from_vec(w, h, out),
        total_s,
        plane_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::OptConfig;
    use crate::params::SharpnessParams;
    use imagekit::{generate, metrics};
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    fn frame() -> RgbImageU8 {
        let base = generate::natural(64, 64, 5).to_u8();
        let tex = generate::value_noise(64, 64, 7, 3);
        RgbImageU8::from_fn(64, 64, |x, y| {
            (
                base.get(x, y),
                tex.get(x, y) as u8,
                128u8.saturating_sub(base.get(x, y) / 2),
            )
        })
    }

    fn gpu() -> GpuPipeline {
        GpuPipeline::new(
            Context::new(DeviceSpec::firepro_w8000()),
            SharpnessParams::default(),
            OptConfig::all(),
        )
    }

    #[test]
    fn luma_only_is_one_run_per_channel_is_three() {
        let f = frame();
        let luma = sharpen_rgb(&gpu(), &f, ColorMode::LumaOnly).unwrap();
        let rgb = sharpen_rgb(&gpu(), &f, ColorMode::PerChannel).unwrap();
        assert_eq!(luma.plane_runs, 1);
        assert_eq!(rgb.plane_runs, 3);
        assert!(rgb.total_s > 2.0 * luma.total_s);
    }

    #[test]
    fn both_modes_increase_luma_sharpness() {
        let f = frame();
        let before = metrics::gradient_energy(&f.to_luma());
        for mode in [ColorMode::LumaOnly, ColorMode::PerChannel] {
            let run = sharpen_rgb(&gpu(), &f, mode).unwrap();
            let after = metrics::gradient_energy(&run.output.to_luma());
            assert!(after > before, "{mode:?}: {after} <= {before}");
        }
    }

    #[test]
    fn cpu_and_gpu_sharpeners_agree() {
        let f = frame();
        let cpu = sharpen_rgb(
            &CpuPipeline::new(SharpnessParams::default()),
            &f,
            ColorMode::PerChannel,
        )
        .unwrap();
        let gpu = sharpen_rgb(&gpu(), &f, ColorMode::PerChannel).unwrap();
        // u8 quantisation plus reduction rounding: allow ±1 levels.
        for (a, b) in cpu.output.bytes().iter().zip(gpu.output.bytes()) {
            assert!(a.abs_diff(*b) <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_entry_matches_sharpen_rgb_and_rejects_other_shapes() {
        let f = frame();
        let mut plan = gpu().prepared(64, 64).unwrap();
        for mode in [ColorMode::PerChannel, ColorMode::LumaOnly] {
            let got = sharpen_rgb_on_plan(&mut plan, &f, mode).unwrap();
            let want = sharpen_rgb(&gpu(), &f, mode).unwrap();
            assert_eq!(got.output, want.output, "{mode:?}");
            assert_eq!(got.total_s.to_bits(), want.total_s.to_bits(), "{mode:?}");
            assert_eq!(got.plane_runs, want.plane_runs, "{mode:?}");
        }
        let small = RgbImageU8::zeros(32, 64);
        let err = sharpen_rgb_on_plan(&mut plan, &small, ColorMode::PerChannel).unwrap_err();
        assert!(err.contains("plan prepared for 64x64"), "{err}");
    }

    #[test]
    fn gray_frame_keeps_channels_locked() {
        // A grayscale frame must stay grayscale through either mode.
        let g = generate::natural(32, 32, 8).to_u8();
        let f = imagekit::rgb::gray_to_rgb(&g);
        for mode in [ColorMode::LumaOnly, ColorMode::PerChannel] {
            let run = sharpen_rgb(&gpu(), &f, mode).unwrap();
            for y in 0..32 {
                for x in 0..32 {
                    let (r, gg, b) = run.output.get(x, y);
                    assert!(r.abs_diff(gg) <= 1 && gg.abs_diff(b) <= 1);
                }
            }
        }
    }
}
