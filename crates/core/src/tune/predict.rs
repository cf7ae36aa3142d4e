//! The closed-form cost predictor: exact simulated seconds of one frame
//! with zero execution.
//!
//! [`predict_frame`] is an ordered fold of [`simgpu::timing`] durations
//! over the frame's [`FrameProgram`] — the same commands, in the same
//! order, that the executing [`simgpu::queue::CommandQueue`] commits, each
//! timed by the identical cost function. Because the executed virtual
//! clock is itself an ordered `f64` sum (`clock += duration` per command)
//! and every duration is a pure function of the program's closed-form
//! counters, the prediction is `.to_bits()`-identical to what running the
//! pipeline reports — not merely close. The agreement sweep in
//! `tests/tune.rs` enforces that across all 64 configs, both schedules and
//! multiple device profiles.
//!
//! This module must stay execution-free — no pipelines, no queues, no
//! buffers (a lint rule enforces it).

use simgpu::device::{CpuSpec, DeviceSpec};

use crate::gpu::{FrameProgram, OptConfig, Schedule, Tuning};

/// One predicted command record: the name the executing queue would give
/// it and its simulated duration.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedCommand {
    /// Command name (kernel name, `"write:padded"`, `"host:reduction"`,
    /// `"finish"`, ...), matching the executed record's name.
    pub name: String,
    /// Simulated duration in seconds.
    pub seconds: f64,
}

/// The predicted frame: total simulated seconds plus the per-command
/// breakdown, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted end-to-end simulated seconds (`.to_bits()`-identical to
    /// the executed `RunReport::total_s`).
    pub total_s: f64,
    /// Per-command breakdown in the order the queue would record them.
    pub commands: Vec<PredictedCommand>,
}

/// Predicts the exact simulated seconds of one `(w, h)` frame under the
/// given configuration, with zero execution: the ordered sum of the
/// durations of its [`FrameProgram`]'s commands. The result is
/// `.to_bits()`-identical to `GpuPipeline::run(...).total_s` for both the
/// monolithic and every banded schedule.
///
/// # Errors
/// On unsupported shapes.
pub fn predict_frame(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
    schedule: Schedule,
    dev: &DeviceSpec,
    cpu: &CpuSpec,
) -> Result<Prediction, String> {
    let program = FrameProgram::build(w, h, opts, tuning, schedule)?;
    let mut total_s = 0.0;
    let commands = program
        .commands()
        .iter()
        .map(|c| {
            let seconds = c.seconds(dev, cpu);
            total_s += seconds;
            PredictedCommand {
                name: c.name().to_string(),
                seconds,
            }
        })
        .collect();
    Ok(Prediction { total_s, commands })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_rejects_tiny_shapes() {
        let dev = DeviceSpec::firepro_w8000();
        let cpu = CpuSpec::core_i5_3470();
        assert!(predict_frame(
            2,
            2,
            &OptConfig::all(),
            &Tuning::default(),
            Schedule::Monolithic,
            &dev,
            &cpu
        )
        .is_err());
    }

    #[test]
    fn prediction_total_is_the_ordered_command_sum() {
        let dev = DeviceSpec::firepro_w8000();
        let cpu = CpuSpec::core_i5_3470();
        let p = predict_frame(
            256,
            256,
            &OptConfig::all(),
            &Tuning::default(),
            Schedule::Monolithic,
            &dev,
            &cpu,
        )
        .unwrap();
        let mut sum = 0.0f64;
        for cmd in &p.commands {
            sum += cmd.seconds;
        }
        assert_eq!(sum.to_bits(), p.total_s.to_bits());
        assert!(p.total_s > 0.0);
    }
}
