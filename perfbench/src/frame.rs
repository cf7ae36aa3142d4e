//! One traced pipeline frame: `PipelinePlan::run` timed from outside,
//! with the kernel spans of the program's own span tree
//! (`Context::with_spans`) imported as children of the frame span.

use sharpness::core::gpu::{GpuPipeline, PipelinePlan, Schedule};
use sharpness::core::{OptConfig, RunReport, SharpnessParams, Tuning};
use sharpness::imagekit::ImageF32;
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::DeviceSpec;
use sharpness::simgpu::span::SpanKind;

use crate::report::KERNELS;
use crate::trace::Tracer;

/// Counts and simulated lanes of one executed frame, from the plan's
/// `FrameTelemetry` and its context's pool statistics.
#[derive(Debug, Clone, Default)]
pub struct FrameStat {
    pub upload_s: f64,
    pub compute_s: f64,
    pub download_s: f64,
    pub dispatches: u64,
    pub commands: u64,
    /// Global-memory bytes the cost model charges the frame's kernels
    /// (computed, not measured).
    pub kernel_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evicted: u64,
    /// Wall time of `PipelinePlan::run`, ms.
    pub frame_wall_ms: f64,
}

/// The kernel bucket a kernel name is reported under.
pub fn kernel_key(name: &str) -> &str {
    KERNELS
        .iter()
        .find(|k| {
            name.strip_prefix(**k)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
        })
        .copied()
        .unwrap_or("other")
}

/// A pipeline on a fresh span-recording context, configured the way
/// `sharpen` configures one for a single plane.
pub fn traced_pipeline(spec: &DeviceSpec, params: SharpnessParams, opts: OptConfig) -> GpuPipeline {
    GpuPipeline::new(Context::new(spec.clone()).with_spans(), params, opts)
        .with_tuning(Tuning::default())
        .with_schedule(Schedule::Monolithic)
}

/// Runs one frame on `plan` inside a `pipeline.frame` span and imports
/// the frame's kernel spans as its children.
pub fn run(
    tr: &mut Tracer,
    plan: &mut PipelinePlan,
    plane: &ImageF32,
    parent: u64,
    request: u64,
) -> Result<(RunReport, FrameStat), String> {
    let id = tr.begin("pipeline.frame", parent, request);
    let report = plan.run(plane);
    tr.end(id);
    let report = report?;
    let frame = tr.span(id).clone();

    let spans = plan.spans();
    let epoch = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Frame)
        .map(|s| s.wall_start_ns)
        .min()
        .unwrap_or(0);
    for s in spans.iter().filter(|s| s.kind == SpanKind::Kernel) {
        let start = frame.start_ns + s.wall_start_ns.saturating_sub(epoch);
        let end = frame.start_ns + s.wall_end_ns.saturating_sub(epoch);
        let name = format!("kernel.{}", kernel_key(&s.name));
        tr.record(&name, id, request, start, end.min(frame.end_ns), s.sim_s());
    }

    let tel = plan.telemetry();
    let pool = plan.pipeline().context().pool_stats();
    let st = FrameStat {
        upload_s: tel.upload_s,
        compute_s: tel.compute_s,
        download_s: tel.download_s,
        dispatches: tel.kernels.iter().map(|k| k.dispatches).sum(),
        commands: tel.commands,
        kernel_bytes: tel.kernel_global_bytes(),
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pool_evicted: pool.evicted,
        frame_wall_ms: frame.wall_ms(),
    };
    Ok((report, st))
}
