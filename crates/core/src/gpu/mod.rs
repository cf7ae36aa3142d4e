//! GPU implementation: kernels, optimization flags, ablation measurements
//! and the pipeline.

pub mod ablate;
pub mod batch;
pub mod engine;
pub mod kernels;
pub mod megapass;
pub mod opts;
pub mod pipeline;
pub mod program;
pub mod strips;
pub mod verify;

pub use engine::{ThroughputEngine, ThroughputReport};
pub use megapass::{BandedStats, Schedule};
pub use opts::{OptConfig, Tuning};
pub use pipeline::{GpuPipeline, PipelinePlan};
pub use program::FrameProgram;
pub use verify::{enumerate_access, verify_static, StaticDispatch, StaticReport};
