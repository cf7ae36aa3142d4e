//! Static access-summary verification: prove kernel bounds, race-freedom
//! and byte accounting for a pipeline configuration **without executing
//! anything** (DESIGN.md §15).
//!
//! [`verify_static`] folds the proofs over the kernel dispatches of the
//! frame's [`FrameProgram`] — the same declarations the executor hands the
//! queue — proving, per dispatch ([`Declaration::verify`]):
//!
//! * **(a) bounds** — every declared window stays inside its buffer,
//!   including the ragged tails of non-multiple-of-4 shapes;
//! * **(b) race-freedom** — write windows are internally disjoint and
//!   pairwise disjoint, so no element is stored twice in one dispatch;
//! * **(c) accounting** — the bytes the dispatch charges the cost model
//!   equal the declared write traffic exactly and bound the declared read
//!   traffic within the summary's exact overcharge ratio (for sliced
//!   dispatches the bound holds on the merged totals);
//! * **(d) coverage** — the slices of a banded dispatch exactly partition
//!   the grid: no gap, no overlap.
//!
//! Because the executor runs the program's own declarations, what is
//! proved here is what runs; sanitized runs additionally audit every
//! declaration against the per-element traffic, barriers and local-memory
//! bytes the kernels were observed to produce.
//!
//! [`Declaration::verify`]: simgpu::access::Declaration::verify

use simgpu::access::{Declaration, VerifyStats};

use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::program::FrameProgram;
use crate::gpu::Schedule;

/// One kernel dispatch of the static schedule: its descriptor, per-slice
/// access summaries in execution order, and its declared counters.
pub type StaticDispatch = Declaration;

/// The verdict of [`verify_static`]: every enumerated dispatch proved
/// sound, with aggregate counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticReport {
    /// Kernel dispatches enumerated (a sliced kernel counts once).
    pub kernels: usize,
    /// Aggregated verifier counters over every slice of every dispatch.
    pub stats: VerifyStats,
}

impl StaticReport {
    /// Publishes the verifier counters as `verify.*` metrics gauges, so
    /// the committed metric baselines catch accounting regressions.
    pub fn to_registry(&self, reg: &mut simgpu::metrics::MetricsRegistry) {
        reg.set_gauge("verify.kernels", self.kernels as f64);
        reg.set_gauge("verify.dispatches", self.stats.dispatches as f64);
        reg.set_gauge("verify.windows", self.stats.windows as f64);
        reg.set_gauge(
            "verify.declared_read_bytes",
            self.stats.declared_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.declared_write_bytes",
            self.stats.declared_write_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_read_bytes",
            self.stats.charged_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_write_bytes",
            self.stats.charged_write_bytes as f64,
        );
        reg.set_gauge("verify.max_ratio_slack", self.stats.max_ratio_slack);
    }

    /// One human-readable line for CLI summaries.
    pub fn summary_line(&self) -> String {
        format!(
            "static verifier: {} dispatches ({} slices, {} windows) proved in-bounds, \
             race-free and exactly charged; {:.3} MiB writes, {:.3} MiB reads \
             (ratio slack {:.4})",
            self.kernels,
            self.stats.dispatches,
            self.stats.windows,
            self.stats.charged_write_bytes as f64 / (1024.0 * 1024.0),
            self.stats.charged_read_bytes as f64 / (1024.0 * 1024.0),
            self.stats.max_ratio_slack,
        )
    }
}

/// Every kernel dispatch one frame would issue for this shape, flag set,
/// tuning and schedule, in commit order — the dispatches of its
/// [`FrameProgram`].
///
/// # Errors
/// On unsupported shapes (below the 3×3 minimum).
pub fn enumerate_access(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
    schedule: Schedule,
) -> Result<Vec<StaticDispatch>, String> {
    let program = FrameProgram::build(w, h, opts, tuning, schedule)?;
    Ok(program.dispatches().cloned().collect())
}

/// Statically verifies one frame of the pipeline: proves bounds, write
/// disjointness, charge accounting and slice coverage for every dispatch
/// of its [`FrameProgram`].
///
/// # Errors
/// On unsupported shapes, or with the first failed proof rendered to a
/// string — a rotted closed-form declaration.
pub fn verify_static(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
    schedule: Schedule,
) -> Result<StaticReport, String> {
    let program = FrameProgram::build(w, h, opts, tuning, schedule)?;
    let mut stats = VerifyStats::default();
    let mut kernels = 0;
    for d in program.dispatches() {
        d.verify().map_err(|e| e.to_string())?;
        d.slices.iter().for_each(|s| stats.absorb(s));
        kernels += 1;
    }
    Ok(StaticReport { kernels, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<OptConfig> {
        (0u32..64)
            .map(|bits| OptConfig {
                data_transfer: bits & 1 != 0,
                kernel_fusion: bits & 2 != 0,
                reduction_gpu: bits & 4 != 0,
                vectorization: bits & 8 != 0,
                border_gpu: bits & 16 != 0,
                others: bits & 32 != 0,
            })
            .collect()
    }

    #[test]
    fn verifies_all_configs_on_a_ragged_shape() {
        let tuning = Tuning::default();
        for opts in all_configs() {
            for schedule in [Schedule::Monolithic, Schedule::Banded(64)] {
                let r = verify_static(1001, 701, &opts, &tuning, schedule)
                    .unwrap_or_else(|e| panic!("{opts:?} {schedule:?}: {e}"));
                assert!(r.kernels >= 4, "{opts:?}: only {} dispatches", r.kernels);
                assert!(r.stats.dispatches >= r.kernels as u64);
                assert!(r.stats.max_ratio_slack >= 0.0);
                assert!(r.stats.charged_write_bytes == r.stats.declared_write_bytes);
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(verify_static(
            2,
            2,
            &OptConfig::none(),
            &Tuning::default(),
            Schedule::Monolithic
        )
        .is_err());
    }
}
