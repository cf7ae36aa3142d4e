//! The OpenCL-style device kernels of the sharpness pipeline.
//!
//! Every kernel exists in the variants the paper evaluates: scalar
//! one-pixel-per-thread (base) and vectorized four-pixels-per-thread with
//! `vload4`/`vstore4` (Section V-D); reading the raw original buffer (base)
//! or the padded buffer uploaded with one rect transfer (Section V-A);
//! separate pError/preliminary/overshoot kernels (base) or the fused
//! `sharpness` kernel (Section V-B); and the reduction strategies of
//! Section V-C (basic tree, unroll-last-one-wavefront,
//! unroll-last-two-wavefronts).
//!
//! All kernels are *functionally real* — they produce the same pixels as
//! the CPU reference, enforced bit-exactly by the test suite. What each
//! dispatch costs is declared, not counted: next to every kernel body sits
//! its `*_decl` constructor, the one closed-form description of the
//! dispatch's access windows and cost counters, which the executor, the
//! static verifier and the cost predictor all take from the frame program
//! ([`crate::gpu::program`]).

pub mod downscale;
pub mod perror;
pub mod reduction;
pub mod sharpen;
pub mod simd;
pub mod sobel;
pub mod upscale;

use std::ops::Range;

use simgpu::access::{AccessSummary, BufRef, Declaration};
use simgpu::buffer::GlobalView;
use simgpu::cost::{CostCounters, OpCounts};
use simgpu::error::Result;
use simgpu::kernel::{round_up, GroupCtx, KernelDesc};
use simgpu::queue::{CommandQueue, SlicedDispatch, WriteTracked};
use simgpu::timing::KernelTime;

/// A device image a kernel reads from: the view plus its geometry.
///
/// The base pipeline uploads the raw `w × h` original; the optimized
/// pipeline uploads only the `(w+2) × (h+2)` zero-padded matrix
/// (`pad = 1`). Kernels index through [`SrcImage::idx`] so the same kernel
/// body works against either.
#[derive(Clone)]
pub struct SrcImage {
    /// View of the device buffer.
    pub view: GlobalView<f32>,
    /// Row pitch of the buffer (image width + 2·pad).
    pub pitch: usize,
    /// Padding border width (0 = raw original, 1 = padded).
    pub pad: usize,
}

impl SrcImage {
    /// Flat index of logical image coordinate `(x, y)` — coordinates are in
    /// the *unpadded* image frame and may be `-pad ..= dim-1+pad` when the
    /// buffer is padded.
    #[inline]
    pub fn idx(&self, x: isize, y: isize) -> usize {
        let px = x + self.pad as isize;
        let py = y + self.pad as isize;
        debug_assert!(
            px >= 0 && py >= 0,
            "index ({x},{y}) outside source (pad {})",
            self.pad
        );
        py as usize * self.pitch + px as usize
    }
}

/// Kernel-level tuning derived from the optimization flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTuning {
    /// Section V-F "other optimizations": built-in `select`/`clamp`
    /// (removing divergent branches) and shift/mask instruction selection
    /// (removing integer div/rem from index arithmetic).
    pub others: bool,
}

impl KernelTuning {
    /// Per-item index-arithmetic recipe: computing the global index and
    /// vector offsets costs an integer division/remainder in the naive
    /// kernels, replaced by shifts and masks when `others` is on
    /// (Section V-F "Instruction selection").
    pub fn idx_ops(&self) -> OpCounts {
        if self.others {
            OpCounts::ZERO.muls(1).adds(2).bits(2)
        } else {
            OpCounts::ZERO.muls(1).adds(2).divs(1)
        }
    }

    /// Extra divergent-branch events per item for branchy clamp/select
    /// logic: built-ins (`clamp`, `min`, `max`, `select`) remove them.
    pub fn clamp_divergence(&self) -> u64 {
        if self.others {
            0
        } else {
            1
        }
    }
}

/// The static half of [`SrcImage`]: buffer identity plus geometry, enough
/// for an access-summary constructor to compute indices without holding a
/// live view. The frame program builds these from pure arithmetic (no
/// buffers allocated).
#[derive(Debug, Clone)]
pub struct SrcInfo {
    /// Buffer identity (label, length, element size).
    pub buf: BufRef,
    /// Row pitch of the buffer (image width + 2·pad).
    pub pitch: usize,
    /// Padding border width (0 = raw original, 1 = padded).
    pub pad: usize,
}

impl SrcInfo {
    /// The static description of a live [`SrcImage`].
    pub fn of(src: &SrcImage) -> Self {
        SrcInfo {
            buf: src.view.info(),
            pitch: src.pitch,
            pad: src.pad,
        }
    }

    /// Flat index of logical image coordinate `(x, y)`, identically to
    /// [`SrcImage::idx`].
    #[inline]
    pub fn idx(&self, x: isize, y: isize) -> usize {
        let px = x + self.pad as isize;
        let py = y + self.pad as isize;
        py as usize * self.pitch + px as usize
    }
}

/// How a kernel dispatch executes: as one whole-grid `run` of its
/// declaration (recording its command immediately, the monolithic
/// schedule) or as the next declared slice of a banded dispatch. Sliced
/// launches record nothing — the banded scheduler commits the accumulator
/// once per frame via
/// [`simgpu::queue::CommandQueue::commit_sliced`], producing the identical
/// single kernel record (same counters, same simulated time) the
/// monolithic dispatch would have.
pub enum Launch<'a, 'd> {
    /// Whole-grid dispatch of this declaration.
    Full(&'d Declaration),
    /// Execute only this contiguous range of work-group *rows* (a group
    /// row is `num_groups()[0]` consecutive flat group indices; for 1-D
    /// grids it is the whole grid), which must be the accumulator's next
    /// declared slice.
    Slice(Range<usize>, &'a mut SlicedDispatch<'d>),
}

impl Launch<'_, '_> {
    /// Dispatches `f` per the launch mode. Sliced launches return a zero
    /// [`KernelTime`]: the simulated cost is charged at commit, not here.
    pub(crate) fn dispatch<F>(
        self,
        q: &mut CommandQueue,
        outputs: &[&dyn WriteTracked],
        f: F,
    ) -> Result<KernelTime>
    where
        F: Fn(&mut GroupCtx) + Sync,
    {
        match self {
            Launch::Full(decl) => q.run(decl, outputs, f),
            Launch::Slice(rows, acc) => {
                let [gx, _] = acc.declaration().desc.num_groups();
                q.run_sliced(acc, rows.start * gx..rows.end * gx, outputs, f)?;
                Ok(KernelTime::default())
            }
        }
    }
}

/// Which work-groups each slice of a declared dispatch covers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slicing<'a> {
    /// One slice over the whole grid.
    Whole,
    /// One slice per range of work-group rows (2-D grids).
    Rows(&'a [Range<usize>]),
    /// One slice per range of flat work-group indices.
    Groups(&'a [Range<usize>]),
}

/// Assembles a kernel's [`Declaration`] from its closed-form summary
/// constructor `build` and its non-traffic `work` counters. Every slice
/// carries the *whole-dispatch* exact read-overcharge ratio: the ratio
/// bounds the dispatch totals (a border-only slice may charge reads while
/// declaring none), exactly as the sanitizer's audit applies it at commit.
pub(crate) fn declare(
    desc: KernelDesc,
    slicing: Slicing<'_>,
    build: impl Fn(Range<usize>) -> AccessSummary,
    work: CostCounters,
) -> Declaration {
    let full = build(0..desc.total_groups());
    let ratio = full.exact_read_ratio();
    let [gx, _] = desc.num_groups();
    let mut slices = match slicing {
        Slicing::Whole => vec![full],
        Slicing::Rows(rows) => rows
            .iter()
            .map(|r| build(r.start * gx..r.end * gx))
            .collect(),
        Slicing::Groups(groups) => groups.iter().map(|g| build(g.clone())).collect(),
    };
    for s in &mut slices {
        s.read_ratio = ratio;
    }
    Declaration::new(desc, slices, work)
}

/// The work counters of a dispatch that runs `per_item` for `n` items.
pub(crate) fn work_n(per_item: OpCounts, n: u64) -> CostCounters {
    let mut c = CostCounters::new();
    c.charge_ops_n(&per_item, n);
    c
}

/// Image rows covered by the flat group range `groups` of a 2-D dispatch
/// over `ny` logical rows (slices always cover whole work-group rows).
pub(crate) fn covered_rows(desc: &KernelDesc, groups: &Range<usize>, ny: usize) -> Range<usize> {
    let [gx, _] = desc.num_groups();
    let gy0 = groups.start / gx;
    let gy1 = groups.end.div_ceil(gx);
    (gy0 * GROUP_2D[1]).min(ny)..(gy1 * GROUP_2D[1]).min(ny)
}

/// Image rows of a covered row range that the 3×3-window kernels treat as
/// body rows (the strict interior of the image); empty when the image has
/// no interior (`w <= 2` or `h <= 2`).
pub(crate) fn interior_rows(rows: &Range<usize>, w: usize, h: usize) -> Range<usize> {
    if w <= 2 || h <= 2 {
        return 0..0;
    }
    let lo = rows.start.max(1);
    let hi = rows.end.min(h - 1).max(lo);
    lo..hi
}

/// Per-column-group body spans `(body_lo, blen)` of the scalar 3×3-window
/// kernels: each 16-wide column group clips its span to the image
/// interior; groups with no body columns are skipped (the kernels guard
/// `body_hi > body_lo`).
pub(crate) fn body_columns(w: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    if w <= 2 {
        return v;
    }
    let mut x_start = 0usize;
    while x_start < w {
        let x_end = (x_start + GROUP_2D[0]).min(w);
        let lo = x_start.max(1);
        let hi = x_end.min(w - 1);
        if hi > lo {
            v.push((lo, hi - lo));
        }
        x_start += GROUP_2D[0];
    }
    v
}

/// Per-column-group body spans of the vectorized 3×3-window kernels:
/// `4 × 16` pixels per group over the device stride `ws`, clipped to the
/// image interior *unconditionally* — `blen` may be zero, in which case the
/// kernels still issue the two-element halo loads.
pub(crate) fn vec4_body_columns(w: usize, ws: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut x_start = 0usize;
    while x_start < ws {
        let x_end = (x_start + 4 * GROUP_2D[0]).min(ws);
        let lo = x_start.max(1);
        let hi = x_end.min(w.saturating_sub(1)).max(lo);
        v.push((lo, hi - lo));
        x_start += 4 * GROUP_2D[0];
    }
    v
}

/// The standard 2-D work-group shape used by the image kernels.
pub const GROUP_2D: [usize; 2] = [16, 16];

/// Builds a 2-D dispatch covering `nx × ny` items, rounded up to whole
/// 16×16 groups (kernels bounds-check the overhang, as real OpenCL kernels
/// do).
pub fn grid2d(name: &str, nx: usize, ny: usize) -> KernelDesc {
    KernelDesc::new(
        name,
        [round_up(nx, GROUP_2D[0]), round_up(ny, GROUP_2D[1])],
        GROUP_2D,
    )
}

/// Builds a 1-D dispatch of `n` items in groups of `group`, rounded up.
pub fn grid1d(name: &str, n: usize, group: usize) -> KernelDesc {
    KernelDesc::new_1d(name, round_up(n, group), group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    #[test]
    fn src_image_indexing_raw_and_padded() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let raw = SrcImage {
            view: ctx.buffer::<f32>("o", 64).view(),
            pitch: 8,
            pad: 0,
        };
        assert_eq!(raw.idx(3, 2), 2 * 8 + 3);
        let padded = SrcImage {
            view: ctx.buffer::<f32>("p", 100).view(),
            pitch: 10,
            pad: 1,
        };
        assert_eq!(padded.idx(0, 0), 11);
        assert_eq!(padded.idx(-1, -1), 0);
        assert_eq!(padded.idx(8, 8), 99);
    }

    #[test]
    fn grids_round_up() {
        let d = grid2d("k", 100, 50);
        assert_eq!(d.global, [112, 64]);
        assert!(d.check().is_ok());
        let d = grid1d("r", 1000, 128);
        assert_eq!(d.global, [1024, 1]);
    }

    #[test]
    fn idx_ops_swap_div_for_bits() {
        let base = KernelTuning { others: false };
        let opt = KernelTuning { others: true };
        assert_eq!(base.idx_ops().div, 1);
        assert_eq!(base.idx_ops().bit, 0);
        assert_eq!(opt.idx_ops().div, 0);
        assert_eq!(opt.idx_ops().bit, 2);
        assert_eq!(base.clamp_divergence(), 1);
        assert_eq!(opt.clamp_divergence(), 0);
    }
}
