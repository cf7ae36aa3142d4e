//! The frame program: one frame's command stream as a single value.
//!
//! Each of the paper's optimizations (Section V) changes what a frame
//! issues — fewer transfers, fused launches, vec4 loads, a reduction or
//! border stage moving between host and device. [`FrameProgram::build`]
//! describes that stream once, for a `(w, h, OptConfig, Tuning,
//! Schedule)`, in commit order and with zero execution:
//!
//! * transfers (name, mode, bytes, rows);
//! * host stages with closed-form [`CostCounters`] (or a host copy size);
//! * `finish` wherever the queue would charge one;
//! * kernel dispatches, each a [`Declaration`]: its grid, one access
//!   summary per slice the schedule issues, and its full closed-form cost
//!   counters, built by the kernel's own `*_decl` constructor.
//!
//! Everything else reads this one description. The executor
//! ([`crate::gpu::GpuPipeline`] and the banded megapass) takes each
//! dispatch's declaration from it and the queue commits exactly those
//! counters; [`crate::gpu::verify_static`] folds the proofs over its
//! dispatches; [`crate::tune::predict_frame`] folds the
//! [`simgpu::timing`] durations over its commands in order — the same
//! ordered `f64` sum the executed virtual clock computes, so the
//! prediction is `.to_bits()`-identical to execution.
//!
//! Banded schedules differ only in the slice partition of each dispatch:
//! the megapass commits every sliced kernel as the one record the
//! monolithic schedule produces, in the monolithic order.
//!
//! This module must stay execution-free — no pipelines, queues or buffers
//! (a lint rule enforces it): the buffers it names are [`BufRef`]
//! descriptions derived from arithmetic, exactly as the executor
//! allocates them.

use std::ops::Range;

use simgpu::access::{BufRef, Declaration};
use simgpu::cost::{CostCounters, OpCounts};
use simgpu::device::{CpuSpec, DeviceSpec};
use simgpu::timing::{
    bulk_transfer_time, cpu_stage_time, host_memcpy_time, kernel_time, map_transfer_time,
    rect_transfer_time,
};

use crate::gpu::kernels::downscale::downscale_decl;
use crate::gpu::kernels::perror::perror_decl;
use crate::gpu::kernels::reduction::{stage1_decl, stage1_groups, stage2_decl};
use crate::gpu::kernels::sharpen::{
    overshoot_decl, preliminary_decl, sharpness_fused_decl, sharpness_fused_vec4_decl,
};
use crate::gpu::kernels::sobel::{sobel_scalar_decl, sobel_vec4_decl};
use crate::gpu::kernels::upscale::{
    upscale_border_decls, upscale_center_scalar_decl, upscale_center_vec4_decl,
};
use crate::gpu::kernels::{KernelTuning, Slicing, SrcInfo, GROUP_2D};
use crate::gpu::megapass::{downscale_cursor, effective_group_rows, stage1_cursor};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::Schedule;
use crate::params::{check_shape, device_stride, SCALE};

/// Image rows covered by one work-group row of the 2-D kernels.
const GROUP_ROWS: usize = GROUP_2D[1];

/// How a transfer crosses the bus (the paper's Section V-A modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// `clEnqueueWriteBuffer` / `clEnqueueReadBuffer`.
    Bulk,
    /// `clEnqueue{Write,Read}BufferRect`, costed per row.
    Rect,
    /// map/unmap round trip.
    Map,
}

/// One command of a frame, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A host↔device transfer.
    Transfer {
        /// The record name the queue gives it (`"rect-write:padded"`, ...).
        name: &'static str,
        /// Transfer mode.
        mode: TransferMode,
        /// Bytes moved.
        bytes: u64,
        /// Rows moved (rect transfers only; 0 otherwise).
        rows: u64,
    },
    /// Host-side work costed on the CPU model.
    Host {
        /// The record name (`"host:reduction"`, ...).
        name: &'static str,
        /// The stage's counters.
        counters: CostCounters,
    },
    /// A host-side copy of `bytes` (the base pipeline's padding).
    HostCopy {
        /// The record name.
        name: &'static str,
        /// Bytes copied.
        bytes: u64,
    },
    /// `clFinish` with commands pending.
    Finish,
    /// A kernel dispatch.
    Kernel(Declaration),
}

impl Command {
    /// The record name the executing queue gives this command.
    pub fn name(&self) -> &str {
        match self {
            Command::Transfer { name, .. }
            | Command::Host { name, .. }
            | Command::HostCopy { name, .. } => name,
            Command::Finish => "finish",
            Command::Kernel(d) => &d.desc.name,
        }
    }

    /// The command's simulated duration, computed by the same
    /// [`simgpu::timing`] function the executing queue calls.
    pub fn seconds(&self, dev: &DeviceSpec, cpu: &CpuSpec) -> f64 {
        let t = &dev.transfer;
        match self {
            Command::Transfer {
                mode, bytes, rows, ..
            } => match mode {
                TransferMode::Bulk => bulk_transfer_time(t, *bytes),
                TransferMode::Rect => rect_transfer_time(t, *rows, *bytes),
                TransferMode::Map => map_transfer_time(t, *bytes),
            },
            Command::Host { counters, .. } => cpu_stage_time(cpu, counters),
            Command::HostCopy { bytes, .. } => host_memcpy_time(cpu, *bytes),
            Command::Finish => dev.sync_overhead_s,
            Command::Kernel(d) => kernel_time(dev, &d.counters).total_s,
        }
    }
}

/// One frame's commands in commit order. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameProgram {
    commands: Vec<Command>,
}

impl FrameProgram {
    /// Builds the program of one `w`×`h` frame under the given flags,
    /// tuning and schedule. Purely arithmetic: nothing is allocated on the
    /// simulated device and nothing executes.
    ///
    /// # Errors
    /// On unsupported shapes (below the 3×3 minimum).
    pub fn build(
        w: usize,
        h: usize,
        opts: &OptConfig,
        tuning: &Tuning,
        schedule: Schedule,
    ) -> Result<FrameProgram, String> {
        check_shape(w, h)?;
        let f = Frame::new(w, h, opts, tuning);
        let p = match schedule {
            Schedule::Monolithic => None,
            Schedule::Banded(rows) => Some(Partition::banded(&f, opts, rows)),
        };
        let mut b = Builder {
            opts,
            cmds: Vec::new(),
            pending: false,
        };
        let tune = KernelTuning {
            others: opts.others,
        };
        let (ws, n, ns) = (f.ws, (w * h) as u64, f.ns);

        // ---- upload (Section V-A) ----------------------------------------
        if opts.data_transfer {
            // One rect-write pads during the transfer.
            b.transfer("rect-write:padded", TransferMode::Rect, 4 * n, h as u64);
        } else {
            // Host-side padding, then both matrices through map/unmap.
            let padded_bytes = 4 * f.padded_src.buf.len as u64;
            b.push(Command::HostCopy {
                name: "host:padding",
                bytes: padded_bytes,
            });
            b.transfer("map-write:padded", TransferMode::Map, padded_bytes, 0);
            b.transfer("map-write:original", TransferMode::Map, 4 * n, 0);
        }
        b.sync();

        // ---- downscale ------------------------------------------------------
        let slicing = rows(&p, |p| &p.down);
        b.kernel(downscale_decl(
            &f.main_src,
            f.down.clone(),
            w,
            h,
            tune,
            slicing,
        ));
        b.sync();

        // ---- upscale border (Section V-E) ---------------------------------
        if opts.border_gpu && w >= tuning.border_gpu_min_width {
            for d in upscale_border_decls(f.down.clone(), f.up.clone(), w, h, ws, tune) {
                b.kernel(d);
            }
            b.sync();
        } else {
            // No sync: the CPU border path ends on the write-back.
            b.moved("read:down", "map-read:down", 4 * f.down.len as u64);
            b.push(Command::Host {
                name: "host:upscale_border",
                counters: border_host_counters(w, h),
            });
            let bytes = 4 * border_elems(w, h);
            b.moved("write:up_border", "map-write:up_border", bytes);
        }

        // ---- upscale center -------------------------------------------------
        // Images below 5 pixels on an axis have no interior 4×4 blocks.
        if f.w4 > 1 && f.h4 > 1 {
            let slicing = rows(&p, |p| &p.center);
            let (down, up) = (f.down.clone(), f.up.clone());
            b.kernel(if opts.vectorization {
                upscale_center_vec4_decl(down, up, w, h, ws, tune, slicing)
            } else {
                upscale_center_scalar_decl(down, up, w, h, ws, tune, slicing)
            });
            b.sync();
        }

        // ---- Sobel ----------------------------------------------------------
        let slicing = rows(&p, |p| &p.sobel);
        b.kernel(if opts.vectorization {
            sobel_vec4_decl(&f.padded_src, f.pedge.clone(), w, h, ws, tune, slicing)
        } else {
            sobel_scalar_decl(&f.main_src, f.pedge.clone(), w, h, ws, tune, slicing)
        });
        b.sync();

        // ---- reduction (Section V-C) ---------------------------------------
        if let Some(partials) = &f.partials {
            let slicing = p
                .as_ref()
                .map_or(Slicing::Whole, |p| Slicing::Groups(&p.stage1));
            let strategy = tuning.reduction_strategy;
            b.kernel(stage1_decl(
                f.pedge.clone(),
                partials.clone(),
                0,
                ns,
                strategy,
                slicing,
            ));
            b.sync();
            let groups = stage1_groups(ns);
            if let Some(result) = &f.reduction_out {
                b.kernel(stage2_decl(partials.clone(), groups, result.clone()));
                b.sync();
                b.moved("read:reduction_out", "map-read:reduction_out", 4);
            } else {
                b.moved("read:partials", "map-read:partials", 4 * groups as u64);
                b.push(Command::Host {
                    name: "host:reduction_stage2",
                    counters: host_reduction_counters(groups),
                });
            }
        } else {
            b.moved("read:pEdge", "map-read:pEdge", 4 * ns as u64);
            b.push(Command::Host {
                name: "host:reduction",
                counters: host_reduction_counters(ns),
            });
        }

        // ---- sharpening tail (Section V-B) --------------------------------
        let slicing = rows(&p, |p| &p.tail);
        let (up, pedge, fin) = (f.up.clone(), f.pedge.clone(), f.finalbuf.clone());
        if opts.kernel_fusion {
            let bufs = [up, pedge, fin];
            b.kernel(if opts.vectorization {
                sharpness_fused_vec4_decl(&f.padded_src, bufs, w, h, ws, tune, slicing)
            } else {
                sharpness_fused_decl(&f.padded_src, bufs, w, h, ws, tune, slicing)
            });
            b.sync();
        } else {
            let perr = f.perror.clone().expect("unfused path declares pError");
            let prelim = f.prelim.clone().expect("unfused path declares prelim");
            let pe = perror_decl(
                &f.main_src,
                up.clone(),
                perr.clone(),
                w,
                h,
                ws,
                tune,
                slicing,
            );
            b.kernel(pe);
            b.sync();
            let bufs = [up, pedge, perr, prelim.clone()];
            b.kernel(preliminary_decl(bufs, w, h, ws, tune, slicing));
            b.sync();
            let ov = overshoot_decl(&f.padded_src, prelim, fin, w, h, ws, tune, slicing);
            b.kernel(ov);
            b.sync();
        }

        // ---- readback ---------------------------------------------------------
        b.finish();
        if ws == w {
            b.moved("read:final", "map-read:final", 4 * n);
        } else if opts.data_transfer {
            // The rect read crops the stride padding during the transfer.
            b.transfer("rect-read:final", TransferMode::Rect, 4 * n, h as u64);
        } else {
            b.transfer("map-read:final", TransferMode::Map, 4 * ns as u64, 0);
        }
        Ok(FrameProgram { commands: b.cmds })
    }

    /// The commands, in commit order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// The kernel dispatches, in commit order.
    pub fn dispatches(&self) -> impl Iterator<Item = &Declaration> {
        self.commands.iter().filter_map(|c| match c {
            Command::Kernel(d) => Some(d),
            _ => None,
        })
    }

    /// The declaration of the dispatch named `name` (kernel names are
    /// unique within a frame).
    ///
    /// # Errors
    /// If the program issues no such dispatch — the executor asked for a
    /// kernel this configuration does not run.
    pub fn kernel(&self, name: &str) -> Result<&Declaration, String> {
        self.dispatches()
            .find(|d| d.desc.name == name)
            .ok_or_else(|| format!("frame program has no `{name}` dispatch"))
    }
}

/// The slicing of one kernel: whole-grid when monolithic, else the
/// partition's work-group rows for that kernel.
fn rows<'a>(p: &'a Option<Partition>, pick: fn(&Partition) -> &[Range<usize>]) -> Slicing<'a> {
    p.as_ref()
        .map_or(Slicing::Whole, |p| Slicing::Rows(pick(p)))
}

/// Accumulates commands, tracking whether anything is pending so `finish`
/// appears exactly where `CommandQueue::finish` would charge one.
struct Builder<'a> {
    opts: &'a OptConfig,
    cmds: Vec<Command>,
    pending: bool,
}

impl Builder<'_> {
    fn push(&mut self, c: Command) {
        self.cmds.push(c);
        self.pending = true;
    }

    fn kernel(&mut self, d: Declaration) {
        self.push(Command::Kernel(d));
    }

    fn transfer(&mut self, name: &'static str, mode: TransferMode, bytes: u64, rows: u64) {
        self.push(Command::Transfer {
            name,
            mode,
            bytes,
            rows,
        });
    }

    /// A whole-buffer transfer in the mode the config selects: bulk when
    /// `data_transfer` is on, map/unmap otherwise.
    fn moved(&mut self, bulk: &'static str, map: &'static str, bytes: u64) {
        if self.opts.data_transfer {
            self.transfer(bulk, TransferMode::Bulk, bytes, 0);
        } else {
            self.transfer(map, TransferMode::Map, bytes, 0);
        }
    }

    /// `clFinish`: charged only when commands are pending.
    fn finish(&mut self) {
        if self.pending {
            self.cmds.push(Command::Finish);
            self.pending = false;
        }
    }

    /// The inter-stage sync, elided when the `others` optimization removes
    /// redundant synchronisation.
    fn sync(&mut self) {
        if !self.opts.others {
            self.finish();
        }
    }
}

/// The frame's buffer universe, derived from shape and flags exactly as
/// the executor's `FrameResources::new` allocates it — but as pure
/// [`BufRef`] descriptions, no device memory.
struct Frame {
    h: usize,
    w4: usize,
    h4: usize,
    ws: usize,
    ns: usize,
    padded_src: SrcInfo,
    main_src: SrcInfo,
    down: BufRef,
    up: BufRef,
    pedge: BufRef,
    finalbuf: BufRef,
    partials: Option<BufRef>,
    reduction_out: Option<BufRef>,
    perror: Option<BufRef>,
    prelim: Option<BufRef>,
}

impl Frame {
    fn new(w: usize, h: usize, opts: &OptConfig, tuning: &Tuning) -> Frame {
        let (w4, h4) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
        let ws = device_stride(w);
        let ns = ws * h;
        let pw = ws + 2;
        let groups = stage1_groups(ns);
        let padded_src = SrcInfo {
            buf: BufRef::f32("padded", pw * (h + 2)),
            pitch: pw,
            pad: 1,
        };
        let main_src = if opts.data_transfer {
            padded_src.clone()
        } else {
            SrcInfo {
                buf: BufRef::f32("original", w * h),
                pitch: w,
                pad: 0,
            }
        };
        Frame {
            h,
            w4,
            h4,
            ws,
            ns,
            padded_src,
            main_src,
            down: BufRef::f32("down", w4 * h4),
            up: BufRef::f32("up", ns),
            pedge: BufRef::f32("pEdge", ns),
            finalbuf: BufRef::f32("final", ns),
            partials: opts.reduction_gpu.then(|| BufRef::f32("partials", groups)),
            reduction_out: (opts.reduction_gpu && groups > tuning.stage2_gpu_threshold)
                .then(|| BufRef::f32("reduction_out", 1)),
            perror: (!opts.kernel_fusion).then(|| BufRef::f32("pError", ns)),
            prelim: (!opts.kernel_fusion).then(|| BufRef::f32("prelim", ns)),
        }
    }
}

/// The slices a banded schedule cuts each dispatch into, replaying the
/// band loop's cursors: work-group rows for the 2-D kernels, flat groups
/// for reduction stage 1.
struct Partition {
    down: Vec<Range<usize>>,
    center: Vec<Range<usize>>,
    sobel: Vec<Range<usize>>,
    stage1: Vec<Range<usize>>,
    tail: Vec<Range<usize>>,
}

impl Partition {
    fn banded(f: &Frame, opts: &OptConfig, band_rows: usize) -> Partition {
        let (h, ws) = (f.h, f.ws);
        let bg = effective_group_rows(band_rows, ws, h);
        let gtot = h.div_ceil(GROUP_ROWS);
        let d_groups = f.h4.div_ceil(GROUP_ROWS);
        let s1_total = stage1_groups(f.ns);
        // Phase A: downscale, Sobel and stage 1 advance band by band.
        let (mut down, mut sobel, mut stage1) = (Vec::new(), Vec::new(), Vec::new());
        let (mut cur_d, mut cur_s, mut cur_r) = (0usize, 0usize, 0usize);
        let mut g0 = 0usize;
        while g0 < gtot {
            let g1 = (g0 + bg).min(gtot);
            let r1 = (GROUP_ROWS * g1).min(h);
            let td = downscale_cursor(g1, gtot, d_groups);
            if td > cur_d {
                down.push(cur_d..td);
                cur_d = td;
            }
            if g1 > cur_s {
                sobel.push(cur_s..g1);
                cur_s = g1;
            }
            if opts.reduction_gpu {
                let tr = stage1_cursor(g1, gtot, r1, ws, s1_total);
                if tr > cur_r {
                    stage1.push(cur_r..tr);
                    cur_r = tr;
                }
            }
            g0 = g1;
        }
        // The center and the tail are plain partitions of their grids.
        let chunked = |total: usize| -> Vec<Range<usize>> {
            (0..total.div_ceil(bg))
                .map(|i| i * bg..((i + 1) * bg).min(total))
                .collect()
        };
        let u_groups = if f.w4 > 1 && f.h4 > 1 {
            (f.h4 - 1).div_ceil(GROUP_ROWS)
        } else {
            0
        };
        Partition {
            down,
            center: chunked(u_groups),
            sobel,
            stage1,
            tail: chunked(gtot),
        }
    }
}

/// Host counters of a serial sum of `n` device-resident values: one add
/// and one 4-byte read per value. The CPU reduction (`n` = pEdge
/// elements) and the host half of the GPU reduction (`n` = stage-1
/// partials) both cost this.
pub(crate) fn host_reduction_counters(n: usize) -> CostCounters {
    let mut c = CostCounters::new();
    c.charge_ops_n(&OpCounts::ZERO.adds(1), n as u64);
    c.global_read_scalar = 4 * n as u64;
    c
}

/// Host counters of the CPU upscale-border stage: the closed form of
/// `cpu::stages::upscale_border_into`'s counted loops.
pub(crate) fn border_host_counters(w: usize, h: usize) -> CostCounters {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let mut interp = 0u64;
    let mut copied = 0u64;
    // Two horizontal border-row passes.
    for _ in 0..2 {
        if wd >= 2 {
            for bi in 0..wd - 1 {
                interp += (w as i64 - 4 - 4 * bi as i64).clamp(0, 4) as u64;
            }
            copied += 4;
        } else {
            copied += w as u64;
        }
        copied += w as u64; // companion-row copy
    }
    // Two vertical border-column passes over body rows 2 ..= h-3.
    for _ in 0..2 {
        for bj in 0..hd.saturating_sub(1) {
            interp += (h as i64 - 4 - 4 * bj as i64).clamp(0, 4) as u64;
        }
        copied += (2..h.saturating_sub(2)).len() as u64; // companion-column copy
    }
    let mut c = CostCounters::new();
    c.charge_ops_n(&OpCounts::ZERO.muls(2).adds(1), interp);
    c.global_read_scalar = (interp * 2 + copied) * 4;
    c.global_write_scalar = (interp + copied + 8) * 4;
    c
}

/// Elements the CPU border path writes back to the device: the four
/// border rows and the four border columns of the body rows, with
/// adjacent duplicates skipped for tiny shapes.
fn border_elems(w: usize, h: usize) -> u64 {
    let distinct = |v: [usize; 4]| 1 + v.windows(2).filter(|p| p[0] != p[1]).count() as u64;
    let rows = distinct([0, 1, h - 2, h - 1]);
    let cols = distinct([0, 1, w - 2, w - 1]);
    rows * w as u64 + cols * h.saturating_sub(4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn border_elems_counts_tiny_shapes() {
        // 3×3: rows {0,1,2} cover everything; the column loop is empty.
        assert_eq!(border_elems(3, 3), 9);
        // 8×8: rows {0,1,6,7} = 32, columns {0,1,6,7} on rows 2..=5 = 16.
        assert_eq!(border_elems(8, 8), 48);
        // 3 wide: columns {0,1,2} on each body row.
        assert_eq!(border_elems(3, 8), 4 * 3 + 3 * 4);
    }

    #[test]
    fn border_host_counters_match_multiple_of_four_closed_form() {
        // For multiple-of-4 shapes every interpolation window is full:
        // 2 row passes × 15 windows × 4 + 2 column passes × 15 × 4 = 240.
        let c = border_host_counters(64, 64);
        assert_eq!(c.ops.mul, 240 * 2);
        assert_eq!(c.ops.add, 240);
    }

    #[test]
    fn finish_appears_only_with_pending_commands() {
        let opts = OptConfig::none();
        let p =
            FrameProgram::build(64, 64, &opts, &Tuning::default(), Schedule::Monolithic).unwrap();
        for pair in p.commands().windows(2) {
            assert!(
                !(pair[0] == Command::Finish && pair[1] == Command::Finish),
                "back-to-back finish"
            );
        }
        let all = FrameProgram::build(
            64,
            64,
            &OptConfig::all(),
            &Tuning::default(),
            Schedule::Monolithic,
        )
        .unwrap();
        let finishes = all.commands().iter().filter(|c| **c == Command::Finish);
        assert_eq!(finishes.count(), 1);
    }

    #[test]
    fn banded_programs_differ_only_in_slices() {
        let opts = OptConfig::all();
        let tuning = Tuning::default();
        let mono = FrameProgram::build(768, 768, &opts, &tuning, Schedule::Monolithic).unwrap();
        let band = FrameProgram::build(768, 768, &opts, &tuning, Schedule::Banded(64)).unwrap();
        assert_eq!(mono.commands().len(), band.commands().len());
        let mut multi = false;
        for (m, b) in mono.commands().iter().zip(band.commands()) {
            assert_eq!(m.name(), b.name());
            if let (Command::Kernel(m), Command::Kernel(b)) = (m, b) {
                assert_eq!(m.counters, b.counters);
                assert_eq!(m.desc, b.desc);
                multi |= b.slices.len() > 1;
                let covered: usize = b.slices.iter().map(|s| s.groups.len()).sum();
                assert_eq!(covered, b.desc.total_groups(), "{}", b.desc.name);
            }
        }
        assert!(multi, "no dispatch is genuinely sliced at this shape");
    }

    #[test]
    fn small_stage2_threshold_adds_device_stage2() {
        let opts = OptConfig {
            reduction_gpu: true,
            ..OptConfig::none()
        };
        let tuning = Tuning {
            stage2_gpu_threshold: 1,
            ..Tuning::default()
        };
        let p = FrameProgram::build(256, 256, &opts, &tuning, Schedule::Monolithic).unwrap();
        assert!(p.kernel("reduction_stage2").is_ok());
        assert!(p.kernel("sharpness").is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        let r = FrameProgram::build(
            2,
            2,
            &OptConfig::none(),
            &Tuning::default(),
            Schedule::Monolithic,
        );
        assert!(r.is_err());
    }
}
