//! Golden cost counters: every command record a frame commits — its name,
//! its simulated duration as `f64::to_bits`, and every `CostCounters`
//! field — pinned against a committed fixture.
//!
//! The agreement tests elsewhere compare seconds; this one compares the
//! counters the seconds are computed from, so a refactor of where those
//! counters come from cannot hide a compensating error. Each case runs
//! monolithic, `Banded(1)` and `Banded(7)`; all three must render the
//! identical record list, and that list must equal the fixture.
//!
//! On a mismatch the rendered output is written to
//! `$CARGO_TARGET_TMPDIR/golden_counters.txt` for inspection.

use std::fmt::Write as _;

use sharpness::core::gpu::kernels::reduction::ReductionStrategy;
use sharpness::prelude::*;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/counters.txt");

fn config(bits: u32) -> OptConfig {
    OptConfig {
        data_transfer: bits & 1 != 0,
        kernel_fusion: bits & 2 != 0,
        reduction_gpu: bits & 4 != 0,
        vectorization: bits & 8 != 0,
        border_gpu: bits & 16 != 0,
        others: bits & 32 != 0,
    }
}

struct Case {
    preset: &'static str,
    w: usize,
    h: usize,
    bits: u32,
    tuning: Tuning,
}

fn device(preset: &str) -> DeviceSpec {
    match preset {
        "w8000" => DeviceSpec::firepro_w8000(),
        "apu" => DeviceSpec::apu(),
        other => unreachable!("unknown preset {other}"),
    }
}

/// The non-default tuning: device border from the first width on, device
/// stage 2 for any partial count, and the textbook reduction tree.
fn gpu_side() -> Tuning {
    Tuning {
        reduction_strategy: ReductionStrategy::NoUnroll,
        stage2_gpu_threshold: 0,
        border_gpu_min_width: 3,
    }
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for (w, h) in [(3, 3), (5, 7), (17, 4), (64, 64)] {
        for bits in 0..64 {
            for tuning in [Tuning::default(), gpu_side()] {
                v.push(Case {
                    preset: "w8000",
                    w,
                    h,
                    bits,
                    tuning,
                });
            }
        }
    }
    for bits in 0..64 {
        v.push(Case {
            preset: "apu",
            w: 64,
            h: 64,
            bits,
            tuning: Tuning::default(),
        });
    }
    // Representative configs at a ragged size: none, all, all without
    // fusion, all without vectorization (bit 3), and all on both sides of
    // the border crossover at this width.
    let unroll_two = Tuning {
        reduction_strategy: ReductionStrategy::UnrollTwo,
        ..Tuning::default()
    };
    for (bits, tuning) in [
        (0, Tuning::default()),
        (63, Tuning::default()),
        (63 & !2, Tuning::default()),
        (63 & !8, unroll_two),
        (
            63,
            Tuning {
                border_gpu_min_width: 1001,
                ..Tuning::default()
            },
        ),
        (
            63,
            Tuning {
                border_gpu_min_width: 1002,
                ..Tuning::default()
            },
        ),
    ] {
        v.push(Case {
            preset: "w8000",
            w: 1001,
            h: 701,
            bits,
            tuning,
        });
    }
    v
}

/// Renders one frame's committed records, one line each.
fn render(case: &Case, schedule: Schedule) -> String {
    let img = generate::natural(case.w, case.h, 29);
    let ctx = Context::new(device(case.preset));
    let mut plan = GpuPipeline::new(ctx, SharpnessParams::default(), config(case.bits))
        .with_tuning(case.tuning)
        .with_schedule(schedule)
        .prepared(case.w, case.h)
        .unwrap();
    plan.run(&img).unwrap();
    let mut s = String::new();
    for r in plan.records() {
        write!(s, "{} {:016x}", r.name, r.duration_s.to_bits()).unwrap();
        if let Some(c) = &r.counters {
            let o = &c.ops;
            write!(
                s,
                " | {} {} {} {} {} {} | {} {} {} {} | {} {} {} {} | {} {} {}",
                o.add,
                o.mul,
                o.div,
                o.pow,
                o.cmp,
                o.bit,
                c.global_read_scalar,
                c.global_read_vector,
                c.global_write_scalar,
                c.global_write_vector,
                c.local_bytes,
                c.local_alloc_bytes,
                c.barriers,
                c.divergent_branches,
                c.items,
                c.groups,
                c.group_lanes,
            )
            .unwrap();
        }
        s.push('\n');
    }
    s
}

#[test]
fn committed_records_match_the_golden_fixture() {
    let mut got = String::new();
    for case in cases() {
        let mono = render(&case, Schedule::Monolithic);
        for schedule in [Schedule::Banded(1), Schedule::Banded(7)] {
            assert_eq!(
                render(&case, schedule),
                mono,
                "{} {}x{} config {} {:?}: {schedule:?} records differ from monolithic",
                case.preset,
                case.w,
                case.h,
                case.bits,
                case.tuning
            );
        }
        let t = &case.tuning;
        writeln!(
            got,
            "# {} {}x{} config {} {:?} stage2>{} border>={}",
            case.preset,
            case.w,
            case.h,
            case.bits,
            t.reduction_strategy,
            t.stage2_gpu_threshold,
            t.border_gpu_min_width
        )
        .unwrap();
        got.push_str(&mono);
    }
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if got != want {
        let actual = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_counters.txt");
        std::fs::write(actual, &got).unwrap();
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "records diverge from {FIXTURE} at line {} (got {:?}, want {:?}); \
             rendered output written to {actual}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
