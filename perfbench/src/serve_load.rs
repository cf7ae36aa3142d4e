//! The service workload: the default traffic catalog served by
//! `SharpenService` in an open loop on the virtual clock, over a fixed
//! ladder of offered rates.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use sharpness::core::gpu::batch::FrameComponents;
use sharpness::core::gpu::{GpuPipeline, Schedule};
use sharpness::core::report::StageRecord;
use sharpness::core::service::{
    generate_requests, Request, ServiceConfig, ServiceReport, SharpenService, TrafficConfig,
};
use sharpness::core::{tune, OptConfig, RunReport, SharpnessParams, Tuning};
use sharpness::imagekit::ImageF32;
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::{CpuSpec, DeviceSpec};

use crate::frame::{self, FrameStat};
use crate::report::{Currency, Layers, Metric, Outcome, KERNELS};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::{peak_rss_mb, repeated_setup, Args};

/// Mean simulated inter-arrival gaps of the rate ladder, µs.
pub const GAPS_US: [u64; 5] = [2000, 1000, 500, 250, 125];
/// The reference rung.
pub const REF_GAP_US: u64 = 1000;
/// Requests per stream.
pub const REQUESTS: usize = 1024;
/// Share of offered requests that must finish within their class SLO
/// for a rate to count as sustained.
const ATTAINMENT: f64 = 0.99;
/// Timed serve calls always made, however long they take.
const MIN_CALLS: usize = 2;

fn stream(seed: u64, gap_us: u64) -> Vec<Request> {
    generate_requests(&TrafficConfig {
        requests: REQUESTS,
        seed,
        mean_gap_s: gap_us as f64 * 1e-6,
        ..TrafficConfig::default()
    })
}

fn service(ctx: Context, keep_outputs: bool) -> SharpenService {
    SharpenService::new(
        GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all()),
        ServiceConfig {
            keep_outputs,
            ..ServiceConfig::default()
        },
    )
}

fn device() -> DeviceSpec {
    DeviceSpec::firepro_w8000()
}

/// The simulated outcome of one serve call, every figure exact.
#[derive(Debug, Clone)]
struct Rung {
    offered: u64,
    served: u64,
    shed: u64,
    late: u64,
    batches: u64,
    peak_queue: u64,
    sim_busy_s: f64,
    sim_end_s: f64,
    sim_p50_s: f64,
    sim_p99_s: f64,
    cache: (u64, u64, u64),
    /// Everything above plus the shed ids, printed exactly; two calls
    /// simulated the same run iff their signatures are equal.
    signature: String,
}

impl Rung {
    fn of(rep: &ServiceReport) -> Rung {
        let sim = rep.sim_latency();
        let late: u64 = rep.classes.iter().map(|c| c.slo_violations).sum();
        let classes: Vec<_> = rep
            .classes
            .iter()
            .map(|c| (c.offered, c.admitted, c.served, c.shed, c.slo_violations))
            .collect();
        let signature = format!(
            "{} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {} {} {} {:?}",
            rep.requests,
            rep.served,
            rep.shed,
            rep.batches,
            rep.coalesced,
            rep.peak_queued,
            rep.sim_end_s,
            rep.sim_busy_s,
            sim.quantile(0.5),
            sim.quantile(0.99),
            classes,
            rep.cache.hits,
            rep.cache.misses,
            rep.cache.evictions,
            rep.shed_ids,
        );
        Rung {
            offered: rep.requests,
            served: rep.served,
            shed: rep.shed,
            late,
            batches: rep.batches,
            peak_queue: rep.peak_queued as u64,
            sim_busy_s: rep.sim_busy_s,
            sim_end_s: rep.sim_end_s,
            sim_p50_s: sim.quantile(0.5),
            sim_p99_s: sim.quantile(0.99),
            cache: (rep.cache.hits, rep.cache.misses, rep.cache.evictions),
            signature,
        }
    }

    /// Share of offered requests served within their class SLO.
    fn attainment(&self) -> f64 {
        (self.served - self.late) as f64 / self.offered as f64
    }

    fn miss_frac(&self) -> f64 {
        (self.shed + self.late) as f64 / self.offered as f64
    }
}

/// The highest offered rate, requests per simulated second, at which at
/// least [`ATTAINMENT`] of requests meet their SLO: the last rung of the
/// ladder's passing prefix, refined by interpolating attainment linearly
/// in log-rate towards the first failing rung.
fn max_rate(rungs: &[(u64, Rung)]) -> (f64, f64) {
    let rate = |gap: u64| 1e6 / gap as f64;
    let mut best: Option<(u64, f64)> = None;
    for (gap, r) in rungs {
        let a = r.attainment();
        if a < ATTAINMENT {
            return match best {
                None => (0.0, 0.0),
                Some((g0, a0)) => {
                    let (l0, l1) = (rate(g0).ln(), rate(*gap).ln());
                    let t = (a0 - ATTAINMENT) / (a0 - a);
                    ((l0 + t * (l1 - l0)).exp(), rate(g0))
                }
            };
        }
        best = Some((*gap, a));
    }
    let top = best.map_or(0.0, |(g, _)| rate(g));
    (top, top)
}

/// Served pixels of a stream given its shed ids.
fn served_pixels(reqs: &[Request], shed: &HashSet<u64>) -> f64 {
    reqs.iter()
        .filter(|r| !shed.contains(&r.id))
        .map(|r| r.pixels() as f64)
        .sum()
}

/// Simulated seconds of one frame of `shape` as `core::tune` predicts
/// them, folded into lanes by `FrameComponents` the way the service
/// folds each executed frame.
fn predicted_frame_s(shape: (usize, usize), dev: &DeviceSpec) -> Result<f64, String> {
    let p = tune::predict_frame(
        shape.0,
        shape.1,
        &OptConfig::all(),
        &Tuning::default(),
        Schedule::Monolithic,
        dev,
        &CpuSpec::core_i5_3470(),
    )?;
    let report = RunReport {
        output: ImageF32::zeros(0, 0),
        total_s: p.total_s,
        stages: p
            .commands
            .iter()
            .map(|c| StageRecord {
                name: c.name.as_str().into(),
                seconds: c.seconds,
            })
            .collect(),
    };
    Ok(FrameComponents::from_report(&report).total())
}

/// The first request of each catalog shape in `reqs`, in arrival order:
/// a warm-up that prepares every shape once, whatever the seed's mix.
fn one_per_shape(reqs: &[Request]) -> Vec<Request> {
    let mut seen = HashSet::new();
    reqs.iter()
        .filter(|r| seen.insert(r.shape()))
        .cloned()
        .collect()
}

/// Runs the service workload.
pub fn run(a: &Args, spans: &mut Option<String>) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    out.notes.push(format!(
        "workload default TrafficConfig catalog, {REQUESTS} requests per stream, open loop on \
         the virtual clock, mean gaps {GAPS_US:?} us, reference {REF_GAP_US} us"
    ));

    let ((streams, svc), setup_s) = repeated_setup(|| {
        let streams: Vec<(u64, Vec<Request>)> =
            GAPS_US.iter().map(|&g| (g, stream(a.seed, g))).collect();
        let svc = service(Context::new(device()), false);
        let warm = &streams
            .iter()
            .find(|(g, _)| *g == REF_GAP_US)
            .expect("reference rung")
            .1;
        svc.serve(&one_per_shape(warm))?;
        Ok((streams, svc))
    })?;
    let reference = &streams
        .iter()
        .find(|(g, _)| *g == REF_GAP_US)
        .expect("reference rung")
        .1;

    // The ladder, once.
    let mut rungs = Vec::new();
    for (gap, reqs) in &streams {
        out.attempted += reqs.len() as u64;
        let rep = svc.serve(reqs)?;
        if rep.served + rep.shed != rep.requests {
            out.failed += reqs.len() as u64;
        }
        rungs.push((*gap, Rung::of(&rep)));
    }
    let ref_rung = rungs
        .iter()
        .find(|(g, _)| *g == REF_GAP_US)
        .expect("reference rung")
        .1
        .clone();

    // Timed loop at the reference rate. The traced run alternates with a
    // service whose context records the program's spans.
    let traced_svc = service(Context::new(device()).with_spans(), false);
    let mut wall_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut mpx = Vec::new();
    let mut per_req_ms = Vec::new();
    let mut frame_wall_ms = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut pool = (0u64, 0u64, 0u64);
    let mut last: Option<ServiceReport> = None;
    let mut repeats = 0usize;
    let mut diverged = 0usize;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < a.seconds || wall_ms.len() < MIN_CALLS {
        for traced in [false, true] {
            if traced && !a.trace {
                continue;
            }
            let s = if traced { &traced_svc } else { &svc };
            let before = s.pipeline().context().pool_stats();
            out.attempted += reference.len() as u64;
            let t0 = Instant::now();
            let rep = s.serve(reference);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let rep = rep?;
            let rung = Rung::of(&rep);
            repeats += 1;
            if rung.signature != ref_rung.signature || rep.served + rep.shed != rep.requests {
                diverged += 1;
                out.failed += reference.len() as u64;
            }
            if traced {
                traced_ms.push(ms);
                continue;
            }
            let after = s.pipeline().context().pool_stats();
            pool = (
                after.hits - before.hits,
                after.misses - before.misses,
                after.evicted - before.evicted,
            );
            let shed: HashSet<u64> = rep.shed_ids.iter().copied().collect();
            wall_ms.push(ms);
            per_req_ms.push(ms / rep.requests as f64);
            mpx.push(served_pixels(reference, &shed) * 1e-6 / (ms * 1e-3));
            frame_wall_ms.push(rep.wall_latency().sum() * 1e3);
            prepare_ms.push(rep.cache.prepare_wall_s * 1e3);
            last = Some(rep);
        }
    }
    let rss = peak_rss_mb();
    let last = last.expect("at least one timed call");
    out.check(
        "sim_repeats",
        diverged == 0,
        format!("{repeats} reference-rate serve calls simulated bit-identically to the ladder's"),
    );

    // Untimed check pass: keep the outputs and compare each with a fresh
    // plan's `run_into` on a separate context.
    out.attempted += reference.len() as u64;
    let kept = service(Context::new(device()), true).serve(reference)?;
    let conserved = rungs.iter().all(|(_, r)| r.served + r.shed == r.offered)
        && kept.served + kept.shed == kept.requests;
    out.check(
        "served_plus_shed",
        conserved,
        "served + shed = offered on every serve call",
    );
    let by_id: BTreeMap<u64, &Request> = reference.iter().map(|r| (r.id, r)).collect();
    let direct = GpuPipeline::new(
        Context::new(device()),
        SharpnessParams::default(),
        OptConfig::all(),
    );
    let mut plans = BTreeMap::new();
    let mut predicted = BTreeMap::new();
    for r in reference {
        if let Entry::Vacant(e) = plans.entry(r.shape()) {
            e.insert(direct.prepared(r.width, r.height)?);
            predicted.insert(r.shape(), predicted_frame_s(r.shape(), &device())?);
        }
    }
    let mut mismatched = 0u64;
    let mut predicted_busy = 0.0f64;
    let mut served_by_shape: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (id, img) in &kept.outputs {
        let r = by_id[id];
        let shape = r.shape();
        *served_by_shape.entry(shape).or_insert(0) += 1;
        predicted_busy += predicted[&shape];
        let plan = plans.get_mut(&shape).expect("a plan per shape");
        let mut expect = vec![0.0f32; r.pixels()];
        plan.run_into(&r.frame(), &mut expect)?;
        let same = img.pixels().len() == expect.len()
            && img
                .pixels()
                .iter()
                .zip(&expect)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            mismatched += 1;
        }
    }
    out.failed += mismatched;
    out.check(
        "served_outputs",
        mismatched == 0 && kept.outputs.len() as u64 == kept.served,
        format!(
            "{} served outputs bit-identical to a fresh plan's run_into",
            kept.outputs.len() as u64 - mismatched
        ),
    );
    out.check(
        "keep_outputs_sim",
        Rung::of(&kept).signature == ref_rung.signature,
        "keeping outputs leaves the simulated run unchanged",
    );
    out.check(
        "predict_frame_bits",
        predicted_busy.to_bits() == kept.sim_busy_s.to_bits(),
        format!(
            "simulated busy time {:?} s vs core::tune::predict_frame summed in completion order {:?} s",
            kept.sim_busy_s, predicted_busy
        ),
    );

    let (max_rps, rung_rps) = max_rate(&rungs);
    for (gap, r) in &rungs {
        out.notes.push(format!(
            "ladder gap {gap} us ({:.0} req/sim-s): served {} shed {} late {} attainment {:?} \
             sim p50 {:?} ms p99 {:?} ms",
            1e6 / *gap as f64,
            r.served,
            r.shed,
            r.late,
            r.attainment(),
            r.sim_p50_s * 1e3,
            r.sim_p99_s * 1e3
        ));
    }

    if a.trace {
        out.per_layer = layers(
            &rungs,
            &ref_rung,
            reference,
            &last,
            &served_by_shape,
            spans,
            Measured {
                wall_ms: &wall_ms,
                traced_ms: &traced_ms,
                frame_wall_ms: &frame_wall_ms,
                prepare_ms: &prepare_ms,
                pool,
            },
        )?
        .into_metrics();
    } else {
        let sim_per_req = ref_rung.sim_busy_s / ref_rung.served as f64 * 1e3;
        out.end_to_end = vec![
            Metric::median_of("setup_s", "s", Currency::Host, &setup_s),
            Metric::median_of("request_ms_p50", "ms", Currency::Host, &per_req_ms)
                .note("host wall of one serve call per offered request"),
            Metric::median_of("mpix_per_s", "Mpx/s", Currency::Host, &mpx)
                .note("served megapixels per wall second at the reference rate"),
            Metric::new("sim_ms_per_request", "ms", Currency::Sim, sim_per_req)
                .note("simulated busy time per served request at the reference rate"),
            Metric::new("max_rate_rps", "req/sim-s", Currency::Sim, max_rps).note(format!(
                "highest passing rung {rung_rps:.0} req/sim-s, interpolated to {ATTAINMENT} attainment"
            )),
            Metric::new("sim_p50_ms", "ms", Currency::Sim, ref_rung.sim_p50_s * 1e3),
            Metric::new("sim_p99_ms", "ms", Currency::Sim, ref_rung.sim_p99_s * 1e3),
            Metric::new("slo_miss_frac", "ratio", Currency::Sim, ref_rung.miss_frac()).note(
                format!("{} shed + {} late of {}", ref_rung.shed, ref_rung.late, ref_rung.offered),
            ),
            Metric::new("peak_rss_mb", "MB", Currency::Host, rss).note("VmHWM"),
        ];
    }
    Ok(out)
}

/// Wall and simulated ms per kernel span name, for one frame.
type KernelTimes = BTreeMap<String, (f64, f64)>;

/// Host measurements of the timed serve calls.
struct Measured<'a> {
    wall_ms: &'a [f64],
    traced_ms: &'a [f64],
    frame_wall_ms: &'a [f64],
    prepare_ms: &'a [f64],
    pool: (u64, u64, u64),
}

/// Per-layer metrics of the service workload. Times are per offered
/// request at the reference rate. Frame-level figures come from
/// replaying one frame of each served shape on a traced plan, weighted
/// by how many requests of that shape were served.
fn layers(
    rungs: &[(u64, Rung)],
    r: &Rung,
    reference: &[Request],
    last: &ServiceReport,
    served_by_shape: &BTreeMap<(usize, usize), u64>,
    spans: &mut Option<String>,
    m: Measured,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    let offered = r.offered as f64;
    let served = r.served as f64;

    // Request synthesis, timed from outside over the served requests.
    let shed: HashSet<u64> = last.shed_ids.iter().copied().collect();
    let t0 = Instant::now();
    for q in reference.iter().filter(|q| !shed.contains(&q.id)) {
        std::hint::black_box(q.frame());
    }
    let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
    l.set("traffic.synth_ms", synth_ms / offered);
    l.set("traffic.synth_share", synth_ms / median(m.wall_ms));

    // One traced frame per served shape; the median of three runs.
    let dev = device();
    let pipe = frame::traced_pipeline(&dev, SharpnessParams::default(), OptConfig::all());
    let mut tr = Tracer::new();
    let mut per_shape: BTreeMap<(usize, usize), (FrameStat, KernelTimes)> = BTreeMap::new();
    for (i, (&shape, _)) in served_by_shape.iter().enumerate() {
        let q = reference
            .iter()
            .find(|q| q.shape() == shape)
            .expect("served shape");
        let img = q.frame();
        let mut plan = tr.time("pipeline.prepare", ROOT, i as u64, || {
            pipe.prepared(img.width(), img.height())
        })?;
        let mut runs = Vec::new();
        for _ in 0..3 {
            let first = tr.spans().len();
            let (_, st) = frame::run(&mut tr, &mut plan, &img, ROOT, i as u64)?;
            let mut k = KernelTimes::new();
            for s in &tr.spans()[first..] {
                if s.name.starts_with("kernel.") {
                    let e = k.entry(s.name.clone()).or_insert((0.0, 0.0));
                    e.0 += s.wall_ms();
                    e.1 += s.sim_s * 1e3;
                }
            }
            runs.push((st, k));
        }
        runs.sort_by(|x, y| x.0.frame_wall_ms.total_cmp(&y.0.frame_wall_ms));
        per_shape.insert(shape, runs.swap_remove(1));
    }
    let weighted = |f: &dyn Fn(&FrameStat, &KernelTimes) -> f64| -> f64 {
        per_shape
            .iter()
            .map(|(shape, (st, k))| served_by_shape[shape] as f64 * f(st, k))
            .sum::<f64>()
    };
    for kname in KERNELS.iter().chain(std::iter::once(&"other")) {
        let span = format!("kernel.{kname}");
        let wall = weighted(&|_, k| k.get(&span).map_or(0.0, |v| v.0));
        let sim = weighted(&|_, k| k.get(&span).map_or(0.0, |v| v.1));
        l.set(&format!("{span}.wall_ms"), wall / offered);
        l.set(&format!("{span}.sim_ms"), sim / offered);
    }
    *spans = Some(tr.to_jsonl());
    let kernel_wall = weighted(&|_, k| k.values().map(|v| v.0).sum());
    l.set(
        "pipeline.frame_ms",
        (weighted(&|st, _| st.frame_wall_ms) - kernel_wall) / offered,
    );
    l.set(
        "pipeline.sim_upload_ms",
        weighted(&|st, _| st.upload_s) * 1e3 / offered,
    );
    l.set(
        "pipeline.sim_compute_ms",
        weighted(&|st, _| st.compute_s) * 1e3 / offered,
    );
    l.set(
        "pipeline.sim_download_ms",
        weighted(&|st, _| st.download_s) * 1e3 / offered,
    );
    let dispatches = weighted(&|st, _| st.dispatches as f64);
    l.set("simgpu.dispatches_per_frame", dispatches / served);
    l.set(
        "simgpu.commands_per_frame",
        weighted(&|st, _| st.commands as f64) / served,
    );
    l.set(
        "simgpu.kernel_bytes_per_frame",
        weighted(&|st, _| st.kernel_bytes as f64) / served,
    );
    l.set("pipeline.frames_per_request", served / offered);
    l.set("pipeline.useful_frame_ratio", 1.0);
    l.set_metric(Metric::median_of(
        "pipeline.host_us_per_dispatch",
        "us",
        Currency::Host,
        &m.frame_wall_ms
            .iter()
            .map(|w| w * 1e3 / dispatches)
            .collect::<Vec<_>>(),
    ));
    let (hits, misses, evicted) = m.pool;
    l.set(
        "simgpu.pool.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.set("simgpu.pool.evicted", evicted as f64);

    let (ch, cm, ce) = r.cache;
    l.set("cache.hit_ratio", ch as f64 / (ch + cm).max(1) as f64);
    l.set("cache.misses", cm as f64);
    l.set("cache.evictions", ce as f64);
    l.set("cache.prepare_ms", median(m.prepare_ms) / cm.max(1) as f64);
    l.set("pipeline.prepare_ms", median(m.prepare_ms) / offered);

    l.set("scheduler.batches", r.batches as f64);
    l.set("scheduler.mean_batch", served / r.batches.max(1) as f64);
    l.set("scheduler.peak_queue", r.peak_queue as f64);
    l.set("scheduler.shed", r.shed as f64);
    l.set("scheduler.sim_busy_frac", r.sim_busy_s / r.sim_end_s);
    for (gap, rung) in rungs {
        l.set(
            &format!("scheduler.sim_p99_ms.g{gap}"),
            rung.sim_p99_s * 1e3,
        );
        l.set(&format!("scheduler.slo_miss_frac.g{gap}"), rung.miss_frac());
    }

    let unattributed: Vec<f64> = m
        .wall_ms
        .iter()
        .zip(m.frame_wall_ms)
        .zip(m.prepare_ms)
        .map(|((w, f), p)| (w - f - p - synth_ms) / offered)
        .collect();
    l.set_metric(Metric::median_of(
        "request.unattributed_ms",
        "ms",
        Currency::Host,
        &unattributed,
    ));
    l.set(
        "trace.overhead_frac",
        median(m.traced_ms) / median(m.wall_ms) - 1.0,
    );
    Ok(l)
}
