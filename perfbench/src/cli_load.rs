//! The CLI workloads: one generated Netpbm file sent through
//! `sharpness::cli::run` in a closed loop, plus a traced replica of the
//! same call built from the same public functions in the same order.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sharpness::cli::{self, CliArgs, Engine};
use sharpness::core::color::{sharpen_rgb, Sharpener};
use sharpness::core::gpu::{PipelinePlan, Schedule};
use sharpness::core::{analyze, autotune, tune, CpuPipeline, RunReport, Tuning};
use sharpness::imagekit::rgb::RgbImageU8;
use sharpness::imagekit::{generate, io, metrics, ImageF32};
use sharpness::simgpu::device::{CpuSpec, DeviceSpec};

use crate::frame::{self, FrameStat};
use crate::report::{Currency, Layers, Metric, Outcome};
use crate::stats::{self, median};
use crate::trace::{Tracer, ROOT};
use crate::{peak_rss_mb, repeated_setup, Args};

/// A CLI workload: a square frame size and the input format.
pub struct CliWorkload {
    pub side: usize,
    pub rgb: bool,
}

pub const CLI_4K: CliWorkload = CliWorkload {
    side: 4096,
    rgb: false,
};
pub const CLI_1K_RGB: CliWorkload = CliWorkload {
    side: 1024,
    rgb: true,
};

/// Closed-loop requests always timed, however long they take.
const MIN_REQUESTS: usize = 5;

impl CliWorkload {
    fn ext(&self) -> &'static str {
        if self.rgb {
            "ppm"
        } else {
            "pgm"
        }
    }
}

/// Everything set-up produces.
struct Setup {
    args: CliArgs,
    input: PathBuf,
    replica_out: PathBuf,
    /// Bytes of the warm-up request's output file.
    warm_bytes: Vec<u8>,
    /// The simulated-time line of the warm-up request's summary.
    warm_sim: String,
}

fn setup(wl: &CliWorkload, dir: &Path, seed: u64) -> Result<Setup, String> {
    let (w, h) = (wl.side, wl.side);
    let input = dir.join(format!("in.{}", wl.ext()));
    let output = dir.join(format!("out.{}", wl.ext()));
    if wl.rgb {
        let r = generate::natural(w, h, seed).to_u8();
        let g = generate::natural(w, h, seed ^ 0x5bd1_e995).to_u8();
        let b = generate::value_noise(w, h, 9, seed ^ 0x27d4_eb2f).to_u8();
        let frame = RgbImageU8::from_fn(w, h, |x, y| (r.get(x, y), g.get(x, y), b.get(x, y)));
        io::write_ppm(&input, &frame).map_err(|e| e.to_string())?;
    } else {
        let img = generate::natural(w, h, seed).to_u8();
        io::write_pgm(&input, &img).map_err(|e| e.to_string())?;
    }
    let mut argv = vec![input.display().to_string(), output.display().to_string()];
    if wl.rgb {
        argv.extend(["--color", "rgb", "--explain"].map(String::from));
    }
    let args = cli::parse_args(&argv)?;
    // Warm-up: one full request.
    let warm_sim = sim_line(&cli::run(&args)?)?;
    let warm_bytes = std::fs::read(&output).map_err(|e| e.to_string())?;
    Ok(Setup {
        args,
        input,
        replica_out: dir.join(format!("replica.{}", wl.ext())),
        warm_bytes,
        warm_sim,
    })
}

/// The line of a `cli::run` summary that reports simulated time.
fn sim_line(summary: &str) -> Result<String, String> {
    summary
        .lines()
        .find(|l| l.ends_with(" simulated ms"))
        .map(str::to_string)
        .ok_or_else(|| format!("no simulated time in summary {summary:?}"))
}

/// One timed `cli::run` call: wall ms, and whether its output file and
/// its simulated time match the warm-up request's exactly.
fn timed_request(s: &Setup) -> (f64, Result<(), String>) {
    let t0 = Instant::now();
    let r = cli::run(&s.args);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let r = r.and_then(|summary| {
        let bytes = std::fs::read(&s.args.output).map_err(|e| e.to_string())?;
        if bytes != s.warm_bytes {
            Err("output differs from the warm-up request's".to_string())
        } else if sim_line(&summary)? != s.warm_sim {
            Err("simulated time differs from the warm-up request's".to_string())
        } else {
            Ok(())
        }
    });
    (ms, r)
}

/// What one traced replica request produced.
struct ReplicaRun {
    request_span: u64,
    /// Simulated seconds of the request's delivered planes, summed the
    /// way `cli::run` reports them.
    sim_s: f64,
    plane_runs: usize,
    frames: Vec<FrameStat>,
}

/// The traced replica of `cli::run`.
struct Replica<'a> {
    args: &'a CliArgs,
    spec: DeviceSpec,
    tr: RefCell<&'a mut Tracer>,
    request: u64,
    parent: std::cell::Cell<u64>,
    frames: RefCell<Vec<FrameStat>>,
}

impl Replica<'_> {
    /// Prepares and runs one plane, as `cli::run` does for every plane:
    /// a fresh context and pipeline, created inside the
    /// `pipeline.prepare` span.
    fn plane(&self, plane: &ImageF32) -> Result<(RunReport, PipelinePlan), String> {
        let parent = self.parent.get();
        let mut tr = self.tr.borrow_mut();
        let mut plan = tr.time("pipeline.prepare", parent, self.request, || {
            frame::traced_pipeline(&self.spec, self.args.params, self.args.opts)
                .prepared(plane.width(), plane.height())
        })?;
        let (report, st) = frame::run(&mut tr, &mut plan, plane, parent, self.request)?;
        self.frames.borrow_mut().push(st);
        Ok((report, plan))
    }

    /// Drops a plan, and with it its context, inside a
    /// `pipeline.teardown` span.
    fn release(&self, plan: PipelinePlan) {
        self.time("pipeline.teardown", || drop(plan));
    }

    /// [`Replica::plane`] for a plane whose plan is not kept.
    fn plane_report(&self, plane: &ImageF32) -> Result<RunReport, String> {
        let (report, plan) = self.plane(plane)?;
        self.release(plan);
        Ok(report)
    }

    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent.get();
        let id = self.tr.borrow_mut().begin(name, parent, self.request);
        let out = f();
        self.tr.borrow_mut().end(id);
        out
    }

    fn run(self, s: &Setup) -> Result<ReplicaRun, String> {
        let root = self.tr.borrow_mut().begin("request", ROOT, self.request);
        self.parent.set(root);
        let (sim_s, plane_runs) = if self.args.input.extension().is_some_and(|e| e == "ppm") {
            self.run_ppm(s)?
        } else {
            self.run_pgm(s)?
        };
        self.tr.borrow_mut().end(root);
        Ok(ReplicaRun {
            request_span: root,
            sim_s,
            plane_runs,
            frames: self.frames.into_inner(),
        })
    }

    fn run_pgm(&self, s: &Setup) -> Result<(f64, usize), String> {
        let img = self
            .time("io.read", || io::read_pgm(&s.input))
            .map_err(|e| e.to_string())?;
        let img = self.time("image.to_f32", || img.to_f32());
        let report = self.plane_report(&img)?;
        let out = self.time("image.to_u8", || report.output.to_u8());
        self.time("io.write", || io::write_pgm(&s.replica_out, &out))
            .map_err(|e| e.to_string())?;
        let before = self.time("metrics.gradient_energy", || metrics::gradient_energy(&img));
        let after = self.time("metrics.gradient_energy", || {
            metrics::gradient_energy(&report.output)
        });
        std::hint::black_box((before, after));
        Ok((report.total_s, 0))
    }

    fn run_ppm(&self, s: &Setup) -> Result<(f64, usize), String> {
        let root = self.parent.get();
        let frame = self
            .time("io.read", || io::read_ppm(&s.input))
            .map_err(|e| e.to_string())?;

        // core::color: the gap before the first plane's span is the
        // channel split, the gap after the last plane's span the merge.
        let color_span = self
            .tr
            .borrow_mut()
            .begin("color.sharpen_rgb", root, self.request);
        let first_child = self.tr.borrow().spans().len();
        self.parent.set(color_span);
        let color = sharpen_rgb(self, &frame, self.args.color);
        self.parent.set(root);
        self.tr.borrow_mut().end(color_span);
        let color = color?;
        {
            let mut tr = self.tr.borrow_mut();
            let cs = tr.span(color_span).clone();
            let planes: Vec<(u64, u64)> = tr.spans()[first_child..]
                .iter()
                .filter(|sp| sp.parent == color_span)
                .map(|sp| (sp.start_ns, sp.end_ns))
                .collect();
            if let (Some(first), Some(last)) = (planes.first(), planes.last()) {
                tr.record(
                    "rgb.split",
                    color_span,
                    self.request,
                    cs.start_ns,
                    first.0,
                    0.0,
                );
                tr.record(
                    "rgb.merge",
                    color_span,
                    self.request,
                    last.1,
                    cs.end_ns,
                    0.0,
                );
            }
        }
        self.time("io.write", || io::write_ppm(&s.replica_out, &color.output))
            .map_err(|e| e.to_string())?;

        // The luma plane is sharpened again for the plane report, then
        // once more with spans on for --explain.
        let luma = self.time("rgb.luma", || frame.to_luma());
        self.plane_report(&luma)?;
        if self.args.explain {
            let (_, plan) = self.plane(&luma)?;
            let text = self.time("observe", || {
                let tel = plan.telemetry();
                let spans = plan.spans();
                let records = plan.records().to_vec();
                let e =
                    analyze::explain(&tel, &spans, &self.spec, autotune::detected_cache_bytes());
                (e.render(8), records.len())
            });
            std::hint::black_box(text);
            self.release(plan);
        }
        Ok((color.total_s, color.plane_runs))
    }
}

impl Sharpener for Replica<'_> {
    fn sharpen(&self, plane: &ImageF32) -> Result<RunReport, String> {
        self.plane_report(plane)
    }
}

fn device(args: &CliArgs) -> Result<DeviceSpec, String> {
    match args.engine {
        Engine::Gpu(p) => Ok(p.spec()),
        Engine::Cpu => Err("the CLI workloads run the GPU engine".to_string()),
    }
}

fn replica(s: &Setup, tr: &mut Tracer, request: u64) -> Result<ReplicaRun, String> {
    Replica {
        args: &s.args,
        spec: device(&s.args)?,
        tr: RefCell::new(tr),
        request,
        parent: std::cell::Cell::new(ROOT),
        frames: RefCell::new(Vec::new()),
    }
    .run(s)
}

/// Runs a CLI workload.
pub fn run(wl: &CliWorkload, a: &Args, spans: &mut Option<String>) -> Result<Outcome, String> {
    let dir = a.work_dir.clone();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut out = Outcome::new();
    let (w, h) = (wl.side, wl.side);
    out.notes.push(format!(
        "workload {w}x{h} {}, closed loop, one client, sharpness::cli::run {}",
        if wl.rgb { "PPM" } else { "PGM" },
        if wl.rgb {
            "--color rgb --explain"
        } else {
            "(default flags)"
        },
    ));

    // Set-up, repeated; the last one is used.
    let (s, setup_s) = repeated_setup(|| setup(wl, &dir, a.seed))?;
    let mpx = (w * h) as f64 * 1e-6;

    // Timed loop. The traced run alternates untraced calls with traced
    // replica requests.
    let mut tr = Tracer::new();
    let mut req_ms = Vec::new();
    let mut replicas = Vec::new();
    let started = Instant::now();
    let mut calls = 0;
    while started.elapsed().as_secs_f64() < a.seconds || calls < MIN_REQUESTS {
        calls += 1;
        out.attempted += 1;
        let (ms, r) = timed_request(&s);
        match r {
            Ok(()) => req_ms.push(ms),
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("request failed: {e}"));
            }
        }
        if a.trace {
            out.attempted += 1;
            let id = replicas.len() as u64;
            match replica(&s, &mut tr, id) {
                Ok(rep) if std::fs::read(&s.replica_out).ok().as_ref() == Some(&s.warm_bytes) => {
                    replicas.push(rep);
                }
                Ok(_) => {
                    out.failed += 1;
                    out.notes
                        .push("replica output differs from cli::run's".to_string());
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("replica failed: {e}"));
                }
            }
        }
    }
    let rss = peak_rss_mb();
    if a.trace && replicas.is_empty() {
        return Err("no traced replica request succeeded".to_string());
    }

    // Verification, untimed.
    let mut vtr = Tracer::new();
    out.attempted += 1;
    let check = replica(&s, &mut vtr, 0).map_err(|e| format!("replica failed: {e}"))?;
    let replica_bytes = std::fs::read(&s.replica_out).map_err(|e| e.to_string())?;
    if replica_bytes != s.warm_bytes {
        out.failed += 1;
    }
    out.check(
        "replica_bytes",
        replica_bytes == s.warm_bytes,
        "traced replica output equals every cli::run output byte for byte",
    );
    let sim_ms = check.sim_s * 1e3;
    let repeat = replicas.iter().all(|r| {
        r.sim_s.to_bits() == check.sim_s.to_bits()
            && r.frames.len() == check.frames.len()
            && r.frames
                .iter()
                .zip(&check.frames)
                .all(|(x, y)| same_counts(x, y))
    });
    out.check(
        "sim_repeats",
        repeat && !req_ms.is_empty(),
        format!(
            "simulated time identical across {} cli::run requests and the warm-up; \
             simulated time and counts identical across {} traced requests",
            req_ms.len(),
            replicas.len() + 1
        ),
    );
    out.check(
        "summary_sim_ms",
        s.warm_sim
            .ends_with(&format!(" in {sim_ms:.3} simulated ms")),
        format!("cli::run reports the replica's {sim_ms:.3} simulated ms"),
    );
    let predicted = predict_request(&s, w, h, check.plane_runs)?;
    out.check(
        "predict_frame_bits",
        predicted.to_bits() == check.sim_s.to_bits(),
        format!(
            "sim_ms_per_request {:?} vs core::tune::predict_frame {:?}",
            check.sim_s * 1e3,
            predicted * 1e3
        ),
    );
    let (cpu_ok, worst) = cpu_reference_check(&s)?;
    if !cpu_ok {
        out.failed = out.attempted;
    }
    out.check(
        "cpu_reference",
        cpu_ok,
        format!("max |gpu - CpuPipeline| = {worst} LSB (limit 1)"),
    );

    if a.trace {
        out.per_layer = layers(&tr, &replicas, &req_ms).into_metrics();
        *spans = Some(tr.to_jsonl());
    } else {
        let rates: Vec<f64> = req_ms.iter().map(|ms| mpx / (ms * 1e-3)).collect();
        let (p, tail, beyond) = stats::tail(&req_ms);
        out.end_to_end = vec![
            Metric::median_of("setup_s", "s", Currency::Host, &setup_s),
            Metric::median_of("request_ms_p50", "ms", Currency::Host, &req_ms),
            Metric::new("request_ms_tail", "ms", Currency::Host, tail).note(format!(
                "p{p} of {} requests, {beyond} beyond it",
                req_ms.len()
            )),
            Metric::median_of("mpix_per_s", "Mpx/s", Currency::Host, &rates),
            Metric::new("sim_ms_per_request", "ms", Currency::Sim, sim_ms)
                .note(format!("{} plane runs", check.plane_runs.max(1))),
            Metric::new("peak_rss_mb", "MB", Currency::Host, rss).note("VmHWM"),
        ];
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Whether two frames agree bit for bit on every simulated figure.
fn same_counts(x: &FrameStat, y: &FrameStat) -> bool {
    x.upload_s.to_bits() == y.upload_s.to_bits()
        && x.compute_s.to_bits() == y.compute_s.to_bits()
        && x.download_s.to_bits() == y.download_s.to_bits()
        && (x.dispatches, x.commands, x.kernel_bytes) == (y.dispatches, y.commands, y.kernel_bytes)
        && (x.pool_hits, x.pool_misses, x.pool_evicted)
            == (y.pool_hits, y.pool_misses, y.pool_evicted)
}

/// The request's simulated seconds as `core::tune` predicts them: one
/// frame, or the per-channel plane runs summed in `sharpen_rgb`'s order.
fn predict_request(s: &Setup, w: usize, h: usize, plane_runs: usize) -> Result<f64, String> {
    let p = tune::predict_frame(
        w,
        h,
        &s.args.opts,
        &Tuning::default(),
        Schedule::Monolithic,
        &device(&s.args)?,
        &CpuSpec::core_i5_3470(),
    )?
    .total_s;
    if plane_runs == 0 {
        return Ok(p);
    }
    let mut total = 0.0;
    for _ in 0..plane_runs {
        total += p;
    }
    Ok(total)
}

/// Compares the CLI output with the CPU reference pipeline: every sample
/// must be within one 8-bit level.
fn cpu_reference_check(s: &Setup) -> Result<(bool, u8), String> {
    let cpu = CpuPipeline::new(s.args.params);
    let (got, want): (Vec<u8>, Vec<u8>) = if s.args.input.extension().is_some_and(|e| e == "ppm") {
        let frame = io::read_ppm(&s.input).map_err(|e| e.to_string())?;
        let (r, g, b) = frame.split_channels();
        let planes = [r, g, b]
            .iter()
            .map(|p| cpu.run(p).map(|rep| rep.output))
            .collect::<Result<Vec<_>, _>>()?;
        let want = RgbImageU8::merge_channels(&planes[0], &planes[1], &planes[2]);
        let got = io::read_ppm(&s.args.output).map_err(|e| e.to_string())?;
        (got.bytes().to_vec(), want.bytes().to_vec())
    } else {
        let img = io::read_pgm(&s.input).map_err(|e| e.to_string())?.to_f32();
        let want = cpu.run(&img)?.output.to_u8();
        let got = io::read_pgm(&s.args.output).map_err(|e| e.to_string())?;
        (got.pixels().to_vec(), want.pixels().to_vec())
    };
    if got.len() != want.len() {
        return Ok((false, u8::MAX));
    }
    let worst = got
        .iter()
        .zip(&want)
        .map(|(a, b)| a.abs_diff(*b))
        .max()
        .unwrap_or(0);
    Ok((worst <= 1, worst))
}

/// Per-layer metrics from the traced replica requests.
fn layers(tr: &Tracer, reps: &[ReplicaRun], req_ms: &[f64]) -> Layers {
    let mut l = Layers::default();
    let self_ms = tr.self_ms();
    let per_request = |span: &str| -> Vec<f64> {
        (0..reps.len() as u64)
            .map(|r| self_ms.get(&(r, span.to_string())).copied().unwrap_or(0.0))
            .collect()
    };
    let host = |l: &mut Layers, metric: &str, span: &str| {
        l.set_metric(Metric::median_of(
            metric,
            "ms",
            Currency::Host,
            &per_request(span),
        ));
    };
    host(&mut l, "io.read_ms", "io.read");
    host(&mut l, "io.write_ms", "io.write");
    host(&mut l, "image.to_f32_ms", "image.to_f32");
    host(&mut l, "image.to_u8_ms", "image.to_u8");
    host(&mut l, "rgb.split_ms", "rgb.split");
    host(&mut l, "rgb.merge_ms", "rgb.merge");
    host(&mut l, "rgb.luma_ms", "rgb.luma");
    host(
        &mut l,
        "metrics.gradient_energy_ms",
        "metrics.gradient_energy",
    );
    host(&mut l, "pipeline.prepare_ms", "pipeline.prepare");
    host(&mut l, "pipeline.frame_ms", "pipeline.frame");
    host(&mut l, "pipeline.teardown_ms", "pipeline.teardown");
    host(&mut l, "observe.ms", "observe");

    // Simulated per-kernel time and counts repeat exactly, so the first
    // request stands for all of them.
    let mut kernel_sim: BTreeMap<String, f64> = BTreeMap::new();
    for s in tr
        .spans()
        .iter()
        .filter(|s| s.request == 0 && s.name.starts_with("kernel."))
    {
        *kernel_sim.entry(s.name.clone()).or_insert(0.0) += s.sim_s * 1e3;
    }
    for k in crate::report::KERNELS
        .iter()
        .chain(std::iter::once(&"other"))
    {
        let span = format!("kernel.{k}");
        host(&mut l, &format!("{span}.wall_ms"), &span);
        l.set(
            &format!("{span}.sim_ms"),
            kernel_sim.get(&span).copied().unwrap_or(0.0),
        );
    }

    let first = &reps[0];
    let frames = first.frames.len() as f64;
    let sum = |f: fn(&FrameStat) -> f64| first.frames.iter().map(f).sum::<f64>();
    l.set("color.plane_runs", first.plane_runs as f64);
    l.set("pipeline.frames_per_request", frames);
    l.set(
        "pipeline.useful_frame_ratio",
        first.plane_runs.max(1) as f64 / frames,
    );
    l.set("pipeline.sim_upload_ms", sum(|f| f.upload_s) * 1e3);
    l.set("pipeline.sim_compute_ms", sum(|f| f.compute_s) * 1e3);
    l.set("pipeline.sim_download_ms", sum(|f| f.download_s) * 1e3);
    l.set(
        "simgpu.dispatches_per_frame",
        sum(|f| f.dispatches as f64) / frames,
    );
    l.set(
        "simgpu.commands_per_frame",
        sum(|f| f.commands as f64) / frames,
    );
    l.set(
        "simgpu.kernel_bytes_per_frame",
        sum(|f| f.kernel_bytes as f64) / frames,
    );
    let (hits, misses) = (sum(|f| f.pool_hits as f64), sum(|f| f.pool_misses as f64));
    l.set("simgpu.pool.hit_ratio", hits / (hits + misses).max(1.0));
    l.set("simgpu.pool.evicted", sum(|f| f.pool_evicted as f64));

    let per_dispatch: Vec<f64> = reps
        .iter()
        .map(|r| {
            let wall: f64 = r.frames.iter().map(|f| f.frame_wall_ms).sum();
            let n: u64 = r.frames.iter().map(|f| f.dispatches).sum();
            wall * 1e3 / n.max(1) as f64
        })
        .collect();
    l.set_metric(Metric::median_of(
        "pipeline.host_us_per_dispatch",
        "us",
        Currency::Host,
        &per_dispatch,
    ));
    l.set_metric(Metric::median_of(
        "request.unattributed_ms",
        "ms",
        Currency::Host,
        &per_request("request")
            .iter()
            .zip(per_request("color.sharpen_rgb"))
            .map(|(req, color)| req + color)
            .collect::<Vec<_>>(),
    ));
    let traced: Vec<f64> = reps
        .iter()
        .map(|r| tr.span(r.request_span).wall_ms())
        .collect();
    l.set(
        "trace.overhead_frac",
        median(&traced) / median(req_ms) - 1.0,
    );
    l
}
