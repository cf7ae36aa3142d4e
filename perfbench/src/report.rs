//! Metric records, the per-layer metric set, and the printed result.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Currency {
    /// Host wall-clock (or host memory): noisy.
    Host,
    /// Simulated device time or an exact count: deterministic per seed.
    Sim,
    /// Derived from both.
    Both,
}

impl Currency {
    fn tag(self) -> &'static str {
        match self {
            Currency::Host => "host",
            Currency::Sim => "sim",
            Currency::Both => "both",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub currency: Currency,
    pub value: f64,
    /// Distribution over the run's samples, when the value is a median.
    pub dist: Option<Summary>,
    /// Free-form detail printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, currency: Currency, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            currency,
            value,
            dist: None,
            note: String::new(),
        }
    }

    /// The median of `samples`, with its distribution.
    pub fn median_of(name: &str, unit: &'static str, currency: Currency, samples: &[f64]) -> Self {
        let dist = Summary::of(samples);
        let mut m = Metric::new(name, unit, currency, dist.map_or(0.0, |d| d.median));
        m.dist = dist;
        m
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    fn line(&self) -> String {
        let mut s = format!(
            "metric {} {:?} {} {}",
            self.name,
            self.value,
            self.unit,
            self.currency.tag()
        );
        if let Some(d) = &self.dist {
            s.push_str(&format!(
                " n={} q1={:?} median={:?} q3={:?}",
                d.n, d.q1, d.median, d.q3
            ));
        }
        if !self.note.is_empty() {
            s.push_str(&format!(" ({})", self.note));
        }
        s
    }
}

/// End-to-end metrics every workload reports in the final result line:
/// host measurements, which vary from run to run. The remaining
/// end-to-end metrics are printed as report lines: the simulated ones,
/// which repeat exactly for a seed (`--determinism` checks them), and
/// those that apply to some workloads only.
pub const END_TO_END: [&str; 4] = ["setup_s", "request_ms_p50", "mpix_per_s", "peak_rss_mb"];

/// Kernels of the default (all optimizations, monolithic) schedule that
/// get a `kernel.<name>.*` pair. A dispatch named `<name>` or
/// `<name>_<variant>` (the four `upscale_border_<side>` dispatches, the
/// `reduction_stage1_unroll<n>` variants) counts under `<name>`; any
/// other kernel is folded into `kernel.other`.
pub const KERNELS: [&str; 7] = [
    "downscale",
    "upscale_center_vec4",
    "upscale_border",
    "sobel_vec4",
    "reduction_stage1",
    "reduction_stage2",
    "sharpness_vec4",
];

/// Per-layer metric names with their units and currencies, in print
/// order. Every workload reports all of them; a layer a workload does not
/// run reads 0 there.
pub fn per_layer_catalog() -> Vec<(String, &'static str, Currency)> {
    use Currency::*;
    let mut v: Vec<(String, &'static str, Currency)> = [
        ("io.read_ms", "ms", Host),
        ("io.write_ms", "ms", Host),
        ("image.to_f32_ms", "ms", Host),
        ("image.to_u8_ms", "ms", Host),
        ("rgb.split_ms", "ms", Host),
        ("rgb.merge_ms", "ms", Host),
        ("rgb.luma_ms", "ms", Host),
        ("color.plane_runs", "count", Sim),
        ("metrics.gradient_energy_ms", "ms", Host),
        ("pipeline.prepare_ms", "ms", Host),
        ("pipeline.frame_ms", "ms", Host),
        ("pipeline.teardown_ms", "ms", Host),
        ("pipeline.frames_per_request", "count", Sim),
        ("pipeline.useful_frame_ratio", "ratio", Sim),
        ("pipeline.host_us_per_dispatch", "us", Host),
        ("pipeline.sim_upload_ms", "ms", Sim),
        ("pipeline.sim_compute_ms", "ms", Sim),
        ("pipeline.sim_download_ms", "ms", Sim),
        ("simgpu.dispatches_per_frame", "count", Sim),
        ("simgpu.commands_per_frame", "count", Sim),
        ("simgpu.kernel_bytes_per_frame", "B-computed", Sim),
        ("simgpu.pool.hit_ratio", "ratio", Sim),
        ("simgpu.pool.evicted", "count", Sim),
    ]
    .into_iter()
    .map(|(n, u, c)| (n.to_string(), u, c))
    .collect();
    for k in KERNELS.iter().chain(std::iter::once(&"other")) {
        v.push((format!("kernel.{k}.wall_ms"), "ms", Host));
        v.push((format!("kernel.{k}.sim_ms"), "ms", Sim));
    }
    v.extend(
        [
            ("observe.ms", "ms", Host),
            ("traffic.synth_ms", "ms", Host),
            ("traffic.synth_share", "ratio", Host),
            ("cache.hit_ratio", "ratio", Sim),
            ("cache.misses", "count", Sim),
            ("cache.evictions", "count", Sim),
            ("cache.prepare_ms", "ms", Host),
            ("scheduler.batches", "count", Sim),
            ("scheduler.mean_batch", "count", Sim),
            ("scheduler.peak_queue", "count", Sim),
            ("scheduler.shed", "count", Sim),
            ("scheduler.sim_busy_frac", "ratio", Sim),
        ]
        .into_iter()
        .map(|(n, u, c)| (n.to_string(), u, c)),
    );
    for g in crate::serve_load::GAPS_US {
        v.push((format!("scheduler.sim_p99_ms.g{g}"), "ms", Sim));
        v.push((format!("scheduler.slo_miss_frac.g{g}"), "ratio", Sim));
    }
    v.push(("request.unattributed_ms".to_string(), "ms", Host));
    v.push(("trace.overhead_frac".to_string(), "ratio", Host));
    v
}

/// Per-layer values keyed by name; names a workload never sets read 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, Metric>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let (_, unit, currency) = per_layer_catalog()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values
            .insert(name.to_string(), Metric::new(name, unit, currency, value));
    }

    pub fn set_metric(&mut self, m: Metric) {
        assert!(
            per_layer_catalog().iter().any(|(n, _, _)| *n == m.name),
            "{} is not a per-layer metric",
            m.name
        );
        self.values.insert(m.name.clone(), m);
    }

    /// All catalog metrics in catalog order.
    pub fn into_metrics(mut self) -> Vec<Metric> {
        per_layer_catalog()
            .into_iter()
            .map(|(n, u, c)| {
                self.values
                    .remove(&n)
                    .unwrap_or_else(|| Metric::new(&n, u, c, 0.0).note("not run by this workload"))
            })
            .collect()
    }
}

/// Outcome of one workload run.
pub struct Outcome {
    /// Requests attempted (CLI calls and replica calls, or offered service
    /// requests across every serve call).
    pub attempted: u64,
    /// Requests that errored or failed an output check.
    pub failed: u64,
    /// Named checks with their verdict and detail.
    pub checks: Vec<(String, bool, String)>,
    /// Every end-to-end metric this workload defines (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric (traced run).
    pub per_layer: Vec<Metric>,
    /// Extra report lines (workload shape, ladder, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the report lines and, last, the one-line JSON result.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, ok, detail) in &self.checks {
            println!("check {name} {} {detail}", if *ok { "ok" } else { "FAIL" });
        }
        let ff = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let failed_frac = Metric::new("failed_frac", "ratio", Currency::Both, ff)
            .note(format!("{} of {} requests", self.failed, self.attempted));
        for m in self.end_to_end.iter().chain(std::iter::once(&failed_frac)) {
            println!("{}", m.line());
        }
        for m in &self.per_layer {
            println!("{}", m.line());
        }
        let chosen: Vec<&Metric> = if trace {
            self.per_layer.iter().collect()
        } else {
            END_TO_END
                .iter()
                .map(|n| {
                    self.end_to_end
                        .iter()
                        .find(|m| m.name == *n)
                        .unwrap_or_else(|| panic!("workload did not report {n}"))
                })
                .collect()
        };
        let body: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A finite JSON number with every digit `f64` holds.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
