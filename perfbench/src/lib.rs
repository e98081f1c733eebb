//! End-to-end and per-layer benchmark of the DeepCAT tuner.
//!
//! Each workload drives the public entry points of `deepcat` (and through
//! them `rl`, `tensor-nn`, `spark-sim` and `surrogate`) with inputs
//! generated from one seed. An untraced run (`trace = false`) reports the
//! end-to-end metrics in [`END_TO_END`]; a traced run reports the
//! per-layer metrics in [`per_layer`]. See `README.md` for what each
//! workload and metric means.

mod calib;
mod iostat;
mod layers;
mod spans;
mod stats;
mod workloads;

use calib::HostSpeed;
use spans::{SpanSink, LEAF, NON_LEAF};
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflineTrain,
    OnlineRequest,
    ServiceDurable,
    PaperCompare,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineTrain,
        Workload::OnlineRequest,
        Workload::ServiceDurable,
        Workload::PaperCompare,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineTrain => "offline-train",
            Workload::OnlineRequest => "online-request",
            Workload::ServiceDurable => "service-durable",
            Workload::PaperCompare => "paper-compare",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Passes every untraced run makes over its inputs; each input's fastest
/// pass is reported. The same in every run, so both sides of a comparison
/// take the minimum over the same number of samples.
const PASSES: usize = 2;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget. The work per run is fixed (sized so that it
    /// takes about 20 s on the reference host) and does not depend on it;
    /// the report compares the time measured with it.
    pub seconds: f64,
    pub trace: bool,
    /// Smallest sizes (used by the tests); the default is the sized run.
    pub smoke: bool,
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 when the layer is idle on this
    /// workload and the value is 0 by definition).
    pub samples: usize,
}

/// Result of one invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly [`END_TO_END`] (untraced) or [`PER_LAYER`] (traced), in
    /// catalog order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: figures under their workload-specific
    /// names, correctness verdicts and context.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics measured outside the span stream (benchmark-side
/// timings and program outputs), with their units.
const LAYER_DIRECT: [(&str, &str); 29] = [
    ("tuning.eval_charged_s_per_unit", "sim_s"),
    ("tuning.best_speedup", "x"),
    ("nn.critic_fwd_bwd_b64_s", "s"),
    ("nn.critic_gmac_per_s", "GMAC/s"),
    ("nn.critic_infer_row_s", "s"),
    ("replay.rdper_sample_b64_s", "s"),
    ("replay.rdper_push_s", "s"),
    ("replay.rdper_update_priorities_s", "s"),
    ("replay.tdper_sample_b64_s", "s"),
    ("td3.train_step_s", "s"),
    ("twinq.optimize_s", "s"),
    ("twinq.rounds_per_step", "count"),
    ("twinq.accept_ratio", "ratio"),
    ("online.rec_share", "ratio"),
    ("sim.evaluate_s", "s"),
    ("storage.fsync_p50_s", "s"),
    ("storage.fsync_p99_s", "s"),
    ("storage.append_p50_s", "s"),
    ("storage.write_all_p50_s", "s"),
    ("storage.rename_p50_s", "s"),
    ("storage.sync_dir_p50_s", "s"),
    ("storage.fsyncs_per_step", "count"),
    ("storage.bytes_per_step", "B"),
    ("storage.busy_share", "ratio"),
    ("service.max_dispatch_gap_ms", "ms"),
    ("service.steps_per_s_mem", "1/s"),
    ("ddpg.train_iters_per_s", "1/s"),
    ("ottertune.repository_s", "s"),
    ("ottertune.tune_s", "s"),
];

/// Whole-trace attribution shares and the tracing overhead.
const LAYER_TRACE: [(&str, &str); 4] = [
    ("trace.leaf_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.outside_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric a traced run reports, with its unit: the
/// direct figures, then one per program span (`<leaf>.self_s`,
/// `<non-leaf>.unattributed_s`, seconds per work unit), then the trace
/// totals.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let direct = LAYER_DIRECT.iter().map(|(n, u)| (n.to_string(), *u));
    let leaf = LEAF.iter().map(|n| (format!("{n}.self_s"), "s"));
    let non_leaf = NON_LEAF
        .iter()
        .map(|n| (format!("{n}.unattributed_s"), "s"));
    let trace = LAYER_TRACE.iter().map(|(n, u)| (n.to_string(), *u));
    direct.chain(leaf).chain(non_leaf).chain(trace).collect()
}

/// One measured operation: what the user of the workload waits for.
#[derive(Clone, Debug, Default)]
pub(crate) struct Op {
    pub wall_s: f64,
    /// Work units completed (iterations, requests, steps or pairs).
    pub units: f64,
    /// User-facing latencies inside the op; empty means `[wall_s]`.
    pub latencies: Vec<f64>,
    /// Simulated evaluation seconds charged (Fig. 7's evaluation cost).
    pub eval_s: f64,
    pub speedups: Vec<f64>,
    /// Σ recommendation seconds (Fig. 7's recommendation cost).
    pub rec_s: f64,
    pub twinq_rounds: usize,
    pub tuning_steps: usize,
    /// Threads the op kept busy (its wall-time capacity multiplier).
    pub threads: usize,
    pub checked: u64,
    pub failures: Vec<String>,
    pub io: Vec<iostat::CallRecord>,
}

impl Op {
    /// Convert the op's times to reference-host seconds.
    fn scaled(mut self, factor: f64) -> Self {
        self.wall_s *= factor;
        self.rec_s *= factor;
        self.latencies.iter_mut().for_each(|l| *l *= factor);
        self
    }

    fn latency_samples(&self) -> Vec<f64> {
        if self.latencies.is_empty() {
            vec![self.wall_s]
        } else {
            self.latencies.clone()
        }
    }
}

/// A prepared operation.
pub(crate) type Job = Box<dyn FnOnce() -> Result<Op, String>>;

/// Per-layer figures collected by a workload: name → (value, samples).
pub(crate) type Layers = BTreeMap<&'static str, (f64, usize)>;

/// What a workload implements; [`run`] does the rest.
pub(crate) trait Bench {
    /// Work unit, for the report ("iterations", "requests", ...).
    fn unit(&self) -> &'static str;
    fn setup(&mut self) -> Result<(), String>;
    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize {
        7
    }
    /// Threads an op keeps busy (the calibration probe runs on as many).
    fn threads(&self) -> usize {
        1
    }
    /// Inputs per pass. An untraced run makes [`PASSES`] passes (the
    /// seed-fixed figures come from the first); a traced run one.
    fn pass_len(&self, traced: bool) -> usize;
    /// Build operation `index`'s inputs (the same index always gets the
    /// same inputs); the returned job runs and times it.
    fn prepare(&mut self, index: usize) -> Result<Job, String>;
    /// Benchmark-side layer timings for the traced run.
    fn layers(&mut self, ops: &[Op], out: &mut Layers) -> Result<(), String>;
    /// The workload's own names for its figures: (name, the end-to-end
    /// or seed-fixed figure it is).
    fn aliases(&self) -> &'static [(&'static str, &'static str)];
    /// Context lines for the report.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Correctness tally.
#[derive(Debug, Default)]
pub(crate) struct Verdict {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, ops: &[Op]) {
        for op in ops {
            self.attempted += op.checked;
            self.failures.extend(op.failures.iter().cloned());
        }
    }
}

/// Run one prepared job, timed in reference-host seconds by the probes
/// around it.
fn timed(job: Job, host: &mut HostSpeed) -> Result<Op, String> {
    let op = job()?;
    let factor = host.mark(op.wall_s);
    Ok(op.scaled(factor))
}

/// [`PASSES`] passes over the untraced inputs; `runs[i]` holds input
/// `i`'s op from every pass.
fn run_passes(bench: &mut dyn Bench, host: &mut HostSpeed) -> Result<Vec<Vec<Op>>, String> {
    let mut runs: Vec<Vec<Op>> = (0..bench.pass_len(false)).map(|_| Vec::new()).collect();
    host.occupy(bench.threads());
    for _ in 0..PASSES {
        for (index, reps) in runs.iter_mut().enumerate() {
            let job = bench.prepare(index)?;
            reps.push(timed(job, host)?);
        }
    }
    Ok(runs)
}

/// Input `reps`' fastest pass, whole (its latencies included): host
/// interference only ever adds time, so the fastest of the passes spread
/// across the run is the figure least disturbed by it. Latency quantiles
/// are therefore over each input's best of [`PASSES`] runs.
fn fastest(reps: &[Op]) -> Op {
    reps.iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("every input ran at least once")
        .clone()
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// Run one invocation. `Err` means the benchmark itself could not run
/// (no result is printed); failed correctness checks are in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut bench = workloads::build(opts)?;
    let bench = bench.as_mut();
    let mut host = HostSpeed::start();
    let mut setup = Vec::new();
    let setup_reps = if opts.smoke { 1 } else { bench.setup_reps() };
    for _ in 0..setup_reps {
        let t0 = Instant::now();
        bench.setup()?;
        let raw = t0.elapsed().as_secs_f64();
        setup.push(raw * host.mark(raw));
    }
    let measure = Instant::now();
    let mut verdict = Verdict::default();
    let mut report = vec![format!(
        "workload={} seed={} trace={} unit={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        bench.unit()
    )];
    let metrics = if opts.trace {
        traced(bench, &mut host, &mut verdict, &mut report)?
    } else {
        let runs = run_passes(bench, &mut host)?;
        for (index, reps) in runs.iter().enumerate() {
            verdict.absorb(reps);
            // Every pass gets the same inputs, so it must charge the same
            // simulated evaluation seconds, bit for bit.
            verdict.check(
                reps.iter()
                    .all(|r| r.eval_s.to_bits() == reps[0].eval_s.to_bits()),
                || format!("input {index} charged different evaluation seconds across passes"),
            );
        }
        let first: Vec<Op> = runs.iter().map(|reps| reps[0].clone()).collect();
        let best: Vec<Op> = runs.iter().map(|reps| fastest(reps)).collect();
        let metrics = end_to_end(&best, &setup)?;
        let quality = quality(&first).map(|(name, unit, value, samples)| Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
        report.extend(quality.iter().map(|m| {
            format!(
                "metric {} = {:?} {} (n={})",
                m.name, m.value, m.unit, m.samples
            )
        }));
        for (alias, name) in bench.aliases() {
            if let Some(m) = metrics.iter().chain(&quality).find(|m| m.name == *name) {
                report.push(format!(
                    "metric {alias} = {:?} {} (n={}), reported as {name}",
                    m.value, m.unit, m.samples
                ));
            }
        }
        report.push(format!(
            "{} inputs x {PASSES} passes; each input's fastest pass is reported",
            runs.len(),
        ));
        metrics
    };
    report.extend(bench.notes());
    report.push(format!(
        "measured {:.1} s (budget {} s); host speed: probe kernel median {:.3} ms over {} probes \
         (reference {:.3} ms)",
        measure.elapsed().as_secs_f64(),
        opts.seconds,
        1e3 * median(&host.probes),
        host.probes.len(),
        1e3 * calib::NOMINAL_S,
    ));
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    let failed = verdict.failures.len() as u64;
    report.push(format!(
        "check {}: {} ({} of {} checks failed; error_rate {})",
        opts.workload.name(),
        if failed == 0 { "PASS" } else { "FAIL" },
        failed,
        verdict.attempted,
        failed as f64 / verdict.attempted.max(1) as f64
    ));
    report.extend(verdict.failures.iter().map(|f| format!("  failed: {f}")));
    Ok(Outcome {
        correct: failed == 0 && verdict.attempted > 0,
        attempted: verdict.attempted.max(1),
        failed,
        metrics,
        report,
    })
}

fn end_to_end(ops: &[Op], setup: &[f64]) -> Result<Vec<Metric>, String> {
    // Σ units ÷ Σ wall rather than a median of per-op rates: the host's
    // speed flips between two levels every few seconds, and a median
    // jumps between them while a mean moves smoothly with their mix.
    let units: f64 = ops.iter().map(|o| o.units).sum();
    let wall: f64 = ops.iter().map(|o| o.wall_s).sum();
    let latencies: Vec<f64> = ops.iter().flat_map(Op::latency_samples).collect();
    Ok(vec![
        metric("setup_s", "s", median(setup), setup.len()),
        metric("throughput_per_s", "1/s", units / wall, ops.len()),
        metric(
            "latency_p50_s",
            "s",
            quantile(&latencies, 0.5),
            latencies.len(),
        ),
        metric(
            "latency_p99_s",
            "s",
            quantile(&latencies, 0.99),
            latencies.len(),
        ),
        metric("peak_rss_mb", "MB", stats::peak_rss_mb()?, 1),
    ])
}

/// The figures a seed fixes exactly, over one pass of ops: simulated
/// evaluation seconds per work unit and the mean speedup of the best
/// configuration found over the default (Figs. 6 and 7), and Twin-Q
/// rounds per online step.
fn quality(window: &[Op]) -> [(&'static str, &'static str, f64, usize); 3] {
    let units: f64 = window.iter().map(|o| o.units).sum();
    let eval_s: f64 = window.iter().map(|o| o.eval_s).sum();
    let speedups: Vec<f64> = window.iter().flat_map(|o| o.speedups.clone()).collect();
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let rounds: usize = window.iter().map(|o| o.twinq_rounds).sum();
    let steps: usize = window.iter().map(|o| o.tuning_steps).sum();
    [
        (
            "tuning.eval_charged_s_per_unit",
            "sim_s",
            eval_s / units.max(1.0),
            window.len(),
        ),
        ("tuning.best_speedup", "x", mean_speedup, speedups.len()),
        (
            "twinq.rounds_per_step",
            "count",
            rounds as f64 / steps.max(1) as f64,
            steps,
        ),
    ]
}

/// Σ recommendation seconds ÷ busy capacity (wall × threads), over the
/// ops that recommend at all.
fn rec_share(ops: &[Op]) -> (f64, usize) {
    let rec: f64 = ops.iter().map(|o| o.rec_s).sum();
    let capacity: f64 = ops.iter().map(|o| o.wall_s * o.threads.max(1) as f64).sum();
    (rec / capacity, ops.iter().filter(|o| o.rec_s > 0.0).count())
}

/// The traced run: each op runs twice on the same inputs, untraced and
/// then with a span-folding sink installed, so the two halves see the
/// same host conditions; then the workload's layer timings.
fn traced(
    bench: &mut dyn Bench,
    host: &mut HostSpeed,
    verdict: &mut Verdict,
    report: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let pass_len = bench.pass_len(true);
    let sink = SpanSink::default();
    // Ops and spans stay in raw seconds here; only the overhead compares
    // twins in reference-host seconds, each scaled by its own probes.
    let (mut plain, mut traced_ops) = (Vec::new(), Vec::new());
    let (mut plain_ref_s, mut traced_ref_s) = (0.0, 0.0);
    host.occupy(bench.threads());
    for index in 0..pass_len {
        let op = bench.prepare(index)?()?;
        plain_ref_s += op.wall_s * host.mark(op.wall_s);
        let job = bench.prepare(index)?;
        telemetry::install(Arc::new(sink.clone()));
        let twin = job();
        telemetry::shutdown();
        let twin = twin?;
        traced_ref_s += twin.wall_s * host.mark(twin.wall_s);
        plain.push(op);
        traced_ops.push(twin);
    }
    verdict.absorb(&plain);
    verdict.absorb(&traced_ops);

    let mut layers = Layers::new();
    for (name, _, value, n) in quality(&plain[..pass_len]) {
        layers.insert(name, (value, n));
    }
    layers.insert("online.rec_share", rec_share(&plain));
    bench.layers(&plain, &mut layers)?;

    let attribution = sink.attribution();
    for name in attribution.unexpected() {
        report.push(format!(
            "note: span {name} is not in the catalog or changed nesting"
        ));
    }
    let units: f64 = traced_ops.iter().map(|o| o.units).sum();
    let capacity: f64 = traced_ops
        .iter()
        .map(|o| o.wall_s * o.threads.max(1) as f64)
        .sum();
    let span_samples = |name: &str| attribution.count(name) as usize;
    let mut out = Vec::new();
    for (name, unit) in LAYER_DIRECT {
        let (value, samples) = layers.get(name).copied().unwrap_or((0.0, 0));
        out.push(metric(name, unit, value, samples));
    }
    for name in LEAF {
        let v = attribution.self_s(name) / units;
        out.push(metric(format!("{name}.self_s"), "s", v, span_samples(name)));
    }
    for name in NON_LEAF {
        let v = attribution.self_s(name) / units;
        out.push(metric(
            format!("{name}.unattributed_s"),
            "s",
            v,
            span_samples(name),
        ));
    }
    let spans: usize = attribution.by_name.values().map(|r| r.count as usize).sum();
    let overhead = 100.0 * (traced_ref_s / plain_ref_s - 1.0);
    out.push(metric(
        "trace.leaf_share",
        "ratio",
        attribution.leaf_s / capacity,
        spans,
    ));
    out.push(metric(
        "trace.unattributed_share",
        "ratio",
        attribution.unattributed_s / capacity,
        spans,
    ));
    out.push(metric(
        "trace.outside_share",
        "ratio",
        (1.0 - attribution.root_s / capacity).max(0.0),
        spans,
    ));
    out.push(metric(
        "trace.overhead_pct",
        "%",
        overhead,
        plain.len() + traced_ops.len(),
    ));
    report.push(format!(
        "traced {} ops ({} {}), each after an untraced twin; {} spans; root spans cover {:.1}% of capacity",
        traced_ops.len(),
        units,
        bench.unit(),
        spans,
        100.0 * attribution.root_s / capacity
    ));
    Ok(out)
}
