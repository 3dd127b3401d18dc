//! Seeded closed-loop benchmark of the ZOOM*UserViews provenance system.
//!
//! Three workloads, each driven from one process, pinned to one CPU, by
//! one closed-loop client thread:
//!
//! * [`lab`] — `lab_corpus`: scientists' view sessions over the
//!   Paper-scale corpus, whose run × view pairs overflow the view-run
//!   cache;
//! * [`tenants`] — `zoomd_tenants`: two tenants querying a loopback
//!   `zoomd` daemon over a hot set that fits every cache;
//! * [`ingest`] — `durable_ingest`: streamed and uploaded runs written
//!   through a durable store beside deep-provenance probes.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the benchmark's calls into each layer and reports the
//! per-layer metrics (see `README.md` for which end-to-end metric each one
//! should move).

pub mod counters;
pub mod host;
pub mod ingest;
pub mod lab;
pub mod report;
pub mod stats;
pub mod tenants;
pub mod trace;

use report::Report;
use stats::Samples;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use zoom::core::{IndexBackend, ProvenanceResult, RunId, ViewId, Zoom};
use zoom::model::DataId;

/// Set-ups per run of `lab_corpus` and `zoomd_tenants`; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 5;

/// Seed of every workload's workflows (the lab's corpus, the daemon's hot
/// set, the durable store's specs): that of the `experiments` harness's
/// default corpus. Workflows drawn from different seeds differ in shape,
/// and so in answer sizes and deep-provenance latency: a difference
/// between deployments, which a fixed seed keeps out of the spread between
/// runs. A run's own seed draws what is done with the workflows.
pub const WORKFLOW_SEED: u64 = 2008;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["lab_corpus", "zoomd_tenants", "durable_ingest"];

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Reduced input sizes for the package's own tests.
    pub quick: bool,
    /// Directory for the span dump and the durable store.
    pub out_dir: PathBuf,
}

/// Runs the named workload.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    let mut report = match name {
        "lab_corpus" => lab::run(cfg)?,
        "zoomd_tenants" => tenants::run(cfg)?,
        "durable_ingest" => ingest::run(cfg)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    report.context_str("workload", name);
    report.context_num("seed", cfg.seed);
    report.context_num("workflow_seed", WORKFLOW_SEED);
    report.context_num("seconds", cfg.seconds);
    report.context_num("trace", u8::from(cfg.trace));
    report.context_str("commit", &host::commit());
    report.context_num("attempted", report.attempted);
    report.context_num("failed", report.failed);
    report.context_num("failed_frac", stats::ratio(report.failed, report.attempted));
    report.context_num("oracle_mismatches", report.mismatches);
    if !cfg.trace {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(report)
}

/// Operations attempted in every phase of `phases`.
pub fn attempted(phases: &[(Phase, Option<Phase>)]) -> u64 {
    phases
        .iter()
        .map(|(plain, traced)| plain.ops() + traced.as_ref().map_or(0, Phase::ops))
        .sum()
}

/// Equal time slices a window is cut into. Each end-to-end rate and
/// percentile is the median of its per-slice values: on a shared host,
/// contention comes in spells of seconds, and the median keeps a spell
/// that covers fewer than half the slices out of the figure. (Slower
/// drift of the host, over minutes, is what keeps runs short: see
/// `README.md`.)
pub const SLICES: u32 = 5;

/// What one measured window saw.
#[derive(Debug)]
pub struct Phase {
    /// When the window opened.
    pub start: Instant,
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Time spent in this phase's steps (see [`run_window`]).
    busy: Duration,
    /// When each attempted operation completed.
    ops: Vec<Instant>,
    /// Deep-provenance latencies.
    pub deep: Samples,
    /// View-switch latencies.
    pub switch: Samples,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            start: Instant::now(),
            elapsed: Duration::ZERO,
            busy: Duration::ZERO,
            ops: Vec::new(),
            deep: Samples::default(),
            switch: Samples::default(),
        }
    }
}

impl Phase {
    /// Counts `n` operations completed now.
    pub fn op(&mut self, n: usize) {
        let now = Instant::now();
        self.ops.extend(std::iter::repeat_n(now, n));
    }

    /// Operations attempted.
    pub fn ops(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Closes the window.
    pub fn finish(&mut self) {
        self.elapsed = self.start.elapsed();
    }

    /// Operations per second of the time spent in this phase's steps.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// `f(ops, deep, switch, slice seconds)` of each of [`SLICES`] equal
    /// slices of the window.
    fn per_slice(&self, f: impl Fn(u64, &Samples, &Samples, f64) -> f64) -> Vec<f64> {
        let width = self.elapsed / SLICES;
        (0..SLICES)
            .map(|i| {
                let from = self.start + width * i;
                let to = if i + 1 == SLICES {
                    self.start + self.elapsed + Duration::from_secs(1)
                } else {
                    from + width
                };
                let ops = self.ops.iter().filter(|&&t| t >= from && t < to).count() as u64;
                let (deep, switch) = (self.deep.ended_in(from, to), self.switch.ended_in(from, to));
                f(ops, &deep, &switch, width.as_secs_f64())
            })
            .collect()
    }
}

/// The windows of one run: the whole window when untraced; when traced,
/// an untraced first half, whose counters the per-layer metrics read, and
/// a traced second half (see [`run_window`]).
pub fn windows(cfg: &Config) -> Vec<(Duration, bool)> {
    let total = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        vec![(total / 2, false), (total / 2, true)]
    } else {
        vec![(total, false)]
    }
}

/// Runs `step(phase, traced)` in a closed loop for `len`. An untraced
/// window gives one phase. A traced window alternates traced and untraced
/// steps, each kind into a phase of its own, so the tracing overhead and
/// the untraced latencies a traced op is compared with come from the same
/// stretch of time, whatever the host does meanwhile: it gives
/// `(untraced, Some(traced))`.
pub fn run_window(
    len: Duration,
    traced: bool,
    mut step: impl FnMut(&mut Phase, bool),
) -> (Phase, Option<Phase>) {
    let mut plain = Phase::default();
    let mut shadow = traced.then(Phase::default);
    let mut n = 0u64;
    while plain.start.elapsed() < len {
        n += 1;
        let (phase, traced) = match shadow.as_mut() {
            Some(t) if n.is_multiple_of(2) => (t, true),
            _ => (&mut plain, false),
        };
        let start = Instant::now();
        step(phase, traced);
        phase.busy += start.elapsed();
    }
    plain.finish();
    if let Some(t) = shadow.as_mut() {
        t.finish();
    }
    (plain, shadow)
}

/// Reports the end-to-end metrics of an untraced window, each the median
/// of its [`SLICES`] per-slice values; the per-slice values, the
/// whole-window values and the sample counts go to the context line.
pub fn report_end_to_end(report: &mut Report, phase: &Phase) {
    type Metric = fn(u64, &Samples, &Samples, f64) -> f64;
    let metrics: [(&'static str, Metric); 5] = [
        ("ops_per_s", |ops, _, _, secs| ops as f64 / secs),
        ("deep_p50_us", |_, d, _, _| d.p50_us()),
        ("deep_p90_us", |_, d, _, _| d.p90_us()),
        ("switch_p50_us", |_, _, s, _| s.p50_us()),
        ("switch_p90_us", |_, _, s, _| s.p90_us()),
    ];
    let secs = phase.elapsed.as_secs_f64().max(1e-9);
    for (name, f) in metrics {
        let slices = phase.per_slice(f);
        report.set(name, stats::median_f64(&slices));
        let shown: Vec<String> = slices.iter().map(|v| format!("{v:.1}")).collect();
        report.context_num(&format!("slices.{name}"), format!("[{}]", shown.join(", ")));
        let whole = f(phase.ops(), &phase.deep, &phase.switch, secs);
        report.context_num(&format!("window.{name}"), format!("{whole:.1}"));
    }
    report.context_num("deep_samples", phase.deep.len());
    report.context_num("switch_samples", phase.switch.len());
}

/// Per-layer metrics read off span durations: `(metric, span, quantile)`.
/// A layer a workload never enters has no spans and reports 0.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("cache.view_run_p50_us", "cache.view_run", 0.5),
    ("cache.view_run_p90_us", "cache.view_run", 0.9),
    ("index.build_p50_us", "index.build", 0.5),
    ("labels.build_p50_us", "labels.build", 0.5),
    ("query.project_p50_us", "query.project", 0.5),
    ("views.build_p50_us", "views.build", 0.5),
    ("privacy.gate_p50_us", "privacy.gate", 0.5),
    ("remote.ping_p50_us", "remote.ping", 0.5),
    ("codec.encode_p50_us", "codec.encode", 0.5),
    ("codec.decode_p50_us", "codec.decode", 0.5),
    ("wire.frame_p50_us", "wire.frame", 0.5),
    ("router.query_p50_us", "router.query", 0.5),
    ("stream.apply_p50_us", "stream.apply", 0.5),
    ("journal.fsync_p50_us", "journal.fsync", 0.5),
];

/// Sets every per-layer metric that is a span-duration quantile.
pub fn report_spans(report: &mut Report, tracer: &Tracer) {
    for &(metric, span, q) in SPAN_METRICS {
        report.set(metric, tracer.durations(span).quantile_us(q));
    }
}

/// Reports the tracing overhead and the deep-query layer sum of a traced
/// window's two phases (see [`run_window`]), and writes its spans out.
pub fn report_trace(
    report: &mut Report,
    cfg: &Config,
    workload: &str,
    window: &(Phase, Option<Phase>),
    tracer: &Tracer,
) -> Result<(), String> {
    let (plain, Some(traced)) = window else {
        return Err("the traced window has no traced phase".to_string());
    };
    report.set(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s() / plain.ops_per_s().max(1e-9),
    );
    let (parts, sum) = tracer.op_breakdown("op.deep");
    report.set("trace.deep_layer_sum_us", sum);
    report.set("trace.deep_untraced_p50_us", plain.deep.p50_us());
    for (name, p50, mean) in parts {
        report.context_num(&format!("deep_self_p50_us.{name}"), p50);
        report.context_num(&format!("deep_self_mean_us.{name}"), mean);
    }
    for (name, (count, total)) in tracer.self_time_by_layer() {
        report.context_num(&format!("self_ms.{name}"), total as f64 / 1e6);
        report.context_num(&format!("spans.{name}"), count);
    }
    let path = cfg
        .out_dir
        .join(format!("spans-{workload}-{}.tsv", cfg.seed));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.context_str("spans_file", &path.display().to_string());
    Ok(())
}

/// Times `repeats` set-ups with `f`, keeping the last result; returns it
/// with the median set-up time in seconds.
pub fn timed_setups<T>(
    repeats: usize,
    mut f: impl FnMut(bool) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        last = Some(f(i + 1 == repeats)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let kept = last.ok_or("no set-up ran")?;
    Ok((kept, stats::median_f64(&times)))
}

/// One deep-provenance question, decomposed into the layers it passes:
/// the tenant gate (when asked as a tenant), the view-run cache, the
/// index, then the projection, which now finds both cached.
pub fn deep_traced(
    t: &mut Tracer,
    zoom: &Zoom,
    tenant: Option<&str>,
    run: RunId,
    view: ViewId,
    data: DataId,
) -> zoom::core::Result<ProvenanceResult> {
    let wh = zoom.warehouse();
    let view = match tenant {
        Some(tenant) => t.span("privacy.gate", || zoom.effective_view(tenant, run, view))?,
        None => view,
    };
    t.span("cache.view_run", || wh.view_run(run, view))?;
    index_span(t, zoom, run)?;
    t.span("query.project", || zoom.deep_provenance(run, view, data))
}

/// Touches `run`'s reachability index in a span named after what the
/// touch did: `index.build` / `labels.build` when it built the index,
/// `index.lookup` / `labels.lookup` when the index was cached.
pub fn index_span(t: &mut Tracer, zoom: &Zoom, run: RunId) -> zoom::core::Result<()> {
    let wh = zoom.warehouse();
    let nodes = wh.run(run)?.graph().node_count();
    match wh.backend_for(nodes) {
        IndexBackend::Labels => {
            let misses = wh.label_index_counters().1;
            t.span("labels.lookup", || wh.label_index(run))?;
            if wh.label_index_counters().1 > misses {
                t.rename_last("labels.build");
            }
        }
        IndexBackend::Bitset => {
            let misses = wh.index_counters().1;
            t.span("index.lookup", || wh.provenance_index(run))?;
            if wh.index_counters().1 > misses {
                t.rename_last("index.build");
            }
        }
        IndexBackend::Bfs => {}
    }
    Ok(())
}

/// Builds `run`'s reachability index if it is not cached yet.
pub fn warm_index(zoom: &Zoom, run: RunId) -> zoom::core::Result<()> {
    let wh = zoom.warehouse();
    let nodes = wh.run(run)?.graph().node_count();
    match wh.backend_for(nodes) {
        IndexBackend::Labels => wh.label_index(run).map(drop),
        IndexBackend::Bitset => wh.provenance_index(run).map(drop),
        IndexBackend::Bfs => Ok(()),
    }
}

/// Of `candidates` generated runs of `spec`, the one whose node count is
/// nearest `target`: per-seed inputs of a similar size, so the spread
/// between seeds reflects the system more than the draw.
pub fn run_near(
    spec: &zoom::model::WorkflowSpec,
    cfg: &zoom::gen::RunGenConfig,
    rng: &mut rand::rngs::StdRng,
    target: usize,
    candidates: usize,
) -> zoom::model::WorkflowRun {
    (0..candidates.max(1))
        .map(|_| zoom::gen::generate_run(spec, cfg, rng).expect("generated runs are valid"))
        .min_by_key(|r| r.graph().node_count().abs_diff(target))
        .expect("at least one candidate")
}
