//! `durable_ingest`: writes beside reads on a durable store opened with
//! the default options (`sync_data` per journal append, auto-compaction
//! past a 1 MiB journal tail).
//!
//! One writer streams causally interleaved logs of Medium runs one event
//! at a time, probing deep provenance on the run in progress every
//! [`PROBE_EVERY`] events, then seals the run and looks at its final
//! output at UAdmin, UBlackBox and UBio. Every [`UPLOAD_EVERY`] streamed
//! runs it uploads a whole Loop run of about 6k nodes with `load_log`,
//! above the label-index threshold, and queries its final output the same
//! way, so label builds happen inside the window. Every [`STORE_RUNS`]
//! streamed runs it closes the store and continues in a fresh directory,
//! so the working set does not grow with the throughput. At the end it
//! reopens every directory it filled and checks each acknowledged run
//! against a fresh in-memory load of the same log.

use crate::counters::{report_counters, Counters};
use crate::report::Report;
use crate::stats::{median_f64, Samples};
use crate::trace::Tracer;
use crate::{
    attempted, deep_traced, report_end_to_end, report_spans, report_trace, run_near, run_window,
    timed_setups, warm_index, windows, Config, Phase, WORKFLOW_SEED,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;
use zoom::core::{PushOutcome, RunId, SpecId, ViewId, WarehouseError, Zoom};
use zoom::gen::{interleaved_log, workflows_of_class, RunGenConfig, RunKind, WorkflowClass};
use zoom::model::{DataId, EventLog, LogEvent, UserView, WorkflowSpec};
use zoom::warehouse::{codec, query, wire, RealFs, StorageIo};
use zoom_bench::workloads::{bio_relevant, SYNTH_MODULES};

/// Events between two probes of the run in progress.
pub const PROBE_EVERY: usize = 16;
/// Target node count of a streamed (Medium) run.
pub const STREAM_NODES: usize = 800;
/// Streamed runs a store takes before the writer moves to a fresh one.
const STORE_RUNS: usize = 12;
/// Target node count of an uploaded run.
pub const UPLOAD_NODES: usize = 6_000;
/// Runs per streamed spec loaded during set-up.
const PRELOAD_EACH: usize = 1;
/// Streamed runs between two uploads.
pub const UPLOAD_EVERY: usize = 3;
/// One probe in this many is checked against the BFS oracle.
const CHECK_EVERY: u64 = 8;
/// In the traced window, one push in this many is decomposed.
const DECOMPOSE_EVERY: u64 = 8;
/// Set-ups per run. One takes tens of milliseconds, so a single stall of
/// a shared disk or CPU moves it; the median of many keeps `setup_s`
/// steady within a run.
const SETUP_REPEATS: usize = 25;

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let inputs = Inputs::generate(cfg.seed, cfg.quick);
    let root = cfg.out_dir.join(format!("ingest-{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&root);
    let result = measure(cfg, &inputs, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(cfg: &Config, inputs: &Inputs, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut attempt = 0;
    let ((zoom, views), setup_s) = timed_setups(SETUP_REPEATS, |last| {
        attempt += 1;
        let tr = (cfg.trace && last).then_some(&mut tracer);
        setup(&root.join(format!("store-{attempt}")), inputs, tr)
    })?;
    let dir = root.join(format!("store-{attempt}"));
    let mut w = Writer::new(zoom, views, inputs, root, dir);
    describe(&mut report, inputs);

    let mut phases = Vec::new();
    let mut window = Counters::default();
    // Push and upload latencies of the first (untraced) window.
    let mut untraced = (Samples::default(), Samples::default());
    for (len, traced) in windows(cfg) {
        let before = w.totals();
        let mut mirror = traced.then(|| Mirror::new(inputs, root));
        let phase = run_window(len, traced, |p, tr| {
            let m = mirror.as_mut().filter(|_| tr);
            w.one_run(p, tr.then_some(&mut tracer), m)
        });
        if !traced {
            window = w.totals().since(&before);
            untraced = (w.push.clone(), w.upload.clone());
        }
        if let Some(m) = mirror {
            m.cleanup();
        }
        phases.push(phase);
    }
    let run = w.totals();

    // Reopen every store the window filled and check each acknowledged run.
    let closed = w.close();
    let mut reopen_ms = Vec::new();
    let mut reopen_mismatches = 0;
    let mut acked_runs = 0;
    for (dir, acked) in &closed {
        let start = Instant::now();
        let reopened =
            Zoom::open_durable(dir).map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        reopen_mismatches += verify_reopened(&reopened, inputs, acked)?;
        acked_runs += acked.len();
        drop(reopened);
        let _ = std::fs::remove_dir_all(dir);
    }

    report.attempted = attempted(&phases) + closed.len() as u64;
    report.mismatches = w.mismatches + reopen_mismatches;
    report.failed = w.failed + report.mismatches + run.shed + run.deadline_exceeded;
    report.context_num("stores", closed.len());
    report.context_num("acknowledged_runs", acked_runs);
    report.context_num("probes", w.probes);
    report.context_num("reopen_mismatches", reopen_mismatches);
    report.context_num("compactions", run.compactions);
    if let Some(e) = &w.first_error {
        report.context_str("first_error", e);
    }

    if !cfg.trace {
        report.set("setup_s", setup_s);
        report_end_to_end(&mut report, &phases[0].0);
        return Ok(report);
    }
    report_counters(&mut report, &window, &run);
    report_spans(&mut report, &tracer);
    report.set("query.tuples_p50", median_f64(&w.tuples));
    // Pushes and uploads are timed in the untraced half only.
    let (push, upload) = untraced;
    report.set("stream.push_p50_us", push.p50_us());
    report.set("stream.push_p90_us", push.p90_us());
    report.set(
        "stream.events_per_s",
        push.len() as f64 / phases[0].0.elapsed.as_secs_f64(),
    );
    report.set("durable.upload_p50_us", upload.p50_us());
    report.set("durable.reopen_ms", median_f64(&reopen_ms));
    for name in BYPASSED {
        report.set(name, 0.0);
    }
    report_trace(&mut report, cfg, "durable_ingest", &phases[1], &tracer)?;
    Ok(report)
}

/// Metrics of the daemon, which this workload never enters, that are not
/// span quantiles.
const BYPASSED: &[&str] = &["codec.answer_kb_p50", "remote.unexplained_p50_us"];

/// The generated workflows and logs.
struct Inputs {
    /// Specs of the streamed runs, then those of the uploads.
    specs: Vec<WorkflowSpec>,
    /// Streamed runs: `(spec index, interleaved log)`.
    streamed: Vec<(usize, EventLog)>,
    /// Logs loaded during set-up: `(spec index, log)`.
    preload: Vec<(usize, EventLog)>,
    /// Uploaded logs: `(spec index, log)`, one per upload spec.
    uploads: Vec<(usize, EventLog)>,
}

impl Inputs {
    fn generate(seed: u64, quick: bool) -> Inputs {
        let (stream_specs, per_spec, upload_specs) = if quick { (2, 2, 1) } else { (16, 2, 8) };
        let specs = workflows_of_class(
            WorkflowClass::Loop,
            stream_specs + upload_specs,
            SYNTH_MODULES,
            &mut StdRng::seed_from_u64(WORKFLOW_SEED),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if quick {
            RunKind::Small
        } else {
            RunKind::Medium
        };
        let medium = RunGenConfig::for_kind(kind);
        let stream_nodes = if quick { 60 } else { STREAM_NODES };
        let mut streamed = Vec::new();
        let mut preload = Vec::new();
        for (i, spec) in specs[..stream_specs].iter().enumerate() {
            for j in 0..PRELOAD_EACH + per_spec {
                let run = run_near(spec, &medium, &mut rng, stream_nodes, 12);
                if j < PRELOAD_EACH {
                    preload.push((i, EventLog::from_run(&run, spec)));
                } else {
                    streamed.push((i, interleaved_log(spec, &run, &mut rng)));
                }
            }
        }
        // Long loops take the uploads past the label-index threshold; of a
        // few candidates, each upload keeps the one nearest the target size.
        let big = RunGenConfig {
            user_input: (1, 20),
            data_per_step: (1, 3),
            loop_iterations: if quick { (5, 10) } else { (500, 4_000) },
            max_nodes: if quick { 400 } else { 8_000 },
            max_edges: if quick { 4_000 } else { 80_000 },
        };
        let target = if quick { 300 } else { UPLOAD_NODES };
        let uploads = (stream_specs..specs.len())
            .map(|i| {
                let run = run_near(&specs[i], &big, &mut rng, target, 8);
                (i, EventLog::from_run(&run, &specs[i]))
            })
            .collect();
        Inputs {
            specs,
            streamed,
            preload,
            uploads,
        }
    }
}

/// Per spec: `(spec, UAdmin, UBlackBox, UBio)`.
type Views = Vec<(SpecId, ViewId, ViewId, ViewId)>;

/// Registers every spec and its views on `zoom`, in input order.
fn register(
    zoom: &mut Zoom,
    inputs: &Inputs,
    mut tr: Option<&mut Tracer>,
) -> Result<Views, String> {
    let err = |e: WarehouseError| e.to_string();
    let mut views = Vec::new();
    for spec in &inputs.specs {
        let sid = zoom.register_workflow(spec.clone()).map_err(err)?;
        let admin = zoom.admin_view(sid).map_err(err)?;
        let bb = zoom
            .register_view(sid, UserView::black_box(spec))
            .map_err(err)?;
        let labels: Vec<String> = bio_relevant(spec)
            .iter()
            .map(|&m| spec.label(m).to_string())
            .collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let bio = match tr.as_deref_mut() {
            Some(t) => t.op("op.setup", |t| {
                t.span("views.build", || zoom.build_view(sid, &refs))
            }),
            None => zoom.build_view(sid, &refs),
        }
        .map_err(err)?;
        views.push((sid, admin, bb, bio));
    }
    Ok(views)
}

/// The measured set-up: open a fresh durable store, register the specs and
/// views, load one run per streamed spec and warm its index.
fn setup(dir: &Path, inputs: &Inputs, tr: Option<&mut Tracer>) -> Result<(Zoom, Views), String> {
    let mut zoom = Zoom::open_durable(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let views = register(&mut zoom, inputs, tr)?;
    for (i, log) in &inputs.preload {
        let run = zoom.load_log(views[*i].0, log).map_err(|e| e.to_string())?;
        warm_index(&zoom, run).map_err(|e| e.to_string())?;
    }
    Ok((zoom, views))
}

fn describe(report: &mut Report, inputs: &Inputs) {
    let sizes = |logs: &mut dyn Iterator<Item = &EventLog>| -> (usize, f64) {
        let lens: Vec<f64> = logs.map(|l| l.len() as f64).collect();
        (lens.len(), median_f64(&lens))
    };
    let (n, events) = sizes(&mut inputs.streamed.iter().map(|(_, l)| l));
    report.context_num("streamed_logs", n);
    report.context_num("streamed_events_median", events);
    let (n, events) = sizes(&mut inputs.uploads.iter().map(|(_, l)| l));
    report.context_num("upload_logs", n);
    report.context_num("upload_events_median", events);
    let nodes: Vec<f64> = inputs
        .uploads
        .iter()
        .filter_map(|(i, l)| l.to_run(&inputs.specs[*i]).ok())
        .map(|r| r.graph().node_count() as f64)
        .collect();
    report.context_num("upload_nodes_median", median_f64(&nodes));
    report.context_num(
        "labels_threshold",
        zoom::warehouse::DEFAULT_LABELS_THRESHOLD,
    );
    report.context_str(
        "storage",
        "durable: sync_data per journal append, auto-compaction past a 1 MiB tail",
    );
    report.context_str(
        "index_backends",
        "bitset for streamed Medium runs, labels for uploads",
    );
    report.context_num("probe_every_events", PROBE_EVERY);
    report.context_num("upload_every_runs", UPLOAD_EVERY);
}

/// An acknowledged run and the log it came from.
enum Source {
    Preload(usize),
    Streamed(usize),
    Upload(usize),
}

/// The in-memory mirror of the traced window: the same streams pushed into
/// a warehouse without a journal, and a probe file for timing one
/// `sync_data` append of each decomposed journal record.
struct Mirror {
    zoom: Zoom,
    views: Views,
    run: Option<RunId>,
    fsync_file: PathBuf,
}

impl Mirror {
    fn new(inputs: &Inputs, root: &Path) -> Mirror {
        let mut zoom = Zoom::new();
        let views = register(&mut zoom, inputs, None).expect("the inputs registered once already");
        let fsync_file = root.join("fsync-probe");
        std::fs::File::create(&fsync_file).expect("the store directory is writable");
        Mirror {
            zoom,
            views,
            run: None,
            fsync_file,
        }
    }

    fn cleanup(self) {
        let _ = std::fs::remove_file(&self.fsync_file);
    }
}

/// A store the writer filled: its directory and acknowledged runs.
type Closed = (PathBuf, Vec<(RunId, Source)>);

struct Writer<'a> {
    zoom: Zoom,
    views: Views,
    inputs: &'a Inputs,
    root: PathBuf,
    dir: PathBuf,
    closed: Vec<Closed>,
    /// Counters of the closed stores (their index-size gauges zeroed:
    /// a closed store holds no memory).
    carried: Counters,
    next_stream: usize,
    streamed_runs: usize,
    acked: Vec<(RunId, Source)>,
    push: Samples,
    upload: Samples,
    pushes: u64,
    probes: u64,
    tuples: Vec<f64>,
    failed: u64,
    mismatches: u64,
    first_error: Option<String>,
}

impl<'a> Writer<'a> {
    fn new(zoom: Zoom, views: Views, inputs: &'a Inputs, root: &Path, dir: PathBuf) -> Writer<'a> {
        // Set-up loaded the preloads first, in order, so they hold the
        // lowest run ids.
        let acked = (0..inputs.preload.len())
            .map(|i| (RunId(i as u32), Source::Preload(i)))
            .collect();
        Writer {
            zoom,
            views,
            inputs,
            root: root.to_path_buf(),
            dir,
            closed: Vec::new(),
            carried: Counters::default(),
            next_stream: 0,
            streamed_runs: 0,
            acked,
            push: Samples::default(),
            upload: Samples::default(),
            pushes: 0,
            probes: 0,
            tuples: Vec::new(),
            failed: 0,
            mismatches: 0,
            first_error: None,
        }
    }

    fn fail(&mut self, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }

    /// Counters summed over every store filled so far.
    fn totals(&self) -> Counters {
        self.carried.plus(&Counters::of(&[self.zoom.metrics()]))
    }

    /// Closes the current store and continues in a fresh one, so the
    /// working set and the compaction cost stay the same through the
    /// window instead of growing with the throughput.
    fn rotate(&mut self, phase: &mut Phase) {
        phase.op(1);
        let dir = self.root.join(format!("store-e{}", self.closed.len() + 1));
        let opened = Zoom::open_durable(&dir)
            .map_err(|e| e.to_string())
            .and_then(|mut z| {
                let views = register(&mut z, self.inputs, None)?;
                Ok((z, views))
            });
        match opened {
            Ok((zoom, views)) => {
                self.carried = Counters {
                    bitset_bytes: 0,
                    label_bytes: 0,
                    ..self.totals()
                };
                drop(std::mem::replace(&mut self.zoom, zoom));
                self.views = views;
                let dir = std::mem::replace(&mut self.dir, dir);
                self.closed.push((dir, std::mem::take(&mut self.acked)));
            }
            Err(e) => self.fail(format!("open {}: {e}", dir.display())),
        }
    }

    /// Drops the current store; returns every store filled, to reopen.
    fn close(&mut self) -> Vec<Closed> {
        drop(std::mem::take(&mut self.zoom));
        let mut closed = std::mem::take(&mut self.closed);
        closed.push((self.dir.clone(), std::mem::take(&mut self.acked)));
        closed
    }

    /// Streams one run, seals it and looks at it; every [`UPLOAD_EVERY`]
    /// runs, uploads one more.
    fn one_run(
        &mut self,
        phase: &mut Phase,
        mut tr: Option<&mut Tracer>,
        mut mirror: Option<&mut Mirror>,
    ) {
        let idx = self.next_stream % self.inputs.streamed.len();
        self.next_stream += 1;
        let (spec_i, log) = &self.inputs.streamed[idx];
        let (sid, admin, _, _) = self.views[*spec_i];
        let run = match self.zoom.begin_stream(sid) {
            Ok(h) => h.run_id(),
            Err(e) => return self.fail(format!("begin_stream: {e}")),
        };
        phase.op(1);
        if let Some(m) = mirror.as_deref_mut() {
            m.run = m
                .zoom
                .begin_stream(m.views[*spec_i].0)
                .ok()
                .map(|h| h.run_id());
        }
        let mut target: Option<DataId> = None;
        for (j, event) in log.events.iter().enumerate() {
            phase.op(1);
            self.pushes += 1;
            let decompose = tr.is_some() && self.pushes.is_multiple_of(DECOMPOSE_EVERY);
            let start = Instant::now();
            let pushed = match tr.as_deref_mut() {
                Some(t) => {
                    let zoom = &mut self.zoom;
                    t.op("op.push", |t| {
                        let pushed = t.span("stream.push", || zoom.stream_push(run, event));
                        if let Some(m) = mirror.as_deref_mut() {
                            push_mirror(t, m, event, decompose);
                        }
                        pushed
                    })
                }
                None => {
                    let pushed = self.zoom.stream_push(run, event);
                    self.push.since(start);
                    pushed
                }
            };
            match pushed {
                Ok(PushOutcome::Committed(steps)) => {
                    // The newest step's outputs have no committed
                    // consumer yet; its inputs are in the prefix.
                    let last = steps.last().copied();
                    let ins =
                        last.and_then(|s| self.zoom.warehouse().run(run).ok()?.inputs_of(s).ok());
                    if let Some(d) = ins.and_then(|i| i.last().copied()) {
                        target = Some(d);
                    }
                }
                Ok(PushOutcome::Buffered) => {}
                Err(e) => return self.fail(format!("push {j} of stream {idx}: {e}")),
            }
            if j % PROBE_EVERY == PROBE_EVERY - 1 {
                if let Some(d) = target {
                    self.probe(phase, tr.as_deref_mut(), run, admin, d);
                }
            }
        }
        phase.op(1);
        if let Err(e) = self.zoom.stream_seal(run) {
            return self.fail(format!("seal of stream {idx}: {e}"));
        }
        if let Some(m) = mirror {
            if let Some(r) = m.run {
                let _ = m.zoom.stream_seal(r);
            }
        }
        self.acked.push((run, Source::Streamed(idx)));
        self.look(phase, tr.as_deref_mut(), *spec_i, run);

        self.streamed_runs += 1;
        if self.streamed_runs.is_multiple_of(UPLOAD_EVERY) {
            let u = (self.streamed_runs / UPLOAD_EVERY - 1) % self.inputs.uploads.len();
            let (up_spec, log) = &self.inputs.uploads[u];
            let (up_spec, sid) = (*up_spec, self.views[*up_spec].0);
            phase.op(1);
            let start = Instant::now();
            let loaded = match tr.as_deref_mut() {
                Some(t) => {
                    let zoom = &mut self.zoom;
                    t.op("op.upload", |t| {
                        t.span("durable.upload", || zoom.load_log(sid, log))
                    })
                }
                None => {
                    let loaded = self.zoom.load_log(sid, log);
                    self.upload.since(start);
                    loaded
                }
            };
            match loaded {
                Ok(run) => {
                    self.acked.push((run, Source::Upload(u)));
                    self.look(phase, tr, up_spec, run);
                }
                Err(e) => self.fail(format!("upload {u}: {e}")),
            }
        }
        if self.streamed_runs.is_multiple_of(STORE_RUNS) {
            self.rotate(phase);
        }
    }

    /// A deep-provenance probe of `d` on the run in progress; one in
    /// [`CHECK_EVERY`] is re-derived by BFS over the committed prefix.
    fn probe(
        &mut self,
        phase: &mut Phase,
        tr: Option<&mut Tracer>,
        run: RunId,
        view: ViewId,
        d: DataId,
    ) {
        phase.op(1);
        self.probes += 1;
        let start = Instant::now();
        let res = match tr {
            Some(t) => t.op("op.deep", |t| {
                deep_traced(t, &self.zoom, Some(OPEN), run, view, d)
            }),
            None => self.zoom.deep_provenance(run, view, d),
        };
        phase.deep.since(start);
        match res {
            Ok(a) => {
                self.tuples.push(a.tuples() as f64);
                if self.probes.is_multiple_of(CHECK_EVERY) && !self.matches_bfs(run, view, &a) {
                    self.mismatches += 1;
                    self.first_error
                        .get_or_insert_with(|| format!("probe of {d} on {run} differs from BFS"));
                }
            }
            Err(e) => self.fail(format!("probe of {d} on {run}: {e}")),
        }
    }

    fn matches_bfs(&self, run: RunId, view: ViewId, a: &zoom::core::ProvenanceResult) -> bool {
        let wh = self.zoom.warehouse();
        let (Ok(r), Ok(vr)) = (wh.run(run), wh.view_run_uncached(run, view)) else {
            return false;
        };
        matches!(query::deep_provenance_bfs(r, &vr, a.target), Ok(Some(o)) if &o == a)
    }

    /// Focuses a finished run's first final output at UAdmin, then
    /// switches to UBlackBox and UBio: each view-run is materialized cold.
    /// (Looking at more outputs mixes cached and cold switches, and the
    /// share of each would then depend on how many outputs a run has.)
    fn look(&mut self, phase: &mut Phase, mut tr: Option<&mut Tracer>, spec_i: usize, run: RunId) {
        let (_, admin, bb, bio) = self.views[spec_i];
        let Some(d) = self
            .zoom
            .final_outputs(run)
            .ok()
            .and_then(|f| f.first().copied())
        else {
            return self.fail(format!("{run} has no final output"));
        };
        for (k, view) in [admin, bb, bio].into_iter().enumerate() {
            phase.op(1);
            let start = Instant::now();
            let res = match tr.as_deref_mut() {
                Some(t) => t.op(if k == 0 { "op.deep" } else { "op.switch" }, |t| {
                    deep_traced(t, &self.zoom, Some(OPEN), run, view, d)
                }),
                None => self.zoom.deep_provenance(run, view, d),
            };
            if k == 0 {
                phase.deep.since(start);
            } else {
                phase.switch.since(start);
            }
            match res {
                Ok(a) if k == 0 => self.tuples.push(a.tuples() as f64),
                Ok(_) => {}
                Err(e) => self.fail(format!("final output {d} of {run} at {view}: {e}")),
            }
        }
    }
}

/// The tenant name probes are asked under; no policy is installed, so
/// the gate takes its fast path.
const OPEN: &str = "lab";

/// Pushes `event` into the mirror (the stream layer without the journal)
/// and, on decomposed pushes, times encoding, decoding and framing the
/// event and one `sync_data` append of an equal-size record.
fn push_mirror(t: &mut Tracer, m: &mut Mirror, event: &LogEvent, decompose: bool) {
    if let Some(run) = m.run {
        let zoom = &mut m.zoom;
        let _ = t.span("stream.apply", || zoom.stream_push(run, event));
    }
    if !decompose {
        return;
    }
    let Ok(bytes) = t.span("codec.encode", || codec::to_bytes(event)) else {
        return;
    };
    let _ = t.span("codec.decode", || codec::from_bytes::<LogEvent>(&bytes));
    let _ = t.span("wire.frame", || {
        let mut buf = Vec::with_capacity(bytes.len() + 8);
        wire::write_frame(&mut buf, &bytes).and_then(|()| wire::read_frame(&mut Cursor::new(buf)))
    });
    let record = vec![0u8; bytes.len() + 8];
    let _ = t.span("journal.fsync", || RealFs.append(&m.fsync_file, &record));
}

/// Checks every acknowledged run of the reopened store against a fresh
/// in-memory load of the same logs, in the same order: same run ids, and
/// the same deep provenance of every final output at every view.
fn verify_reopened(
    reopened: &Zoom,
    inputs: &Inputs,
    acked: &[(RunId, Source)],
) -> Result<u64, String> {
    let mut fresh = Zoom::new();
    let views = register(&mut fresh, inputs, None)?;
    let mut mismatches = 0;
    for (run, source) in acked {
        let (spec_i, log) = match *source {
            Source::Preload(i) => (inputs.preload[i].0, &inputs.preload[i].1),
            Source::Streamed(i) => (inputs.streamed[i].0, &inputs.streamed[i].1),
            Source::Upload(i) => (inputs.uploads[i].0, &inputs.uploads[i].1),
        };
        let (sid, admin, bb, bio) = views[spec_i];
        let loaded = fresh
            .load_log(sid, log)
            .map_err(|e| format!("oracle load: {e}"))?;
        if loaded != *run {
            mismatches += 1;
            continue;
        }
        let finals = fresh.final_outputs(loaded).map_err(|e| e.to_string())?;
        if reopened.final_outputs(*run).ok().as_ref() != Some(&finals) {
            mismatches += 1;
            continue;
        }
        for d in finals {
            for view in [admin, bb, bio] {
                let want = fresh
                    .deep_provenance(loaded, view, d)
                    .map_err(|e| e.to_string());
                let got = reopened
                    .deep_provenance(*run, view, d)
                    .map_err(|e| e.to_string());
                if got != want {
                    mismatches += 1;
                }
            }
        }
    }
    Ok(mismatches)
}
