//! `zoomd_tenants`: two tenants querying a loopback `zoomd` daemon with
//! two in-memory shards, over a hot set (16 Loop workflows × 2 Large runs)
//! that fits every cache.
//!
//! One client thread runs sessions in a closed loop, alternating between
//! the two tenants' connections. Tenant `lab` has no policy; tenant
//! `partner` has one concealing an analysis module, so view substitution
//! runs on each of its queries. A session follows the paper's Fig. 10/11
//! pattern, as `lab_corpus` does, in the daemon's requests: the final
//! outputs of a run, deep provenance of one of them at UAdmin (large
//! answers), the same datum at UBlackBox (small answers: the view switch),
//! then immediate provenance and dependents of a datum visible at UAdmin.
//! Two extras the paper's sessions lack ride along, each in one session in
//! [`EXTRA_EVERY`]: a 4-query batch, and a request for an absent or
//! concealed id. Every answer and every error rendering is compared with
//! an in-process [`Zoom`] loaded with the same inputs.

use crate::counters::{report_counters, Counters};
use crate::report::Report;
use crate::stats::median_f64;
use crate::trace::Tracer;
use crate::{
    attempted, index_span, report_end_to_end, report_spans, report_trace, run_near, run_window,
    timed_setups, warm_index, windows, Config, Phase, WORKFLOW_SEED,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Cursor;
use std::time::Instant;
use zoom::core::{
    Daemon, DaemonConfig, IndexBackend, RemoteZoom, RunId, SpecId, ViewId, VisibilityPolicy, Zoom,
};
use zoom::gen::{workflows_of_class, RunGenConfig, RunKind, WorkflowClass};
use zoom::model::{DataId, EventLog, UserView, WorkflowSpec};
use zoom::warehouse::{codec, wire, Decision, ImmediateAnswer, ProvenanceResult};
use zoom_bench::workloads::{bio_relevant, private_hidden, SYNTH_MODULES};

/// The unrestricted tenant.
const LAB: &str = "lab";
/// The restricted tenant.
const PARTNER: &str = "partner";
const TENANTS: [&str; 2] = [LAB, PARTNER];
/// Loop workflows in the hot set, two Large runs each.
const WORKFLOWS: usize = 16;
/// Target node count of a hot-set run.
const RUN_NODES: usize = 250;
/// Data ids no run uses.
const ABSENT_DATA: DataId = DataId(9_999_999);
/// A run id no run has.
const ABSENT_RUN: RunId = RunId(999_999);
/// One session in this many (on average) adds a batch, and, drawn
/// independently, one in this many adds an absent or concealed id: about
/// 4.5% of requests each. No recorded daemon traffic exists to take the
/// shares from; the rate of bad ids is the "few percent" the workload asks
/// for, and batches get the same share.
const EXTRA_EVERY: u32 = 4;

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let (workflows, runs_each) = if cfg.quick { (2, 2) } else { (WORKFLOWS, 2) };
    let inputs = Inputs::generate(WORKFLOW_SEED, workflows, runs_each);
    let mut report = Report::default();
    let ((daemon, ids), setup_s) = timed_setups(crate::SETUP_REPEATS, |_| stand_up(&inputs))?;
    let mut tracer = Tracer::new();
    let oracle = Oracle::load(&inputs, &ids, cfg.trace.then_some(&mut tracer))?;
    let pool = Pool::build(&oracle.zoom, &ids, cfg.seed)?;
    let expected: Vec<Vec<Expect>> = TENANTS
        .iter()
        .map(|t| pool.reqs.iter().map(|r| oracle.answer(t, r)).collect())
        .collect();
    describe(&mut report, &oracle.zoom, &ids, &pool, &expected[0]);

    let addr = daemon.addr();
    let err = |e: zoom::core::RemoteError| e.to_string();
    let mut ctl = RemoteZoom::connect(addr, LAB).map_err(err)?;
    let mut conns = TENANTS
        .iter()
        .map(|t| RemoteZoom::connect(addr, t))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let daemon_counters = |ctl: &mut RemoteZoom| -> Result<Counters, String> {
        ctl.metrics_per_shard()
            .map(|m| Counters::of(&m))
            .map_err(|e| format!("daemon metrics: {e}"))
    };
    let mut client = Client {
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x7e4a_0001),
        tracer,
        sessions: 0,
        failed: 0,
        mismatches: 0,
        expected_errors: 0,
        first_error: None,
    };
    let mut window = Counters::default();
    let mut phases = Vec::new();
    for (len, traced) in windows(cfg) {
        let before = daemon_counters(&mut ctl)?;
        let phase = run_window(len, traced, |p, tr| {
            client.session(&mut conns, &pool, &expected, &oracle, p, tr)
        });
        if !traced {
            window = daemon_counters(&mut ctl)?.since(&before);
        }
        phases.push(phase);
    }
    let run = daemon_counters(&mut ctl)?;
    drop((ctl, conns, daemon));

    report.attempted = attempted(&phases);
    report.mismatches = client.mismatches;
    report.failed = client.failed + report.mismatches + run.shed + run.deadline_exceeded;
    report.context_num("expected_errors_matched", client.expected_errors);
    if let Some(e) = &client.first_error {
        report.context_str("first_error", e);
    }

    if !cfg.trace {
        report.set("setup_s", setup_s);
        report_end_to_end(&mut report, &phases[0].0);
        return Ok(report);
    }
    let tracer = client.tracer;
    report_counters(&mut report, &window, &run);
    report_spans(&mut report, &tracer);
    report.set(
        "query.tuples_p50",
        median_f64(&oracle.tuples_of(&pool, &expected[0])),
    );
    report.set("codec.answer_kb_p50", median_answer_kb(&pool, &expected[0]));
    // The wire round trip minus the parts measured on the same answers;
    // `router.query` includes the router's policy decision, as the
    // daemon's dispatch does.
    let remote = tracer.durations_in("remote.call", "op.deep").p50_us();
    let explained: f64 = [
        "remote.ping",
        "codec.encode",
        "codec.decode",
        "wire.frame",
        "router.query",
    ]
    .iter()
    .map(|span| tracer.durations(span).p50_us())
    .sum();
    report.set("remote.unexplained_p50_us", remote - explained);
    report.context_num("remote.deep_call_p50_us", remote);
    for name in BYPASSED {
        report.set(name, 0.0);
    }
    report_trace(&mut report, cfg, "zoomd_tenants", &phases[1], &tracer)?;
    Ok(report)
}

/// Metrics of layers this workload never enters that are not span
/// quantiles: streaming and the durable store (the shards are in memory).
const BYPASSED: &[&str] = &[
    "stream.push_p50_us",
    "stream.push_p90_us",
    "stream.events_per_s",
    "durable.upload_p50_us",
    "durable.reopen_ms",
];

/// The generated workflows and run logs.
struct Inputs {
    specs: Vec<WorkflowSpec>,
    /// Per spec, its run logs.
    logs: Vec<Vec<EventLog>>,
    policy: VisibilityPolicy,
}

impl Inputs {
    fn generate(seed: u64, workflows: usize, runs_each: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = workflows_of_class(WorkflowClass::Loop, workflows, SYNTH_MODULES, &mut rng);
        let cfg = RunGenConfig::for_kind(RunKind::Large);
        let logs = specs
            .iter()
            .map(|spec| {
                (0..runs_each)
                    .map(|_| {
                        let run = run_near(spec, &cfg, &mut rng, RUN_NODES, 4);
                        EventLog::from_run(&run, spec)
                    })
                    .collect()
            })
            .collect();
        let concealed = specs[0].label(private_hidden(&specs[0])).to_string();
        Inputs {
            specs,
            logs,
            policy: VisibilityPolicy {
                hidden_modules: vec![concealed],
                hidden_workflows: vec![],
            },
        }
    }
}

/// Ids the daemon assigned, in input order.
#[derive(Clone, Debug, PartialEq)]
struct Ids {
    /// Per spec: `(spec, UAdmin, UBlackBox, UBio)`.
    views: Vec<(SpecId, ViewId, ViewId, ViewId)>,
    /// Every run with its spec index.
    runs: Vec<(RunId, usize)>,
}

fn bio_labels(spec: &WorkflowSpec) -> Vec<String> {
    bio_relevant(spec)
        .iter()
        .map(|&m| spec.label(m).to_string())
        .collect()
}

/// The measured set-up: start the daemon, register and load everything
/// through the wire, install the partner policy, and warm every run ×
/// view pair through both tenants' connections.
fn stand_up(inputs: &Inputs) -> Result<(Daemon, Ids), String> {
    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards: 2,
            ..DaemonConfig::default()
        },
    )
    .map_err(|e| format!("daemon: {e}"))?;
    let err = |e: zoom::core::RemoteError| e.to_string();
    let mut ctl = RemoteZoom::connect(daemon.addr(), LAB).map_err(err)?;
    let mut ids = Ids {
        views: Vec::new(),
        runs: Vec::new(),
    };
    for (i, (spec, logs)) in inputs.specs.iter().zip(&inputs.logs).enumerate() {
        let sid = ctl.register_workflow(spec.clone()).map_err(err)?;
        let admin = ctl.admin_view(sid).map_err(err)?;
        let bb = ctl
            .register_view(sid, UserView::black_box(spec))
            .map_err(err)?;
        let labels = bio_labels(spec);
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let bio = ctl.build_view(sid, &refs).map_err(err)?;
        ids.views.push((sid, admin, bb, bio));
        for log in logs {
            ids.runs.push((ctl.load_log(sid, log).map_err(err)?, i));
        }
    }
    ctl.set_policy(PARTNER, Some(inputs.policy.clone()), None)
        .map_err(err)?;
    for tenant in TENANTS {
        let mut conn = RemoteZoom::connect(daemon.addr(), tenant).map_err(err)?;
        for &(run, i) in &ids.runs {
            let (_, admin, bb, bio) = ids.views[i];
            let finals = conn.final_outputs(run).map_err(err)?;
            for view in [admin, bb, bio] {
                conn.deep_provenance(run, view, finals[0]).map_err(err)?;
            }
        }
    }
    Ok((daemon, ids))
}

/// The in-process oracle (and, when tracing, a two-shard router) loaded
/// with the same inputs in the same order, so every id agrees.
struct Oracle {
    zoom: Zoom,
    router: Option<wire::ShardRouter>,
}

impl Oracle {
    fn load(inputs: &Inputs, ids: &Ids, mut tr: Option<&mut Tracer>) -> Result<Oracle, String> {
        let err = |e: zoom::core::WarehouseError| e.to_string();
        let mut zoom = Zoom::new();
        let router = tr.is_some().then(|| wire::ShardRouter::in_memory(2));
        let mut got = Ids {
            views: Vec::new(),
            runs: Vec::new(),
        };
        for (i, (spec, logs)) in inputs.specs.iter().zip(&inputs.logs).enumerate() {
            let sid = zoom.register_workflow(spec.clone()).map_err(err)?;
            let admin = zoom.admin_view(sid).map_err(err)?;
            let bb = zoom
                .register_view(sid, UserView::black_box(spec))
                .map_err(err)?;
            let labels = bio_labels(spec);
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let bio = match tr.as_deref_mut() {
                Some(t) => t.op("op.setup", |t| {
                    t.span("views.build", || zoom.build_view(sid, &refs))
                }),
                None => zoom.build_view(sid, &refs),
            }
            .map_err(err)?;
            got.views.push((sid, admin, bb, bio));
            if let Some(r) = &router {
                r.register_spec(spec).map_err(err)?;
                for v in [admin, bb, bio] {
                    r.register_view(sid, zoom.warehouse().view(v).map_err(err)?)
                        .map_err(err)?;
                }
            }
            for log in logs {
                let run = zoom.load_log(sid, log).map_err(err)?;
                got.runs.push((run, i));
                if let Some(r) = &router {
                    let routed = r.load_log(sid, log).map_err(err)?;
                    if routed != run {
                        return Err(format!("router assigned {routed}, oracle {run}"));
                    }
                }
            }
        }
        if &got != ids {
            return Err(format!(
                "daemon ids {ids:?} differ from the oracle's {got:?}"
            ));
        }
        zoom.set_policy(PARTNER, Some(inputs.policy.clone()))
            .map_err(err)?;
        if let Some(r) = &router {
            r.policies()
                .install(PARTNER, Some(inputs.policy.clone()), r, &r.policy_sink())
                .map_err(err)?;
        }
        for &(run, _) in &ids.runs {
            match tr.as_deref_mut() {
                Some(t) => t.op("op.setup", |t| index_span(t, &zoom, run)),
                None => warm_index(&zoom, run),
            }
            .map_err(err)?;
        }
        Ok(Oracle { zoom, router })
    }

    /// What `tenant` must receive for `req`.
    fn answer(&self, tenant: &str, req: &Req) -> Expect {
        let z = &self.zoom;
        let e = |e: zoom::core::WarehouseError| Expect::Err(e.to_string());
        match *req {
            Req::Deep { run, view, data } => z
                .deep_provenance_as(tenant, run, view, data)
                .map_or_else(e, Expect::Prov),
            Req::Immediate { run, view, data } => z
                .immediate_provenance_as(tenant, run, view, data)
                .map_or_else(e, Expect::Imm),
            Req::Dependents { run, view, data } => z
                .dependents_of_as(tenant, run, view, data)
                .map_or_else(e, Expect::Data),
            Req::Finals(run) => z.final_outputs_as(tenant, run).map_or_else(e, Expect::Data),
            Req::Batch(ref qs) => Expect::Batch(
                z.query_batch_as(tenant, qs)
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
            ),
        }
    }

    /// Tuples of every UAdmin deep answer in the pool.
    fn tuples_of(&self, pool: &Pool, expected: &[Expect]) -> Vec<f64> {
        pool.deep_admin()
            .filter_map(|i| match &expected[i] {
                Expect::Prov(p) => Some(p.tuples() as f64),
                _ => None,
            })
            .collect()
    }
}

/// Median encoded size, in KiB, of the UAdmin deep answers.
fn median_answer_kb(pool: &Pool, expected: &[Expect]) -> f64 {
    let sizes: Vec<f64> = pool
        .deep_admin()
        .filter_map(|i| match &expected[i] {
            Expect::Prov(p) => codec::to_bytes(p).ok().map(|b| b.len() as f64 / 1024.0),
            _ => None,
        })
        .collect();
    median_f64(&sizes)
}

fn describe(report: &mut Report, zoom: &Zoom, ids: &Ids, pool: &Pool, expected: &[Expect]) {
    let stats = zoom.stats();
    let wh = zoom.warehouse();
    let (mut bitset, mut labels) = (0, 0);
    for &(run, _) in &ids.runs {
        let nodes = wh.run(run).map_or(0, |r| r.graph().node_count());
        match wh.backend_for(nodes) {
            IndexBackend::Labels => labels += 1,
            _ => bitset += 1,
        }
    }
    report.context_num("workflows", ids.views.len());
    report.context_num("runs", stats.runs);
    report.context_num("steps", stats.steps);
    report.context_num("data_objects", stats.data_objects);
    report.context_num("run_view_pairs", ids.runs.len() * 3);
    report.context_num(
        "view_run_cache_capacity",
        zoom::warehouse::cache::DEFAULT_VIEW_RUN_CAPACITY,
    );
    report.context_num("shards", 2);
    report.context_num("request_pool", pool.reqs.len());
    report.context_num(
        "median_answer_bytes",
        median_answer_kb(pool, expected) * 1024.0,
    );
    report.context_str("storage", "in-memory shards, no journal");
    report.context_num("runs_on_bitset_index", bitset);
    report.context_num("runs_on_label_index", labels);
}

/// One request a client can send.
#[derive(Clone, Debug)]
enum Req {
    Deep {
        run: RunId,
        view: ViewId,
        data: DataId,
    },
    Immediate {
        run: RunId,
        view: ViewId,
        data: DataId,
    },
    Dependents {
        run: RunId,
        view: ViewId,
        data: DataId,
    },
    Finals(RunId),
    Batch(Vec<(RunId, ViewId, DataId)>),
}

/// An answer or an error rendering.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    Prov(ProvenanceResult),
    Imm(ImmediateAnswer),
    Data(Vec<DataId>),
    Batch(Vec<Result<ProvenanceResult, String>>),
    Err(String),
}

/// The requests of one run's sessions, as indices into [`Pool::reqs`].
struct RunReqs {
    finals: usize,
    /// `(UAdmin deep, UBlackBox deep)` of each final output.
    deep_pairs: Vec<(usize, usize)>,
    /// `(immediate, dependents)` of data both tenants see at UAdmin.
    looks: Vec<(usize, usize)>,
}

/// The seeded request pool.
struct Pool {
    reqs: Vec<Req>,
    runs: Vec<RunReqs>,
    batches: Vec<usize>,
    /// Absent runs, absent data, and data the partner policy conceals.
    bad: Vec<usize>,
}

impl Pool {
    fn build(zoom: &Zoom, ids: &Ids, seed: u64) -> Result<Pool, String> {
        let err = |e: zoom::core::WarehouseError| e.to_string();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e4a_4750);
        let mut p = Pool {
            reqs: Vec::new(),
            runs: Vec::new(),
            batches: Vec::new(),
            bad: Vec::new(),
        };
        let push = |reqs: &mut Vec<Req>, r: Req| {
            reqs.push(r);
            reqs.len() - 1
        };
        let mut finals_all = Vec::new();
        for &(run, i) in &ids.runs {
            let (_, admin, bb, bio) = ids.views[i];
            let finals = zoom.final_outputs(run).map_err(err)?;
            let mut r = RunReqs {
                finals: push(&mut p.reqs, Req::Finals(run)),
                deep_pairs: Vec::new(),
                looks: Vec::new(),
            };
            for &data in &finals {
                let deep = |view| Req::Deep { run, view, data };
                let a = push(&mut p.reqs, deep(admin));
                let b = push(&mut p.reqs, deep(bb));
                r.deep_pairs.push((a, b));
                finals_all.push((run, bio, data));
            }
            // Data both tenants see at UAdmin.
            let shared = zoom.visible_data_as(PARTNER, run, admin).map_err(err)?;
            for _ in 0..6 {
                let data = shared[rng.random_range(0..shared.len())];
                let imm = push(
                    &mut p.reqs,
                    Req::Immediate {
                        run,
                        view: admin,
                        data,
                    },
                );
                let dep = push(
                    &mut p.reqs,
                    Req::Dependents {
                        run,
                        view: admin,
                        data,
                    },
                );
                r.looks.push((imm, dep));
            }
            p.runs.push(r);
            // Data the partner policy conceals: absent for the partner.
            let all = zoom.visible_data(run, admin).map_err(err)?;
            let hidden: Vec<DataId> = all
                .into_iter()
                .filter(|d| shared.binary_search(d).is_err())
                .collect();
            for _ in 0..hidden.len().min(2) {
                let data = hidden[rng.random_range(0..hidden.len())];
                p.bad.push(push(
                    &mut p.reqs,
                    Req::Deep {
                        run,
                        view: admin,
                        data,
                    },
                ));
            }
            p.bad.push(push(
                &mut p.reqs,
                Req::Deep {
                    run,
                    view: admin,
                    data: ABSENT_DATA,
                },
            ));
        }
        let (_, admin, _, _) = ids.views[0];
        p.bad.push(push(
            &mut p.reqs,
            Req::Deep {
                run: ABSENT_RUN,
                view: admin,
                data: DataId(1),
            },
        ));
        p.bad.push(push(&mut p.reqs, Req::Finals(ABSENT_RUN)));
        for _ in 0..32 {
            let batch = (0..4)
                .map(|_| finals_all[rng.random_range(0..finals_all.len())])
                .collect();
            p.batches.push(push(&mut p.reqs, Req::Batch(batch)));
        }
        Ok(p)
    }

    /// The UAdmin deep requests.
    fn deep_admin(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|r| r.deep_pairs.iter().map(|&(a, _)| a))
    }
}

/// The closed-loop client: one thread alternating between the tenants'
/// connections, so the daemon serves one request at a time and one core
/// stays free for the rest of the machine.
struct Client {
    rng: StdRng,
    tracer: Tracer,
    sessions: u64,
    failed: u64,
    mismatches: u64,
    expected_errors: u64,
    first_error: Option<String>,
}

impl Client {
    /// Runs one session on a uniformly picked run, as the next tenant, and
    /// checks each answer against the oracle's.
    fn session(
        &mut self,
        conns: &mut [RemoteZoom],
        pool: &Pool,
        expected: &[Vec<Expect>],
        oracle: &Oracle,
        phase: &mut Phase,
        traced: bool,
    ) {
        let t = (self.sessions % TENANTS.len() as u64) as usize;
        self.sessions += 1;
        let (tenant, conn, expected) = (TENANTS[t], &mut conns[t], &expected[t]);
        let pick = |v: &[usize], rng: &mut StdRng| v[rng.random_range(0..v.len())];
        let run = &pool.runs[self.rng.random_range(0..pool.runs.len())];
        let (a, b) = run.deep_pairs[self.rng.random_range(0..run.deep_pairs.len())];
        let (imm, dep) = run.looks[self.rng.random_range(0..run.looks.len())];
        let extra = |rng: &mut StdRng| rng.random_range(0..EXTRA_EVERY) == 0;
        let (batch, bad) = (extra(&mut self.rng), extra(&mut self.rng));
        let mut sent: Vec<(usize, Expect)> = Vec::with_capacity(7);
        let finals = self.plain(conn, &pool.reqs[run.finals], "op.finals", traced);
        sent.push((run.finals, finals));
        let start = Instant::now();
        let got = match traced {
            true => self.deep_traced(tenant, conn, &pool.reqs[a], oracle),
            false => call(conn, &pool.reqs[a]),
        };
        phase.deep.since(start);
        sent.push((a, got));
        let start = Instant::now();
        let got = self.plain(conn, &pool.reqs[b], "op.switch", traced);
        phase.switch.since(start);
        sent.push((b, got));
        let mut rest = vec![(imm, "op.immediate"), (dep, "op.dependents")];
        if batch {
            rest.push((pick(&pool.batches, &mut self.rng), "op.batch"));
        }
        if bad {
            rest.push((pick(&pool.bad, &mut self.rng), "op.bad_id"));
        }
        for (i, name) in rest {
            sent.push((i, self.plain(conn, &pool.reqs[i], name, traced)));
        }
        phase.op(sent.len());
        for (i, got) in sent {
            let want = &expected[i];
            if &got != want {
                self.mismatches += 1;
                let req = &pool.reqs[i];
                self.first_error.get_or_insert_with(|| {
                    format!(
                        "{tenant}: {req:?}: got {}, want {}",
                        brief(&got),
                        brief(want)
                    )
                });
            } else if let Expect::Err(_) = got {
                self.expected_errors += 1;
                if !pool.bad.contains(&i) {
                    self.failed += 1;
                    let req = &pool.reqs[i];
                    self.first_error.get_or_insert_with(|| {
                        format!("{tenant}: {req:?}: unexpected {}", brief(&got))
                    });
                }
            }
        }
    }

    /// Sends `req`, in a span of its own as operation `name` when traced.
    fn plain(
        &mut self,
        conn: &mut RemoteZoom,
        req: &Req,
        name: &'static str,
        traced: bool,
    ) -> Expect {
        match traced {
            true => self
                .tracer
                .op(name, |t| t.span("remote.call", || call(conn, req))),
            false => call(conn, req),
        }
    }

    /// A UAdmin deep query over the wire, followed by the benchmark's own
    /// measurements of what it is made of: the socket and dispatch floor
    /// (`Ping`), encoding, decoding and framing the same answer, and the
    /// same question asked of an in-process router, whose answer must be
    /// the daemon's; then the in-process warehouse's layers.
    fn deep_traced(
        &mut self,
        tenant: &str,
        conn: &mut RemoteZoom,
        req: &Req,
        oracle: &Oracle,
    ) -> Expect {
        let Req::Deep { run, view, data } = *req else {
            return call(conn, req);
        };
        let mut routed = None;
        let got = self.tracer.op("op.deep", |t| {
            let got = t.span("remote.call", || call(conn, req));
            if let Expect::Prov(result) = &got {
                let response = wire::Response::Provenance {
                    result: result.clone(),
                };
                let bytes = t.span("codec.encode", || codec::to_bytes(&response));
                if let Ok(bytes) = bytes {
                    t.span("codec.decode", || {
                        codec::from_bytes::<wire::Response>(&bytes).map(drop)
                    })
                    .ok();
                    t.span("wire.frame", || {
                        let mut buf = Vec::with_capacity(bytes.len() + 8);
                        wire::write_frame(&mut buf, &bytes)
                            .and_then(|()| wire::read_frame(&mut Cursor::new(buf)))
                            .map(drop)
                    })
                    .ok();
                }
            }
            t.span("remote.ping", || conn.ping()).ok();
            if let Some(r) = &oracle.router {
                let answer = t.span("router.query", || routed_deep(r, tenant, run, view, data));
                routed = Some(answer.map_or_else(|e| Expect::Err(e.to_string()), Expect::Prov));
            }
            let z = &oracle.zoom;
            if let Ok(eff) = t.span("privacy.gate", || z.effective_view(tenant, run, view)) {
                t.span("cache.view_run", || z.warehouse().view_run(run, eff))
                    .ok();
                t.span("query.project", || z.deep_provenance(run, eff, data))
                    .ok();
            }
            got
        });
        if routed.as_ref().is_some_and(|r| *r != got) {
            self.mismatches += 1;
            self.first_error.get_or_insert_with(|| {
                format!("{tenant}: {req:?}: the router and the daemon answer differently")
            });
        }
        got
    }
}

/// What the daemon does for a deep query, done on the in-process router:
/// the tenant's policy decision (the partner's meet view in place of the
/// requested one), then the query routed to the owning shard.
fn routed_deep(
    r: &wire::ShardRouter,
    tenant: &str,
    run: RunId,
    view: ViewId,
    data: DataId,
) -> zoom::core::Result<ProvenanceResult> {
    let spec = r.spec_of_run(run)?;
    let (policies, sink) = (r.policies(), r.policy_sink());
    let absent = zoom::core::WarehouseError::RunNotFound(run);
    if policies.spec_denied(tenant, spec, r, &sink)? {
        return Err(absent);
    }
    let view = match policies.view_decision(tenant, spec, view, r, &sink)? {
        Decision::Pass => view,
        Decision::Substitute(eff) => eff,
        Decision::Deny => return Err(absent),
    };
    r.deep_provenance(run, view, data)
}

/// Sends `req` and renders the reply as an [`Expect`].
fn call(conn: &mut RemoteZoom, req: &Req) -> Expect {
    let e = |e: zoom::core::RemoteError| Expect::Err(e.to_string());
    match *req {
        Req::Deep { run, view, data } => conn
            .deep_provenance(run, view, data)
            .map_or_else(e, Expect::Prov),
        Req::Immediate { run, view, data } => conn
            .immediate_provenance(run, view, data)
            .map_or_else(e, Expect::Imm),
        Req::Dependents { run, view, data } => conn
            .dependents_of(run, view, data)
            .map_or_else(e, Expect::Data),
        Req::Finals(run) => conn.final_outputs(run).map_or_else(e, Expect::Data),
        Req::Batch(ref qs) => conn.query_batch(qs).map_or_else(e, |slots| {
            Expect::Batch(
                slots
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
            )
        }),
    }
}

fn brief(e: &Expect) -> String {
    match e {
        Expect::Prov(p) => format!("{} tuples", p.tuples()),
        Expect::Imm(_) => "an immediate answer".to_string(),
        Expect::Data(d) => format!("{} ids", d.len()),
        Expect::Batch(b) => format!("a batch of {}", b.len()),
        Expect::Err(m) => format!("error `{m}`"),
    }
}
