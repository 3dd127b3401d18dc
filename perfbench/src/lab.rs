//! `lab_corpus`: the paper's lab. Scientists' sessions over the
//! Paper-scale corpus (40 workflows, 3,600 runs, four views each), whose
//! run × view pairs do not fit the view-run cache.
//!
//! One in-process client runs sessions in the Fig. 10/11 pattern: open a
//! [`QuerySession`] at UBio on a run skewed toward recently loaded ones,
//! focus the final output, switch to UAdmin, UBlackBox and UPrivate, then
//! ask immediate provenance and dependents of a datum visible at UAdmin.
//! Every eighth session first builds a view from a random relevant set and
//! switches to it too. A quarter of the sessions run as a tenant whose
//! policy conceals one analysis module per workflow.
//!
//! The lab is one lab: the corpus is built from [`WORKFLOW_SEED`]
//! whatever the run's seed, which draws the sessions, the relevant sets
//! and the answers the oracle checks.

use crate::counters::{report_counters, Counters};
use crate::report::Report;
use crate::stats::{median_f64, ratio};
use crate::trace::Tracer;
use crate::{
    attempted, deep_traced, index_span, report_end_to_end, report_spans, report_trace, run_window,
    timed_setups, warm_index, windows, Config, Phase, WORKFLOW_SEED,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;
use zoom::core::{IndexBackend, QuerySession, RunId, ViewId, VisibilityPolicy, Zoom};
use zoom::model::DataId;
use zoom::warehouse::cache::DEFAULT_VIEW_RUN_CAPACITY;
use zoom::warehouse::{codec, query, ProvenanceResult};
use zoom_bench::workloads::random_relevant;
use zoom_bench::{build_corpus, Corpus, Scale};

/// The policy-restricted tenant.
const GUEST: &str = "guest";
/// Share of sessions run as [`GUEST`].
const GUEST_SHARE: f64 = 0.25;
/// Recency skew: a session goes `u^SKEW` of the way back through its
/// workflow's runs, for `u` uniform in `[0, 1)`.
const SKEW: f64 = 8.0;
/// Every this many sessions, one builds a custom view first.
const BUILD_VIEW_EVERY: u64 = 8;
/// Relevant sets drawn per workflow for custom views; the view table
/// stops growing once each has been built, so the window is stationary.
const RELEVANT_SETS: usize = 4;
/// Answers kept for the BFS oracle: a uniform sample of the window's
/// answers (reservoir sampling), so memory does not grow with throughput.
const CHECKS: usize = 4096;

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let scale = if cfg.quick {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let (corpus, setup_s) = timed_setups(crate::SETUP_REPEATS, |last| {
        let tr = (cfg.trace && last).then_some(&mut tracer);
        setup(scale, WORKFLOW_SEED, tr)
    })?;
    let mut lab = Lab::new(corpus, cfg.seed);
    lab.describe(&mut report);

    let counters = |lab: &Lab| Counters::of(&[lab.corpus.zoom.metrics()]);
    let mut phases = Vec::new();
    let mut window = Counters::default();
    for (len, traced) in windows(cfg) {
        let before = counters(&lab);
        let phase = run_window(len, traced, |p, tr| {
            lab.session(p, tr.then_some(&mut tracer))
        });
        if !traced {
            window = counters(&lab).since(&before);
        }
        phases.push(phase);
    }
    let run = counters(&lab);

    lab.verify(&mut report);
    report.attempted = attempted(&phases);
    report.failed = lab.failed + report.mismatches + run.shed + run.deadline_exceeded;
    report.context_num(
        "view_run_hit_ratio",
        ratio(window.vr_hits, window.vr_lookups),
    );
    if !cfg.trace {
        report.set("setup_s", setup_s);
        report_end_to_end(&mut report, &phases[0].0);
        return Ok(report);
    }
    report_counters(&mut report, &window, &run);
    report_spans(&mut report, &tracer);
    report.set("query.tuples_p50", median_f64(&lab.tuples));
    for name in BYPASSED {
        report.set(name, 0.0);
    }
    report_trace(&mut report, cfg, "lab_corpus", &phases[1], &tracer)?;
    Ok(report)
}

/// Metrics of layers this workload never enters that are not span
/// quantiles: the daemon's wire and the durable store.
const BYPASSED: &[&str] = &[
    "codec.answer_kb_p50",
    "remote.unexplained_p50_us",
    "stream.push_p50_us",
    "stream.push_p90_us",
    "stream.events_per_s",
    "durable.upload_p50_us",
    "durable.reopen_ms",
];

/// Builds the corpus, installs the guest policy and warms every run's
/// index, so the measured window is stationary.
fn setup(scale: Scale, seed: u64, mut tr: Option<&mut Tracer>) -> Result<Corpus, String> {
    let mut corpus = build_corpus(scale, seed);
    let mut hidden: Vec<String> = corpus
        .workflows
        .iter()
        .map(|w| w.concealed.clone())
        .collect();
    hidden.sort();
    hidden.dedup();
    corpus
        .zoom
        .set_policy(
            GUEST,
            Some(VisibilityPolicy {
                hidden_modules: hidden,
                hidden_workflows: vec![],
            }),
        )
        .map_err(|e| format!("guest policy: {e}"))?;
    let zoom = &corpus.zoom;
    for w in &corpus.workflows {
        for &run in w.runs.iter().flat_map(|(_, ids)| ids) {
            let warmed = match tr.as_deref_mut() {
                Some(t) => t.op("op.setup", |t| index_span(t, zoom, run)),
                None => warm_index(zoom, run),
            };
            warmed.map_err(|e| format!("index of {run}: {e}"))?;
        }
    }
    Ok(corpus)
}

/// A sampled answer, re-derived by the BFS oracle after the window.
struct Check {
    run: RunId,
    view: ViewId,
    guest: bool,
    data: DataId,
    answer: Answer,
}

enum Answer {
    Deep(ProvenanceResult),
    Dependents(Vec<DataId>),
}

struct Lab {
    corpus: Corpus,
    /// Per workflow, its runs in load order.
    runs: Vec<Vec<RunId>>,
    /// Per workflow, the relevant sets its custom views are built from.
    relevant_sets: Vec<Vec<Vec<String>>>,
    rng: StdRng,
    sessions: u64,
    checks: Vec<Check>,
    offered: u64,
    failed: u64,
    first_error: Option<String>,
    tuples: Vec<f64>,
}

impl Lab {
    fn new(corpus: Corpus, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1ab_c0de);
        let runs = corpus
            .workflows
            .iter()
            .map(|w| {
                w.runs
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect()
            })
            .collect();
        let relevant_sets = corpus
            .workflows
            .iter()
            .map(|w| {
                (0..RELEVANT_SETS)
                    .map(|_| {
                        let mut relevant = random_relevant(&w.spec, 40, &mut rng);
                        if relevant.is_empty() {
                            relevant = w.spec.module_ids().take(1).collect();
                        }
                        relevant
                            .iter()
                            .map(|&m| w.spec.label(m).to_string())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Lab {
            corpus,
            runs,
            relevant_sets,
            rng,
            sessions: 0,
            checks: Vec::new(),
            offered: 0,
            failed: 0,
            first_error: None,
            tuples: Vec::new(),
        }
    }

    fn describe(&self, report: &mut Report) {
        let stats = self.corpus.zoom.stats();
        let wh = self.corpus.zoom.warehouse();
        let views: usize = self
            .corpus
            .workflows
            .iter()
            .map(|w| wh.views_of_spec(w.spec_id).len())
            .sum();
        let pairs: usize = self
            .corpus
            .workflows
            .iter()
            .map(|w| {
                wh.views_of_spec(w.spec_id).len() * w.runs.iter().map(|r| r.1.len()).sum::<usize>()
            })
            .sum();
        let (mut bitset, mut labels) = (0, 0);
        for &run in self.runs.iter().flatten() {
            let nodes = wh.run(run).map_or(0, |r| r.graph().node_count());
            match wh.backend_for(nodes) {
                IndexBackend::Labels => labels += 1,
                _ => bitset += 1,
            }
        }
        report.context_num("workflows", self.corpus.workflows.len());
        report.context_num("runs", stats.runs);
        report.context_num("steps", stats.steps);
        report.context_num("data_objects", stats.data_objects);
        report.context_num("views", views);
        report.context_num("run_view_pairs", pairs);
        report.context_num("view_run_cache_capacity", DEFAULT_VIEW_RUN_CAPACITY);
        report.context_str("storage", "in-memory warehouse, no journal");
        report.context_str("index_backend_policy", &wh.backend_policy());
        report.context_num("runs_on_bitset_index", bitset);
        report.context_num("runs_on_label_index", labels);
    }

    /// A workflow drawn uniformly, then one of its runs skewed toward the
    /// recently loaded: the newest tenth of its runs draws three in four of
    /// its sessions. (Skewing over the whole load order would send most
    /// sessions to the last few workflows loaded.)
    fn pick_run(&mut self) -> (RunId, usize) {
        let wf = self.rng.random_range(0..self.corpus.workflows.len());
        let runs = &self.runs[wf];
        let u: f64 = self.rng.random_range(0.0..1.0);
        let back = (u.powf(SKEW) * runs.len() as f64) as usize;
        (runs[runs.len() - 1 - back.min(runs.len() - 1)], wf)
    }

    fn fail(&mut self, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }

    /// Offers one answer to the oracle's reservoir.
    fn offer(&mut self, check: Check) {
        self.offered += 1;
        if self.checks.len() < CHECKS {
            self.checks.push(check);
        } else {
            let slot = self.rng.random_range(0..self.offered);
            if slot < CHECKS as u64 {
                self.checks[slot as usize] = check;
            }
        }
    }

    /// One scientist session.
    fn session(&mut self, phase: &mut Phase, mut tr: Option<&mut Tracer>) {
        self.sessions += 1;
        let (run, wf) = self.pick_run();
        let guest = self.rng.random_bool(GUEST_SHARE);
        let w = &self.corpus.workflows[wf];
        let (spec_id, bio) = (w.spec_id, w.bio);
        let mut views = vec![w.admin, w.black_box, w.private];
        if self.sessions.is_multiple_of(BUILD_VIEW_EVERY) {
            let sets = &self.relevant_sets[wf];
            let labels = &sets[self.rng.random_range(0..sets.len())];
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let zoom = &mut self.corpus.zoom;
            let built = match tr.as_deref_mut() {
                Some(t) => t.op("op.build_view", |t| {
                    t.span("views.build", || zoom.build_view(spec_id, &refs))
                }),
                None => zoom.build_view(spec_id, &refs),
            };
            phase.op(1);
            match built {
                Ok(v) => views.push(v),
                Err(e) => self.fail(format!("build_view: {e}")),
            }
        }

        // Focus the final output at UBio, then switch through the other
        // views, re-answering the focused datum at each.
        let mut results: Vec<(ViewId, zoom::core::Result<ProvenanceResult>)> = Vec::new();
        let zoom = &self.corpus.zoom;
        match tr.as_deref_mut() {
            Some(t) => {
                let start = Instant::now();
                let focused = t.op("op.deep", |t| {
                    let outs = t.span("core.final_outputs", || match guest {
                        true => zoom.final_outputs_as(GUEST, run),
                        false => zoom.final_outputs(run),
                    })?;
                    let d = *outs
                        .first()
                        .ok_or(zoom::core::WarehouseError::NoFinalOutputs(run))?;
                    deep_traced(t, zoom, guest.then_some(GUEST), run, bio, d)
                });
                phase.deep.since(start);
                let data = focused.as_ref().ok().map(|a| a.target);
                results.push((bio, focused));
                for &view in data.iter().flat_map(|_| &views) {
                    let d = data.expect("switches follow a focused datum");
                    let start = Instant::now();
                    let res = t.op("op.switch", |t| {
                        deep_traced(t, zoom, guest.then_some(GUEST), run, view, d)
                    });
                    phase.switch.since(start);
                    results.push((view, res));
                }
            }
            None => {
                let mut s = match guest {
                    true => QuerySession::open_as(zoom, GUEST, run, bio),
                    false => QuerySession::new(zoom, run, bio),
                };
                let start = Instant::now();
                let focused = s.focus_final_output();
                phase.deep.since(start);
                let ok = focused.is_ok();
                results.push((bio, focused));
                for &view in views.iter().filter(|_| ok) {
                    let start = Instant::now();
                    let res = s.switch_view(view);
                    phase.switch.since(start);
                    results.push((view, res));
                }
            }
        }
        phase.op(results.len());

        let admin = self.corpus.workflows[wf].admin;
        let mut data = None;
        let mut admin_answer = None;
        for (view, res) in results {
            match res {
                Ok(a) => {
                    if data.is_none() {
                        self.tuples.push(a.tuples() as f64);
                    }
                    data = Some(a.target);
                    if view == admin {
                        admin_answer = Some(a.clone());
                    }
                    self.keep(run, view, guest, a.target, a);
                }
                Err(e) => self.fail(format!("deep {run} at {view}: {e}")),
            }
        }

        // Immediate provenance and dependents of a datum visible at UAdmin.
        let Some(admin_answer) = admin_answer else {
            return;
        };
        let rows = &admin_answer.rows;
        let d = rows[self.rng.random_range(0..rows.len())].data;
        let zoom = &self.corpus.zoom;
        phase.op(2);
        let immediate = match tr.as_deref_mut() {
            Some(t) => t.op("op.immediate", |t| {
                t.span("query.immediate", || immediate(zoom, guest, run, admin, d))
            }),
            None => immediate(zoom, guest, run, admin, d),
        };
        let dependents = match tr {
            Some(t) => t.op("op.dependents", |t| {
                t.span("query.dependents", || {
                    dependents(zoom, guest, run, admin, d)
                })
            }),
            None => dependents(zoom, guest, run, admin, d),
        };
        if let Err(e) = immediate {
            self.fail(format!("immediate {run} {d}: {e}"));
        }
        match dependents {
            Ok(ids) => {
                self.offer(Check {
                    run,
                    view: admin,
                    guest,
                    data: d,
                    answer: Answer::Dependents(ids),
                });
            }
            Err(e) => self.fail(format!("dependents {run} {d}: {e}")),
        }
    }

    fn keep(&mut self, run: RunId, view: ViewId, guest: bool, data: DataId, a: ProvenanceResult) {
        self.offer(Check {
            run,
            view,
            guest,
            data,
            answer: Answer::Deep(a),
        });
    }

    /// Re-derives every sampled answer with the BFS oracle on an uncached
    /// view-run of the same (effective) view.
    fn verify(&mut self, report: &mut Report) {
        let zoom = &self.corpus.zoom;
        let wh = zoom.warehouse();
        let mut mismatches = 0;
        let mut bytes = Vec::new();
        for c in &self.checks {
            let view = if c.guest {
                zoom.effective_view(GUEST, c.run, c.view)
            } else {
                Ok(c.view)
            };
            let expected = view.and_then(|v| Ok((wh.run(c.run)?, wh.view_run_uncached(c.run, v)?)));
            let Ok((run, vr)) = expected else {
                mismatches += 1;
                continue;
            };
            let same = match &c.answer {
                Answer::Deep(a) => {
                    bytes.push(codec::to_bytes(a).map_or(0, |b| b.len()) as f64);
                    matches!(query::deep_provenance_bfs(run, &vr, c.data), Ok(Some(o)) if &o == a)
                }
                Answer::Dependents(ids) => {
                    let mut got = ids.clone();
                    got.sort();
                    query::dependents_of_bfs(run, &vr, c.data).is_some_and(|mut o| {
                        o.sort();
                        o == got
                    })
                }
            };
            if !same {
                mismatches += 1;
            }
        }
        report.mismatches += mismatches;
        report.context_num("oracle_checked", self.checks.len());
        report.context_num("median_answer_bytes", median_f64(&bytes));
        report.context_num("sessions", self.sessions);
        if let Some(e) = &self.first_error {
            report.context_str("first_error", e);
        }
    }
}

fn immediate(
    zoom: &Zoom,
    guest: bool,
    run: RunId,
    view: ViewId,
    d: DataId,
) -> zoom::core::Result<()> {
    match guest {
        true => zoom.immediate_provenance_as(GUEST, run, view, d).map(drop),
        false => zoom.immediate_provenance(run, view, d).map(drop),
    }
}

fn dependents(
    zoom: &Zoom,
    guest: bool,
    run: RunId,
    view: ViewId,
    d: DataId,
) -> zoom::core::Result<Vec<DataId>> {
    match guest {
        true => zoom.dependents_of_as(GUEST, run, view, d),
        false => zoom.dependents_of(run, view, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle catches a tampered answer.
    #[test]
    fn oracle_rejects_a_wrong_answer() {
        let corpus = setup(Scale::Quick, 3, None).unwrap();
        let mut lab = Lab::new(corpus, 3);
        let (run, wf) = (lab.runs[0][0], 0);
        let w = &lab.corpus.workflows[wf];
        let (view, zoom) = (w.admin, &lab.corpus.zoom);
        let mut answer = zoom.deep_provenance_of_final_output(run, view).unwrap();
        let data = answer.target;
        lab.checks.push(Check {
            run,
            view,
            guest: false,
            data,
            answer: Answer::Deep(answer.clone()),
        });
        answer.rows.pop();
        lab.checks.push(Check {
            run,
            view,
            guest: false,
            data,
            answer: Answer::Deep(answer),
        });
        let mut report = Report::default();
        lab.verify(&mut report);
        assert_eq!(report.mismatches, 1);
    }
}
