//! End-to-end tests of the daemon's privacy enforcement and the
//! observability surfaces it gates: server-side `Resolve` must not be an
//! existence oracle for hidden workflows, the slow-query ring must not
//! leak cross-tenant query context, and policy administration itself is
//! admin-gated.

use zoom::core::{Daemon, DaemonConfig, RemoteZoom, RunId, ViewId, Zoom};
use zoom::model::{DataId, EventLog, StepId};
use zoom::warehouse::{ImmediateAnswer, ProvenanceResult, VisibilityPolicy};
use zoom_gen::library::{
    figure2_run, phylogenomic, provenance_challenge, provenance_challenge_run,
};

fn spawn(shards: usize, admin_token: Option<&str>) -> Daemon {
    Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards,
            admin_token: admin_token.map(str::to_string),
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

/// Loads the phylogenomic demo through `ctl` and returns (spec, admin
/// view, run).
fn load_demo(ctl: &mut RemoteZoom) -> (zoom::core::SpecId, zoom::core::ViewId, zoom::core::RunId) {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let sid = ctl.register_workflow(spec).unwrap();
    let vid = ctl.admin_view(sid).unwrap();
    let rid = ctl.load_log(sid, &log).unwrap();
    (sid, vid, rid)
}

/// Satellite 2 (golden bytes): resolving a hidden-and-present workflow
/// must answer byte-for-byte what resolving it on a daemon that never
/// registered it answers — no existence oracle.
#[test]
fn resolve_renders_hidden_exactly_like_absent() {
    // Daemon A: the workflow exists, hidden from alice.
    let with_wf = spawn(2, None);
    let mut ctl = RemoteZoom::connect(with_wf.addr(), "ctl").unwrap();
    load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec![],
            hidden_workflows: vec!["phylogenomic".to_string()],
        }),
        None,
    )
    .unwrap();

    // Daemon B: the workflow genuinely does not exist.
    let without_wf = spawn(2, None);
    let mut probe = RemoteZoom::connect(without_wf.addr(), "alice").unwrap();

    let mut alice = RemoteZoom::connect(with_wf.addr(), "alice").unwrap();
    let hidden_err = alice.resolve("phylogenomic", None).unwrap_err().to_string();
    let absent_err = probe.resolve("phylogenomic", None).unwrap_err().to_string();
    assert_eq!(
        hidden_err, absent_err,
        "hidden-and-present must render like truly-absent"
    );
    // The golden bytes themselves, pinned: a change here is a protocol
    // change an attacker could fingerprint across versions.
    assert_eq!(hidden_err, "no workflow named `phylogenomic`");

    // View-name resolution through a hidden workflow is equally blind.
    let hidden_view = alice
        .resolve("phylogenomic", Some("UAdmin"))
        .unwrap_err()
        .to_string();
    let absent_view = probe
        .resolve("phylogenomic", Some("UAdmin"))
        .unwrap_err()
        .to_string();
    assert_eq!(hidden_view, absent_view);

    // The unrestricted tenant still resolves normally.
    let (sid, vid, runs) = ctl.resolve("phylogenomic", Some("UAdmin")).unwrap();
    assert_eq!(sid.0, 0);
    assert!(vid.is_some());
    assert_eq!(runs.len(), 1);
}

/// A hidden workflow's runs render as absent runs, byte-identically.
#[test]
fn hidden_workflow_runs_render_like_absent_runs() {
    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec![],
            hidden_workflows: vec!["phylogenomic".to_string()],
        }),
        None,
    )
    .unwrap();
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let hidden = alice
        .deep_provenance(rid, vid, DataId(1))
        .unwrap_err()
        .to_string();
    let absent = alice
        .deep_provenance(zoom::core::RunId(999), vid, DataId(1))
        .unwrap_err()
        .to_string();
    assert_eq!(
        hidden.replace(&format!("{}", rid.0), "R"),
        absent.replace("999", "R")
    );
    assert_eq!(
        alice.final_outputs(rid).unwrap_err().to_string(),
        format!("{rid} not found")
    );
}

/// Satellite 1: the slow-query ring is tenant-filtered for non-admin
/// callers and only admin may reset the capture threshold.
#[test]
fn slowlog_is_tenant_scoped_without_admin_token() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);

    // Admin (token) opens capture for everything.
    assert!(ctl.slow_queries_admin(Some(0), Some("sekrit")).is_ok());

    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let mut bob = RemoteZoom::connect(daemon.addr(), "bob").unwrap();
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    bob.deep_provenance(rid, vid, finals[0]).unwrap();
    bob.dependents_of(rid, vid, DataId(1)).unwrap();

    // Each non-admin tenant sees exactly its own entries.
    let alice_log = alice.slow_queries(None).unwrap();
    assert!(!alice_log.is_empty());
    assert!(alice_log
        .iter()
        .all(|q| q.tenant.as_deref() == Some("alice")));
    let bob_log = bob.slow_queries(None).unwrap();
    assert!(bob_log.iter().all(|q| q.tenant.as_deref() == Some("bob")));
    assert!(bob_log.len() > alice_log.len());

    // A non-admin "threshold reset" is ignored: the ring keeps capturing.
    let before = ctl.slow_queries_admin(None, Some("sekrit")).unwrap().len();
    alice.slow_queries(Some(u64::MAX)).unwrap();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    let after = ctl.slow_queries_admin(None, Some("sekrit")).unwrap().len();
    assert!(after > before, "non-admin must not disable capture");

    // Admin sees the full cross-tenant ring.
    let full = ctl.slow_queries_admin(None, Some("sekrit")).unwrap();
    let tenants: std::collections::HashSet<_> =
        full.iter().filter_map(|q| q.tenant.clone()).collect();
    assert!(
        tenants.contains("alice") && tenants.contains("bob"),
        "{tenants:?}"
    );
}

/// Metrics snapshots embed the slow-query ring: non-admin callers get it
/// filtered to their own tenant.
#[test]
fn metrics_slowlog_is_tenant_filtered() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);
    ctl.slow_queries_admin(Some(0), Some("sekrit")).unwrap();
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    ctl.deep_provenance(rid, vid, finals[0]).unwrap();

    let own = alice.metrics_per_shard().unwrap();
    assert!(own
        .iter()
        .flat_map(|s| &s.slow_queries)
        .all(|q| q.tenant.as_deref() == Some("alice")));

    let full = ctl.metrics_per_shard_admin(Some("sekrit")).unwrap();
    let tenants: std::collections::HashSet<_> = full
        .iter()
        .flat_map(|s| &s.slow_queries)
        .filter_map(|q| q.tenant.clone())
        .collect();
    assert!(tenants.contains("ctl"), "{tenants:?}");
}

/// Policy administration is admin-gated; reading one's own policy is not.
#[test]
fn policy_administration_requires_admin() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    load_demo(&mut ctl);
    let policy = VisibilityPolicy {
        hidden_modules: vec!["M5".to_string()],
        hidden_workflows: vec![],
    };

    // Tokenless install is refused even from loopback (token configured).
    assert!(ctl.set_policy("alice", Some(policy.clone()), None).is_err());
    ctl.set_policy("alice", Some(policy.clone()), Some("sekrit"))
        .unwrap();

    // Alice reads her own policy without a token…
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    assert_eq!(alice.policy("alice", None).unwrap(), Some(policy));
    // …but not another tenant's.
    assert!(alice.policy("ctl", None).is_err());
    // And cannot clear her own restriction.
    assert!(alice.set_policy("alice", None, None).is_err());

    // Admin clears it.
    ctl.set_policy("alice", None, Some("sekrit")).unwrap();
    assert_eq!(ctl.policy("alice", Some("sekrit")).unwrap(), None);
}

/// An unsatisfiable policy is refused at install time over the wire.
#[test]
fn unsatisfiable_policy_is_refused_at_install() {
    let daemon = spawn(1, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let mut b = zoom::model::SpecBuilder::new("solo");
    b.analysis("Only");
    b.from_input("Only");
    b.to_output("Only");
    ctl.register_workflow(b.build().unwrap()).unwrap();
    let err = ctl
        .set_policy(
            "alice",
            Some(VisibilityPolicy {
                hidden_modules: vec!["Only".to_string()],
                hidden_workflows: vec![],
            }),
            None,
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("unsatisfiable"), "{err}");
}

/// View-returning requests hand a restricted tenant the effective (meet)
/// id — the id it holds is already safe to query with.
#[test]
fn view_registration_returns_the_effective_view() {
    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (sid, admin_vid, rid) = load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec!["M5".to_string()],
            hidden_workflows: vec![],
        }),
        None,
    )
    .unwrap();

    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    // Alice re-requests the admin view: she gets the privacy meet back,
    // not the admin id.
    let got = alice.admin_view(sid).unwrap();
    assert_ne!(got, admin_vid);
    // And querying with it answers — the substituted view is real.
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    let res = alice.deep_provenance(rid, got, finals[0]).unwrap();
    assert!(res.tuples() > 0);

    // Local-facade equivalence: the daemon's answer equals what the
    // in-process facade answers for the same policy.
    let mut local = Zoom::new();
    let lsid = local.register_workflow(spec.clone()).unwrap();
    let lvid = local.admin_view(lsid).unwrap();
    let lrid = local.load_run(lsid, figure2_run(&spec)).unwrap();
    local
        .set_policy(
            "alice",
            Some(VisibilityPolicy {
                hidden_modules: vec!["M5".to_string()],
                hidden_workflows: vec![],
            }),
        )
        .unwrap();
    let lres = local
        .deep_provenance_as("alice", lrid, lvid, finals[0])
        .unwrap();
    assert_eq!(lres.rows, res.rows);
}

/// Every query kind, as one tenant, through either facade; errors as
/// their rendered strings so both facades compare byte-for-byte.
trait TenantFacade {
    fn visible(&mut self, run: RunId, view: ViewId) -> Answer<Vec<DataId>>;
    fn finals(&mut self, run: RunId) -> Answer<Vec<DataId>>;
    fn deep(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ProvenanceResult>;
    fn immediate(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ImmediateAnswer>;
    fn dependents(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<Vec<DataId>>;
    fn between(&mut self, run: RunId, view: ViewId, ends: Ends) -> Answer<Vec<DataId>>;
    fn batch(&mut self, queries: &[(RunId, ViewId, DataId)]) -> Vec<Answer<ProvenanceResult>>;
}

type Answer<T> = Result<T, String>;
type Ends = (Option<StepId>, Option<StepId>);

/// The in-process facade's `*_as` surface for one tenant.
struct AsTenant<'a>(&'a Zoom, &'a str);

impl TenantFacade for AsTenant<'_> {
    fn visible(&mut self, run: RunId, view: ViewId) -> Answer<Vec<DataId>> {
        self.0
            .visible_data_as(self.1, run, view)
            .map_err(|e| e.to_string())
    }
    fn finals(&mut self, run: RunId) -> Answer<Vec<DataId>> {
        self.0
            .final_outputs_as(self.1, run)
            .map_err(|e| e.to_string())
    }
    fn deep(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ProvenanceResult> {
        let res = self.0.deep_provenance_as(self.1, run, view, d);
        res.map_err(|e| e.to_string())
    }
    fn immediate(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ImmediateAnswer> {
        let res = self.0.immediate_provenance_as(self.1, run, view, d);
        res.map_err(|e| e.to_string())
    }
    fn dependents(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<Vec<DataId>> {
        let res = self.0.dependents_of_as(self.1, run, view, d);
        res.map_err(|e| e.to_string())
    }
    fn between(&mut self, run: RunId, view: ViewId, (from, to): Ends) -> Answer<Vec<DataId>> {
        let res = self.0.data_between_as(self.1, run, view, from, to);
        res.map_err(|e| e.to_string())
    }
    fn batch(&mut self, queries: &[(RunId, ViewId, DataId)]) -> Vec<Answer<ProvenanceResult>> {
        let answers = self.0.query_batch_as(self.1, queries).into_iter();
        answers.map(|a| a.map_err(|e| e.to_string())).collect()
    }
}

impl TenantFacade for RemoteZoom {
    fn visible(&mut self, run: RunId, view: ViewId) -> Answer<Vec<DataId>> {
        self.visible_data(run, view).map_err(|e| e.to_string())
    }
    fn finals(&mut self, run: RunId) -> Answer<Vec<DataId>> {
        self.final_outputs(run).map_err(|e| e.to_string())
    }
    fn deep(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ProvenanceResult> {
        self.deep_provenance(run, view, d)
            .map_err(|e| e.to_string())
    }
    fn immediate(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<ImmediateAnswer> {
        self.immediate_provenance(run, view, d)
            .map_err(|e| e.to_string())
    }
    fn dependents(&mut self, run: RunId, view: ViewId, d: DataId) -> Answer<Vec<DataId>> {
        self.dependents_of(run, view, d).map_err(|e| e.to_string())
    }
    fn between(&mut self, run: RunId, view: ViewId, (from, to): Ends) -> Answer<Vec<DataId>> {
        self.data_between(run, view, from, to)
            .map_err(|e| e.to_string())
    }
    fn batch(&mut self, queries: &[(RunId, ViewId, DataId)]) -> Vec<Answer<ProvenanceResult>> {
        let answers = self
            .query_batch(queries)
            .expect("the batch itself is answered");
        answers
            .into_iter()
            .map(|a| a.map_err(|e| e.to_string()))
            .collect()
    }
}

/// One transcript line per query: every kind over every `(run, view)`
/// target and probe, then one mixed batch.
fn gate_transcript(
    f: &mut impl TenantFacade,
    targets: &[(RunId, ViewId)],
    probes: &[DataId],
    ends: &[Ends],
    batch: &[(RunId, ViewId, DataId)],
) -> Vec<String> {
    let mut t = Vec::new();
    for &(run, view) in targets {
        t.push(format!("{run} visible: {:?}", f.visible(run, view)));
        t.push(format!("{run} finals: {:?}", f.finals(run)));
        for &d in probes {
            t.push(format!("{run} deep {d}: {:?}", f.deep(run, view, d)));
            t.push(format!("{run} imm {d}: {:?}", f.immediate(run, view, d)));
            t.push(format!("{run} deps {d}: {:?}", f.dependents(run, view, d)));
        }
        for &e in ends {
            t.push(format!(
                "{run} between {e:?}: {:?}",
                f.between(run, view, e)
            ));
        }
    }
    for (q, a) in batch.iter().zip(f.batch(batch)) {
        t.push(format!("batch {q:?}: {a:?}"));
    }
    t
}

/// Cross-facade gate parity: the same specs, runs and policy (one
/// concealed module, one hidden workflow) loaded into a `Zoom` and a
/// 2-shard daemon answer the restricted tenant byte-identically for every
/// query kind — allowed, denied, absent and hidden targets alike.
#[test]
fn tenant_gate_answers_alike_in_process_and_over_the_wire() {
    let (phylo, hidden_wf) = (phylogenomic(), provenance_challenge());
    let logs = [
        (0, EventLog::from_run(&figure2_run(&phylo), &phylo)),
        (
            1,
            EventLog::from_run(&provenance_challenge_run(&hidden_wf), &hidden_wf),
        ),
        (0, EventLog::from_run(&figure2_run(&phylo), &phylo)),
    ];
    let policy = VisibilityPolicy {
        hidden_modules: vec!["M5".to_string()],
        hidden_workflows: vec![hidden_wf.name().to_string()],
    };

    let mut local = Zoom::new();
    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let mut views = Vec::new();
    for spec in [&phylo, &hidden_wf] {
        let sid = local.register_workflow(spec.clone()).unwrap();
        assert_eq!(ctl.register_workflow(spec.clone()).unwrap(), sid);
        let vid = local.admin_view(sid).unwrap();
        assert_eq!(ctl.admin_view(sid).unwrap(), vid);
        views.push((sid, vid));
    }
    let mut targets = Vec::new();
    for (which, log) in &logs {
        let (sid, vid) = views[*which];
        let rid = local.load_log(sid, log).unwrap();
        assert_eq!(ctl.load_log(sid, log).unwrap(), rid);
        targets.push((rid, vid));
    }
    local.set_policy("alice", Some(policy.clone())).unwrap();
    ctl.set_policy("alice", Some(policy), None).unwrap();

    let (visible_run, admin) = targets[0];
    let hidden_run = targets[1].0;
    let absent_run = RunId(99);
    targets.push((absent_run, admin));
    // A datum present in the run but concealed from alice, and one that
    // never existed.
    let concealed = local.visible_data_as("alice", visible_run, admin).unwrap();
    let hidden_datum = local
        .visible_data(visible_run, admin)
        .unwrap()
        .into_iter()
        .find(|d| !concealed.contains(d))
        .expect("hiding M5 conceals at least one datum");
    let final_out = local.final_outputs(visible_run).unwrap()[0];
    let probes = [DataId(1), final_out, hidden_datum, DataId(99_999)];
    let ends: Vec<Ends> = vec![
        (None, Some(StepId(1))),
        (Some(StepId(1)), Some(StepId(2))),
        (Some(StepId(2)), None),
        (None, None),
    ];
    let batch = [
        (visible_run, admin, final_out),
        (hidden_run, targets[1].1, DataId(1)),
        (targets[2].0, admin, hidden_datum),
        (absent_run, admin, DataId(1)),
    ];

    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let in_process = gate_transcript(
        &mut AsTenant(&local, "alice"),
        &targets,
        &probes,
        &ends,
        &batch,
    );
    let over_wire = gate_transcript(&mut alice, &targets, &probes, &ends, &batch);
    assert_eq!(in_process.len(), over_wire.len());
    for (a, b) in in_process.iter().zip(&over_wire) {
        assert_eq!(a, b, "the facades' tenant gates disagree");
    }

    // The denied and concealed forms render as absence, and the batch
    // mixes answered slots with the denied one.
    let answers = AsTenant(&local, "alice").batch(&batch);
    assert!(answers[0].is_ok());
    assert_eq!(answers[1], Err(format!("{hidden_run} not found")));
    assert_eq!(
        answers[2],
        Err(format!("data object {hidden_datum} not found in run"))
    );
    assert_eq!(answers[3], Err(format!("{absent_run} not found")));
}
