//! Live observability for fault-injection campaigns.
//!
//! A [`Campaign`] is a thread-safe observer the campaign runner feeds one
//! [`InjectionRecord`] per injected run. It
//!
//! * streams every outcome into a metrics registry
//!   (`osiris_campaign_outcomes_total{policy,component,model,outcome}` plus
//!   run-length and recovery-latency histograms), so campaign results ride
//!   the same Prometheus/JSON exporters as the kernel counters;
//! * keeps a component × policy outcome matrix and prints it live —
//!   Table II/III-style — with a progress line as runs complete;
//! * re-prints the flight-recorder tail of the first few runs that ended
//!   in an *uncontrolled crash* (the black-box dump of PR 2), which is
//!   exactly the evidence needed to debug a survivability regression;
//! * renders a final `campaign_report.json` document with the matrix and
//!   the full per-injection record list.
//!
//! Progress and dumps go to **stderr**; stdout stays reserved for the
//! deterministic table output the CI diff gates compare.

use std::collections::BTreeMap;
use std::sync::Mutex;

use osiris_axiom::{AxiomConfig, AxiomEvent, AxiomLog, AxiomRecord, OutcomeCode};
use osiris_metrics::MetricsHandle;
use osiris_trace::{HistSummary, Json};

use crate::{FaultKind, FaultModel, Outcome, SiteId, Tally};

/// Maps a campaign [`Outcome`] onto the axiom's compact outcome vocabulary
/// (`Quarantined` collapses into `Degraded` — both are "survived benched").
pub fn outcome_code(outcome: Outcome) -> OutcomeCode {
    match outcome {
        Outcome::Pass => OutcomeCode::Recovered,
        Outcome::Fail => OutcomeCode::Failed,
        Outcome::Degraded | Outcome::Quarantined => OutcomeCode::Degraded,
        Outcome::Shutdown => OutcomeCode::ControlledShutdown,
        Outcome::Crash => OutcomeCode::UncontrolledCrash,
    }
}

/// Digest identifying an injection *site* (component, site path, fault
/// kind) — deliberately excluding the policy, so the axioms of two
/// campaigns that differ only in policy align run-for-run and
/// `osiris_axiom::bisect` lands on the first run whose *outcome* diverged.
pub fn site_digest(site: &SiteId, kind: FaultKind) -> u64 {
    let d = osiris_axiom::fnv1a_str(&site.component);
    let d = osiris_axiom::fnv1a(d, site.site.as_bytes());
    osiris_axiom::fnv1a(d, kind_label(kind).as_bytes())
}

/// 128-bit injection-site digest: the 64-bit [`site_digest`] in the low
/// lane plus an independent FNV lane (different seed, reversed fold order)
/// in the high lane. The forge keys its coverage cells by this value; at
/// 128 bits a collision between two distinct (component, site, kind)
/// triples would need ~2^64 sites, so cells never alias.
pub fn site_digest128(site: &SiteId, kind: FaultKind) -> u128 {
    // Second lane: FNV offset basis perturbed by the 64-bit golden ratio,
    // folding the fields in the opposite order — the lanes share no state.
    const LANE2_SEED: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;
    let hi = osiris_axiom::fnv1a(LANE2_SEED, kind_label(kind).as_bytes());
    let hi = osiris_axiom::fnv1a(hi, site.site.as_bytes());
    let hi = osiris_axiom::fnv1a(hi, site.component.as_bytes());
    ((hi as u128) << 64) | site_digest(site, kind) as u128
}

/// Short label for a fault model, used in metrics labels and reports.
pub fn model_label(model: FaultModel) -> &'static str {
    match model {
        FaultModel::FailStop => "fail-stop",
        FaultModel::TransientFailStop => "transient-fail-stop",
        FaultModel::FullEdfi => "full-edfi",
        FaultModel::FailSilent => "fail-silent",
        FaultModel::DuringRecovery => "during-recovery",
        FaultModel::DoubleFault => "double-fault",
    }
}

/// Short label for a fault kind, used in metrics labels and reports.
pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash => "crash",
        FaultKind::Hang => "hang",
        FaultKind::BranchFlip => "branch-flip",
        FaultKind::ValueCorrupt(_) => "value-corrupt",
        FaultKind::Stall(_) => "stall",
        FaultKind::ReplyDrop => "reply-drop",
        FaultKind::ReplyCorrupt => "reply-corrupt",
    }
}

/// The recovery action a run's kernel metrics say dominated it: what the
/// system actually *did* about the injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryActionTag {
    /// Rollback + error virtualization.
    Rollback,
    /// Fresh (stateless) restart.
    Fresh,
    /// Restart keeping crash-time state (naive).
    Naive,
    /// Keep-state restart of a quiescent component the watchdog declared
    /// dead (committed transaction, lost or tampered reply).
    Quiescent,
    /// Controlled shutdown.
    Shutdown,
    /// No recovery machinery engaged (fault never fired, or fail-silent).
    None,
}

impl RecoveryActionTag {
    /// Derives the tag from a run's recovery counters, in the priority
    /// order rollback > fresh > quiescent > naive > shutdown.
    pub fn from_counts(
        rollback: u64,
        fresh: u64,
        quiescent: u64,
        naive: u64,
        shutdowns: u64,
    ) -> Self {
        if rollback > 0 {
            RecoveryActionTag::Rollback
        } else if fresh > 0 {
            RecoveryActionTag::Fresh
        } else if quiescent > 0 {
            RecoveryActionTag::Quiescent
        } else if naive > 0 {
            RecoveryActionTag::Naive
        } else if shutdowns > 0 {
            RecoveryActionTag::Shutdown
        } else {
            RecoveryActionTag::None
        }
    }

    /// Short label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryActionTag::Rollback => "rollback",
            RecoveryActionTag::Fresh => "fresh",
            RecoveryActionTag::Naive => "naive",
            RecoveryActionTag::Quiescent => "quiescent",
            RecoveryActionTag::Shutdown => "shutdown",
            RecoveryActionTag::None => "none",
        }
    }
}

/// MTTR decomposition of a run's recoveries, joined from its axiom
/// control-plane records: how the recovery time splits into the *detect*
/// leg (crash/hang capture → RS decision, covering notification and policy
/// evaluation) and the *execute* leg (the charged rollback/restore/replay
/// work), plus the re-drive and fallback churn along the way.
///
/// Derived offline by [`critical_path`] — a pure fold over
/// [`AxiomRecord`]s, so any retained axiom (live kernel, serialized file,
/// replayed log) yields the same breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Completed recoveries (`RecoveryDone` events).
    pub recoveries: u64,
    /// Σ cycles from crash/hang capture to the RS's `RecoveryDecision`.
    pub detect_cycles: u64,
    /// Σ cycles charged to recovery execution (`RecoveryDone.cycles`:
    /// rollback/restore, state replay, reconnection).
    pub execute_cycles: u64,
    /// Σ end-to-end cycles, capture → `RecoveryDone`.
    pub total_cycles: u64,
    /// Interrupted recovery intents re-driven through a restarted RS.
    pub intent_replays: u64,
    /// Recovery phases degraded along the fallback chain.
    pub fallbacks: u64,
}

/// Folds an axiom record stream into its recovery [`CriticalPath`].
///
/// Captures (`Crash` / `HangDetected`) open a pending recovery per
/// component; the matching `RecoveryDecision` closes the detect leg and
/// the matching `RecoveryDone` closes the whole path. Unmatched captures
/// (run ended mid-recovery, controlled shutdown) contribute nothing —
/// the decomposition only accounts for recoveries that completed.
pub fn critical_path(records: &[AxiomRecord]) -> CriticalPath {
    let mut cp = CriticalPath::default();
    // Pending per-component timestamps, indexed by component id.
    let mut captured: BTreeMap<u8, u64> = BTreeMap::new();
    let mut decided: BTreeMap<u8, u64> = BTreeMap::new();
    for r in records {
        match r.event {
            AxiomEvent::Crash { comp } | AxiomEvent::HangDetected { comp } => {
                // A second capture before the decision (e.g. a crash of an
                // already-hung component) keeps the earliest timestamp:
                // the path starts when the system first lost the service.
                captured.entry(comp).or_insert(r.now);
            }
            AxiomEvent::RecoveryDecision { comp, .. } => {
                if let Some(t0) = captured.get(&comp) {
                    cp.detect_cycles += r.now.saturating_sub(*t0);
                }
                decided.insert(comp, r.now);
            }
            AxiomEvent::RecoveryDone { comp, cycles } => {
                cp.recoveries += 1;
                cp.execute_cycles += cycles;
                if let Some(t0) = captured.remove(&comp) {
                    cp.total_cycles += r.now.saturating_sub(t0);
                }
                decided.remove(&comp);
            }
            AxiomEvent::IntentReplayed { .. } => cp.intent_replays += 1,
            AxiomEvent::RecoveryFallback { .. } => cp.fallbacks += 1,
            _ => {}
        }
    }
    cp
}

impl CriticalPath {
    /// The breakdown as an ordered JSON object (embedded per injection in
    /// `campaign_report.json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("recoveries", Json::UInt(self.recoveries)),
            ("detect_cycles", Json::UInt(self.detect_cycles)),
            ("execute_cycles", Json::UInt(self.execute_cycles)),
            ("total_cycles", Json::UInt(self.total_cycles)),
            ("intent_replays", Json::UInt(self.intent_replays)),
            ("fallbacks", Json::UInt(self.fallbacks)),
        ])
    }
}

/// Joins one finished run's observability artifacts into its attribution
/// fields: the recovery [`CriticalPath`] from the run's axiom records and
/// the end-to-end request-latency split (clean / crossed-a-recovery) from
/// its metrics snapshot. Missing artifacts degrade to zeros: an empty
/// axiom yields an all-zero path, an absent latency family empty digests.
pub fn run_attribution(
    axiom: &[AxiomRecord],
    snapshot: &osiris_metrics::MetricsSnapshot,
) -> (CriticalPath, HistSummary, HistSummary) {
    let latency = |overlap: &str| match snapshot
        .find("osiris_span_latency_cycles", &[("overlap", overlap)])
    {
        Some(osiris_metrics::SeriesValue::Hist(h)) => h.summary(),
        _ => HistSummary::default(),
    };
    (critical_path(axiom), latency("none"), latency("recovery"))
}

/// A latency digest as JSON: the quantile fields the campaign report
/// carries per injection for the request-latency split.
fn latency_json(h: &HistSummary) -> Json {
    Json::obj([
        ("count", Json::UInt(h.count)),
        ("p50", Json::UInt(h.p50)),
        ("p90", Json::UInt(h.p90)),
        ("p99", Json::UInt(h.p99)),
        ("p999", Json::UInt(h.p999)),
        ("max", Json::UInt(h.max)),
    ])
}

/// Everything the campaign keeps about one injected run.
#[derive(Clone, Debug)]
pub struct InjectionRecord {
    /// Where the fault was injected.
    pub site: SiteId,
    /// The fault injected.
    pub kind: FaultKind,
    /// Recovery policy the run executed under.
    pub policy: String,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Dominant recovery action taken by the run.
    pub action: RecoveryActionTag,
    /// Virtual cycles the run took end to end.
    pub run_cycles: u64,
    /// Recoveries executed during the run.
    pub recoveries: u64,
    /// Virtual cycles spent in recovery phases.
    pub recovery_cycles: u64,
    /// MTTR decomposition of the run's recoveries, joined from its axiom
    /// (all-zero when the run retained no axiom or never recovered).
    pub critical_path: CriticalPath,
    /// End-to-end request-latency digest for spans that never overlapped a
    /// recovery (`osiris_span_latency_cycles{overlap="none"}`).
    pub span_latency_clean: HistSummary,
    /// Latency digest for spans that crossed a crash capture or recovery
    /// (`osiris_span_latency_cycles{overlap="recovery"}`).
    pub span_latency_recovery: HistSummary,
    /// Flight-recorder tail of the run, carried only for uncontrolled
    /// crashes (the black-box dump).
    pub blackbox: Option<String>,
}

struct State {
    done: usize,
    /// (policy, component) → outcome tally.
    matrix: BTreeMap<(String, String), Tally>,
    /// Records by *plan index*, not completion order: workers on any
    /// thread count land their record in the same slot, so the record
    /// list — and the axiom chain derived from it — is deterministic.
    slots: Vec<Option<InjectionRecord>>,
    /// Next slot for the sequential [`Campaign::record`] ingest path.
    next_seq: usize,
    blackbox_dumps: usize,
}

/// Folds the filled record slots, in slot order, into the campaign-level
/// axiom: one hash-chained `Injection` event per run, timestamped with the
/// run's virtual cycle count. Derived on demand rather than appended at
/// ingest time, so out-of-order completion under [`crate::run_parallel`]
/// cannot reorder the chain — two campaigns over the same plan can always
/// be bisected to the first diverging outcome.
fn derive_axiom(slots: &[Option<InjectionRecord>]) -> AxiomLog {
    let mut log = AxiomLog::new(AxiomConfig {
        enabled: true,
        capacity: slots.len().max(1),
    });
    for (run, rec) in slots.iter().enumerate() {
        let Some(rec) = rec else { continue };
        log.append(
            rec.run_cycles,
            AxiomEvent::Injection {
                run: run as u32,
                site_digest: site_digest(&rec.site, rec.kind),
                outcome: outcome_code(rec.outcome),
            },
        );
    }
    log
}

/// Thread-safe live observer for a fault-injection campaign.
pub struct Campaign {
    label: String,
    model: FaultModel,
    total: usize,
    progress_every: usize,
    max_blackbox_dumps: usize,
    live: bool,
    metrics: MetricsHandle,
    inner: Mutex<State>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("label", &self.label)
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Creates an observer for a campaign of `total` planned runs. Progress
    /// prints roughly ten times over the campaign's lifetime.
    pub fn new(label: &str, model: FaultModel, total: usize) -> Campaign {
        Campaign {
            label: label.to_string(),
            model,
            total,
            progress_every: (total / 10).max(1),
            max_blackbox_dumps: 3,
            live: true,
            metrics: MetricsHandle::default(),
            inner: Mutex::new(State {
                done: 0,
                matrix: BTreeMap::new(),
                slots: Vec::new(),
                next_seq: 0,
                blackbox_dumps: 0,
            }),
        }
    }

    /// Suppresses the live progress matrix and black-box dumps (tests).
    pub fn quiet(mut self) -> Campaign {
        self.live = false;
        self
    }

    /// Streams campaign outcomes into `handle` instead of a private
    /// registry — e.g. the OS run's own registry, so one export carries
    /// both kernel and campaign series.
    pub fn with_metrics(mut self, handle: MetricsHandle) -> Campaign {
        self.metrics = handle;
        self
    }

    /// The registry campaign series are streamed into.
    pub fn metrics_handle(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Ingests one completed run into the next sequential slot: updates
    /// the matrix, streams the registry series, prints progress at
    /// checkpoints, and dumps the black box of the first few uncontrolled
    /// crashes.
    pub fn record(&self, rec: InjectionRecord) {
        let run = {
            let mut st = self.inner.lock().expect("campaign lock");
            let run = st.next_seq;
            st.next_seq += 1;
            run
        };
        self.record_at(run, rec);
    }

    /// Ingests the completed run with plan index `run` into its slot.
    /// Campaign runners hand each [`crate::run_parallel`] worker its job
    /// index and record through this, so the record list, the matrix and
    /// the derived axiom chain are identical on every thread count.
    pub fn record_at(&self, run: usize, rec: InjectionRecord) {
        let model = model_label(self.model);
        self.metrics
            .counter(
                "osiris_campaign_outcomes_total",
                "Fault-injection runs by policy, component, model and outcome",
                &[
                    ("policy", &rec.policy),
                    ("component", &rec.site.component),
                    ("model", model),
                    ("outcome", &rec.outcome.to_string()),
                ],
            )
            .inc();
        self.metrics
            .hist(
                "osiris_campaign_run_cycles",
                "Virtual cycles per injected run",
                &[("policy", &rec.policy), ("model", model)],
            )
            .observe(rec.run_cycles);
        if rec.recoveries > 0 {
            self.metrics
                .hist(
                    "osiris_campaign_recovery_cycles",
                    "Virtual cycles spent in recovery per run that recovered",
                    &[("policy", &rec.policy), ("model", model)],
                )
                .observe(rec.recovery_cycles);
        }

        let mut st = self.inner.lock().expect("campaign lock");
        if st.slots.len() <= run {
            st.slots.resize_with(run + 1, || None);
        }
        assert!(st.slots[run].is_none(), "run {run} recorded twice");
        st.next_seq = st.next_seq.max(run + 1);
        st.matrix
            .entry((rec.policy.clone(), rec.site.component.clone()))
            .or_default()
            .add(rec.outcome);
        st.done += 1;
        let crash_dump = if self.live
            && rec.outcome == Outcome::Crash
            && rec.blackbox.is_some()
            && st.blackbox_dumps < self.max_blackbox_dumps
        {
            st.blackbox_dumps += 1;
            rec.blackbox.clone()
        } else {
            None
        };
        let at_checkpoint = st.done.is_multiple_of(self.progress_every) || st.done == self.total;
        let progress = if self.live && at_checkpoint {
            Some((st.done, render_matrix_locked(&st.matrix)))
        } else {
            None
        };
        st.slots[run] = Some(rec);
        drop(st);

        if let Some(dump) = crash_dump {
            eprintln!(
                "[campaign {}] uncontrolled crash — flight-recorder tail:\n{}",
                self.label, dump
            );
        }
        if let Some((done, matrix)) = progress {
            eprintln!(
                "[campaign {}] {}/{} runs ({})\n{}",
                self.label, done, self.total, model, matrix
            );
        }
    }

    /// Runs completed so far.
    pub fn done(&self) -> usize {
        self.inner.lock().expect("campaign lock").done
    }

    /// The component × outcome matrix rendered as text, one block row per
    /// (policy, component) pair.
    pub fn render_matrix(&self) -> String {
        render_matrix_locked(&self.inner.lock().expect("campaign lock").matrix)
    }

    /// A clone of every record ingested so far, in plan order.
    pub fn records(&self) -> Vec<InjectionRecord> {
        self.inner
            .lock()
            .expect("campaign lock")
            .slots
            .iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// The campaign axiom's records: one chained `Injection` event per
    /// ingested run, in plan order (derived from the record slots, so
    /// completion order never reorders the chain).
    pub fn axiom_records(&self) -> Vec<AxiomRecord> {
        derive_axiom(&self.inner.lock().expect("campaign lock").slots)
            .records()
            .to_vec()
    }

    /// The campaign axiom serialized to its crash-consistent format
    /// (feed two of these to `osiris_axiom::bisect` — or the
    /// `axiom_bisect` tool — to find the first diverging run).
    pub fn axiom_bytes(&self) -> Vec<u8> {
        derive_axiom(&self.inner.lock().expect("campaign lock").slots).to_bytes()
    }

    /// The final campaign report document (`campaign_report.json`).
    pub fn report_json(&self) -> Json {
        let st = self.inner.lock().expect("campaign lock");
        let tally_fields = |t: &Tally| {
            [
                ("pass", Json::UInt(t.pass as u64)),
                ("fail", Json::UInt(t.fail as u64)),
                ("degraded", Json::UInt(t.degraded as u64)),
                ("quarantined", Json::UInt(t.quarantined as u64)),
                ("shutdown", Json::UInt(t.shutdown as u64)),
                ("crash", Json::UInt(t.crash as u64)),
                ("survivability_pct", Json::Num(t.survivability())),
            ]
        };
        let matrix: Vec<_> = st
            .matrix
            .iter()
            .map(|((policy, component), t)| {
                let mut fields = vec![
                    ("policy", Json::Str(policy.clone())),
                    ("component", Json::Str(component.clone())),
                ];
                fields.extend(tally_fields(t));
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            })
            .collect();
        // The all-policy grand total: the same columns as the per-row
        // tallies (including degraded/quarantined), so the JSON report and
        // the rendered matrix footer agree.
        let mut totals = Tally::default();
        for t in st.matrix.values() {
            totals.pass += t.pass;
            totals.fail += t.fail;
            totals.degraded += t.degraded;
            totals.quarantined += t.quarantined;
            totals.shutdown += t.shutdown;
            totals.crash += t.crash;
        }
        let records: Vec<&InjectionRecord> = st.slots.iter().flatten().collect();
        Json::obj([
            ("campaign", Json::Str(self.label.clone())),
            ("model", Json::Str(model_label(self.model).to_string())),
            ("planned_runs", Json::UInt(self.total as u64)),
            ("completed_runs", Json::UInt(st.done as u64)),
            ("matrix", Json::Arr(matrix)),
            ("totals", Json::obj(tally_fields(&totals))),
            (
                "records",
                Json::arr(&records, |r| {
                    Json::obj([
                        ("component", Json::Str(r.site.component.clone())),
                        ("site", Json::Str(r.site.site.clone())),
                        ("fault", Json::Str(kind_label(r.kind).to_string())),
                        ("policy", Json::Str(r.policy.clone())),
                        ("outcome", Json::Str(r.outcome.to_string())),
                        ("action", Json::Str(r.action.label().to_string())),
                        ("run_cycles", Json::UInt(r.run_cycles)),
                        ("recoveries", Json::UInt(r.recoveries)),
                        ("recovery_cycles", Json::UInt(r.recovery_cycles)),
                        ("critical_path", r.critical_path.to_json()),
                        (
                            "span_latency",
                            Json::obj([
                                ("none", latency_json(&r.span_latency_clean)),
                                ("recovery", latency_json(&r.span_latency_recovery)),
                            ]),
                        ),
                    ])
                }),
            ),
        ])
    }
}

fn render_matrix_locked(matrix: &BTreeMap<(String, String), Tally>) -> String {
    let mut out = format!(
        "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>7}\n",
        "policy",
        "component",
        "pass",
        "fail",
        "degraded",
        "quarantined",
        "shutdown",
        "crash",
        "surv%"
    );
    let mut per_policy: BTreeMap<&str, Tally> = BTreeMap::new();
    for ((policy, component), t) in matrix {
        out.push_str(&format!(
            "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>6.1}%\n",
            policy,
            component,
            t.pass,
            t.fail,
            t.degraded,
            t.quarantined,
            t.shutdown,
            t.crash,
            t.survivability()
        ));
        let agg = per_policy.entry(policy).or_default();
        agg.pass += t.pass;
        agg.fail += t.fail;
        agg.degraded += t.degraded;
        agg.quarantined += t.quarantined;
        agg.shutdown += t.shutdown;
        agg.crash += t.crash;
    }
    let mut total = Tally::default();
    for (policy, t) in per_policy {
        out.push_str(&format!(
            "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>6.1}%\n",
            policy,
            "(all)",
            t.pass,
            t.fail,
            t.degraded,
            t.quarantined,
            t.shutdown,
            t.crash,
            t.survivability()
        ));
        total.pass += t.pass;
        total.fail += t.fail;
        total.degraded += t.degraded;
        total.quarantined += t.quarantined;
        total.shutdown += t.shutdown;
        total.crash += t.crash;
    }
    // All-policy grand total, with the full column set (including the
    // degraded/quarantined ladder outcomes), matching the `totals` object
    // in `campaign_report.json`.
    out.push_str(&format!(
        "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>6.1}%\n",
        "(total)",
        "",
        total.pass,
        total.fail,
        total.degraded,
        total.quarantined,
        total.shutdown,
        total.crash,
        total.survivability()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteKindTag;

    fn rec(policy: &str, component: &str, outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            site: SiteId {
                component: component.into(),
                site: "s".into(),
                kind: SiteKindTag::Block,
            },
            kind: FaultKind::Crash,
            policy: policy.into(),
            outcome,
            action: RecoveryActionTag::Rollback,
            run_cycles: 1000,
            recoveries: 1,
            recovery_cycles: 50,
            critical_path: CriticalPath {
                recoveries: 1,
                detect_cycles: 10,
                execute_cycles: 40,
                total_cycles: 50,
                intent_replays: 0,
                fallbacks: 0,
            },
            span_latency_clean: HistSummary::default(),
            span_latency_recovery: HistSummary::default(),
            blackbox: None,
        }
    }

    #[test]
    fn matrix_and_registry_accumulate() {
        let c = Campaign::new("t", FaultModel::FailStop, 3).quiet();
        c.record(rec("enhanced", "pm", Outcome::Pass));
        c.record(rec("enhanced", "pm", Outcome::Fail));
        c.record(rec("naive", "vfs", Outcome::Crash));
        assert_eq!(c.done(), 3);
        let m = c.render_matrix();
        assert!(m.contains("enhanced"), "{m}");
        assert!(m.contains("(all)"), "{m}");
        let snap = c.metrics_handle().snapshot();
        match snap.find(
            "osiris_campaign_outcomes_total",
            &[
                ("policy", "enhanced"),
                ("component", "pm"),
                ("model", "fail-stop"),
                ("outcome", "pass"),
            ],
        ) {
            Some(osiris_metrics::SeriesValue::Counter(1)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn quiet_campaign_dumps_no_black_box() {
        let c = Campaign::new("t", FaultModel::FailStop, 1).quiet();
        let mut crash = rec("naive", "vfs", Outcome::Crash);
        crash.blackbox = Some("flight-recorder tail".into());
        c.record(crash);
        assert_eq!(c.done(), 1);
        assert_eq!(c.inner.lock().unwrap().blackbox_dumps, 0);
    }

    #[test]
    fn report_json_carries_matrix_and_records() {
        let c = Campaign::new("t", FaultModel::FullEdfi, 2).quiet();
        c.record(rec("enhanced", "pm", Outcome::Pass));
        c.record(rec("enhanced", "ds", Outcome::Shutdown));
        let text = c.report_json().pretty();
        assert!(text.contains("\"model\": \"full-edfi\""));
        assert!(text.contains("\"completed_runs\": 2"));
        assert!(text.contains("\"component\": \"ds\""));
        assert!(text.contains("\"action\": \"rollback\""));
        // Each record carries its MTTR decomposition and latency split.
        assert!(text.contains("\"critical_path\""), "{text}");
        assert!(text.contains("\"detect_cycles\": 10"), "{text}");
        assert!(text.contains("\"span_latency\""), "{text}");
        assert!(text.contains("\"p999\""), "{text}");
    }

    #[test]
    fn critical_path_folds_capture_decide_done() {
        use osiris_axiom::ActionCode;
        let mut log = AxiomLog::new(AxiomConfig {
            enabled: true,
            capacity: 16,
        });
        // One crash recovery: captured at 100, decided at 130, done at 200
        // with 60 charged cycles; one replay and one fallback on the way.
        log.append(100, AxiomEvent::Crash { comp: 2 });
        log.append(
            130,
            AxiomEvent::RecoveryDecision {
                comp: 2,
                action: ActionCode::RollbackErrorReply,
            },
        );
        log.append(150, AxiomEvent::IntentReplayed { comp: 2 });
        log.append(
            160,
            AxiomEvent::RecoveryFallback {
                comp: 2,
                from: ActionCode::RollbackErrorReply,
                to: ActionCode::FreshRestart,
            },
        );
        log.append(
            200,
            AxiomEvent::RecoveryDone {
                comp: 2,
                cycles: 60,
            },
        );
        // A hang on another component that never resolves: contributes
        // nothing to the completed-path sums.
        log.append(300, AxiomEvent::HangDetected { comp: 3 });
        let cp = critical_path(log.records());
        assert_eq!(cp.recoveries, 1);
        assert_eq!(cp.detect_cycles, 30);
        assert_eq!(cp.execute_cycles, 60);
        assert_eq!(cp.total_cycles, 100);
        assert_eq!(cp.intent_replays, 1);
        assert_eq!(cp.fallbacks, 1);
        assert_eq!(critical_path(&[]), CriticalPath::default());
    }

    #[test]
    fn campaign_axiom_chains_and_bisects_on_outcome() {
        let a = Campaign::new("a", FaultModel::FailStop, 3).quiet();
        let b = Campaign::new("b", FaultModel::FailStop, 3).quiet();
        for c in [&a, &b] {
            c.record(rec("enhanced", "pm", Outcome::Pass));
            c.record(rec("pessimistic", "vfs", Outcome::Pass));
        }
        // Same plan, same outcomes so far: identical chains despite the
        // differing policies (the site digest excludes the policy).
        assert_eq!(a.axiom_bytes(), b.axiom_bytes());
        a.record(rec("enhanced", "ds", Outcome::Pass));
        b.record(rec("pessimistic", "ds", Outcome::Shutdown));
        let la = osiris_axiom::AxiomLog::from_bytes(&a.axiom_bytes()).expect("chain a");
        let lb = osiris_axiom::AxiomLog::from_bytes(&b.axiom_bytes()).expect("chain b");
        let div = osiris_axiom::bisect(la.records(), lb.records()).expect("diverged");
        assert_eq!(div.index, 2);
        match (div.a.expect("a rec").event, div.b.expect("b rec").event) {
            (
                AxiomEvent::Injection {
                    run: 2,
                    outcome: OutcomeCode::Recovered,
                    ..
                },
                AxiomEvent::Injection {
                    run: 2,
                    outcome: OutcomeCode::ControlledShutdown,
                    ..
                },
            ) => {}
            other => panic!("unexpected divergence: {other:?}"),
        }
    }

    #[test]
    fn action_tag_priority() {
        use RecoveryActionTag as T;
        assert_eq!(T::from_counts(1, 1, 0, 0, 1), T::Rollback);
        assert_eq!(T::from_counts(0, 2, 0, 1, 0), T::Fresh);
        assert_eq!(T::from_counts(0, 0, 2, 1, 0), T::Quiescent);
        assert_eq!(T::from_counts(0, 0, 0, 3, 0), T::Naive);
        assert_eq!(T::from_counts(0, 0, 0, 0, 1), T::Shutdown);
        assert_eq!(T::from_counts(0, 0, 0, 0, 0), T::None);
    }
}
