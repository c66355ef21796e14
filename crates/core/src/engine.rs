//! The epoch engine: the one owner of paper Alg. 1's loop contract.
//!
//! Alg. 1 is a single loop — while `C ≥ 0`: solve (8) → Alg. 2 RDCS →
//! train → pay → dual update (9). Its drivers (the experiment runner,
//! the served coordinator, the distributed coordinator, the in-process
//! reference run) differ only in where the epoch's context comes from
//! and how the training feedback arrives; the bookkeeping in between
//! lives here, behind a two-state machine:
//!
//! ```text
//!           select(Some(ctx))                     settle(report)
//!   idle ──────────────────────────► pending ─────────────────────────► idle
//!    │   policy.select → sanitize →          charge ledger → policy.observe
//!    │   floor-n fallback → clamp l_t        → cursor += 1
//!    └─ select(None): nobody available, the epoch passes, cursor += 1
//! ```
//!
//! Out-of-order calls and outcomes that do not fit the pending selection
//! are typed [`EngineError`]s, never panics, so a long-running service
//! can refuse a bad request and carry on. [`EpochEngine::settle`] is the
//! one check of an outcome: every driver hands it the report as it
//! arrived, and a refused report leaves the engine exactly as it was.

use std::fmt;

use fedl_json::{obj, read_field, ToJson, Value};
use fedl_sim::{BudgetLedger, EpochReport};
use fedl_telemetry::Telemetry;

use crate::objective::locator;
use crate::policy::{EpochContext, SelectionPolicy};

/// Why the engine refused a call.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `settle` with no selection awaiting its outcome.
    NothingPending,
    /// `select` or `snapshot` while `epoch`'s selection awaits its
    /// outcome.
    SelectionPending {
        /// The open epoch.
        epoch: usize,
    },
    /// `select` after the budget ran out (Alg. 1's `while C ≥ 0` ended).
    Exhausted,
    /// `settle` of an outcome for another epoch than the pending one.
    WrongEpoch {
        /// The pending epoch.
        expected: usize,
        /// The epoch the outcome names.
        got: usize,
    },
    /// `settle` of an outcome whose iteration count differs from the
    /// selected one, or whose survivors (`cohort`) and dropouts
    /// (`failed`) together are not exactly the selected cohort.
    WrongSelection {
        /// The pending epoch.
        epoch: usize,
    },
    /// `settle` of feedback that is not cohort-aligned or carries a
    /// non-finite or negative number.
    BadFeedback {
        /// The pending epoch.
        epoch: usize,
        /// Which rule the feedback broke.
        detail: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NothingPending => write!(f, "no selection is awaiting an outcome"),
            EngineError::SelectionPending { epoch } => {
                write!(f, "epoch {epoch} is selected and awaiting its outcome")
            }
            EngineError::Exhausted => write!(f, "the budget is exhausted"),
            EngineError::WrongEpoch { expected, got } => {
                write!(f, "the outcome is for epoch {got}, but epoch {expected} is pending")
            }
            EngineError::WrongSelection { epoch } => write!(
                f,
                "the outcome's cohort or iteration count does not match epoch {epoch}'s selection"
            ),
            EngineError::BadFeedback { epoch, detail } => {
                write!(f, "epoch {epoch}'s feedback is refused: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Post-selection hygiene for a raw policy decision: sort, dedup, drop
/// ids outside the availability set, fall back to the floor-`n` first
/// available clients when nothing survives, and clamp `l_t` to
/// `1..=50`. Policy bugs must not crash a driver; the per-policy tests
/// assert they don't happen. Each id is located by binary search when
/// `ctx.available` ascends (every driver builds it so), which keeps the
/// check logarithmic per cohort member at any population size.
pub fn sanitize_decision(
    ctx: &EpochContext,
    mut cohort: Vec<usize>,
    iterations: usize,
) -> (Vec<usize>, usize) {
    cohort.sort_unstable();
    cohort.dedup();
    let slot_of = locator(&ctx.available);
    cohort.retain(|&id| slot_of(id).is_some());
    if cohort.is_empty() {
        cohort = ctx.available.iter().copied().take(ctx.effective_n()).collect();
    }
    (cohort, iterations.clamp(1, 50))
}

/// The outcome rules of [`EpochEngine::settle`]. The ledger refuses a
/// negative or NaN charge by panicking and the policies fold every
/// column into their state, so no report reaches either unless each
/// number in it is usable.
fn check_outcome(pending: &PendingEpoch, report: &EpochReport) -> Result<(), EngineError> {
    let epoch = pending.ctx.epoch;
    if report.epoch != epoch {
        return Err(EngineError::WrongEpoch { expected: epoch, got: report.epoch });
    }
    if report.iterations != pending.iterations
        || !splits(&pending.cohort, &report.cohort, &report.failed)
    {
        return Err(EngineError::WrongSelection { epoch });
    }
    let bad = |detail| Err(EngineError::BadFeedback { epoch, detail });
    let columns = [
        report.per_client_iter_latency.len(),
        report.eta_hats.len(),
        report.grad_dot_delta.len(),
        report.local_losses.len(),
    ];
    if columns.iter().any(|&n| n != report.cohort.len()) {
        return bad("a per-client column is not aligned with the cohort");
    }
    let paid = |x: f64| x.is_finite() && x >= 0.0;
    if !paid(report.cost)
        || !paid(report.latency_secs)
        || !report.per_client_iter_latency.iter().all(|&t| paid(t))
    {
        return bad("a cost or latency is non-finite or negative");
    }
    let signals = [&report.eta_hats, &report.grad_dot_delta, &report.local_losses];
    if !report.global_loss_all.is_finite()
        || !signals.iter().all(|column| column.iter().all(|x| x.is_finite()))
    {
        return bad("a loss, η̂ or J·d is non-finite");
    }
    Ok(())
}

/// `true` when `survivors` and `failed` interleave to exactly
/// `selected`: each keeps the selection's order, they share no id, and
/// together they cover it. With nobody failed, `survivors == selected`.
fn splits(selected: &[usize], survivors: &[usize], failed: &[usize]) -> bool {
    let (mut s, mut f) = (survivors.iter().peekable(), failed.iter().peekable());
    survivors.len() + failed.len() == selected.len()
        && selected.iter().all(|id| s.next_if_eq(&id).is_some() || f.next_if_eq(&id).is_some())
}

/// What [`EpochEngine::select`] committed to, held until
/// [`EpochEngine::settle`] closes the epoch.
#[derive(Debug, Clone)]
pub struct PendingEpoch {
    /// The context the policy selected under.
    pub ctx: EpochContext,
    /// The sanitized cohort.
    pub cohort: Vec<usize>,
    /// The clamped iteration count `l_t`.
    pub iterations: usize,
}

/// Policy + budget ledger + epoch cursor + pending selection: the state
/// Alg. 1 threads through its loop, and the only code that charges the
/// ledger or calls the policy.
pub struct EpochEngine {
    policy: Box<dyn SelectionPolicy>,
    ledger: BudgetLedger,
    /// Kept so a restored ledger reports through the same handle.
    telemetry: Telemetry,
    next_epoch: usize,
    pending: Option<PendingEpoch>,
}

impl EpochEngine {
    /// An engine at epoch 0 driving `policy` against budget `C`.
    ///
    /// # Panics
    /// Panics on a non-positive budget, like [`BudgetLedger::new`].
    pub fn new(policy: Box<dyn SelectionPolicy>, budget: f64) -> Self {
        let ledger = BudgetLedger::new(budget);
        Self { policy, ledger, telemetry: Telemetry::disabled(), next_epoch: 0, pending: None }
    }

    /// Routes the ledger's events and `budget.*` metrics, and the
    /// policy's own metrics, to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.ledger.set_telemetry(telemetry.clone());
        self.policy.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The policy being driven.
    pub fn policy(&self) -> &dyn SelectionPolicy {
        self.policy.as_ref()
    }

    /// The budget ledger (read-only: only [`Self::settle`] charges it).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Remaining long-term budget.
    pub fn remaining(&self) -> f64 {
        self.ledger.remaining()
    }

    /// `true` once the budget is gone (Alg. 1 stops).
    pub fn exhausted(&self) -> bool {
        self.ledger.exhausted()
    }

    /// The epoch the next `select` decides, or the one awaiting `settle`.
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// The selection awaiting its outcome, if any.
    pub fn pending(&self) -> Option<&PendingEpoch> {
        self.pending.as_ref()
    }

    /// Decides the current epoch. `None` means nobody is available: the
    /// epoch passes untrained and the cursor advances. Otherwise the
    /// policy selects under `ctx`, the decision is sanitized and held as
    /// [`Self::pending`]; the returned pair is the cohort and `l_t`.
    pub fn select(
        &mut self,
        ctx: Option<EpochContext>,
    ) -> Result<Option<(Vec<usize>, usize)>, EngineError> {
        if let Some(pending) = &self.pending {
            return Err(EngineError::SelectionPending { epoch: pending.ctx.epoch });
        }
        if self.exhausted() {
            return Err(EngineError::Exhausted);
        }
        let Some(ctx) = ctx else {
            self.next_epoch += 1;
            return Ok(None);
        };
        let decision = self.policy.select(&ctx);
        let (cohort, iterations) = sanitize_decision(&ctx, decision.cohort, decision.iterations);
        self.pending = Some(PendingEpoch { ctx, cohort: cohort.clone(), iterations });
        Ok(Some((cohort, iterations)))
    }

    /// Closes the pending epoch with its realized outcome: charge the
    /// ledger, feed the policy, advance the cursor. Returns the context
    /// the epoch was selected under (for drivers that log estimated
    /// against realized columns).
    ///
    /// The outcome is checked before anything moves, in this order:
    /// [`EngineError::NothingPending`], [`EngineError::WrongEpoch`],
    /// [`EngineError::WrongSelection`], [`EngineError::BadFeedback`]. A
    /// refused outcome leaves the pending selection, ledger, cursor and
    /// policy as they were, so the right report can still close the
    /// epoch.
    pub fn settle(&mut self, report: &EpochReport) -> Result<EpochContext, EngineError> {
        let pending = self.pending.as_ref().ok_or(EngineError::NothingPending)?;
        check_outcome(pending, report)?;
        let pending = self.pending.take().expect("checked above");
        self.ledger.charge(report.cost);
        self.policy.observe(&pending.ctx, report);
        self.next_epoch += 1;
        Ok(pending.ctx)
    }

    /// The three checkpoint fields the engine owns — `next_epoch`,
    /// `ledger{initial,charges}`, `policy_state` — for the driver to
    /// place in its payload (docs/CHECKPOINT.md). Refused mid-epoch: a
    /// pending selection's fractional decision is in no snapshot, so
    /// only epoch boundaries restore bit-identically.
    pub fn snapshot(&self) -> Result<[(&'static str, Value); 3], EngineError> {
        if let Some(pending) = &self.pending {
            return Err(EngineError::SelectionPending { epoch: pending.ctx.epoch });
        }
        let ledger = obj(vec![
            ("initial", self.ledger.initial().to_json_value()),
            ("charges", self.ledger.history().to_vec().to_json_value()),
        ]);
        Ok([
            ("next_epoch", self.next_epoch.to_json_value()),
            ("ledger", ledger),
            ("policy_state", self.policy.snapshot_state()),
        ])
    }

    /// Restores the fields [`Self::snapshot`] wrote from a checkpoint
    /// `payload` holding them, into an engine built with the same policy
    /// kind and configuration (each caller's checkpoint stamp guarantees
    /// it). A field that does not fit is the caller's to wrap with the
    /// file it came from; after an error the engine may be half-restored:
    /// discard it.
    pub fn restore(&mut self, payload: &Value) -> Result<(), fedl_json::Error> {
        let next_epoch = read_field(payload, "next_epoch")?;
        let saved = payload.field("ledger")?;
        let mut ledger =
            BudgetLedger::restore(read_field(saved, "initial")?, read_field(saved, "charges")?)
                .map_err(|e| fedl_json::Error::msg(e.to_string()))?;
        ledger.set_telemetry(self.telemetry.clone());
        self.policy.restore_state(payload.field("policy_state")?)?;
        self.ledger = ledger;
        self.next_epoch = next_epoch;
        self.pending = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::ctx;
    use crate::policy::{PolicyKind, SelectionDecision};
    use crate::FedLConfig;

    /// Answers every epoch with one fixed, possibly broken decision.
    struct Scripted(SelectionDecision);

    impl SelectionPolicy for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn select(&mut self, _ctx: &EpochContext) -> SelectionDecision {
            self.0.clone()
        }
    }

    fn scripted(cohort: Vec<usize>, iterations: usize, budget: f64) -> EpochEngine {
        EpochEngine::new(Box::new(Scripted(SelectionDecision { cohort, iterations })), budget)
    }

    /// Deterministic feedback for `cohort`, priced from `ctx`.
    fn report_for(ctx: &EpochContext, cohort: &[usize], iterations: usize) -> EpochReport {
        let slot = |k: usize| ctx.available.iter().position(|&a| a == k).unwrap();
        let t = ctx.epoch as f32;
        EpochReport {
            epoch: ctx.epoch,
            cohort: cohort.to_vec(),
            iterations,
            latency_secs: iterations as f64,
            per_client_iter_latency: cohort.iter().map(|&k| ctx.true_latency[slot(k)]).collect(),
            cost: cohort.iter().map(|&k| ctx.costs[slot(k)]).sum(),
            eta_hats: cohort.iter().map(|&k| 0.1 + 0.8 / (1.0 + k as f32 + t)).collect(),
            global_loss_all: 2.0 / (1.0 + ctx.epoch as f64),
            global_loss_selected: 2.0 / (1.0 + ctx.epoch as f64),
            grad_dot_delta: cohort.iter().map(|&k| -0.5 / (1.0 + k as f32)).collect(),
            local_losses: cohort.iter().map(|&k| 2.0 / (1.0 + t + k as f32)).collect(),
            failed: Vec::new(),
        }
    }

    fn settle_pending(engine: &mut EpochEngine) {
        let p = engine.pending().expect("a selection is pending").clone();
        engine.settle(&report_for(&p.ctx, &p.cohort, p.iterations)).unwrap();
    }

    #[test]
    fn out_of_order_calls_are_typed_errors_never_panics() {
        let c = ctx(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 4.0, 2);
        let mut engine = scripted(vec![0, 1], 3, 4.0);
        let stray = report_for(&c, &[0], 1);
        assert_eq!(engine.settle(&stray).unwrap_err(), EngineError::NothingPending);
        assert!(engine.snapshot().is_ok(), "an idle engine snapshots");

        assert_eq!(engine.select(Some(c.clone())).unwrap(), Some((vec![0, 1], 3)));
        let pending = EngineError::SelectionPending { epoch: 0 };
        assert_eq!(engine.select(Some(c.clone())).unwrap_err(), pending, "second select");
        assert_eq!(engine.select(None).unwrap_err(), pending);
        assert_eq!(engine.snapshot().unwrap_err(), pending, "mid-epoch snapshot");

        settle_pending(&mut engine);
        assert_eq!((engine.next_epoch(), engine.ledger().epochs()), (1, 1));
        // Nobody available: the epoch passes and the cursor advances.
        assert_eq!(engine.select(None).unwrap(), None);
        assert_eq!(engine.next_epoch(), 2);
        // The final epoch may overshoot (Alg. 1); after it, the loop ends.
        engine.select(Some(EpochContext { epoch: 2, ..c.clone() })).unwrap();
        settle_pending(&mut engine);
        assert!(engine.exhausted());
        let after = Some(EpochContext { epoch: 3, ..c });
        assert_eq!(engine.select(after).unwrap_err(), EngineError::Exhausted);
    }

    #[test]
    fn bad_policy_answers_are_sanitized() {
        // (raw cohort, raw iterations) → (served cohort, served iterations)
        // over availability {1, 3, 5, 8} with floor n = 2.
        let cases: [(Vec<usize>, usize, Vec<usize>, usize); 6] = [
            (vec![5, 1, 1, 9, 3], 4, vec![1, 3, 5], 4),
            (vec![], 4, vec![1, 3], 4),
            (vec![0, 2, 9], 4, vec![1, 3], 4),
            (vec![8, 8, 8], 0, vec![8], 1),
            (vec![3], 51, vec![3], 50),
            (vec![5, 3], usize::MAX, vec![3, 5], 50),
        ];
        for (raw, raw_iters, want, want_iters) in cases {
            let c = ctx(vec![1, 3, 5, 8], vec![1.0; 4], 100.0, 2);
            let mut engine = scripted(raw.clone(), raw_iters, 100.0);
            let served = engine.select(Some(c)).unwrap().unwrap();
            assert_eq!(served, (want, want_iters), "raw decision {raw:?} × {raw_iters}");
        }
    }

    /// The hygiene as it was first written — a linear `contains` per
    /// cohort member, before sorting: the oracle for the located one.
    fn sanitize_by_scan(ctx: &EpochContext, mut cohort: Vec<usize>) -> Vec<usize> {
        cohort.retain(|id| ctx.available.contains(id));
        cohort.sort_unstable();
        cohort.dedup();
        if cohort.is_empty() {
            cohort = ctx.available.iter().copied().take(ctx.effective_n()).collect();
        }
        cohort
    }

    #[test]
    fn located_hygiene_equals_the_linear_scan_on_random_cohorts() {
        use fedl_linalg::rng::{rng_for, Rng};
        let mut rng = rng_for(0x5A9E, 0);
        for case in 0..400 {
            // Every third id of 0..3k is available; odd cases list them
            // in a shuffled order, which the locator must scan linearly.
            let k = rng.gen_range(1..40usize);
            let mut available: Vec<usize> = (0..k).map(|i| 3 * i).collect();
            let mut c = ctx(available.clone(), vec![1.0; k], 100.0, rng.gen_range(1..=k));
            if case % 2 == 1 {
                for i in (1..k).rev() {
                    available.swap(i, rng.gen_range(0..=i));
                }
                c.available = available;
            }
            // Unsorted, with duplicates and foreign ids (unavailable
            // neighbours, ids past the population); sometimes nothing
            // survives, sometimes nothing was chosen at all.
            let raw: Vec<usize> = match case % 5 {
                0 => Vec::new(),
                1 => (0..rng.gen_range(1..8usize)).map(|_| 3 * rng.gen_range(0..k) + 1).collect(),
                _ => (0..rng.gen_range(1..60usize)).map(|_| rng.gen_range(0..3 * k + 5)).collect(),
            };
            let want = sanitize_by_scan(&c, raw.clone());
            let (got, iterations) = sanitize_decision(&c, raw.clone(), 7);
            assert_eq!((got, iterations), (want, 7), "case {case}: {raw:?} over {:?}", c.available);
        }
    }

    fn kinds() -> impl Iterator<Item = PolicyKind> {
        [PolicyKind::Oracle].into_iter().chain(PolicyKind::ALL)
    }
    const CLIENTS: usize = 12;
    const BUDGET: f64 = 1e5;
    const FLOOR: usize = 3;

    fn engine_for(kind: PolicyKind) -> EpochEngine {
        EpochEngine::new(kind.build(CLIENTS, BUDGET, FLOOR, FedLConfig::default()), BUDGET)
    }

    /// Runs `epochs` more epochs over a churning population (a fifth of
    /// the clients away each epoch, everyone away every seventh),
    /// returning what each epoch selected.
    fn drive(engine: &mut EpochEngine, epochs: usize) -> Vec<Option<(Vec<usize>, usize)>> {
        (0..epochs)
            .map(|_| {
                let epoch = engine.next_epoch();
                let available: Vec<usize> =
                    (0..CLIENTS).filter(|k| epoch % 7 != 6 && (k + epoch) % 5 != 4).collect();
                let context = (!available.is_empty()).then(|| {
                    let costs = available.iter().map(|&k| 1.0 + ((k * 7 + epoch) % 11) as f64);
                    let mut c = ctx(available.clone(), costs.collect(), engine.remaining(), FLOOR);
                    c.epoch = epoch;
                    c.num_clients = CLIENTS;
                    c
                });
                let selected = engine.select(context).unwrap();
                if selected.is_some() {
                    settle_pending(engine);
                }
                selected
            })
            .collect()
    }

    #[test]
    fn ledger_is_conserved_and_charged_once_per_trained_epoch() {
        for kind in kinds() {
            let mut engine = engine_for(kind);
            let selections = drive(&mut engine, 30);
            assert_eq!(engine.next_epoch(), 30, "{kind:?}: skipped epochs advance the cursor too");
            let trained = selections.iter().flatten().count();
            assert_eq!(trained, 26, "{kind:?}: every seventh epoch has nobody available");
            let ledger = engine.ledger();
            assert_eq!(ledger.epochs(), trained, "{kind:?}: one charge per trained epoch");
            let charged: f64 = ledger.history().iter().sum();
            assert_eq!(charged.to_bits(), ledger.spent().to_bits(), "{kind:?}");
            let remaining = ledger.initial() - charged;
            assert_eq!(remaining.to_bits(), ledger.remaining().to_bits(), "{kind:?}");
            for (cohort, iterations) in selections.iter().flatten() {
                assert!(!cohort.is_empty() && (1..=50).contains(iterations), "{kind:?}");
            }
        }
    }

    /// A pending engine's whole state, as the refusal table compares it:
    /// the pending selection, the ledger's charges, the cursor and the
    /// policy's snapshot.
    type EngineState = (Option<(usize, Vec<usize>, usize)>, Vec<f64>, usize, String);

    fn state_of(engine: &EpochEngine) -> EngineState {
        let pending = engine.pending().map(|p| (p.ctx.epoch, p.cohort.clone(), p.iterations));
        let history = engine.ledger().history().to_vec();
        (pending, history, engine.next_epoch(), engine.policy().snapshot_state().to_json())
    }

    #[test]
    fn refused_outcomes_change_nothing_and_the_right_one_still_settles() {
        type Spoil = fn(&mut EpochReport);
        type Refusal = fn(EngineError) -> bool;
        fn shorten<T>(column: &mut Vec<T>) {
            column.pop();
        }
        let wrong_epoch = |e: EngineError| matches!(e, EngineError::WrongEpoch { .. });
        let wrong_selection = |e: EngineError| matches!(e, EngineError::WrongSelection { .. });
        let bad_feedback = |e: EngineError| matches!(e, EngineError::BadFeedback { .. });
        let table: Vec<(&str, Spoil, Refusal)> = vec![
            ("next epoch", |r| r.epoch += 1, wrong_epoch),
            ("previous epoch", |r| r.epoch -= 1, wrong_epoch),
            ("one more iteration", |r| r.iterations += 1, wrong_selection),
            ("a foreign survivor", |r| r.cohort[0] = CLIENTS + 1, wrong_selection),
            ("a foreign dropout", |r| r.failed.push(CLIENTS + 1), wrong_selection),
            ("a survivor twice", |r| r.failed.push(r.cohort[0]), wrong_selection),
            ("a missing survivor", |r| shorten(&mut r.cohort), wrong_selection),
            ("short latencies", |r| shorten(&mut r.per_client_iter_latency), bad_feedback),
            ("short η̂", |r| shorten(&mut r.eta_hats), bad_feedback),
            ("short J·d", |r| shorten(&mut r.grad_dot_delta), bad_feedback),
            ("short losses", |r| shorten(&mut r.local_losses), bad_feedback),
            ("NaN cost", |r| r.cost = f64::NAN, bad_feedback),
            ("+∞ cost", |r| r.cost = f64::INFINITY, bad_feedback),
            ("−∞ cost", |r| r.cost = f64::NEG_INFINITY, bad_feedback),
            ("negative cost", |r| r.cost = -1.0, bad_feedback),
            ("NaN latency", |r| r.latency_secs = f64::NAN, bad_feedback),
            ("+∞ latency", |r| r.latency_secs = f64::INFINITY, bad_feedback),
            ("negative latency", |r| r.latency_secs = -0.5, bad_feedback),
            ("NaN client latency", |r| r.per_client_iter_latency[0] = f64::NAN, bad_feedback),
            ("∞ client latency", |r| r.per_client_iter_latency[0] = f64::INFINITY, bad_feedback),
            ("negative client latency", |r| r.per_client_iter_latency[0] = -1.0, bad_feedback),
            ("NaN η̂", |r| r.eta_hats[0] = f32::NAN, bad_feedback),
            ("NaN J·d", |r| r.grad_dot_delta[0] = f32::NAN, bad_feedback),
            ("−∞ J·d", |r| r.grad_dot_delta[0] = f32::NEG_INFINITY, bad_feedback),
            ("NaN local loss", |r| r.local_losses[0] = f32::NAN, bad_feedback),
            ("NaN global loss", |r| r.global_loss_all = f64::NAN, bad_feedback),
            ("∞ global loss", |r| r.global_loss_all = f64::INFINITY, bad_feedback),
        ];
        for kind in kinds() {
            let (mut engine, mut twin) = (engine_for(kind), engine_for(kind));
            drive(&mut engine, 4);
            drive(&mut twin, 4);
            let picked = |e: &mut EpochEngine| {
                let epoch = e.next_epoch();
                let mut c = ctx((0..CLIENTS).collect(), vec![2.0; CLIENTS], e.remaining(), FLOOR);
                c.epoch = epoch;
                c.num_clients = CLIENTS;
                e.select(Some(c)).unwrap().expect("everyone is available")
            };
            assert_eq!(picked(&mut engine), picked(&mut twin), "{kind:?}");
            let p = engine.pending().unwrap().clone();
            let good = report_for(&p.ctx, &p.cohort, p.iterations);
            let before = state_of(&engine);
            for (what, spoil, expected) in &table {
                let mut bad = good.clone();
                spoil(&mut bad);
                let refused = engine.settle(&bad).expect_err(what);
                assert!(expected(refused.clone()), "{kind:?} {what}: {refused}");
                assert_eq!(state_of(&engine), before, "{kind:?} {what}: the refusal moved state");
            }
            engine.settle(&good).unwrap();
            twin.settle(&good).unwrap();
            assert_eq!(state_of(&engine), state_of(&twin), "{kind:?}");
            let (resumed, whole) = (obj(engine.snapshot().unwrap()), obj(twin.snapshot().unwrap()));
            assert_eq!(resumed.to_json(), whole.to_json(), "{kind:?}");

            // Dropouts: the survivors plus `failed` are the selection.
            let (cohort, iterations) = picked(&mut engine);
            let p = engine.pending().unwrap().clone();
            let mut report = report_for(&p.ctx, &cohort[1..], iterations);
            report.failed = vec![cohort[0]];
            engine.settle(&report).expect("a report with a dropout is the selection");
            assert_eq!(engine.next_epoch(), 6, "{kind:?}");
        }
    }

    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Obj(pairs) = v else { panic!("not an object") };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect("field present").1
    }

    #[test]
    fn snapshot_restore_continues_bit_for_bit() {
        let payload = |engine: &EpochEngine| obj(engine.snapshot().unwrap());
        for kind in kinds() {
            let mut uninterrupted = engine_for(kind);
            let full = drive(&mut uninterrupted, 10);

            let mut first = engine_for(kind);
            let mut halves = drive(&mut first, 5);
            let checkpoint = payload(&first);
            drop(first);
            let mut second = engine_for(kind);
            second.restore(&checkpoint).unwrap();
            assert_eq!(second.next_epoch(), 5);
            halves.extend(drive(&mut second, 5));

            assert_eq!(halves, full, "{kind:?}: resumed selections diverged");
            let (resumed, whole) = (payload(&second).to_json(), payload(&uninterrupted).to_json());
            assert_eq!(resumed, whole, "{kind:?}: resumed engine state diverged");

            // A payload missing a field, or carrying a poisoned ledger,
            // is a typed refusal.
            let fields = second.snapshot().unwrap();
            let partial = obj(fields[..2].to_vec());
            assert!(second.restore(&partial).is_err());
            let bad = obj(vec![("initial", Value::Float(BUDGET)), ("charges", vec![-1.0].into())]);
            let poisoned = obj([fields[0].clone(), ("ledger", bad), fields[2].clone()]);
            assert!(second.restore(&poisoned).is_err());
            // So is a FedL state of the wrong arity or sign, which would
            // otherwise restore cleanly and panic an epoch later.
            if kind != PolicyKind::FedL {
                continue;
            }
            let mu = |values: Vec<f64>| (["learner", "mu"], Value::from(values));
            for (path, value) in [
                mu(vec![0.0; CLIENTS - 1]),
                mu(vec![0.0; CLIENTS + 1]),
                mu([vec![0.0; CLIENTS - 1], vec![-1.0]].concat()),
                mu([vec![0.0; CLIENTS - 1], vec![f64::NAN]].concat()),
                (["learner", "mu0"], Value::Float(-0.5)),
                (["tracker", "h_cum"], vec![0.0; CLIENTS].into()),
                (["tracker", "h_cum"], vec![f64::INFINITY; CLIENTS + 1].into()),
            ] {
                let mut state = fields[2].1.clone();
                *field_mut(field_mut(&mut state, path[0]), path[1]) = value;
                let skewed = obj([fields[0].clone(), fields[1].clone(), ("policy_state", state)]);
                let refused = second.restore(&skewed);
                assert!(refused.is_err(), "{path:?}: {refused:?}");
            }
            second.restore(&obj(fields)).expect("the untouched payload still restores");
        }
    }
}
