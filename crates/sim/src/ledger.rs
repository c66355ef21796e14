//! The long-term budget account (constraint (3a), Alg. 1's `while C ≥ 0`).

use fedl_json::Value;
use fedl_telemetry::Telemetry;

use crate::error::SimError;

/// Tracks spending against the long-term budget `C`.
///
/// # Examples
///
/// ```
/// use fedl_sim::BudgetLedger;
///
/// let mut ledger = BudgetLedger::new(100.0);
/// ledger.charge(60.0);
/// assert_eq!(ledger.remaining(), 40.0);
/// assert!(!ledger.exhausted());
/// ledger.charge(45.0); // the final epoch may overshoot (Alg. 1)
/// assert!(ledger.exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    initial: f64,
    spent: f64,
    charges: Vec<f64>,
    telemetry: Telemetry,
}

impl BudgetLedger {
    /// Opens a ledger with budget `C`, rejecting non-positive (or NaN)
    /// budgets as a typed error.
    pub fn try_new(budget: f64) -> Result<Self, SimError> {
        if !(budget > 0.0 && budget.is_finite()) {
            return Err(SimError::InvalidBudget(budget));
        }
        Ok(Self {
            initial: budget,
            spent: 0.0,
            charges: Vec::new(),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Opens a ledger with budget `C`.
    ///
    /// # Panics
    /// Panics on a non-positive budget (the [`Self::try_new`] error
    /// message).
    pub fn new(budget: f64) -> Self {
        Self::try_new(budget).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Routes the ledger's observability through `telemetry`: each
    /// charge emits a `ledger` event and updates the `budget.*` metrics.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The initial budget `C`.
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// Total spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Remaining budget (may go negative if the last cohort overshot —
    /// that overshoot is exactly what dynamic fit charges).
    pub fn remaining(&self) -> f64 {
        self.initial - self.spent
    }

    /// Records one epoch's cohort payment. Charging is always allowed;
    /// the *stopping* rule is [`BudgetLedger::exhausted`], mirroring the
    /// paper's Alg. 1 where the final epoch may spend past zero.
    ///
    /// # Panics
    /// Panics on a negative charge.
    pub fn charge(&mut self, amount: f64) {
        assert!(amount >= 0.0, "negative charge {amount}");
        self.spent += amount;
        self.charges.push(amount);
        self.telemetry.emit(
            "ledger",
            vec![
                ("index", Value::from(self.charges.len() - 1)),
                ("charge", Value::Float(amount)),
                ("remaining", Value::Float(self.remaining())),
            ],
        );
        self.telemetry.gauge("budget.remaining").set(self.remaining());
        self.telemetry.counter("budget.epochs_charged").incr();
        self.telemetry.histogram("budget.epoch_charge").record(amount);
    }

    /// Rebuilds a ledger from checkpointed state: the initial budget and
    /// the per-epoch charge history. Unlike [`BudgetLedger::charge`],
    /// replaying the history emits no `ledger` events and touches no
    /// metrics — the original run already reported those epochs.
    // `!(c >= 0.0)` is load-bearing: it also rejects NaN, which
    // `c < 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn restore(budget: f64, charges: Vec<f64>) -> Result<Self, SimError> {
        let mut ledger = Self::try_new(budget)?;
        if charges.iter().any(|&c| !(c >= 0.0)) {
            return Err(SimError::InvalidConfig(format!(
                "checkpointed charge history contains a negative or NaN charge: {charges:?}"
            )));
        }
        ledger.spent = charges.iter().sum();
        ledger.charges = charges;
        Ok(ledger)
    }

    /// `true` once the budget is gone (FL must stop).
    pub fn exhausted(&self) -> bool {
        self.remaining() <= 0.0
    }

    /// Number of epochs charged so far.
    pub fn epochs(&self) -> usize {
        self.charges.len()
    }

    /// Per-epoch charge history.
    pub fn history(&self) -> &[f64] {
        &self.charges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_basics() {
        let mut l = BudgetLedger::new(100.0);
        assert_eq!(l.remaining(), 100.0);
        l.charge(30.0);
        l.charge(50.0);
        assert_eq!(l.spent(), 80.0);
        assert_eq!(l.remaining(), 20.0);
        assert_eq!(l.epochs(), 2);
        assert!(!l.exhausted());
        l.charge(25.0);
        assert!(l.exhausted());
        assert_eq!(l.remaining(), -5.0);
        assert_eq!(l.history(), &[30.0, 50.0, 25.0]);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ = BudgetLedger::new(0.0);
    }

    #[test]
    #[should_panic(expected = "negative charge")]
    fn negative_charge_rejected() {
        let mut l = BudgetLedger::new(1.0);
        l.charge(-0.5);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(BudgetLedger::try_new(10.0).is_ok());
        assert_eq!(BudgetLedger::try_new(0.0).unwrap_err(), SimError::InvalidBudget(0.0));
        assert_eq!(BudgetLedger::try_new(-3.0).unwrap_err(), SimError::InvalidBudget(-3.0));
        assert!(BudgetLedger::try_new(f64::NAN).is_err());
        assert!(BudgetLedger::try_new(f64::INFINITY).is_err());
    }

    #[test]
    fn restore_replays_history_without_telemetry() {
        let (tel, handle) = Telemetry::in_memory();
        let mut restored = BudgetLedger::restore(100.0, vec![30.0, 50.0]).unwrap();
        restored.set_telemetry(tel);
        assert_eq!(restored.spent(), 80.0);
        assert_eq!(restored.remaining(), 20.0);
        assert_eq!(restored.epochs(), 2);
        assert!(handle.events().unwrap().is_empty(), "restore must not re-emit ledger events");
        // Continues accounting normally from the restored position.
        restored.charge(25.0);
        assert!(restored.exhausted());
        assert_eq!(handle.events().unwrap().len(), 1);
    }

    #[test]
    fn restore_rejects_bad_history() {
        assert!(BudgetLedger::restore(0.0, vec![]).is_err());
        assert!(BudgetLedger::restore(10.0, vec![1.0, -2.0]).is_err());
        assert!(BudgetLedger::restore(10.0, vec![f64::NAN]).is_err());
    }

    #[test]
    fn charges_emit_ledger_events_and_metrics() {
        let (tel, handle) = Telemetry::in_memory();
        let mut l = BudgetLedger::new(100.0);
        l.set_telemetry(tel.clone());
        l.charge(30.0);
        l.charge(45.0);
        let events = handle.events().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("ledger"));
        assert_eq!(events[1].get("index").unwrap().as_i64(), Some(1));
        assert_eq!(events[1].get("charge").unwrap().as_f64(), Some(45.0));
        assert_eq!(events[1].get("remaining").unwrap().as_f64(), Some(25.0));
        assert_eq!(tel.gauge("budget.remaining").value(), 25.0);
        assert_eq!(tel.counter("budget.epochs_charged").value(), 2);
        assert_eq!(tel.histogram("budget.epoch_charge").count(), 2);
    }
}
