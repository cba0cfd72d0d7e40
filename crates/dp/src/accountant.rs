//! Privacy-budget bookkeeping for sequential and parallel composition
//! (paper Theorems 2 and 3).
//!
//! The framework's privacy proof (Theorem 4) rests on *parallel*
//! composition twice over: the per-(cluster, item) noisy averages touch
//! disjoint preference-edge sets, so the whole pipeline costs a single ε.
//! The accountant makes that argument executable and testable: code that
//! releases noisy quantities records them here, and tests assert the
//! total spent budget equals what the theorems predict.

use crate::epsilon::Epsilon;
use std::fmt;

/// A refused release: recording the requested ε would push the
/// accountant past the budget. Nothing was recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetExceeded {
    /// The ε the refused release asked for.
    pub requested: f64,
    /// Total ε already consumed when the request was made.
    pub spent: f64,
    /// The budget the spend would have exceeded.
    pub budget: f64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "privacy budget exceeded: requested ε={} with ε={} of {} already spent",
            self.requested, self.spent, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A ledger of differentially private releases. A serving daemon's
/// `/ledger` endpoint reads the one its `DynamicRecommender` spends
/// from; there is no other record of ε.
#[derive(Clone, Debug, Default)]
pub struct PrivacyAccountant {
    sequential_total: f64,
    parallel_max: f64,
    releases: usize,
}

impl PrivacyAccountant {
    /// Fresh accountant with zero spent budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a release of `eps` on data *overlapping* previous releases
    /// (sequential composition: budgets add).
    pub fn spend_sequential(&mut self, eps: Epsilon) {
        if let Epsilon::Finite(e) = eps {
            self.sequential_total += e;
        } else {
            self.sequential_total = f64::INFINITY;
        }
        self.releases += 1;
    }

    /// Record a release of `eps` on data *disjoint* from previous
    /// parallel releases (parallel composition: budgets max).
    pub fn spend_parallel(&mut self, eps: Epsilon) {
        self.parallel_max = self.parallel_max.max(eps.value());
        self.releases += 1;
    }

    /// Record a sequential release of `eps` **only if** the post-spend
    /// total stays within `budget`; otherwise refuse and record nothing.
    ///
    /// This is the enforcement point for streaming re-releases: code
    /// that produces noisy output must obtain the accountant's approval
    /// *first*, so a refusal happens before any privacy is consumed.
    /// The same `1e-12` slack as [`within`](Self::within) absorbs
    /// floating-point dust when a schedule sums to the budget exactly.
    pub fn try_spend_sequential(
        &mut self,
        eps: Epsilon,
        budget: Epsilon,
    ) -> Result<(), BudgetExceeded> {
        if let Epsilon::Finite(b) = budget {
            let spent = self.total_epsilon();
            if spent + eps.value() > b + 1e-12 {
                return Err(BudgetExceeded { requested: eps.value(), spent, budget: b });
            }
        }
        self.spend_sequential(eps);
        Ok(())
    }

    /// Total ε consumed: `sequential_total + parallel_max`.
    pub fn total_epsilon(&self) -> f64 {
        self.sequential_total + self.parallel_max
    }

    /// The sequentially composed part of the spend (budgets added).
    pub fn sequential_total(&self) -> f64 {
        self.sequential_total
    }

    /// The parallel-composed part of the spend (max over disjoint
    /// releases): for one noisy-averages release, ε regardless of
    /// cluster count.
    pub fn parallel_max(&self) -> f64 {
        self.parallel_max
    }

    /// Number of releases recorded.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Whether total consumption stays within `budget`.
    pub fn within(&self, budget: Epsilon) -> bool {
        match budget {
            Epsilon::Infinite => true,
            Epsilon::Finite(b) => self.total_epsilon() <= b + 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_adds() {
        let mut a = PrivacyAccountant::new();
        a.spend_sequential(Epsilon::Finite(0.3));
        a.spend_sequential(Epsilon::Finite(0.2));
        assert!((a.total_epsilon() - 0.5).abs() < 1e-12);
        assert_eq!(a.releases(), 2);
        assert!(a.within(Epsilon::Finite(0.5)));
        assert!(!a.within(Epsilon::Finite(0.4)));
    }

    #[test]
    fn parallel_takes_max() {
        let mut a = PrivacyAccountant::new();
        for _ in 0..1000 {
            a.spend_parallel(Epsilon::Finite(0.1));
        }
        assert!((a.total_epsilon() - 0.1).abs() < 1e-12);
        assert_eq!(a.releases(), 1000);
        assert!(a.within(Epsilon::Finite(0.1)));
    }

    #[test]
    fn mixed_composition() {
        // The framework: parallel over clusters & items at ε, nothing else.
        let mut a = PrivacyAccountant::new();
        for _ in 0..50 {
            a.spend_parallel(Epsilon::Finite(0.1));
        }
        // A hypothetical second pass over the same data would add.
        a.spend_sequential(Epsilon::Finite(0.1));
        assert!((a.total_epsilon() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn component_accessors_expose_both_composition_terms() {
        let mut a = PrivacyAccountant::new();
        for _ in 0..8 {
            a.spend_parallel(Epsilon::Finite(0.25));
        }
        a.spend_sequential(Epsilon::Finite(0.5));
        assert!((a.parallel_max() - 0.25).abs() < 1e-12);
        assert!((a.sequential_total() - 0.5).abs() < 1e-12);
        assert!((a.total_epsilon() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn try_spend_refuses_before_recording() {
        let mut a = PrivacyAccountant::new();
        let budget = Epsilon::Finite(1.0);
        a.try_spend_sequential(Epsilon::Finite(0.6), budget).unwrap();
        // Over-budget: refused, state untouched.
        let err = a.try_spend_sequential(Epsilon::Finite(0.5), budget).unwrap_err();
        assert_eq!(err, BudgetExceeded { requested: 0.5, spent: 0.6, budget: 1.0 });
        assert!(err.to_string().contains("budget exceeded"), "{err}");
        assert!((a.total_epsilon() - 0.6).abs() < 1e-12);
        assert_eq!(a.releases(), 1);
        // A smaller spend that fits still goes through — exactly to the
        // edge (1e-12 slack).
        a.try_spend_sequential(Epsilon::Finite(0.4), budget).unwrap();
        assert!((a.total_epsilon() - 1.0).abs() < 1e-12);
        assert!(a.try_spend_sequential(Epsilon::Finite(1e-6), budget).is_err());
        // Infinite budget never refuses.
        a.try_spend_sequential(Epsilon::Finite(100.0), Epsilon::Infinite).unwrap();
        // An infinite request against a finite budget is refused.
        let mut b = PrivacyAccountant::new();
        assert!(b.try_spend_sequential(Epsilon::Infinite, Epsilon::Finite(10.0)).is_err());
        assert_eq!(b.releases(), 0);
    }

    #[test]
    fn infinite_epsilon_blows_budget() {
        let mut a = PrivacyAccountant::new();
        a.spend_sequential(Epsilon::Infinite);
        assert!(a.total_epsilon().is_infinite());
        assert!(!a.within(Epsilon::Finite(100.0)));
        assert!(a.within(Epsilon::Infinite));
    }
}
