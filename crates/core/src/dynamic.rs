//! Dynamic graphs — the paper's primary future-work item (§7): "a main
//! focus for future work will be extending our framework to provide
//! differential privacy guarantees when recommendations are made over
//! dynamic graphs".
//!
//! The subtlety the paper flags: Theorem 4's parallel composition works
//! *within* one snapshot because the per-(cluster, item) averages touch
//! disjoint preference edges. Across snapshots the same preference edge
//! persists, so repeated releases about it compose **sequentially**
//! (Theorem 2) and the budget must be split over time.
//!
//! [`DynamicRecommender`] manages a total budget `ε_total` across a
//! stream of snapshots with a pluggable [`BudgetSchedule`]:
//!
//! * [`BudgetSchedule::Uniform`] — `ε_total / T` per release for a
//!   planned horizon of `T` releases;
//! * [`BudgetSchedule::Decay`] — geometric decay `ε_t ∝ r^t`, which
//!   never exhausts: early snapshots (when a recommender is fresh and
//!   most consulted) get the most budget, and releases can continue
//!   indefinitely with ever-coarser answers.
//!
//! Every release is recorded in a [`PrivacyAccountant`]; the recommender
//! refuses to exceed the total budget. That accountant is the only
//! record of ε: a serving daemon's introspection endpoint reads it
//! through [`DynamicRecommender::accountant_handle`].

use crate::private::framework::release_noisy_cluster_averages;
use crate::private::{ClusterFramework, NoisyClusterAverages};
use crate::{RecommenderInputs, TopN, TopNRecommender};
use socialrec_community::Partition;
use socialrec_dp::{Epsilon, PrivacyAccountant};
use socialrec_graph::{PreferenceGraph, UserId};
use socialrec_obs::journal::{
    self, EventKind, REFUSAL_BUDGET_EXCEEDED, REFUSAL_SCHEDULE_EXHAUSTED,
};
use socialrec_obs::span;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A decay ratio validated to lie in the open interval `(0, 1)`.
///
/// Validation happens **here, at construction** — a serving loop
/// querying [`BudgetSchedule::epsilon_for`] can never hit a mid-serve
/// panic from a malformed schedule; an invalid ratio fails fast where
/// the schedule is configured.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct DecayRatio(f64);

impl DecayRatio {
    /// Validate `ratio ∈ (0, 1)` (finite). Returns `None` otherwise —
    /// including NaN, ±∞, 0, and 1, each of which would make the
    /// geometric series degenerate or the budget sum diverge.
    pub fn new(ratio: f64) -> Option<DecayRatio> {
        (ratio.is_finite() && 0.0 < ratio && ratio < 1.0).then_some(DecayRatio(ratio))
    }

    /// The validated ratio.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// How the total budget is split across snapshot releases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetSchedule {
    /// Equal shares for a planned number of releases; the recommender
    /// refuses further releases once the plan is used up.
    Uniform {
        /// The planned number of releases `T`.
        releases: usize,
    },
    /// Geometric decay: release `t` (0-based) gets
    /// `ε_total · (1 - ratio) · ratio^t`. Exhausts only when the
    /// per-release share underflows `f64` to zero.
    Decay {
        /// Decay ratio; e.g. 0.5 halves the budget each release.
        ratio: DecayRatio,
    },
}

impl BudgetSchedule {
    /// A geometric-decay schedule, validating the ratio up front.
    /// Returns an error for any ratio outside the open interval
    /// `(0, 1)`.
    pub fn decay(ratio: f64) -> Result<BudgetSchedule, String> {
        DecayRatio::new(ratio)
            .map(|ratio| BudgetSchedule::Decay { ratio })
            .ok_or_else(|| format!("decay ratio must be in (0, 1), got {ratio}"))
    }

    /// The ε allotted to the `t`-th release (0-based), or `None` when
    /// the schedule has nothing left to give.
    pub fn epsilon_for(&self, t: usize, total: Epsilon) -> Option<Epsilon> {
        match total {
            Epsilon::Infinite => Some(Epsilon::Infinite),
            Epsilon::Finite(e) => match *self {
                BudgetSchedule::Uniform { releases } => {
                    if t < releases {
                        Epsilon::new(e / releases as f64)
                    } else {
                        None
                    }
                }
                BudgetSchedule::Decay { ratio } => {
                    // `powf(t as f64)` instead of `powi(t as i32)`: a
                    // `usize` beyond `i32::MAX` used to wrap negative
                    // and *grow* the share without bound. `powf`
                    // monotonically underflows to 0 instead, and
                    // `Epsilon::new` maps that to `None` (schedule
                    // exhausted by underflow).
                    Epsilon::new(e * (1.0 - ratio.get()) * ratio.get().powf(t as f64))
                }
            },
        }
    }
}

/// One graph snapshot at some time step.
pub struct Snapshot<'a> {
    /// The (public) clustering of the snapshot's social graph.
    pub partition: &'a Partition,
    /// The snapshot's inputs (preferences + similarity).
    pub inputs: RecommenderInputs<'a>,
}

/// A private recommender over a stream of graph snapshots.
///
/// Each call to [`release`](DynamicRecommender::release) produces
/// recommendations for the *current* snapshot under the schedule's
/// per-release ε and debits the accountant (sequential composition
/// across releases — the conservative assumption that every preference
/// edge may persist across snapshots).
pub struct DynamicRecommender {
    total: Epsilon,
    schedule: BudgetSchedule,
    accountant: Arc<Mutex<PrivacyAccountant>>,
    releases_done: usize,
}

/// The outcome of one snapshot release.
#[derive(Debug)]
pub struct Release {
    /// Per-user recommendation lists.
    pub lists: Vec<TopN>,
    /// The ε spent on this release.
    pub epsilon_spent: Epsilon,
    /// Total ε consumed so far across all releases.
    pub epsilon_total_spent: f64,
}

impl DynamicRecommender {
    /// A recommender with a total budget and a schedule.
    pub fn new(total: Epsilon, schedule: BudgetSchedule) -> Self {
        DynamicRecommender { total, schedule, accountant: Arc::default(), releases_done: 0 }
    }

    /// Number of releases made so far.
    pub fn releases_done(&self) -> usize {
        self.releases_done
    }

    /// Budget remaining (`ε_total - spent`); infinite budgets report
    /// `f64::INFINITY`.
    pub fn remaining_budget(&self) -> f64 {
        match self.total {
            Epsilon::Infinite => f64::INFINITY,
            Epsilon::Finite(e) => (e - self.lock_accountant().total_epsilon()).max(0.0),
        }
    }

    /// The ε the *next* release would spend, if the schedule allows one.
    pub fn next_epsilon(&self) -> Option<Epsilon> {
        self.schedule.epsilon_for(self.releases_done, self.total)
    }

    /// A copy of the accountant recording every spend — the single
    /// source of truth for the cumulative ε consumed by this
    /// recommender.
    pub fn accountant(&self) -> PrivacyAccountant {
        self.lock_accountant().clone()
    }

    /// The live accountant itself, for readers that outlive a borrow of
    /// the recommender (the introspection endpoint's `/ledger`). Only
    /// this recommender spends from it.
    pub fn accountant_handle(&self) -> Arc<Mutex<PrivacyAccountant>> {
        Arc::clone(&self.accountant)
    }

    /// Lock the accountant. Its state is three numbers updated after
    /// every check passes, so a poisoned lock still holds a consistent
    /// record.
    fn lock_accountant(&self) -> MutexGuard<'_, PrivacyAccountant> {
        self.accountant.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Debit the schedule's next ε, refusing (without recording or
    /// advancing anything) when the schedule is exhausted or the
    /// accountant would exceed the total budget.
    fn debit_next(&mut self) -> Result<Epsilon, String> {
        let eps = self.next_epsilon().ok_or_else(|| {
            Self::journal_refusal(self.releases_done, REFUSAL_SCHEDULE_EXHAUSTED);
            format!("budget schedule exhausted after {} releases", self.releases_done)
        })?;
        self.lock_accountant().try_spend_sequential(eps, self.total).map_err(|e| {
            Self::journal_refusal(self.releases_done, REFUSAL_BUDGET_EXCEEDED);
            format!("release refused: {e}")
        })?;
        self.releases_done += 1;
        Ok(eps)
    }

    /// Journal a refused release. A no-op when the journal is disarmed.
    fn journal_refusal(release_index: usize, reason: u64) {
        journal::emit(EventKind::BudgetRefusal, release_index as u64, reason);
    }

    /// Release recommendations for the current snapshot.
    ///
    /// Returns an error when the schedule is exhausted (uniform plans
    /// only) or when the accountant refuses the spend. The per-release
    /// ε is spent *sequentially* in the accountant — across snapshots
    /// the same preference edges are re-examined, so Theorem 2 applies —
    /// and the accountant is consulted **before** any noisy output is
    /// produced.
    pub fn release(
        &mut self,
        snapshot: &Snapshot<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Result<Release, String> {
        let eps = self.debit_next()?;
        let fw = ClusterFramework::new(snapshot.partition, eps);
        let lists = fw.recommend(&snapshot.inputs, users, n, seed);
        Ok(Release {
            lists,
            epsilon_spent: eps,
            epsilon_total_spent: self.lock_accountant().total_epsilon(),
        })
    }

    /// Release the sanitized per-(cluster, item) noisy averages for the
    /// current snapshot — the artifact the serving layer caches and
    /// hot-swaps — under the schedule's next ε.
    ///
    /// The accountant is the enforcement point: the spend is debited
    /// *before* [`release_noisy_cluster_averages`] runs, so a
    /// refusal (exhausted schedule, over-budget spend) happens before
    /// any noisy output exists. Everything derived from the returned
    /// averages is post-processing and spends nothing further.
    pub fn release_averages(
        &mut self,
        partition: &Partition,
        prefs: &PreferenceGraph,
        seed: u64,
    ) -> Result<(Epsilon, NoisyClusterAverages), String> {
        let eps = self.debit_next()?;
        let _span = span!("update.release", release = self.releases_done);
        let averages = release_noisy_cluster_averages(partition, prefs, eps, seed);
        Ok((eps, averages))
    }

    /// Like [`release_averages`](Self::release_averages) but spending an
    /// explicit ε outside the schedule (e.g. an operator-forced
    /// high-accuracy re-release). Does not advance the schedule; the
    /// accountant still refuses if the spend would exceed the total
    /// budget.
    pub fn release_averages_with_epsilon(
        &mut self,
        partition: &Partition,
        prefs: &PreferenceGraph,
        eps: Epsilon,
        seed: u64,
    ) -> Result<(Epsilon, NoisyClusterAverages), String> {
        self.lock_accountant().try_spend_sequential(eps, self.total).map_err(|e| {
            Self::journal_refusal(self.releases_done, REFUSAL_BUDGET_EXCEEDED);
            format!("release refused: {e}")
        })?;
        let _span = span!("update.release", release = self.releases_done);
        let averages = release_noisy_cluster_averages(partition, prefs, eps, seed);
        Ok((eps, averages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::private::framework::release_noisy_cluster_averages_with;
    use crate::private::NoiseModel;
    use socialrec_community::{ClusteringStrategy, LouvainStrategy};
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::{Measure, SimilarityMatrix};

    fn snapshot_fixture() -> (socialrec_graph::SocialGraph, socialrec_graph::PreferenceGraph) {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(6, 4, &[(0, 0), (1, 0), (3, 1), (4, 1)]).unwrap();
        (s, p)
    }

    #[test]
    fn uniform_schedule_splits_evenly_and_exhausts() {
        let sched = BudgetSchedule::Uniform { releases: 4 };
        let total = Epsilon::Finite(1.0);
        for t in 0..4 {
            assert_eq!(sched.epsilon_for(t, total), Some(Epsilon::Finite(0.25)));
        }
        assert_eq!(sched.epsilon_for(4, total), None);
        assert_eq!(sched.epsilon_for(0, Epsilon::Infinite), Some(Epsilon::Infinite));
    }

    #[test]
    fn decay_schedule_sums_below_total() {
        let sched = BudgetSchedule::decay(0.5).unwrap();
        let total = Epsilon::Finite(2.0);
        let sum: f64 = (0..50).map(|t| sched.epsilon_for(t, total).unwrap().value()).sum();
        assert!(sum <= 2.0 + 1e-9, "decay overspends: {sum}");
        assert!(sum > 1.99, "decay should approach the total: {sum}");
        // Strictly decreasing.
        let e0 = sched.epsilon_for(0, total).unwrap().value();
        let e1 = sched.epsilon_for(1, total).unwrap().value();
        assert!(e0 > e1);
    }

    #[test]
    fn decay_ratio_validates_at_construction_not_per_query() {
        for bad in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(DecayRatio::new(bad).is_none(), "ratio {bad} must be rejected");
            let err = BudgetSchedule::decay(bad).unwrap_err();
            assert!(err.contains("(0, 1)"), "{err}");
        }
        let ok = BudgetSchedule::decay(0.25).unwrap();
        assert_eq!(ok, BudgetSchedule::Decay { ratio: DecayRatio::new(0.25).unwrap() });
        assert_eq!(DecayRatio::new(0.25).unwrap().get(), 0.25);
    }

    #[test]
    fn decay_huge_t_underflows_instead_of_wrapping() {
        // Pre-fix, `ratio.powi(t as i32)` wrapped `t` past `i32::MAX`
        // into a *negative* exponent, growing the per-release ε without
        // bound — an over-spend, the worst possible failure for a
        // privacy budget. `powf` underflows monotonically to 0, which
        // `epsilon_for` reports as an exhausted schedule.
        let sched = BudgetSchedule::decay(0.5).unwrap();
        let total = Epsilon::Finite(1.0);
        let e0 = sched.epsilon_for(0, total).unwrap().value();
        for t in [1 << 31, 1 << 32, usize::MAX] {
            match sched.epsilon_for(t, total) {
                None => {} // underflowed to zero: exhausted, never over-spent
                Some(eps) => {
                    assert!(eps.value() <= e0, "huge t must never out-spend release 0");
                }
            }
        }
        // And the tail is monotone non-increasing across the old wrap
        // boundary.
        let before = sched.epsilon_for((i32::MAX as usize) - 1, total);
        let after = sched.epsilon_for(i32::MAX as usize + 1, total);
        let val = |e: Option<Epsilon>| e.map_or(0.0, |e| e.value());
        assert!(val(after) <= val(before));
    }

    #[test]
    fn releases_debit_the_budget_and_stop() {
        let (s, p) = snapshot_fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = LouvainStrategy::default().cluster(&s);
        let snap =
            Snapshot { partition: &partition, inputs: RecommenderInputs { prefs: &p, sim: &sim } };
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let mut dynrec =
            DynamicRecommender::new(Epsilon::Finite(1.0), BudgetSchedule::Uniform { releases: 2 });
        let r1 = dynrec.release(&snap, &users, 2, 0).unwrap();
        assert_eq!(r1.epsilon_spent, Epsilon::Finite(0.5));
        assert!((r1.epsilon_total_spent - 0.5).abs() < 1e-12);
        assert!((dynrec.remaining_budget() - 0.5).abs() < 1e-12);
        let r2 = dynrec.release(&snap, &users, 2, 1).unwrap();
        assert!((r2.epsilon_total_spent - 1.0).abs() < 1e-12);
        // Third release refused.
        let err = dynrec.release(&snap, &users, 2, 2).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        assert_eq!(dynrec.releases_done(), 2);
    }

    #[test]
    fn decay_never_exhausts_but_gets_noisier() {
        let (s, p) = snapshot_fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = LouvainStrategy::default().cluster(&s);
        let snap =
            Snapshot { partition: &partition, inputs: RecommenderInputs { prefs: &p, sim: &sim } };
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let mut dynrec =
            DynamicRecommender::new(Epsilon::Finite(1.0), BudgetSchedule::decay(0.5).unwrap());
        let mut last_eps = f64::INFINITY;
        for t in 0..10 {
            let r = dynrec.release(&snap, &users, 2, t).unwrap();
            let e = r.epsilon_spent.value();
            assert!(e < last_eps, "per-release eps must shrink");
            last_eps = e;
        }
        assert!(dynrec.remaining_budget() > 0.0, "decay leaves tail budget");
        assert!(dynrec.remaining_budget() < 0.01, "but approaches zero");
    }

    #[test]
    fn snapshots_can_change_between_releases() {
        // The framework re-clusters per snapshot: simulate edge churn by
        // toggling a preference edge between releases.
        let (s, p1) = snapshot_fixture();
        let p2 = p1.toggled_edge(UserId(0), socialrec_graph::ItemId(3));
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = LouvainStrategy::default().cluster(&s);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let mut dynrec =
            DynamicRecommender::new(Epsilon::Finite(2.0), BudgetSchedule::Uniform { releases: 2 });
        let snap1 =
            Snapshot { partition: &partition, inputs: RecommenderInputs { prefs: &p1, sim: &sim } };
        let r1 = dynrec.release(&snap1, &users, 2, 0).unwrap();
        let snap2 =
            Snapshot { partition: &partition, inputs: RecommenderInputs { prefs: &p2, sim: &sim } };
        let r2 = dynrec.release(&snap2, &users, 2, 0).unwrap();
        assert_eq!(r1.lists.len(), r2.lists.len());
    }

    #[test]
    fn release_averages_debits_schedule_and_refuses_when_exhausted() {
        let (s, p) = snapshot_fixture();
        let partition = LouvainStrategy::default().cluster(&s);
        let mut dynrec =
            DynamicRecommender::new(Epsilon::Finite(1.0), BudgetSchedule::Uniform { releases: 2 });
        let (e1, avg1) = dynrec.release_averages(&partition, &p, 5).unwrap();
        assert_eq!(e1, Epsilon::Finite(0.5));
        assert_eq!(avg1.num_clusters(), partition.num_clusters());
        assert_eq!(avg1.num_items(), p.num_items());
        // Bit-identical to driving the release function directly with
        // the same ε/noise/seed: the recommender adds accounting, not
        // different noise.
        let direct =
            release_noisy_cluster_averages_with(&partition, &p, e1, NoiseModel::Laplace, 5);
        let bits =
            |a: &NoisyClusterAverages| a.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&avg1), bits(&direct));
        let (_, _) = dynrec.release_averages(&partition, &p, 6).unwrap();
        assert!((dynrec.accountant().total_epsilon() - 1.0).abs() < 1e-12);
        let err = dynrec.release_averages(&partition, &p, 7).unwrap_err();
        assert!(err.contains("exhausted"), "{err}");
        assert_eq!(dynrec.releases_done(), 2, "refusal must not advance the schedule");
    }

    #[test]
    fn accountant_refuses_over_budget_explicit_spend() {
        let (s, p) = snapshot_fixture();
        let partition = LouvainStrategy::default().cluster(&s);
        let mut dynrec =
            DynamicRecommender::new(Epsilon::Finite(1.0), BudgetSchedule::Uniform { releases: 4 });
        // Spend 0.25 via the schedule, then force an explicit 0.5: fits.
        dynrec.release_averages(&partition, &p, 0).unwrap();
        dynrec.release_averages_with_epsilon(&partition, &p, Epsilon::Finite(0.5), 1).unwrap();
        assert!((dynrec.accountant().total_epsilon() - 0.75).abs() < 1e-12);
        // A further explicit 0.5 would overdraw: refused *before* any
        // noisy output, accountant untouched.
        let err = dynrec
            .release_averages_with_epsilon(&partition, &p, Epsilon::Finite(0.5), 2)
            .unwrap_err();
        assert!(err.contains("refused"), "{err}");
        assert!((dynrec.accountant().total_epsilon() - 0.75).abs() < 1e-12);
        // The schedule path also hits the accountant: its next 0.25
        // still fits exactly.
        dynrec.release_averages(&partition, &p, 3).unwrap();
        assert!((dynrec.accountant().total_epsilon() - 1.0).abs() < 1e-12);
        // ...but one more schedule release (0.25) is now over budget,
        // even though the Uniform plan has a slot left.
        let err = dynrec.release_averages(&partition, &p, 4).unwrap_err();
        assert!(err.contains("refused"), "{err}");
        assert_eq!(dynrec.releases_done(), 2, "schedule releases consumed");
    }

    #[test]
    fn infinite_budget_never_exhausts() {
        let sched = BudgetSchedule::Uniform { releases: 3 };
        let mut dynrec = DynamicRecommender::new(Epsilon::Infinite, sched);
        assert_eq!(dynrec.next_epsilon(), Some(Epsilon::Infinite));
        assert_eq!(dynrec.remaining_budget(), f64::INFINITY);
        // releases_done advances but the per-release eps stays infinite.
        let (s, p) = snapshot_fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = LouvainStrategy::default().cluster(&s);
        let snap =
            Snapshot { partition: &partition, inputs: RecommenderInputs { prefs: &p, sim: &sim } };
        let users = [UserId(0)];
        for t in 0..3 {
            dynrec.release(&snap, &users, 1, t).unwrap();
        }
        assert_eq!(dynrec.releases_done(), 3);
    }
}
