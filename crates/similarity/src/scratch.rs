//! Reusable per-thread scratch buffers for similarity computation.
//!
//! Every paper measure scatters its scores into a dense `f64`
//! accumulator indexed by user id: CN and AA from two-step walks, Katz
//! from walk fronts held in two more accumulators, and Graph Distance
//! from a bounded BFS. Each accumulator marks its occupied slots in a
//! two-level bitmap (one bit per slot, one summary bit per 64-slot
//! word), so a drain hands the occupied slots over in ascending id
//! order with no sort, and a drain or clear reads the `|U|/4096`
//! summary words and only the non-zero slot words instead of O(|U|).
//! One scratch per worker thread; no allocation in the per-user hot
//! loop.

use socialrec_graph::traversal::BfsScratch;
use socialrec_graph::UserId;

/// Dense accumulator with a two-level occupancy bitmap.
#[derive(Clone, Debug)]
pub struct DenseAccumulator {
    values: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` marks slot `i` as occupied.
    occupied: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` marks `occupied[w]` as non-zero.
    summary: Vec<u64>,
}

impl DenseAccumulator {
    /// Accumulator over `n` slots, all zero.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        DenseAccumulator {
            values: vec![0.0; n],
            occupied: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Add `w` to slot `idx` and mark it occupied.
    #[inline]
    pub fn add(&mut self, idx: u32, w: f64) {
        let i = idx as usize;
        self.values[i] += w;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.summary[i / 4096] |= 1 << (i / 64 % 64);
    }

    /// Hand every slot added to since the last drain to `f` as
    /// `(idx, value)`, in ascending `idx` order, and zero it. A slot
    /// whose additions cancelled is handed over with its zero value.
    pub fn drain(&mut self, mut f: impl FnMut(u32, f64)) {
        let DenseAccumulator { values, occupied, summary } = self;
        for (s, summary_word) in summary.iter_mut().enumerate() {
            let mut words = std::mem::take(summary_word);
            while words != 0 {
                let w = s * 64 + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut slots = std::mem::take(&mut occupied[w]);
                while slots != 0 {
                    let i = w * 64 + slots.trailing_zeros() as usize;
                    slots &= slots - 1;
                    f(i as u32, std::mem::take(&mut values[i]));
                }
            }
        }
    }

    /// Drain into `out` as sorted `(UserId, value)` pairs with strictly
    /// positive values, excluding `exclude`; resets the accumulator.
    pub fn drain_sorted_into(&mut self, exclude: UserId, out: &mut Vec<(UserId, f64)>) {
        self.drain(|idx, v| {
            if v > 0.0 && idx != exclude.0 {
                out.push((UserId(idx), v));
            }
        });
    }

    /// Reset without draining.
    pub fn clear(&mut self) {
        self.drain(|_, _| {});
    }
}

/// All scratch state a similarity measure may need.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// Main accumulator (final scores).
    pub acc: DenseAccumulator,
    /// Secondary accumulator (e.g. Katz walk-front counts).
    pub front: DenseAccumulator,
    /// Tertiary accumulator (next walk front).
    pub next: DenseAccumulator,
    /// BFS state for distance-bounded measures.
    pub bfs: BfsScratch,
}

impl SimScratch {
    /// Scratch sized for a graph with `num_users` users.
    pub fn new(num_users: usize) -> Self {
        SimScratch {
            acc: DenseAccumulator::new(num_users),
            front: DenseAccumulator::new(num_users),
            next: DenseAccumulator::new(num_users),
            bfs: BfsScratch::new(num_users),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_drain() {
        let mut acc = DenseAccumulator::new(10);
        acc.add(5, 1.0);
        acc.add(2, 0.5);
        acc.add(5, 2.0);
        let mut out = Vec::new();
        acc.drain_sorted_into(UserId(9), &mut out);
        assert_eq!(out, vec![(UserId(2), 0.5), (UserId(5), 3.0)]);
        // Reset: nothing remains.
        let mut out2 = Vec::new();
        acc.add(5, 1.0);
        acc.drain_sorted_into(UserId(9), &mut out2);
        assert_eq!(out2, vec![(UserId(5), 1.0)]);
    }

    #[test]
    fn drain_excludes_self_and_nonpositive() {
        let mut acc = DenseAccumulator::new(4);
        acc.add(0, 1.0);
        acc.add(1, 1.0);
        acc.add(1, -1.0); // cancels to zero
        let mut out = Vec::new();
        acc.drain_sorted_into(UserId(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut acc = DenseAccumulator::new(3);
        acc.add(1, 2.0);
        acc.clear();
        acc.drain(|idx, v| panic!("slot {idx} = {v} survived the clear"));
    }

    /// Every slot id of an `n`-slot accumulator that sits on either
    /// side of a 64-slot word boundary (every 4096-slot summary
    /// boundary among them).
    fn boundary_ids(n: usize) -> Vec<u32> {
        (0..=n)
            .step_by(64)
            .flat_map(|edge| [edge.wrapping_sub(1), edge])
            .filter(|&i| i < n)
            .map(|i| i as u32)
            .collect()
    }

    /// The bitmap accumulator against a `BTreeMap` fed the same
    /// additions in the same order, over sizes around the word and
    /// summary boundaries. Rounds reuse one accumulator and end in a
    /// filtered drain, a raw drain or a clear, so residue from any of
    /// them shows up in the next round.
    #[test]
    fn matches_a_btreemap_reference_across_boundaries_and_reuse() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        for n in [0, 1, 63, 64, 65, 4095, 4096, 4097, 3 * 4096 + 17] {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let mut acc = DenseAccumulator::new(n);
            let boundary = boundary_ids(n);
            for round in 0..6 {
                let mut ops: Vec<(u32, f64)> = Vec::new();
                let mut exclude = UserId(u32::MAX);
                if n > 0 {
                    let id = |rng: &mut SmallRng| rng.gen_range(0..n as u32);
                    exclude = UserId(id(&mut rng));
                    ops.push((exclude.0, 2.0));
                    ops.extend(boundary.iter().map(|&i| (i, 1.0 + i as f64)));
                    // Repeated adds to one slot, a total that cancels to
                    // zero and one that ends negative.
                    let (hot, cancel, negative) = (id(&mut rng), id(&mut rng), id(&mut rng));
                    ops.extend((0..5).map(|k| (hot, 0.1 * k as f64)));
                    ops.extend([(cancel, 1.0), (cancel, -1.0), (negative, -0.5)]);
                    for _ in 0..rng.gen_range(0..2 * n.min(500)) {
                        ops.push((id(&mut rng), rng.gen_range(-2i32..=4) as f64 * 0.25));
                    }
                    // Interleave the slots' additions in a random order.
                    ops.shuffle(&mut rng);
                }
                let mut want: BTreeMap<u32, f64> = BTreeMap::new();
                for &(i, w) in &ops {
                    acc.add(i, w);
                    *want.entry(i).or_insert(0.0) += w;
                }
                let bits = |pairs: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    pairs.iter().map(|&(i, v)| (i, v.to_bits())).collect()
                };
                let all: Vec<(u32, f64)> = want.into_iter().collect();
                match round % 3 {
                    0 => {
                        let mut out = Vec::new();
                        acc.drain_sorted_into(exclude, &mut out);
                        let got: Vec<(u32, f64)> = out.iter().map(|&(u, v)| (u.0, v)).collect();
                        let kept: Vec<(u32, f64)> = all
                            .iter()
                            .copied()
                            .filter(|&(i, v)| v > 0.0 && i != exclude.0)
                            .collect();
                        assert_eq!(bits(&got), bits(&kept), "n={n} round {round}");
                    }
                    1 => {
                        let mut got = Vec::new();
                        acc.drain(|i, v| got.push((i, v)));
                        assert_eq!(bits(&got), bits(&all), "n={n} round {round}");
                    }
                    _ => acc.clear(),
                }
            }
            acc.drain(|idx, v| panic!("n={n}: slot {idx} = {v} left behind"));
        }
    }
}
