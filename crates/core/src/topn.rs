//! Top-N selection over dense utility vectors.

use socialrec_graph::ItemId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the selection heap: orders by utility ascending, then by
/// item id *descending*, so the heap root is the currently-worst kept
/// item and ties evict the larger id first (final lists break utility
/// ties by ascending item id — deterministic output).
#[derive(PartialEq)]
struct HeapEntry {
    utility: f64,
    item: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the *worst* entry at the
        // root, so reverse the natural "better" ordering.
        other
            .utility
            .partial_cmp(&self.utility)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// Select the `n` highest-utility items from a dense utility vector
/// (index = item id), returning `(item, utility)` sorted by utility
/// descending with ties broken by ascending item id.
///
/// Utilities may be negative (noisy mechanisms); every item competes.
/// NaN utilities are treated as negative infinity.
///
/// The selection caches the worst-in-heap threshold in locals: at
/// serving scale almost every item falls below the current floor, so
/// the common case is one comparison against a register value with no
/// heap access at all. The heap is only touched (and the cached floor
/// refreshed) when an item actually displaces the current worst.
/// Output is identical — items, order, values — to
/// [`top_n_items_reference`], pinned by a property test.
///
/// # Examples
///
/// ```
/// use socialrec_core::top_n_items;
/// use socialrec_graph::ItemId;
///
/// let top = top_n_items(&[0.5, 3.0, 3.0, 1.0], 2);
/// assert_eq!(top, vec![(ItemId(1), 3.0), (ItemId(2), 3.0)]);
/// ```
pub fn top_n_items(utilities: &[f64], n: usize) -> Vec<(ItemId, f64)> {
    if n == 0 || utilities.is_empty() {
        return Vec::new();
    }
    let n = n.min(utilities.len());
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n + 1);
    // Fill phase: the first n items all enter the heap.
    for (idx, &u) in utilities.iter().take(n).enumerate() {
        let u = if u.is_nan() { f64::NEG_INFINITY } else { u };
        heap.push(HeapEntry { utility: u, item: idx as u32 });
    }
    // Cached floor: the heap root, refreshed only when the heap changes.
    let root = heap.peek().expect("n >= 1");
    let (mut worst_u, mut worst_item) = (root.utility, root.item);
    let mut idx = n;
    while idx < utilities.len() {
        // Vectorized reject path: jump straight to the next utility at
        // or above the floor. `scan_ge` never matches NaN, which is
        // exactly the scalar NaN→-∞ behavior (a -∞ floor still rejects
        // NaN there via the tie rule: worst_item entered earlier, so
        // idx >= worst_item always holds).
        idx = scan_ge(utilities, idx, worst_u);
        if idx >= utilities.len() {
            break;
        }
        let u = utilities[idx]; // never NaN here
        if u > worst_u || (u == worst_u && (idx as u32) < worst_item) {
            heap.pop();
            heap.push(HeapEntry { utility: u, item: idx as u32 });
            let root = heap.peek().expect("heap non-empty");
            worst_u = root.utility;
            worst_item = root.item;
        }
        idx += 1;
    }
    sorted_out(heap)
}

/// The original peek-per-item heap selection, retained as the
/// equivalence reference for [`top_n_items`].
pub fn top_n_items_reference(utilities: &[f64], n: usize) -> Vec<(ItemId, f64)> {
    if n == 0 || utilities.is_empty() {
        return Vec::new();
    }
    let n = n.min(utilities.len());
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n + 1);
    for (idx, &u) in utilities.iter().enumerate() {
        let u = if u.is_nan() { f64::NEG_INFINITY } else { u };
        if heap.len() < n {
            heap.push(HeapEntry { utility: u, item: idx as u32 });
        } else {
            // Compare against the current worst.
            let worst = heap.peek().expect("heap non-empty");
            let better = u > worst.utility || (u == worst.utility && (idx as u32) < worst.item);
            if better {
                heap.pop();
                heap.push(HeapEntry { utility: u, item: idx as u32 });
            }
        }
    }
    sorted_out(heap)
}

/// The first index `i >= from` with `xs[i] >= t`, else `xs.len()`:
/// the reject path of [`top_n_items`], eight elements per step. A chunk
/// is tested with a branch-free `any(x >= t)`, which compiles to vector
/// compares, and only a chunk that holds a hit is searched element by
/// element. `>=` is false when either side is NaN, so a NaN element is
/// skipped and a NaN threshold matches nothing, exactly as in
/// [`scan_ge_reference`].
fn scan_ge(xs: &[f64], from: usize, t: f64) -> usize {
    let start = from.min(xs.len());
    let (chunks, _) = xs[start..].as_chunks::<8>();
    for (k, chunk) in chunks.iter().enumerate() {
        // `|`, not `||`: a short-circuit per lane would branch.
        if chunk.iter().fold(false, |hit, &x| hit | (x >= t)) {
            return scan_ge_reference(xs, start + 8 * k, t);
        }
    }
    scan_ge_reference(xs, start + 8 * chunks.len(), t)
}

/// [`scan_ge`] one element at a time: its in-chunk search and its test
/// reference.
// `!(x >= t)` is deliberate, not `x < t`: a NaN element must be
// *skipped* (both compares are false on NaN).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn scan_ge_reference(xs: &[f64], from: usize, t: f64) -> usize {
    let mut i = from.min(xs.len());
    while i < xs.len() && !(xs[i] >= t) {
        i += 1;
    }
    i
}

fn sorted_out(heap: BinaryHeap<HeapEntry>) -> Vec<(ItemId, f64)> {
    let mut out: Vec<(ItemId, f64)> =
        heap.into_iter().map(|e| (ItemId(e.item), e.utility)).collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then_with(|| a.0.cmp(&b.0))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_highest() {
        let u = [0.1, 5.0, 3.0, 4.0, 2.0];
        let top = top_n_items(&u, 3);
        assert_eq!(top, vec![(ItemId(1), 5.0), (ItemId(3), 4.0), (ItemId(2), 3.0)]);
    }

    #[test]
    fn ties_break_by_item_id() {
        let u = [1.0, 2.0, 2.0, 2.0, 0.0];
        let top = top_n_items(&u, 2);
        assert_eq!(top, vec![(ItemId(1), 2.0), (ItemId(2), 2.0)]);
        let top3 = top_n_items(&u, 4);
        assert_eq!(
            top3,
            vec![(ItemId(1), 2.0), (ItemId(2), 2.0), (ItemId(3), 2.0), (ItemId(0), 1.0)]
        );
    }

    #[test]
    fn handles_negative_and_nan() {
        let u = [-1.0, f64::NAN, -0.5, -2.0];
        let top = top_n_items(&u, 2);
        assert_eq!(top, vec![(ItemId(2), -0.5), (ItemId(0), -1.0)]);
    }

    #[test]
    fn n_larger_than_items() {
        let u = [1.0, 2.0];
        let top = top_n_items(&u, 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, ItemId(1));
    }

    #[test]
    fn n_zero_or_empty() {
        assert!(top_n_items(&[1.0], 0).is_empty());
        assert!(top_n_items(&[], 5).is_empty());
    }

    // Property tests: the reject scan is pinned to its one-at-a-time
    // reference, and the threshold-cached selection to the reference
    // heap — same items, same order, same utility bits — over
    // tie-heavy inputs (few distinct values), NaNs, negatives, and
    // every n regime (0, < len, = len, > len).
    mod threshold_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn tie_heavy_value() -> impl Strategy<Value = f64> {
            (0u8..8, -5.0f64..5.0).prop_map(|(k, x)| match k {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => -1.0,
                3 => 0.0,
                4 => 1.0,
                5 => 2.5,
                _ => (x * 2.0).round() / 2.0,
            })
        }

        /// Scan elements and thresholds: finite, or one draw in four
        /// NaN, ±∞ or ±0.0.
        fn scan_value() -> impl Strategy<Value = f64> {
            const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
            (0..4 * SPECIALS.len(), -10.0f64..10.0)
                .prop_map(|(pick, x)| SPECIALS.get(pick).copied().unwrap_or(x))
        }

        proptest! {
            /// `scan_ge` equals its reference on random rows, and on rows
            /// whose only hit after `from` is planted at any lane of the
            /// first three 8-lane chunks (or in the tail): with `from`
            /// anywhere up to past the end, and with NaN elements and
            /// thresholds.
            #[test]
            fn scan_ge_matches_reference(
                xs in proptest::collection::vec(scan_value(), 0..48),
                from in 0usize..56,
                lane in 0usize..24,
                t in scan_value(),
            ) {
                prop_assert_eq!(scan_ge(&xs, from, t), scan_ge_reference(&xs, from, t));
                // Every other hit becomes a NaN, which no threshold matches.
                let mut planted: Vec<f64> =
                    xs.iter().map(|&x| if x >= t { f64::NAN } else { x }).collect();
                if let Some(x) = planted.get_mut(from + lane) {
                    *x = if t.is_nan() { f64::INFINITY } else { t };
                }
                prop_assert_eq!(scan_ge(&planted, from, t), scan_ge_reference(&planted, from, t));
            }

            #[test]
            fn pinned_to_reference_heap(
                utilities in proptest::collection::vec(tie_heavy_value(), 0..150),
                n in 0usize..160,
            ) {
                let fast = top_n_items(&utilities, n);
                let slow = top_n_items_reference(&utilities, n);
                prop_assert_eq!(fast.len(), slow.len());
                for (k, ((fi, fu), (si, su))) in fast.iter().zip(&slow).enumerate() {
                    prop_assert_eq!(fi, si, "item differs at rank {}", k);
                    prop_assert_eq!(fu.to_bits(), su.to_bits(), "utility bits differ at rank {}", k);
                }
            }
        }
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..20 {
            let m = rng.gen_range(1..200);
            let utilities: Vec<f64> =
                (0..m).map(|_| (rng.gen::<f64>() * 10.0).round() / 2.0).collect();
            let n = rng.gen_range(1..=m);
            let fast = top_n_items(&utilities, n);
            let mut full: Vec<(ItemId, f64)> =
                utilities.iter().enumerate().map(|(i, &u)| (ItemId(i as u32), u)).collect();
            full.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
            full.truncate(n);
            assert_eq!(fast, full);
        }
    }
}
