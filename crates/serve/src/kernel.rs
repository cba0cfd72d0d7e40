//! The blocked batch utility kernel.
//!
//! Per query, Algorithm 1's `A_R` module is the sparse×dense product
//! `μ̂_u = Σ_c mass_{u,c} · ŵ_c` — a handful of [`SimMassIndex`] row
//! entries against full-width release rows. The first-generation
//! serving path ran it one user at a time at full item width: every
//! touched cluster streamed the whole `num_items`-sized accumulator
//! (tens of kilobytes) through the cache once per cluster, and release
//! rows were re-fetched per user.
//!
//! [`utilities_block_tiled`] restructures the loop nest: items are cut
//! into tiles sized to stay resident in L1 while clusters stream over
//! them, and users are processed in small blocks so each release-row
//! tile fetched into cache is reused by every user in the block that
//! touches its cluster. Within a tile, a user's clusters are folded
//! four per pass, so the destination tile is loaded and stored once per
//! four clusters instead of once per cluster. The loop is plain Rust,
//! compiled for the baseline target and for AVX2
//! ([`socialrec_simd::multiversion!`]).
//!
//! Release rows start on 64-byte boundaries (`NoisyClusterAverages`
//! stores them as [`AlignedRows`]), and so do the destination rows of
//! [`utilities_block_aligned`], the entry point the daemon uses. With
//! [`ITEM_TILE`] a multiple of eight, every tile of both starts on a
//! cache line, so no vector load or store of the fold splits one.
//!
//! # Floating-point contract (why tiling is exact, not approximate)
//!
//! For a fixed `(user, item)` pair, the value accumulated is
//! `Σ_c mass_{u,c} · ŵ_c[i]` over the user's touched clusters in
//! **ascending cluster order** — the order [`SimMassIndex`] stores rows
//! in, which is itself the order the reference path's dense scratch
//! iterates. Tiling splits the *items*, never the cluster sum, and the
//! four-cluster fold computes `x += a0·r0[i]; x += a1·r1[i]; …` in
//! cluster order: each `(user, item)` accumulator still receives
//! exactly the same additions in exactly the same order, whatever the
//! tile size, tile alignment, user block or build. The reference starts
//! every sum from a zeroed slot; the fold's first pass over a tile
//! starts it from the constant `0.0` instead of reading the destination,
//! which is the same first addition (`0.0 + m·w`, never simplified to
//! `m·w`: the two differ when the product is `-0.0`), so the destination
//! needs no zeroing first and its previous contents never show. Rust
//! never fuses a multiply and an add, so the kernel is
//! **bit-identical** to [`utilities_into_reference`] — proven across
//! tile sizes, ragged final tiles, every leftover count after the groups
//! of four, empty sim rows, thread counts and both builds by the tests
//! in this module, `tests/simd_matrix.rs` and `tests/thread_matrix.rs`.

use crate::SimMassIndex;
use socialrec_core::private::framework::NoisyClusterAverages;
use socialrec_core::AlignedRows;
use socialrec_graph::UserId;

/// Items per tile: 512 f64 = 4 KiB, so the destination tile plus one
/// streaming release-row tile sit comfortably in a 32 KiB L1d.
pub const ITEM_TILE: usize = 512;

/// Users per block: release-row tiles pulled into cache are reused by
/// up to this many queries before eviction.
pub const USER_BLOCK: usize = 8;

/// Utility estimates for one user: the per-user full-width sparse axpy
/// the serving layer shipped first, one cluster per pass. Retained as
/// the equivalence reference for the blocked kernel (and still
/// bit-identical to `ClusterFramework::utility_estimates_into`).
pub fn utilities_into_reference(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    u: UserId,
    out: &mut Vec<f64>,
) {
    let ni = averages.num_items();
    out.clear();
    out.resize(ni, 0.0);
    let (clusters, masses) = index.row_vals(u);
    for (&cl, &mass) in clusters.iter().zip(masses) {
        for (x, &w) in out.iter_mut().zip(averages.cluster_row(cl)) {
            *x += mass * w;
        }
    }
}

/// Utility estimates for a block of users, item-tiled, into a plain
/// contiguous buffer: `out` is resized to `users.len() * num_items`, and
/// row `k` (user `users[k]`) overwrites `out[k * num_items..(k + 1) *
/// num_items]`. Where `out` starts is the allocator's choice, so its
/// rows may split cache lines; the daemon folds into
/// [`utilities_block_aligned`] instead.
///
/// `tile` is the item-tile width (clamped to at least 1; callers use
/// [`ITEM_TILE`], tests sweep it). See the module docs for why every
/// row is bit-identical to [`utilities_into_reference`].
pub fn utilities_block_tiled(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    users: &[UserId],
    tile: usize,
    out: &mut Vec<f64>,
) {
    let ni = averages.num_items();
    out.resize(users.len() * ni, 0.0);
    fold_block(averages, index, users, tile, out, ni);
}

/// [`utilities_block_tiled`] into [`AlignedRows`]: `out` is reshaped to
/// `users.len()` rows of `num_items` (reusing its allocation when it is
/// large enough, with no zero-fill), and row `k` is overwritten with
/// user `users[k]`'s utilities. Every row, like every release row,
/// starts on a 64-byte boundary, so with a tile that is a multiple of
/// eight no load or store of the fold splits a cache line. The serving
/// daemon and the benches that time it call this.
pub fn utilities_block_aligned(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    users: &[UserId],
    tile: usize,
    out: &mut AlignedRows,
) {
    out.reshape(users.len(), averages.num_items());
    let stride = out.stride();
    fold_block(averages, index, users, tile, out.as_mut_slice(), stride);
}

/// Fold `users`' index rows over `averages` into `out`, row `k` at
/// `out[k * out_stride..]`.
fn fold_block(
    averages: &NoisyClusterAverages,
    index: &SimMassIndex,
    users: &[UserId],
    tile: usize,
    out: &mut [f64],
    out_stride: usize,
) {
    let rows: Vec<(&[u32], &[f64])> = users.iter().map(|&u| index.row_vals(u)).collect();
    let release = averages.rows();
    let ni = averages.num_items();
    fold_tiles(release.as_slice(), release.stride(), ni, &rows, tile.max(1), out, out_stride);
}

socialrec_simd::multiversion! {
    /// The loop nest of [`utilities_block_tiled`]: release row `c` at
    /// `release[c * release_stride..][..ni]`, destination row `k` at
    /// `out[k * out_stride..][..ni]`. Per item tile, per user, that
    /// user's clusters in ascending order, four per pass over the
    /// destination tile, then the 0–3 leftovers one at a time. The first
    /// pass over a tile writes it, starting each sum at `0.0`, and a user
    /// with no clusters gets zeros, so every slot of `..ni` is written
    /// whatever `out` held.
    fn fold_tiles(
        release: &[f64],
        release_stride: usize,
        ni: usize,
        rows: &[(&[u32], &[f64])],
        tile: usize,
        out: &mut [f64],
        out_stride: usize,
    ) {
        let mut t0 = 0;
        while t0 < ni {
            let t1 = (t0 + tile).min(ni);
            let row = |cl: u32| &release[cl as usize * release_stride..][t0..t1];
            for (&(clusters, masses), dst) in rows.iter().zip(out.chunks_exact_mut(out_stride)) {
                let dst = &mut dst[t0..t1];
                let (groups, leftover) = clusters.as_chunks::<4>();
                let (mass_groups, leftover_masses) = masses.as_chunks::<4>();
                let mut fresh = true;
                for (cls, &ms) in groups.iter().zip(mass_groups) {
                    fold4(dst, fresh, ms, cls.map(row));
                    fresh = false;
                }
                for (&cl, &mass) in leftover.iter().zip(leftover_masses) {
                    for (x, &w) in dst.iter_mut().zip(row(cl)) {
                        let sum = if fresh { 0.0 } else { *x };
                        *x = sum + mass * w;
                    }
                    fresh = false;
                }
                if fresh {
                    dst.fill(0.0);
                }
            }
            t0 = t1;
        }
    }
}

/// Apply four clusters to `dst` in one pass: each element receives
/// `+= m[0]·r[0][i]`, then `m[1]·r[1][i]`, `m[2]·r[2][i]` and
/// `m[3]·r[3][i]` — the additions four one-cluster passes would make,
/// in their order, so the bits are theirs — with one load and one store
/// of `dst[i]` instead of four. When `fresh`, each sum starts at `0.0`
/// and `dst[i]` is not read (LLVM hoists the test out of the loop).
#[inline(always)]
fn fold4(dst: &mut [f64], fresh: bool, m: [f64; 4], r: [&[f64]; 4]) {
    let n = dst.len();
    let [r0, r1, r2, r3] = r.map(|row| &row[..n]);
    for i in 0..n {
        let mut x = if fresh { 0.0 } else { dst[i] };
        x += m[0] * r0[i];
        x += m[1] * r1[i];
        x += m[2] * r2[i];
        x += m[3] * r3[i];
        dst[i] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use socialrec_community::Partition;
    use socialrec_core::private::framework::{
        release_noisy_cluster_averages, release_noisy_cluster_averages_with, NoiseModel,
        NoisyClusterAverages,
    };
    use socialrec_dp::Epsilon;
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::{Measure, SimilarityMatrix};

    /// A fixture whose item count (37) is prime — no tile divides it —
    /// and whose user 12 is isolated, giving an empty sim row.
    fn fixture() -> (SimilarityMatrix, Partition, NoisyClusterAverages) {
        let n = 13u32;
        let mut edges: Vec<(u32, u32)> = (0..12u32).map(|u| (u, (u + 1) % 12)).collect();
        edges.extend([(0, 6), (2, 8), (4, 10)]);
        let s = social_graph_from_edges(n as usize, &edges).unwrap();
        let sim = SimilarityMatrix::build_sequential(&s, &Measure::CommonNeighbors);
        let prefs_edges: Vec<(u32, u32)> =
            (0..n).flat_map(|u| (0..5u32).map(move |k| (u, (u * 7 + k * 11) % 37))).collect();
        let prefs = preference_graph_from_edges(n as usize, 37, &prefs_edges).unwrap();
        let assignment: Vec<u32> = (0..n).map(|u| u % 4).collect();
        let partition = Partition::from_assignment(&assignment);
        let averages = release_noisy_cluster_averages(&partition, &prefs, Epsilon::Finite(0.5), 99);
        (sim, partition, averages)
    }

    #[test]
    fn blocked_kernel_matches_reference_across_tiles_and_blocks() {
        let (sim, partition, averages) = fixture();
        let index = SimMassIndex::build_reference(&sim, &partition);
        let users: Vec<UserId> = (0..13u32).map(UserId).collect();
        let mut want = Vec::new();
        let mut refs: Vec<Vec<f64>> = Vec::new();
        for &u in &users {
            utilities_into_reference(&averages, &index, u, &mut want);
            refs.push(want.clone());
        }
        let ni = averages.num_items();
        let mut out = Vec::new();
        let mut aligned = AlignedRows::default();
        // Tile sweep includes 1 (degenerate), sizes that do not divide
        // 37, the exact width, and far beyond it; block sweep includes
        // singleton blocks, ragged final blocks, and one giant block.
        for tile in [1, 2, 5, 16, 37, 64, 10_000] {
            for block in [1, 3, 8, 13] {
                for chunk in users.chunks(block) {
                    utilities_block_tiled(&averages, &index, chunk, tile, &mut out);
                    utilities_block_aligned(&averages, &index, chunk, tile, &mut aligned);
                    assert_eq!(out.len(), chunk.len() * ni);
                    assert_eq!((aligned.rows(), aligned.width()), (chunk.len(), ni));
                    for (k, &u) in chunk.iter().enumerate() {
                        let want = &refs[u.index()];
                        for got in [&out[k * ni..(k + 1) * ni], aligned.row(k)] {
                            for (i, (a, b)) in got.iter().zip(want).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "tile={tile} block={block} user={u:?} item={i}: {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_sim_row_yields_all_zero_utilities() {
        let (sim, partition, averages) = fixture();
        let index = SimMassIndex::build(&sim, &partition);
        // User 12 is isolated: no similar users, empty index row. The
        // buffers first hold user 0's utilities, which must not show.
        assert!(index.row_vals(UserId(12)).0.is_empty());
        let (mut out, mut aligned) = (Vec::new(), AlignedRows::default());
        for users in [[UserId(0)], [UserId(12)]] {
            utilities_block_tiled(&averages, &index, &users, 16, &mut out);
            utilities_block_aligned(&averages, &index, &users, 16, &mut aligned);
        }
        assert_eq!(out.len(), averages.num_items());
        assert!(out.iter().chain(aligned.row(0)).all(|&x| x.to_bits() == 0));
    }

    /// Serving from an index read from an artifact is bit-identical to
    /// serving from the heap index, through the blocked kernel and the
    /// reference path alike.
    #[test]
    fn artifact_index_serves_identical_bits() {
        use socialrec_similarity::ValueKind;
        let (sim, partition, averages) = fixture();
        let heap = SimMassIndex::build(&sim, &partition);
        let dir = std::env::temp_dir().join("socialrec-kernel-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("k64-{}.srart", std::process::id()));
        heap.write_artifact(&path, ValueKind::F64).unwrap();
        let opened = SimMassIndex::open_artifact(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let users: Vec<UserId> = (0..13u32).map(UserId).collect();
        let ni = averages.num_items();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tile in [1, 16, 37, 10_000] {
            for chunk in users.chunks(USER_BLOCK) {
                utilities_block_tiled(&averages, &heap, chunk, tile, &mut a);
                utilities_block_tiled(&averages, &opened, chunk, tile, &mut b);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "artifact diverged at tile={tile}");
                }
            }
        }
        for &u in &users {
            utilities_into_reference(&averages, &heap, u, &mut a);
            utilities_into_reference(&averages, &opened, u, &mut b);
            assert_eq!(a.len(), ni);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "reference path diverged for {u:?}");
            }
        }
    }

    /// Products of `-0.0` sum to `+0.0` from a zeroed slot (`0.0 + -0.0`),
    /// but to `-0.0` from the first product: the fold's first pass must
    /// start at `0.0`, in a group of four and in the leftovers alike.
    #[test]
    fn sums_of_negative_zeros_start_from_positive_zero() {
        let ni = 3;
        let release = vec![-0.0; 5 * ni];
        for k in 1..=5u32 {
            let clusters: Vec<u32> = (0..k).collect();
            let masses = vec![1.0; k as usize];
            let mut got = vec![f64::NAN; ni];
            fold_tiles(&release, ni, ni, &[(&clusters, &masses)], ITEM_TILE, &mut got, ni);
            assert!(got.iter().all(|x| x.to_bits() == 0), "{k} clusters: {got:?}");
        }
    }

    #[test]
    fn empty_user_block_is_fine() {
        let (sim, partition, averages) = fixture();
        let index = SimMassIndex::build(&sim, &partition);
        let mut out = vec![1.0; 5];
        utilities_block_tiled(&averages, &index, &[], ITEM_TILE, &mut out);
        assert!(out.is_empty());
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a
    /// NaN result unspecified, so no two compilations promise NaN bits.
    fn same_value(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Clusters in the property's releases.
    const CLUSTERS: u32 = 12;

    /// NaN, ±∞, ±0.0, subnormals and values near the ends of the range.
    const SPECIALS: [f64; 9] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 5e-324, -2.5e-310, -1e-300, 1e300];

    /// Finite values spread over 2⁻⁴⁰..2⁴⁰, so the order of additions
    /// shows in the bits, and one draw in twelve from [`SPECIALS`].
    fn adversarial_f64() -> impl Strategy<Value = f64> {
        (0..12 * SPECIALS.len(), -1.0f64..1.0, -40i32..40)
            .prop_map(|(pick, m, e)| SPECIALS.get(pick).copied().unwrap_or(m * 2f64.powi(e)))
    }

    /// A row-major `CLUSTERS × ni` release and its `ni`: mostly 0–40
    /// items, one time in four more than two [`ITEM_TILE`]s.
    fn release() -> impl Strategy<Value = (usize, Vec<f64>)> {
        (0usize..4, 0usize..=40)
            .prop_map(|(wide, n)| if wide == 0 { 2 * ITEM_TILE + n } else { n })
            .prop_flat_map(|ni| {
                let len = CLUSTERS as usize * ni;
                (Just(ni), proptest::collection::vec(adversarial_f64(), len..len + 1))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `fold_tiles` gives every user the bits of applying their
        /// clusters one full-width pass at a time, in row order: rows of
        /// 0–9 clusters reach every leftover count after the groups of
        /// four, tiles straddle every group, and user blocks come ragged.
        /// The destination starts as NaN, so a slot left unwritten shows.
        #[test]
        fn fold_matches_one_cluster_per_pass_on_adversarial_values(
            (ni, release) in release(),
            rows in proptest::collection::vec(
                proptest::collection::vec((0..CLUSTERS, adversarial_f64()), 0..10),
                1..13,
            ),
            block in 1usize..=USER_BLOCK + 1,
        ) {
            let rows: Vec<(Vec<u32>, Vec<f64>)> =
                rows.into_iter().map(|row| row.into_iter().unzip()).collect();
            let rows: Vec<(&[u32], &[f64])> =
                rows.iter().map(|(c, m)| (c.as_slice(), m.as_slice())).collect();
            let mut want = vec![0.0; ni];
            let mut got = Vec::new();
            for tile in [1, 3, 4, 5, ITEM_TILE, ni + 1] {
                for chunk in rows.chunks(block) {
                    got.clear();
                    got.resize(chunk.len() * ni, f64::NAN);
                    fold_tiles(&release, ni, ni, chunk, tile, &mut got, ni);
                    for (k, &(clusters, masses)) in chunk.iter().enumerate() {
                        want.fill(0.0);
                        for (&cl, &mass) in clusters.iter().zip(masses) {
                            let row = &release[cl as usize * ni..][..ni];
                            for (x, &w) in want.iter_mut().zip(row) {
                                *x += mass * w;
                            }
                        }
                        let row = &got[k * ni..(k + 1) * ni];
                        for (i, (&g, &w)) in row.iter().zip(&want).enumerate() {
                            prop_assert!(
                                same_value(g, w),
                                "tile={} block row={} item={}: {:e} vs {:e}", tile, k, i, g, w
                            );
                        }
                    }
                }
            }
        }

        /// For every item count 1–70 (every residue mod 8) and 1–5
        /// clusters, under both noise models: every row of a release, of
        /// its clone and of the fold's destination starts on a 64-byte
        /// line, holds `num_items` values and is followed by zero
        /// padding, and the aligned fold over the release and over the
        /// clone equals the reference bit for bit at every tile.
        #[test]
        fn aligned_release_clone_and_destination_for_every_item_count(
            ni in 1u32..=70,
            clusters in 1u32..=5,
            noise in 0u8..2,
            seed in 0u64..1 << 48,
        ) {
            let n = 13u32;
            let mut edges: Vec<(u32, u32)> = (0..12u32).map(|u| (u, (u + 1) % 12)).collect();
            edges.extend([(0, 6), (2, 8), (4, 10)]);
            let social = social_graph_from_edges(n as usize, &edges).unwrap();
            let sim = SimilarityMatrix::build(&social, &Measure::CommonNeighbors);
            let prefs_edges: Vec<(u32, u32)> =
                (0..n).flat_map(|u| (0..5u32).map(move |k| (u, (u * 7 + k * 11) % ni))).collect();
            let prefs = preference_graph_from_edges(n as usize, ni as usize, &prefs_edges).unwrap();
            let assignment: Vec<u32> = (0..n).map(|u| u % clusters).collect();
            let partition = Partition::from_assignment(&assignment);
            let noise = [NoiseModel::Laplace, NoiseModel::Geometric][noise as usize];
            let release = release_noisy_cluster_averages_with(
                &partition, &prefs, Epsilon::Finite(0.5), noise, seed,
            );
            let clone = release.clone();
            let ni = ni as usize;
            let on_a_line = |row: &[f64]| (row.as_ptr() as usize).is_multiple_of(64);
            let padding_is_zero = |rows: &AlignedRows| {
                rows.as_slice().chunks(rows.stride()).all(|r| r[ni..].iter().all(|&x| x == 0.0))
            };
            for side in [&release, &clone] {
                prop_assert_eq!(side.num_clusters(), clusters as usize);
                for c in 0..clusters {
                    prop_assert!(on_a_line(side.cluster_row(c)), "release row {} off a line", c);
                    prop_assert_eq!(side.cluster_row(c).len(), ni);
                }
                prop_assert!(padding_is_zero(side.rows()));
            }
            let index = SimMassIndex::build(&sim, &partition);
            let users: Vec<UserId> = (0..n).map(UserId).collect();
            let mut want = Vec::new();
            let mut dest = AlignedRows::default();
            for side in [&release, &clone] {
                for tile in [1, 5, 64, ITEM_TILE] {
                    for block in users.chunks(USER_BLOCK) {
                        utilities_block_aligned(side, &index, block, tile, &mut dest);
                        prop_assert!(padding_is_zero(&dest));
                        for (k, &u) in block.iter().enumerate() {
                            utilities_into_reference(side, &index, u, &mut want);
                            let got = dest.row(k);
                            prop_assert!(on_a_line(got), "destination row {} off a line", k);
                            prop_assert_eq!(got.len(), ni);
                            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                                prop_assert_eq!(
                                    g.to_bits(), w.to_bits(), "tile={} user={:?} item={}", tile, u, i
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
