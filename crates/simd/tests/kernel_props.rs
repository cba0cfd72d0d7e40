//! Property tests pinning the vectorized kernels to their scalar
//! references on every tier the CPU supports, at ragged lengths (0, 1,
//! non-multiples of the lane width).

use proptest::prelude::*;
use socialrec_simd::{
    axpy_on, axpy_reference, gather_u32_on, gather_u32_reference, scan_ge_on, scan_ge_reference,
    Isa,
};

proptest! {
    #[test]
    fn axpy_bit_identical_on_all_tiers(
        src in proptest::collection::vec(-1.0e6f64..1.0e6, 0..70),
        a in -100.0f64..100.0,
    ) {
        let base: Vec<f64> = src.iter().map(|&x| x * 0.3 + 1.0).collect();
        let mut want = base.clone();
        axpy_reference(&mut want, a, &src);
        for isa in Isa::ALL {
            let mut got = base.clone();
            axpy_on(isa, &mut got, a, &src);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "isa={}", isa.name());
            }
        }
    }

    #[test]
    fn gather_matches_reference_on_all_tiers(
        table in proptest::collection::vec(0u32..u32::MAX, 1..200),
        raw_idx in proptest::collection::vec(0u32..10_000, 0..40),
    ) {
        let idx: Vec<u32> = raw_idx.iter().map(|&i| i % table.len() as u32).collect();
        let mut want = vec![0u32; idx.len()];
        gather_u32_reference(&table, &idx, &mut want);
        for isa in Isa::ALL {
            let mut got = vec![0u32; idx.len()];
            gather_u32_on(isa, &table, &idx, &mut got);
            prop_assert_eq!(&got, &want, "isa={}", isa.name());
        }
    }

    #[test]
    fn scan_ge_matches_reference_on_all_tiers(
        xs in proptest::collection::vec(-10.0f64..10.0, 0..50),
        from in 0usize..55,
        t in -12.0f64..12.0,
    ) {
        let want = scan_ge_reference(&xs, from, t);
        for isa in Isa::ALL {
            prop_assert_eq!(scan_ge_on(isa, &xs, from, t), want, "isa={}", isa.name());
        }
    }
}
