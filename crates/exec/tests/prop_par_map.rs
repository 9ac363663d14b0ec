//! Property tests for the determinism contract: a parallel map must be
//! indistinguishable from the serial map, for any input length and any
//! worker count.
// Property-test bodies and helpers sit outside #[test] fns; panics are the
// assertion mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nassim_exec::{par_map, par_map_chunked, with_threads};
use proptest::prelude::*;

proptest! {
    #[test]
    fn par_map_equals_serial_map(
        items in prop::collection::vec(any::<i64>(), 0..200),
        workers in 1usize..16,
    ) {
        let serial: Vec<i64> = items
            .iter()
            .map(|x| x.wrapping_mul(3).wrapping_add(1))
            .collect();
        let parallel = with_threads(workers, || {
            par_map(&items, |x| x.wrapping_mul(3).wrapping_add(1))
        });
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_preserves_order_of_distinct_items(
        items in prop::collection::vec(any::<u32>(), 0..150),
        workers in 1usize..16,
    ) {
        // Identity map: output must be the input, in input order.
        let got = with_threads(workers, || par_map(&items, |&x| x));
        prop_assert_eq!(got, items);
    }

    #[test]
    fn par_map_chunked_sees_original_positions(
        len in 0usize..150,
        workers in 1usize..16,
        min_chunk in 1usize..20,
    ) {
        let items: Vec<usize> = (100..100 + len).collect();
        let got = with_threads(workers, || par_map_chunked(&items, min_chunk, |i, &x| (i, x)));
        prop_assert_eq!(got.len(), len);
        for (i, &(gi, gx)) in got.iter().enumerate() {
            prop_assert_eq!(gi, i);
            prop_assert_eq!(gx, 100 + i);
        }
    }
}
