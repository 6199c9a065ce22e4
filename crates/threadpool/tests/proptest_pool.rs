//! Property tests of the worker pool: coverage, reductions vs folds, slice
//! partitioning, and schedule equivalence.

use proptest::prelude::*;
use racc_threadpool::{Schedule, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// parallel_for touches every index exactly once for arbitrary n,
    /// thread counts, and schedules.
    #[test]
    fn parallel_for_covers(n in 0usize..5000, threads in 1usize..6, dynamic in any::<bool>(), chunk in 0usize..64) {
        let pool = ThreadPool::new(threads);
        let sched = if dynamic { Schedule::Dynamic { chunk } } else { Schedule::Static };
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, sched, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// parallel_reduce equals the sequential fold for arbitrary data and
    /// both schedules (sum over integers: exact).
    #[test]
    fn reduce_equals_fold(data in prop::collection::vec(any::<i64>(), 0..4000), threads in 1usize..6) {
        let pool = ThreadPool::new(threads);
        let expect: i64 = data.iter().fold(0i64, |a, b| a.wrapping_add(*b));
        for sched in [Schedule::Static, Schedule::Dynamic { chunk: 7 }] {
            let got = pool.parallel_reduce(data.len(), sched, 0i64, |i| data[i], |a, b| a.wrapping_add(b));
            prop_assert_eq!(got, expect);
        }
    }

    /// parallel_for_slices partitions exactly: every element written once,
    /// offsets consistent.
    #[test]
    fn slices_partition_exactly(n in 0usize..4000, threads in 1usize..7) {
        let pool = ThreadPool::new(threads);
        let mut data = vec![usize::MAX; n];
        pool.parallel_for_slices(&mut data, |offset, block| {
            for (i, x) in block.iter_mut().enumerate() {
                *x = offset + i;
            }
        });
        for (i, x) in data.iter().enumerate() {
            prop_assert_eq!(*x, i);
        }
    }

    /// 2D coverage for arbitrary rectangle shapes.
    #[test]
    fn two_d_covers(m in 0usize..80, n in 0usize..80, threads in 1usize..5) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..m * n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_ranges(n, Schedule::Static, |js| {
            for j in js {
                for i in 0..m {
                    hits[j * m + i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Max reduction finds the maximum for any data (non-commutative-order
    /// robustness of the combine tree).
    #[test]
    fn reduce_max_finds_max(data in prop::collection::vec(any::<i32>(), 1..2000)) {
        let pool = ThreadPool::new(4);
        let got = pool.parallel_reduce(data.len(), Schedule::Static, i32::MIN, |i| data[i], |a, b| a.max(b));
        prop_assert_eq!(got, *data.iter().max().unwrap());
    }
}
