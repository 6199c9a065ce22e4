//! The CPU back ends' radix sort against the comparison-sort specification
//! (`reference::sort_pairs_canonical`), on `serial` and on `threads` with
//! one and four workers: varying key widths, a key set in which only the
//! top byte varies, all-equal keys, the float and signed encodings, and
//! sizes around one tile, 1024 tiles and a ragged last tile.

use proptest::prelude::*;
use racc_core::{KernelProfile, SerialBackend, ThreadsBackend};
use racc_prim::{reference, PrimBackend, SortKey};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const PROFILE: KernelProfile = KernelProfile::new("radix_test", 2.0, 16.0, 16.0);

/// Sizes around one `PRIM_TILE` and four of them.
const SIZES: [usize; 8] = [0, 1, 255, 256, 257, 1023, 1024, 1025];

/// Above 1024 tiles of 256: the threads tiles widen, and the last is short.
const LARGE: usize = 1024 * 256 + 1000;

fn expected(keys: &[u64]) -> Vec<usize> {
    let out = RefCell::new(vec![usize::MAX; keys.len()]);
    reference::sort_pairs_canonical(keys.len(), &|i| keys[i], &|rank, i| {
        out.borrow_mut()[rank] = i
    });
    out.into_inner()
}

/// The permutation `backend` writes, checking every rank is written once.
fn sorted_by<B: PrimBackend>(backend: &B, keys: &[u64], key_bits: u32) -> Vec<usize> {
    let out: Vec<AtomicUsize> = keys.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    backend.prim_sort_pairs(
        keys.len(),
        key_bits,
        &PROFILE,
        |i| keys[i],
        |rank, i| {
            let previous = out[rank].swap(i, Relaxed);
            assert_eq!(previous, usize::MAX, "rank {rank} written twice");
        },
    );
    out.into_iter().map(AtomicUsize::into_inner).collect()
}

/// Sort `keys` on `serial`, `threads` ×1 and `threads` ×4 and compare each
/// permutation with the specification's.
fn assert_cpu_sorts_match(keys: &[u64], key_bits: u32, what: &str) {
    let expect = expected(keys);
    let n = keys.len();
    assert_eq!(
        sorted_by(&SerialBackend::new(), keys, key_bits),
        expect,
        "serial: {what}, n = {n}"
    );
    for workers in [1, 4] {
        let threads = ThreadsBackend::with_threads(workers);
        assert_eq!(
            sorted_by(&threads, keys, key_bits),
            expect,
            "threads x{workers}: {what}, n = {n}"
        );
    }
}

/// splitmix64: the key stream of one case.
fn keys_from(seed: u64, n: usize, bits: u32) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if bits == 64 {
                z
            } else {
                z & ((1 << bits) - 1)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uniform keys of 8, 13, 32 and 64 varying bits, and keys on a few
    /// distinct values so every pass has ties to keep in order.
    #[test]
    fn radix_matches_comparison_sort(seed in any::<u64>()) {
        for n in SIZES {
            for bits in [8, 13, 32, 64] {
                assert_cpu_sorts_match(&keys_from(seed, n, bits), bits, &format!("{bits} bits"));
                let ties: Vec<u64> = keys_from(seed, n, 2)
                    .iter()
                    .map(|&k| k << (bits - 2))
                    .collect();
                assert_cpu_sorts_match(&ties, bits, &format!("ties in bits {bits}"));
            }
        }
    }

    /// Only the top byte varies: one pass, on the last digit.
    #[test]
    fn radix_sorts_when_only_the_top_byte_varies(seed in any::<u64>()) {
        for n in SIZES {
            let keys: Vec<u64> = keys_from(seed, n, 8)
                .iter()
                .map(|&b| b << 56 | 0x00AB_CDEF_0123_4567)
                .collect();
            assert_cpu_sorts_match(&keys, 64, "top byte");
        }
    }

    /// Float and signed keys through their `sort_bits` encodings, with
    /// NaN, -0.0 and ±inf mixed into random values.
    #[test]
    fn radix_sorts_float_and_signed_encodings(seed in any::<u64>()) {
        let special_f32 = [f32::NAN, -f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY];
        let special_f64 = [f64::NAN, -f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        for n in SIZES {
            let raw = keys_from(seed, n, 64);
            let pick = |i: usize, r: u64, special: usize| (r & 3 == 0).then_some(i % special);
            let f32s: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(i, &r)| match pick(i, r, special_f32.len()) {
                    Some(s) => special_f32[s].sort_bits(),
                    None => f32::from_bits((r >> 32) as u32).sort_bits(),
                })
                .collect();
            assert_cpu_sorts_match(&f32s, f32::KEY_BITS, "f32");
            let f64s: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(i, &r)| match pick(i, r, special_f64.len()) {
                    Some(s) => special_f64[s].sort_bits(),
                    None => f64::from_bits(r).sort_bits(),
                })
                .collect();
            assert_cpu_sorts_match(&f64s, f64::KEY_BITS, "f64");
            let i32s: Vec<u64> = raw.iter().map(|&r| (r as i32 >> (r % 31)).sort_bits()).collect();
            assert_cpu_sorts_match(&i32s, i32::KEY_BITS, "i32");
        }
    }
}

/// Equal keys skip every pass; the stable order is the identity.
#[test]
fn equal_keys_sort_to_the_identity() {
    for n in SIZES.into_iter().chain([LARGE]) {
        for key in [0, 0x1234, u64::MAX] {
            let keys = vec![key; n];
            let identity: Vec<usize> = (0..n).collect();
            assert_eq!(expected(&keys), identity);
            assert_cpu_sorts_match(&keys, 64, "equal keys");
        }
    }
}

/// More than 1024 × 256 elements: `cpu_tile_width` has grown past 256, so
/// the `threads` tiles widen, and the last one is ragged.
#[test]
fn large_input_with_wide_and_ragged_tiles() {
    for bits in [13, 64] {
        assert_cpu_sorts_match(&keys_from(7, LARGE, bits), bits, &format!("{bits} bits"));
    }
}

/// A key with a bit at or above `key_bits` breaks the contract the
/// simulators size their passes from; debug builds stop on it.
#[cfg(debug_assertions)]
#[test]
fn keys_wider_than_key_bits_are_caught() {
    let keys = [3u64, 1 << 13, 5];
    for backend in ["serial", "threads"] {
        let result = std::panic::catch_unwind(|| match backend {
            "serial" => sorted_by(&SerialBackend::new(), &keys, 13),
            _ => sorted_by(&ThreadsBackend::with_threads(2), &keys, 13),
        });
        let payload = result.expect_err("a 14-bit key under key_bits = 13 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("key_bits = 13"), "{backend}: {msg}");
    }
}
