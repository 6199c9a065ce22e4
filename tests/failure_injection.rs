//! Failure-path coverage through the public API: device OOM, cross-context
//! arrays, shape mismatches, bad configuration.

use racc::prelude::*;

#[test]
fn simulated_device_oom_is_a_clean_error() {
    // A CUDA backend over a deliberately small device (64 MiB) so the OOM
    // path is exercised without large host allocations.
    use racc::{SimBackend, CUDA};
    use racc_gpusim::{profiles, Device};

    let mut spec = profiles::nvidia_a100();
    spec.memory_bytes = 64 << 20;
    let device = std::sync::Arc::new(Device::new(spec));
    let ctx = racc_core::Context::new(SimBackend::new(device, &CUDA));
    let mib = 1usize << 20;
    let big = ctx.zeros::<u8>(48 * mib).expect("48 MiB fits");
    let err = ctx.zeros::<u8>(32 * mib).expect_err("must not fit");
    match err {
        RaccError::Allocation(msg) => assert!(msg.contains("out of memory"), "{msg}"),
        other => panic!("expected Allocation, got {other:?}"),
    }
    // Dropping the first allocation frees modeled memory.
    drop(big);
    let ok = ctx.zeros::<u8>(32 * mib);
    assert!(ok.is_ok(), "memory must be reclaimed on drop");
}

#[test]
fn arrays_are_bound_to_their_context() {
    let a = racc::context_for("serial").unwrap();
    let b = racc::context_for("serial").unwrap();
    let arr = a.array_from(&[1.0f64, 2.0, 3.0]).unwrap();
    match b.to_host(&arr) {
        Err(RaccError::WrongContext {
            array_ctx,
            this_ctx,
        }) => {
            assert_eq!(array_ctx, a.id());
            assert_eq!(this_ctx, b.id());
        }
        other => panic!("expected WrongContext, got {other:?}"),
    }
}

#[test]
fn shape_mismatches_are_rejected() {
    let ctx = racc::context_for("threads").unwrap();
    assert!(matches!(
        ctx.array2_from::<f64>(4, 4, &[0.0; 15]),
        Err(RaccError::ShapeMismatch(_))
    ));
    assert!(matches!(
        ctx.array3_from::<f64>(2, 3, 4, &[0.0; 23]),
        Err(RaccError::ShapeMismatch(_))
    ));
    let a = ctx.zeros::<f64>(8).unwrap();
    let b = ctx.zeros::<f64>(9).unwrap();
    assert!(matches!(
        ctx.copy_array(&a, &b),
        Err(RaccError::ShapeMismatch(_))
    ));
}

/// A shape whose element or byte count does not fit a `usize` used to wrap
/// in a release build: `zeros::<f64>(1 << 61)` returned a `2^61`-long array
/// over a one-byte block. Same answer in debug and release.
#[test]
fn shapes_that_overflow_are_typed_errors_not_wrapped_sizes() {
    for key in racc::available_backends() {
        let ctx = racc::context_for(key).unwrap();
        let refused = |r: Result<(), RaccError>| {
            assert!(
                matches!(
                    r,
                    Err(RaccError::Allocation(_) | RaccError::ShapeMismatch(_))
                ),
                "{key}: {r:?}"
            );
        };
        refused(ctx.zeros::<f64>(1 << 61).map(drop));
        refused(ctx.zeros::<u8>(usize::MAX).map(drop));
        refused(ctx.zeros2::<f64>(1 << 32, 1 << 32).map(drop));
        refused(ctx.zeros2::<u8>(1 << 32, 1 << 32).map(drop));
        refused(ctx.zeros3::<f64>(1 << 21, 1 << 21, 1 << 22).map(drop));
        refused(ctx.array2_from::<f64>(usize::MAX, 2, &[]).map(drop));
        refused(ctx.array3_from::<f64>(1 << 32, 1 << 32, 2, &[]).map(drop));
        refused(
            ctx.array2_from_fn(1 << 32, 1 << 32, |_, _| 0.0f64)
                .map(drop),
        );
        assert!(matches!(
            ctx.zeros::<f64>(1 << 61),
            Err(RaccError::Allocation(_))
        ));
    }
}

#[test]
fn unknown_backend_keys_error_and_name_the_key() {
    match racc::context_for("tpu") {
        Err(RaccError::BackendUnavailable(key)) => assert_eq!(key, "tpu"),
        other => panic!("expected BackendUnavailable, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_view_access_panics_with_context() {
    let ctx = racc::context_for("serial").unwrap();
    let a = ctx.array_from(&[1.0f64; 4]).unwrap();
    let v = a.view();
    let err = std::panic::catch_unwind(move || v.get(4)).unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn vendor_launch_validation_fires_before_execution() {
    use racc_gpusim::KernelCost;
    let cuda = racc_cudasim::Cuda::new();
    // 2048 threads per block exceeds the A100 limit of 1024.
    let ran = std::sync::atomic::AtomicBool::new(false);
    let err = cuda
        .launch(2048, 1, 0, KernelCost::default(), |_| {
            ran.store(true, std::sync::atomic::Ordering::Relaxed);
        })
        .unwrap_err();
    assert!(err.to_string().contains("invalid launch"), "{err}");
    assert!(!ran.load(std::sync::atomic::Ordering::Relaxed));

    // Excessive shared memory is also rejected.
    let err = cuda
        .launch(256, 1, 10 << 20, KernelCost::default(), |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("shared memory"), "{err}");
}

#[test]
fn malformed_preferences_file_is_a_parse_error_with_line() {
    let err = racc::Preferences::from_toml("[racc]\nbackend = \n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
}

#[test]
fn empty_everything_is_fine() {
    for key in racc::available_backends() {
        let ctx = racc::context_for(key).unwrap();
        let a = ctx.array_from::<f64>(&[]).unwrap();
        assert!(ctx.to_host(&a).unwrap().is_empty());
        ctx.parallel_for(0, &KernelProfile::unknown(), |_| unreachable!());
        let z: f64 = ctx.parallel_reduce(0, &KernelProfile::unknown(), |_| unreachable!());
        assert_eq!(z, 0.0);
        let z2: i64 = ctx.parallel_reduce_2d((0, 5), &KernelProfile::unknown(), |_, _| 1);
        assert_eq!(z2, 0);
    }
}
