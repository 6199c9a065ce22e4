//! Performance portability in one screen: the *same* kernel closures run on
//! every back end; results agree bit-for-bit (static schedules)
//! and the modeled clocks show each architecture's character.
//!
//! ```text
//! cargo run --release --example portability_tour
//! ```

use racc::prelude::*;

fn main() -> Result<(), RaccError> {
    let n = 1 << 20;
    let alpha = 0.75f64;
    println!(
        "{:<44} {:>14} {:>14} {:>14}",
        "backend", "axpy (model)", "dot (model)", "dot value"
    );

    for key in racc::available_backends() {
        let ctx = racc::builder().backend(key).build()?;
        let x = ctx.array_from_fn(n, |i| ((i % 1000) as f64) * 0.001)?;
        let y = ctx.array_from_fn(n, |i| (((i + 500) % 1000) as f64) * 0.001)?;

        ctx.reset_timeline();
        let (xv, yv) = (x.view_mut(), y.view());
        ctx.parallel_for(n, &KernelProfile::axpy(), move |i| {
            xv.set(i, xv.get(i) + alpha * yv.get(i));
        });
        let axpy_ns = ctx.modeled_ns();

        ctx.reset_timeline();
        let (xv, yv) = (x.view(), y.view());
        let dot: f64 =
            ctx.parallel_reduce(n, &KernelProfile::dot(), move |i| xv.get(i) * yv.get(i));
        let dot_ns = ctx.modeled_ns();

        println!(
            "{:<44} {:>11.3} us {:>11.3} us {:>14.6e}",
            ctx.name(),
            axpy_ns as f64 / 1e3,
            dot_ns as f64 / 1e3,
            dot
        );
    }
    println!("\nSame closures, every backend — the paper's portability claim.");
    Ok(())
}
