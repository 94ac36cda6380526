//! Proves the scratch pool's steady-state contract: once a thread's pool is
//! warm, acquiring pack buffers performs **zero heap allocations** while
//! telemetry is disabled, and a warm blocked GEMM allocates only its output
//! tensor. Counts with the shared `enhancenet-testalloc` allocator, which
//! sees every thread.

use enhancenet_tensor::{with_scratch, Tensor};
use enhancenet_testalloc::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_scratch_pool_is_allocation_free_when_disabled() {
    let region = enhancenet_testalloc::serial();
    enhancenet_telemetry::set_enabled(false);

    // Warm this thread's pool with the GEMM engine's nesting pattern: an
    // A-panel acquisition inside the B-panel scope.
    let (b_panel, a_panel) = (256 * 512, 256 * 64);
    with_scratch(b_panel, |_| with_scratch(a_panel, |_| ()));

    let ((), counts) = region.measure(|| {
        for _ in 0..10_000 {
            with_scratch(b_panel, |outer| {
                outer[0] = 1.0;
                with_scratch(a_panel, |inner| inner[0] = 2.0);
            });
        }
    });

    assert_eq!(
        counts.allocations, 0,
        "warm scratch acquisitions must not allocate ({} allocations observed)",
        counts.allocations
    );
}

#[test]
fn warm_blocked_gemm_allocates_only_its_output() {
    let region = enhancenet_testalloc::serial();
    enhancenet_telemetry::set_enabled(false);

    // 64^3 = 256 Ki multiply-adds: big enough for the blocked/packed path,
    // below the parallel threshold so no rayon bookkeeping is measured.
    let a = Tensor::from_vec((0..64 * 64).map(|v| (v % 5) as f32).collect(), &[64, 64]);
    let b = Tensor::from_vec((0..64 * 64).map(|v| (v % 3) as f32).collect(), &[64, 64]);
    let _warm = a.matmul(&b);

    let (out, counts) = region.measure(|| a.matmul(&b));
    assert_eq!(out.shape(), &[64, 64]);

    // Output data vec + shape vec(s); anything beyond a handful means a
    // pack buffer or gradient temporary slipped past the pool.
    assert!(
        counts.allocations <= 4,
        "warm blocked GEMM should only allocate its output, saw {} allocations",
        counts.allocations
    );
}
