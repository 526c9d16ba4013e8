//! The instruction-set frame a kernel runs in, chosen at run time.
//!
//! The crate is built for the target's baseline instruction set (SSE2 on
//! x86-64). [`wide`] runs a kernel inside a function compiled with AVX2
//! enabled when the CPU has it, so LLVM vectorizes the same loops four `f64`
//! lanes wide instead of two. Only `avx2` is enabled, never `fma` or
//! AVX-512: without `fma` Rust neither fuses `a * b + c` nor reorders
//! additions, so each lane performs the same IEEE operations in the same
//! order and the kernel returns the same bits in either frame. Two kernels
//! run there from [`WIDE_MIN_COLS`] columns on: the Householder reduction
//! ([`crate::bidiag`]) and hc-sinkhorn's row pass.

/// Kernels on inputs with at least this many columns run in the AVX2 frame
/// ([`wide`]) when the CPU has it; narrower ones stay in the baseline frame.
/// Same-binary comparisons of the two frames on a 2-vCPU Xeon (medians of
/// six alternating rounds of 15 runs): in the AVX2 frame the Householder
/// reduction took 0.95× as long at 32², 0.85× at 48², 0.78× at 64² and
/// 0.68–0.77× at 128×64 to 512×128, and a standard form (Sinkhorn, whose
/// row pass runs in the frame) 0.74× at 64², 0.79–0.83× at 128×64 and 128²,
/// and 0.84–0.90× at 256×64 to 512². Below 32 columns the frame does not
/// pay: the reduction took 2.7 µs in it at 17×5, against 2.3 µs in the
/// baseline frame.
pub const WIDE_MIN_COLS: usize = 32;

/// The frame the crate runs its wide kernels in on this CPU: `"avx2"`, or
/// `"baseline"` when the CPU lacks AVX2 or the target is not x86-64.
pub fn name() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` in the AVX2 frame when `on` is set and this CPU has AVX2, and
/// plainly otherwise; callers pass `cols >= WIDE_MIN_COLS`. Only code
/// inlined into `f` is compiled for the frame: mark the closure and
/// everything it calls in its hot loops `#[inline(always)]`, or LLVM calls a
/// baseline copy and the frame holds no AVX instruction. Each call site
/// holds one baseline copy of `f` and one AVX2 copy.
#[inline(always)]
#[allow(unsafe_code)]
pub fn wide<R>(on: bool, f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn frame<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if on && avx2() {
            // SAFETY: `frame`'s only requirement is that the CPU supports
            // AVX2, which `avx2()` has just detected.
            return unsafe { frame(f) };
        }
    }
    f()
}
