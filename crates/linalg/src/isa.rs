//! The instruction-set frame a kernel runs in, chosen at run time.
//!
//! The crate is built for the target's baseline instruction set (SSE2 on
//! x86-64). The crate-private `wide` runs a kernel inside a function
//! compiled with AVX2 enabled when the CPU has it, so LLVM vectorizes the
//! same loops four `f64` lanes wide instead of two. Only `avx2` is enabled,
//! never `fma` or AVX-512: without `fma` Rust neither fuses `a * b + c` nor
//! reorders additions, so each lane performs the same IEEE operations in the
//! same order and the kernel returns the same bits in either frame. The
//! Householder reduction ([`crate::bidiag`]) is the one kernel that runs
//! there.

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

/// Runs `f` in the AVX2 frame when this CPU has AVX2, and plainly
/// otherwise. Only code inlined into `f` is compiled for the frame: mark
/// the closure and everything it calls in its hot loops `#[inline(always)]`,
/// or LLVM calls a baseline copy and the frame holds no AVX instruction.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn frame<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if avx2() {
            // SAFETY: `frame`'s only requirement is that the CPU supports
            // AVX2, which `avx2()` has just detected.
            return unsafe { frame(f) };
        }
    }
    f()
}
