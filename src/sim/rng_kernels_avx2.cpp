// AVX2 flavor of the block draw kernels: identical source to the base
// flavor, compiled with 256-bit vectors enabled (and FMA explicitly off —
// contraction would change results; see sim/fastmath.h). Selected at
// runtime by detail::draw_kernels() only when the CPU reports AVX2.
// x86-64 only; other targets build the base flavor alone.
#if defined(SATIN_KERNELS_HAVE_AVX2)
#define SATIN_KERNEL_NS avx2
#include "sim/rng_kernels.inc"
#endif
