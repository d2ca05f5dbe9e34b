// Base-ISA flavor of the block draw kernels: compiled with the project's
// default target so it runs anywhere the binary does. Always present —
// runtime dispatch falls back to it, and the cross-ISA differential
// tests compare the wider flavors against it.
#define SATIN_KERNEL_NS base
#include "sim/rng_kernels.inc"
