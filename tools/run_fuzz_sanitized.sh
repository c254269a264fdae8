#!/usr/bin/env bash
# Run the differential fuzz harness (`ctest -L fuzz`, including the serving
# wire-protocol fuzz and the streaming trajectory-delta battery), the
# tolerance-contract harness (`ctest -L accuracy`),
# the preprocessing suite (`ctest -L preproc`: the partition layouts, the
# per-cell task and key tables, which index by a cell clamped from a float,
# and the parallel pipeline's pool-width determinism),
# the convolution-dispatch suite (`ctest -L dispatch`, the constexpr-W vs
# runtime-W bit-match matrix, the boundary-coordinate trim sweep and the
# sample loop's value-block edges and 1–3-sample window-block tails, on
# coordinate arrays that end with each range),
# the streaming plan-update suite (`ctest -L streaming`, the warm-vs-cold
# bit-match matrix — under TSan this races concurrent update-vs-apply paths
# on the pool), the serving-layer suite (`ctest -L serve`), the chaos
# suite (`ctest -L chaos`, fault hooks compiled in), the execution suite
# (`ctest -L concurrency`: engine workspace leases, batch-vs-single
# equivalence), the observability suite (`ctest -L obs`: span/stat
# invariants), the failure-path suite (`ctest -L faults`: the
# privatization downgrade, engine retries), the MRI suite (`ctest -L mri`:
# the Toeplitz kernel and apply, density compensation, CG and the
# multichannel reconstruction) and the kernel suite (`ctest -L kernels`: the
# interpolation kernels, the LUT and the register-resident Horner row's
# vector loads over the padded coefficient rows, the Part-1 window block's
# tail coordinate loads and clamped LUT reads, the Part-2 convolution
# kernels' unaligned vector loads and stores, the FFTs and BatchFft's
# zero-padded columns) under AddressSanitizer and
# UndefinedBehaviorSanitizer, as CI does; pass `thread` to race-check the
# preprocessing scatter/radix passes, concurrent engine applies, the
# Toeplitz apply's pool-thread slab writes and the
# server's poll/builder/engine thread handoff under TSan. The sweep seeds are fixed
# (tests/fuzz/test_fuzz.cpp kBaseSeed) so both instrumented runs execute the
# identical configuration set; override with NUFFT_FUZZ_SEED /
# NUFFT_FUZZ_CONFIGS to explore further or to reproduce one failing seed:
#
#   NUFFT_FUZZ_SEED=<seed> NUFFT_FUZZ_CONFIGS=1 tools/run_fuzz_sanitized.sh
#
# Sanitizer builds also compile in the library's debug invariant assertions
# (NUFFT_DASSERT via NUFFT_DEBUG_ASSERTS — see the NUFFT_SANITIZE block in
# the top-level CMakeLists.txt), so window-length and scheduler invariants
# are checked alongside the memory/UB instrumentation. Fault injection
# (NUFFT_FAULT_INJECT) is enabled so the chaos and faults suites exist; it is
# inert for every other suite unless a NUFFT_FAULT env spec arms a site.
#
# Usage: tools/run_fuzz_sanitized.sh [address] [undefined] [thread]
#        (no arguments = address + undefined)
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  build="build-${san}san"
  echo "=== ${san} sanitizer: configuring ${build} ==="
  cmake -B "${build}" -S . \
    -DNUFFT_SANITIZE="${san}" -DNUFFT_FAULT_INJECT=ON \
    -DNUFFT_BUILD_BENCH=OFF -DNUFFT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${build}" -j "$(nproc)" --target nufft_fuzz_tests --target nufft_accuracy_tests \
    --target nufft_preproc_tests --target nufft_dispatch_tests \
    --target nufft_streaming_tests --target nufft_serve_tests --target nufft_chaos_tests \
    --target nufft_exec_tests --target nufft_obs_tests --target nufft_fault_tests \
    --target nufft_mri_tests --target nufft_kernel_tests
  labels='fuzz|accuracy|preproc|dispatch|streaming|serve|chaos|concurrency|obs|faults|mri|kernels'
  echo "=== ${san} sanitizer: ctest -L '${labels}' ==="
  (cd "${build}" && ctest -L "${labels}" --output-on-failure)
done

echo "All sanitized fuzz + accuracy + preproc + dispatch + streaming + serve + chaos +"
echo "concurrency + obs + faults + mri + kernels runs passed."
