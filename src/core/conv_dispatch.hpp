// Backend dispatch registry for the convolution hot path — the only sample
// loop of every apply (single, batched and engine).
//
// The paper's core claim is that spreading/interpolation dominates NUFFT
// runtime and is won or lost in the inner loop. Each registered variant is
// the whole (Part 1 window + Part 2 gather/scatter) loop over one task's
// sample range, instantiated for one key:
//
//   key = (backend ∈ {scalar, SSE, AVX2},
//          dim ∈ {1, 2, 3},
//          width2 = 2W ∈ {0, 4, 5, 6, 7, 8}  — 4..8 are the calibrated
//                                              widths of core/tolerance.cpp
//                                              with W a compile-time
//                                              constant; 0 is the runtime-W
//                                              variant every other width
//                                              binds,
//          evaluator ∈ {LUT, Horner})
//
// Selection happens once in the Nufft constructor (after the tolerance and
// ISA resolution) and is recorded in PlanStats and an obs counter; every
// plan binds a variant. A constexpr-W variant and its runtime-W sibling are
// bit-identical by contract — enforced by the `dispatch` test label — so the
// width table is a pure performance decision.
//
// Adding a backend (AVX-512, fp64, a bin-sorted GPU-style path) means: a new
// ConvBackend enumerator, one conv_variants_<backend>.cpp TU defining
// append_<backend>_variants() (compiled at the *baseline* ISA — see the
// FP-contraction note in conv_variants.hpp), and a line in the ConvDispatch
// constructor. Call sites never change. See DESIGN.md §14.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/convolution.hpp"
#include "core/grid.hpp"

namespace nufft {

struct PlanConfig;

/// Part-2 instruction set of a registered variant, resolved per plan from
/// PlanConfig::use_simd / isa and the CPU (Nufft::ConvMode is this type).
enum class ConvBackend : std::uint8_t { kScalar = 0, kSse = 1, kAvx2 = 2 };

const char* conv_backend_name(ConvBackend b);

/// Registry key: one entry per (backend, dim, 2W, evaluator) combination.
struct ConvVariantKey {
  ConvBackend backend = ConvBackend::kScalar;
  std::uint8_t dim = 0;     // 1..3
  std::uint8_t width2 = 0;  // 2·kernel_radius, exact; 0 = runtime W
  kernels::KernelEval eval = kernels::KernelEval::kLut;

  /// Packed identity, stable across runs (recorded in PlanStats and usable
  /// in logs/benches): backend<<24 | dim<<16 | width2<<8 | eval.
  std::uint32_t id() const {
    return (static_cast<std::uint32_t>(backend) << 24) |
           (static_cast<std::uint32_t>(dim) << 16) |
           (static_cast<std::uint32_t>(width2) << 8) | static_cast<std::uint32_t>(eval);
  }

  bool operator==(const ConvVariantKey& o) const {
    return backend == o.backend && dim == o.dim && width2 == o.width2 && eval == o.eval;
  }
};

/// Everything a sample-range call needs: the reordered coordinate arrays,
/// the reordered→original index map, one task's sample range, and (for
/// privatized tasks) the box origin for index rebasing.
struct ConvRange {
  const GridDesc* g = nullptr;
  WindowEval ev;                                        // lut or horner set
  std::array<const float*, 3> coords{nullptr, nullptr, nullptr};
  const index_t* orig_index = nullptr;
  index_t begin = 0;
  index_t end = 0;
  /// Non-null for privatized tasks: neighbour indices are rebased to
  /// idx − box_lo[d] (box-local, never wrapping) before scattering into the
  /// private buffer.
  const index_t* box_lo = nullptr;
};

/// Adjoint Part 1+2 over one sample range and nb slices: scatter
/// raws[b][orig_index[i]]·window into the grid at dst + b·slab_stride.
using ConvSpreadFn = void (*)(const ConvRange&, const cfloat* const* raws, index_t nb,
                              cfloat* dst, std::size_t slab_stride,
                              const std::array<index_t, 3>& strides);
/// Forward Part 1+2 over one sample range and nb slices: gather the weighted
/// neighbour sum of each sample from the grid at grid + b·slab_stride into
/// outs[b][orig_index[i]].
using ConvInterpFn = void (*)(const ConvRange&, const cfloat* grid, std::size_t slab_stride,
                              const std::array<index_t, 3>& strides, cfloat* const* outs,
                              index_t nb);

struct ConvVariant {
  ConvVariantKey key;
  std::string name;  // "avx2.d3.w8.horner", "sse.d2.wrt.lut" — also the obs counter suffix
  ConvSpreadFn spread = nullptr;
  ConvInterpFn interp = nullptr;
};

/// The process-wide variant table, built once on first use. Immutable and
/// lock-free to read; plan construction does one linear probe.
class ConvDispatch {
 public:
  static constexpr std::uint8_t kMinWidth2 = 4;  // W = 2.0
  static constexpr std::uint8_t kMaxWidth2 = 8;  // W = 4.0

  static const ConvDispatch& instance();

  /// The registered variant for `key`, or nullptr for a key outside the
  /// table (an unregistered width2, dim ∉ [1, 3]).
  const ConvVariant* find(const ConvVariantKey& key) const;

  const std::vector<ConvVariant>& variants() const { return variants_; }

 private:
  ConvDispatch();
  std::vector<ConvVariant> variants_;
};

/// 2·kernel_radius when the radius is one of the calibrated half-integer
/// widths the registry instantiates with a compile-time W, 0 otherwise
/// (→ the runtime-W variant).
std::uint8_t conv_width2(double kernel_radius);

/// Backend-agnostic dispatch identity of a resolved PlanConfig on a dim-d
/// grid, recorded in the plan-cache blob (v4): packs (dim, width2, eval).
/// The backend is deliberately excluded — it is re-resolved per CPU at plan
/// construction, and a cached plan must restore on a machine with a
/// different vector ISA.
std::uint32_t conv_dispatch_id(const PlanConfig& cfg, int dim);

}  // namespace nufft
