#include "core/conv_dispatch.hpp"

#include <cmath>

#include "core/conv_variants.hpp"
#include "core/preprocess.hpp"

namespace nufft {

const char* conv_backend_name(ConvBackend b) {
  switch (b) {
    case ConvBackend::kScalar:
      return "scalar";
    case ConvBackend::kSse:
      return "sse";
    case ConvBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ConvDispatch::ConvDispatch() {
  // 3 backends × 3 dims × 2 evaluators × (5 constexpr widths + runtime W).
  variants_.reserve(108);
  detail::append_scalar_variants(variants_);
  detail::append_sse_variants(variants_);
  detail::append_avx2_variants(variants_);
}

const ConvDispatch& ConvDispatch::instance() {
  static const ConvDispatch dispatch;
  return dispatch;
}

const ConvVariant* ConvDispatch::find(const ConvVariantKey& key) const {
  // 108 entries, plan-time only — a linear probe beats a hash table here.
  for (const ConvVariant& v : variants_) {
    if (v.key == key) return &v;
  }
  return nullptr;
}

std::uint8_t conv_width2(double kernel_radius) {
  const double doubled = 2.0 * kernel_radius;
  const double rounded = std::nearbyint(doubled);
  if (doubled != rounded) return 0;  // not half-integer → runtime W
  if (rounded < ConvDispatch::kMinWidth2 || rounded > ConvDispatch::kMaxWidth2) return 0;
  return static_cast<std::uint8_t>(rounded);
}

std::uint32_t conv_dispatch_id(const PlanConfig& cfg, int dim) {
  return (static_cast<std::uint32_t>(dim) << 16) |
         (static_cast<std::uint32_t>(conv_width2(cfg.kernel_radius)) << 8) |
         static_cast<std::uint32_t>(cfg.eval);
}

}  // namespace nufft
