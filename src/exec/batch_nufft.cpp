#include "exec/batch_nufft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/batch_conv.hpp"
#include "obs/trace.hpp"

namespace nufft::exec {

namespace {

// The grid rows that carry image content along each dim: the sorted set of
// wrapped image indices (the zero-pad corners of the oversampled grid).
std::array<std::vector<index_t>, 3> corner_rows(const GridDesc& g,
                                                const std::array<std::vector<index_t>, 3>& wrap) {
  std::array<std::vector<index_t>, 3> corners;
  for (int d = 0; d < g.dim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    std::vector<char> mark(static_cast<std::size_t>(g.m[ds]), 0);
    for (const index_t v : wrap[ds]) mark[static_cast<std::size_t>(v)] = 1;
    for (std::size_t i = 0; i < mark.size(); ++i) {
      if (mark[i]) corners[ds].push_back(static_cast<index_t>(i));
    }
  }
  return corners;
}

}  // namespace

BatchNufft::BatchNufft(const Nufft& plan, index_t max_batch)
    : plan_(&plan),
      capacity_(std::min<index_t>(std::max<index_t>(max_batch, 1), kMaxBatch)),
      slab_elems_(static_cast<std::size_t>(plan.grid_desc().grid_elems())),
      bfft_(plan.grid_desc(), corner_rows(plan.grid_desc(), plan.wrap_), *plan.fft_fwd_,
            *plan.fft_inv_) {
  // The slabs are the irreducible working set — without them there is no
  // batched apply at all, so this allocation failure propagates.
  slabs_.resize(static_cast<std::size_t>(capacity_) * slab_elems_);
  const auto& pp = plan_->pp_;
  // The private reduction buffers are an optimization: when they cannot be
  // allocated (B × box_elems per over-dense task can dwarf the slabs on
  // dense trajectories), degrade to the TDG-serialized direct-scatter path
  // instead of failing the construction.
  try {
    fault::inject_alloc("batch.private_alloc");
    private_slabs_.resize(pp.tasks.size());
    for (std::size_t k = 0; k < pp.tasks.size(); ++k) {
      if (pp.privatized[k]) {
        private_slabs_[k].resize(static_cast<std::size_t>(capacity_) *
                                 static_cast<std::size_t>(pp.tasks[k].box_elems(plan_->g_.dim)));
      }
    }
  } catch (const std::bad_alloc&) {
    private_slabs_.clear();
    privatization_downgraded_ = true;
    privatized_off_.assign(pp.tasks.size(), 0);
  }
}

BatchNufft::~BatchNufft() = default;

void BatchNufft::forward_chunk(const cfloat* const* images, cfloat* const* raws, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    for (index_t b = 0; b < nb; ++b) plan_->image_to_grid(images[b], slab(b), pool);
  }
  fwd_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = plan_->conv_mode() != Nufft::ConvMode::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kForward, pool, batched_stages);
  }
  fwd_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    plan_->run_interp(slabs_.data(), slab_elems_, raws, nb, pool);
  }
  fwd_stats_.conv_s += t.seconds();
}

void BatchNufft::adjoint_chunk(const cfloat* const* raws, cfloat* const* images, index_t nb,
                               ThreadPool& pool) {
  Timer t;
  {
    obs::Span s("batch.scale", "batch", nb);
    Nufft::clear_grid(slabs_.data(), static_cast<std::size_t>(nb) * slab_elems_, pool);
  }
  adj_stats_.scale_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.conv", "batch", nb);
    // When the private buffers failed to allocate, an all-zero privatized
    // mask routes every task through the TDG-serialized direct-scatter path.
    const auto& privatized = privatization_downgraded_ ? privatized_off_ : plan_->pp_.privatized;
    std::vector<TraceEvent> trace = plan_->run_spread(raws, nb, slabs_.data(), slab_elems_,
                                                      private_slabs_, privatized, pool,
                                                      &adj_stats_);
    trace_.insert(trace_.end(), trace.begin(), trace.end());
  }
  adj_stats_.conv_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.fft", "batch", nb);
    const bool batched_stages = plan_->conv_mode() != Nufft::ConvMode::kScalar;
    bfft_.transform(slabs_.data(), nb, fft::Direction::kInverse, pool, batched_stages);
  }
  adj_stats_.fft_s += t.seconds();

  t.reset();
  {
    obs::Span s("batch.scale", "batch", nb);
    for (index_t b = 0; b < nb; ++b) plan_->grid_to_image(slab(b), images[b], pool);
  }
  adj_stats_.scale_s += t.seconds();
}

void BatchNufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb,
                         ThreadPool& pool) {
  NUFFT_CHECK(nb >= 1);
  fwd_stats_ = OperatorStats{};
  trace_.clear();
  obs::Span apply("batch.forward", "batch", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += capacity_) {
    forward_chunk(images + off, raws + off, std::min(capacity_, nb - off), pool);
  }
  fwd_stats_.total_s = total.seconds();
  fwd_stats_.privatization_downgraded = privatization_downgraded_;
}

void BatchNufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb,
                         ThreadPool& pool) {
  NUFFT_CHECK(nb >= 1);
  adj_stats_ = OperatorStats{};
  trace_.clear();
  obs::Span apply("batch.adjoint", "batch", nb);
  Timer total;
  for (index_t off = 0; off < nb; off += capacity_) {
    adjoint_chunk(raws + off, images + off, std::min(capacity_, nb - off), pool);
  }
  adj_stats_.total_s = total.seconds();
  adj_stats_.privatization_downgraded = privatization_downgraded_;
}

void BatchNufft::forward(const cfloat* const* images, cfloat* const* raws, index_t nb) {
  forward(images, raws, nb, *plan_->pool_);
}

void BatchNufft::adjoint(const cfloat* const* raws, cfloat* const* images, index_t nb) {
  adjoint(raws, images, nb, *plan_->pool_);
}

void BatchNufft::forward(const cfloat* images, cfloat* raws, index_t nb) {
  std::vector<const cfloat*> ip(static_cast<std::size_t>(nb));
  std::vector<cfloat*> rp(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
  }
  forward(ip.data(), rp.data(), nb, *plan_->pool_);
}

void BatchNufft::adjoint(const cfloat* raws, cfloat* images, index_t nb) {
  std::vector<const cfloat*> rp(static_cast<std::size_t>(nb));
  std::vector<cfloat*> ip(static_cast<std::size_t>(nb));
  for (index_t b = 0; b < nb; ++b) {
    rp[static_cast<std::size_t>(b)] = raws + b * plan_->sample_count();
    ip[static_cast<std::size_t>(b)] = images + b * plan_->image_elems();
  }
  adjoint(rp.data(), ip.data(), nb, *plan_->pool_);
}

}  // namespace nufft::exec
