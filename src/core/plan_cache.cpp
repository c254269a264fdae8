#include "core/plan_cache.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/conv_dispatch.hpp"
#include "core/tolerance.hpp"

namespace nufft {

namespace {

constexpr std::uint32_t kMagic = 0x4E554657;  // "NUFW"
// v2 added the resolved kernel identity (family, radius, LUT density, weight
// evaluator) after the grid geometry: two plans differing only in kernel
// must never restore interchangeably. v1 blobs are rejected as stale.
// v3 appended the backend-agnostic convolution dispatch identity: a plan
// restored under a different dispatch configuration would silently run a
// different hot path than the one it was validated with. v4 drops the
// registry on/off flag from it — every plan binds a registry variant — so
// the identity is (dim, registry width2, evaluator), see conv_dispatch_id();
// v3 blobs are rejected as stale. The vector backend is deliberately NOT
// part of the blob — it is re-resolved per CPU so a cached plan restores
// across ISAs.
constexpr std::uint32_t kVersion = 4;

// On-disk container framing (save_plan/load_plan): a checksummed header in
// front of the serialized blob, so a truncated or bit-flipped spill file is
// detected before deserialization ever looks at the payload.
constexpr std::uint32_t kFileMagic = 0x4E554653;  // "NUFS"
constexpr std::uint32_t kFileVersion = 1;

struct FileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;  // FNV-1a over the payload
};

std::uint64_t fnv1a_bytes(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  template <class T>
  void put_array(const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* b = reinterpret_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n * sizeof(T));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  template <class T>
  T get() {
    T v;
    take(&v, sizeof(T));
    return v;
  }

  template <class T>
  void get_array(T* p, std::size_t n) {
    take(p, n * sizeof(T));
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  void take(void* dst, std::size_t n) {
    NUFFT_CHECK_CODE(pos_ + n <= size_, ErrorCode::kIoCorruption, "plan blob truncated");
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> serialize_plan(const Preprocessed& pp, const GridDesc& g,
                                         const PlanConfig& cfg) {
  // Canonicalize: a tolerance-driven config and its resolved equivalent name
  // the same plan, so both serialize the same identity.
  PlanConfig rc = cfg;
  apply_tolerance(rc, g.alpha);
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.put(kMagic);
  w.put(kVersion);
  w.put(static_cast<std::int32_t>(g.dim));
  for (int d = 0; d < g.dim; ++d) w.put(g.m[static_cast<std::size_t>(d)]);

  // Kernel identity (resolved). The radius shapes the task boxes, so a
  // mismatch is structural; family/eval/LUT density are keyed so two plans
  // differing only in kernel never dedupe to one cache entry.
  w.put(static_cast<std::int32_t>(rc.kernel));
  w.put(rc.kernel_radius);
  w.put(static_cast<std::int32_t>(rc.lut_samples_per_unit));
  w.put(static_cast<std::int32_t>(rc.eval));
  // Convolution dispatch identity (backend-agnostic).
  w.put(conv_dispatch_id(rc, g.dim));

  // Partition layout.
  for (int d = 0; d < g.dim; ++d) {
    const auto& b = pp.layout.bounds[static_cast<std::size_t>(d)];
    w.put(static_cast<std::int64_t>(b.size()));
    w.put_array(b.data(), b.size());
  }

  // Tasks and marks.
  w.put(static_cast<std::int64_t>(pp.tasks.size()));
  w.put_array(pp.tasks.data(), pp.tasks.size());
  w.put_array(pp.privatized.data(), pp.privatized.size());
  w.put(pp.privatization_threshold);

  // Reorder permutation (coords are regenerated from the sample set).
  w.put(static_cast<std::int64_t>(pp.orig_index.size()));
  w.put_array(pp.orig_index.data(), pp.orig_index.size());
  return out;
}

Preprocessed deserialize_plan(const std::uint8_t* data, std::size_t size, const GridDesc& g,
                              const datasets::SampleSet& samples, const PlanConfig& cfg) {
  Timer total;
  PlanConfig rc = cfg;
  apply_tolerance(rc, g.alpha);
  Reader r(data, size);
  NUFFT_CHECK_CODE(r.get<std::uint32_t>() == kMagic, ErrorCode::kIoCorruption,
                   "not a NUFFT plan blob");
  NUFFT_CHECK_CODE(r.get<std::uint32_t>() == kVersion, ErrorCode::kIoCorruption,
                   "unsupported plan version");
  NUFFT_CHECK_MSG(r.get<std::int32_t>() == g.dim, "plan built for a different dimensionality");
  for (int d = 0; d < g.dim; ++d) {
    NUFFT_CHECK_MSG(r.get<index_t>() == g.m[static_cast<std::size_t>(d)],
                    "plan built for a different grid size");
  }
  NUFFT_CHECK_MSG(r.get<std::int32_t>() == static_cast<std::int32_t>(rc.kernel),
                  "plan built for a different kernel family");
  NUFFT_CHECK_MSG(r.get<double>() == rc.kernel_radius,
                  "plan built for a different kernel radius");
  NUFFT_CHECK_MSG(r.get<std::int32_t>() == static_cast<std::int32_t>(rc.lut_samples_per_unit),
                  "plan built for a different LUT density");
  NUFFT_CHECK_MSG(r.get<std::int32_t>() == static_cast<std::int32_t>(rc.eval),
                  "plan built for a different weight evaluator");
  NUFFT_CHECK_MSG(r.get<std::uint32_t>() == conv_dispatch_id(rc, g.dim),
                  "plan built for a different convolution dispatch configuration");

  Preprocessed pp;
  pp.layout.dim = g.dim;
  for (int d = 0; d < g.dim; ++d) {
    const auto n = r.get<std::int64_t>();
    NUFFT_CHECK_CODE(n >= 2, ErrorCode::kIoCorruption, "corrupt partition bounds");
    auto& b = pp.layout.bounds[static_cast<std::size_t>(d)];
    b.resize(static_cast<std::size_t>(n));
    r.get_array(b.data(), b.size());
    NUFFT_CHECK_CODE(b.front() == 0 && b.back() == g.m[static_cast<std::size_t>(d)],
                     ErrorCode::kIoCorruption, "partition bounds do not cover the grid");
    for (std::size_t i = 1; i < b.size(); ++i) {
      NUFFT_CHECK_CODE(b[i] > b[i - 1], ErrorCode::kIoCorruption,
                       "partition bounds not increasing");
    }
    pp.layout.num_parts[static_cast<std::size_t>(d)] = static_cast<int>(n) - 1;
  }

  const auto ntasks = r.get<std::int64_t>();
  NUFFT_CHECK_CODE(ntasks == pp.layout.total_parts(), ErrorCode::kIoCorruption,
                   "task count mismatch");
  pp.tasks.resize(static_cast<std::size_t>(ntasks));
  r.get_array(pp.tasks.data(), pp.tasks.size());
  pp.privatized.resize(static_cast<std::size_t>(ntasks));
  r.get_array(pp.privatized.data(), pp.privatized.size());
  pp.privatization_threshold = r.get<index_t>();

  const auto count = r.get<std::int64_t>();
  NUFFT_CHECK_MSG(count == samples.count(), "plan built for a different sample count");
  pp.orig_index.resize(static_cast<std::size_t>(count));
  r.get_array(pp.orig_index.data(), pp.orig_index.size());
  NUFFT_CHECK_CODE(r.exhausted(), ErrorCode::kIoCorruption, "trailing bytes in plan blob");

  // Structural validation: task ranges tile [0, count); permutation valid.
  index_t prev = 0;
  for (const auto& task : pp.tasks) {
    NUFFT_CHECK_CODE(task.begin == prev && task.end >= task.begin, ErrorCode::kIoCorruption,
                     "corrupt task ranges");
    prev = task.end;
  }
  NUFFT_CHECK_CODE(prev == count, ErrorCode::kIoCorruption,
                   "task ranges do not cover the samples");
  {
    std::vector<char> seen(static_cast<std::size_t>(count), 0);
    for (const index_t idx : pp.orig_index) {
      NUFFT_CHECK_CODE(idx >= 0 && idx < count && !seen[static_cast<std::size_t>(idx)],
                       ErrorCode::kIoCorruption, "corrupt reorder permutation");
      seen[static_cast<std::size_t>(idx)] = 1;
    }
  }

  // Rebuild the cheap derived state.
  pp.graph = std::make_unique<TaskGraph>(pp.layout);
  pp.weights.resize(pp.tasks.size());
  for (std::size_t k = 0; k < pp.tasks.size(); ++k) pp.weights[k] = pp.tasks[k].count();
  for (int d = 0; d < g.dim; ++d) {
    auto& dst = pp.coords[static_cast<std::size_t>(d)];
    dst.resize(static_cast<std::size_t>(count));
    const float* src = samples.coords[static_cast<std::size_t>(d)].data();
    for (index_t i = 0; i < count; ++i) {
      dst[static_cast<std::size_t>(i)] = src[pp.orig_index[static_cast<std::size_t>(i)]];
    }
  }
  pp.stats.tasks = static_cast<int>(ntasks);
  pp.stats.privatized_tasks =
      static_cast<int>(std::count(pp.privatized.begin(), pp.privatized.end(), char(1)));
  pp.stats.total_s = total.seconds();
  return pp;
}

void save_plan(const std::string& path, const Preprocessed& pp, const GridDesc& g,
               const PlanConfig& cfg) {
  const auto blob = serialize_plan(pp, g, cfg);
  FileHeader h;
  h.magic = kFileMagic;
  h.version = kFileVersion;
  h.payload_bytes = blob.size();
  h.checksum = fnv1a_bytes(blob.data(), blob.size());
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  NUFFT_CHECK_MSG(f.good(), "cannot open plan file for writing");
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f.write(reinterpret_cast<const char*>(blob.data()), static_cast<std::streamsize>(blob.size()));
  NUFFT_CHECK_MSG(f.good(), "plan file write failed");
}

Preprocessed load_plan(const std::string& path, const GridDesc& g,
                       const datasets::SampleSet& samples, const PlanConfig& cfg) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  NUFFT_CHECK_MSG(f.good(), "cannot open plan file for reading");
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  NUFFT_CHECK_CODE(size >= sizeof(FileHeader), ErrorCode::kIoCorruption,
                   "plan file truncated before the header");
  FileHeader h;
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  NUFFT_CHECK_MSG(f.good(), "plan file read failed");
  NUFFT_CHECK_CODE(h.magic == kFileMagic && h.version == kFileVersion,
                   ErrorCode::kIoCorruption, "not a NUFFT plan file (or a stale format)");
  NUFFT_CHECK_CODE(h.payload_bytes == size - sizeof(FileHeader), ErrorCode::kIoCorruption,
                   "plan file truncated");
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(h.payload_bytes));
  f.read(reinterpret_cast<char*>(blob.data()), static_cast<std::streamsize>(blob.size()));
  NUFFT_CHECK_MSG(f.good(), "plan file read failed");
  NUFFT_CHECK_CODE(fnv1a_bytes(blob.data(), blob.size()) == h.checksum,
                   ErrorCode::kIoCorruption, "plan file checksum mismatch");
  return deserialize_plan(blob.data(), blob.size(), g, samples, cfg);
}

std::size_t plan_resident_bytes(const Preprocessed& pp, const GridDesc& g) {
  std::size_t bytes = sizeof(Preprocessed);
  for (int d = 0; d < g.dim; ++d) {
    bytes += pp.coords[static_cast<std::size_t>(d)].size() * sizeof(float);
  }
  bytes += pp.orig_index.size() * sizeof(index_t);
  bytes += pp.tasks.size() * sizeof(ConvTask);
  bytes += pp.weights.size() * sizeof(index_t);
  bytes += pp.privatized.size() * sizeof(char);
  if (pp.delta != nullptr) {
    bytes += pp.delta->task_of.size() * sizeof(std::int32_t);
    for (int d = 0; d < g.dim; ++d) {
      bytes += pp.delta->cell_counts[static_cast<std::size_t>(d)].size() * sizeof(index_t);
      bytes += pp.delta->prev_coords[static_cast<std::size_t>(d)].size() * sizeof(float);
      bytes += pp.delta->coords_scratch[static_cast<std::size_t>(d)].size() * sizeof(float);
    }
    bytes += pp.delta->orig_scratch.size() * sizeof(index_t);
  }
  return bytes;
}

}  // namespace nufft
