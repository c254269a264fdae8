#include "exec/plan_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/fault.hpp"
#include "core/plan_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nufft::exec {

namespace {

template <class T>
void append_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&v);
  out.append(p, sizeof(T));
}

std::uint64_t fnv64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fault-injection helper ("registry.spill.corrupt"): flip the last byte of a
// freshly written spill file so the next restore exercises the checksum path.
[[maybe_unused]] void corrupt_spill_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  if (std::fseek(f, -1, SEEK_END) == 0) {
    const int c = std::fgetc(f);
    if (c != EOF && std::fseek(f, -1, SEEK_END) == 0) {
      std::fputc(c ^ 0x5a, f);
    }
  }
  std::fclose(f);
}

}  // namespace

PlanRegistry::PlanRegistry(RegistryConfig cfg) : cfg_(std::move(cfg)) {}

std::string PlanRegistry::make_key(const GridDesc& g, const datasets::SampleSet& samples,
                                   const PlanConfig& cfg) {
  std::string key;
  key.reserve(128);
  append_pod(key, static_cast<std::int64_t>(g.dim));
  for (int d = 0; d < 3; ++d) {
    append_pod(key, static_cast<std::int64_t>(g.n[static_cast<std::size_t>(d)]));
    append_pod(key, static_cast<std::int64_t>(g.m[static_cast<std::size_t>(d)]));
  }
  append_pod(key, g.alpha);
  append_pod(key, datasets::content_hash(samples));
  append_pod(key, cfg.kernel_radius);
  append_pod(key, static_cast<std::int32_t>(cfg.kernel));
  append_pod(key, static_cast<std::int32_t>(cfg.lut_samples_per_unit));
  // Kernel identity beyond the family: the requested accuracy and the weight
  // evaluator both change what the plan computes, so they are part of the
  // key (a KB plan and an ES plan with identical geometry, or a LUT plan and
  // a Horner plan, must never dedupe to one entry).
  append_pod(key, cfg.tolerance);
  append_pod(key, static_cast<std::int32_t>(cfg.eval));
  append_pod(key, static_cast<std::int32_t>(cfg.threads));
  append_pod(key, static_cast<std::int32_t>(cfg.use_simd));
  append_pod(key, static_cast<std::int32_t>(cfg.isa));
  append_pod(key, static_cast<std::int32_t>(cfg.reorder));
  append_pod(key, static_cast<std::int32_t>(cfg.color_barrier_schedule));
  append_pod(key, static_cast<std::int32_t>(cfg.variable_partitions));
  append_pod(key, static_cast<std::int32_t>(cfg.priority_queue));
  append_pod(key, static_cast<std::int32_t>(cfg.selective_privatization));
  append_pod(key, static_cast<std::int32_t>(cfg.partitions_per_dim));
  append_pod(key, cfg.privatization_factor);
  append_pod(key, static_cast<std::int64_t>(cfg.reorder_tile));
  append_pod(key, static_cast<std::int32_t>(cfg.record_trace));
  return key;
}

std::string PlanRegistry::spill_path(const std::string& key) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv64(key)));
  return (std::filesystem::path(cfg_.spill_dir) / (std::string(hex) + ".nufftplan")).string();
}

std::shared_ptr<const Nufft> PlanRegistry::acquire(const GridDesc& g,
                                                   const datasets::SampleSet& samples,
                                                   const PlanConfig& cfg,
                                                   const std::string& tenant) {
  const std::string key = make_key(g, samples, cfg);
  return acquire_impl(key, g, samples, tenant, [&]() {
    std::shared_ptr<Nufft> plan;
    if (!cfg_.spill_dir.empty()) {
      const std::string path = spill_path(key);
      if (std::filesystem::exists(path)) {
        try {
          Preprocessed pp = load_plan(path, g, samples, cfg);
          plan = std::make_shared<Nufft>(g, samples, cfg, std::move(pp));
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.spill_restores;
          obs::count("registry.spill_restores");
        } catch (const Error& e) {
          // A stale or corrupt spill file is not an error — drop the file
          // so the rebuilt plan can re-spill cleanly, and rebuild.
          std::error_code ec;
          std::filesystem::remove(path, ec);
          if (e.code() == ErrorCode::kIoCorruption) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt_spills;
            obs::count("registry.corrupt_spills");
          }
        } catch (...) {
          std::error_code ec;
          std::filesystem::remove(path, ec);
        }
      }
    }
    if (!plan) {
      fault::inject("registry.build", ErrorCode::kBuildFailure);
      plan = std::make_shared<Nufft>(g, samples, cfg);
    }
    return plan;
  });
}

PlanUpdateResult PlanRegistry::update_plan(const GridDesc& g, const std::string& old_key,
                                           const datasets::SampleSet& new_samples,
                                           const PlanConfig& cfg, const std::string& tenant) {
  PlanUpdateResult r;
  r.key = make_key(g, new_samples, cfg);
  if (r.key == old_key) {
    // Content-hash short-circuit: a bitwise-identical trajectory keys
    // identically, so the resident plan is already the right one. Serve it
    // as a hit — LRU tick and tenant charge refreshed, generation untouched,
    // no build and no eviction pressure.
    obs::count("registry.plan_update_noops");
    r.noop = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.plan_update_noops;
      sweep_zombies_locked();
      auto it = entries_.find(r.key);
      if (it != entries_.end() && it->second.ready) {
        charge_tenant_locked(it->second, tenant, it->second.bytes);
        ++stats_.hits;
        obs::count("registry.hits");
        it->second.tick = ++tick_;
        r.plan = it->second.plan.get();
        return r;
      }
    }
    // Evicted or mid-build — the standard acquire path restores/joins it.
    r.plan = acquire(g, new_samples, cfg, tenant);
    return r;
  }

  // The diff base: the old key's plan, if it is still resident and ready. A
  // pending build is not joined — deriving from a plan that does not exist
  // yet would serialize the update behind it; the cold fallback is correct
  // and no slower than what that wait would cost.
  std::shared_ptr<const Nufft> old_plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.plan_updates;
    auto it = entries_.find(old_key);
    if (it != entries_.end() && it->second.ready) old_plan = it->second.plan.get();
  }
  obs::count("registry.plan_updates");

  bool built = false;
  bool warm = false;
  r.plan = acquire_impl(r.key, g, new_samples, tenant, [&]() {
    built = true;
    fault::inject("registry.build", ErrorCode::kBuildFailure);
    std::shared_ptr<Nufft> p;
    if (old_plan != nullptr) {
      // Copy-on-write derivation: the old plan is shared with concurrent
      // applies and is never mutated — the delta update runs on a clone.
      p = std::make_shared<Nufft>(*old_plan, new_samples);
      warm = p->plan_stats().warm_updated;
    } else {
      p = std::make_shared<Nufft>(g, new_samples, cfg);
    }
    return p;
  });
  // built == false means another thread already registered the new key —
  // a plain hit, neither warm nor a fallback.
  r.warm = built && warm;
  r.fallback = built && !warm;
  if (r.fallback) {
    obs::count("registry.plan_update_fallbacks");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.plan_update_fallbacks;
  }
  return r;
}

std::shared_ptr<const Nufft> PlanRegistry::acquire_impl(
    const std::string& key, const GridDesc& g, const datasets::SampleSet& samples,
    const std::string& tenant, const std::function<std::shared_ptr<Nufft>()>& build_fn) {
  const std::size_t reservation = estimate_plan_bytes(g, samples);

  std::promise<std::shared_ptr<const Nufft>> prom;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Collect quota refunds for evicted plans whose last holder has since
    // let go, so the admission check below sees the tenant's real usage.
    sweep_zombies_locked();
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Quota admission runs before the hit is served: a tenant joining an
      // existing entry pays for it too (ready entries at their footprint,
      // pending builds at the reservation their waiters were admitted with).
      charge_tenant_locked(it->second, tenant,
                           it->second.ready ? it->second.bytes : reservation);
      ++stats_.hits;
      obs::count("registry.hits");
      if (!it->second.ready) {
        ++stats_.single_flight_waits;
        obs::count("registry.single_flight_waits");
      }
      it->second.tick = ++tick_;
      if (it->second.ready) {
        // Ready entries hand out the shared_ptr under the lock (get() cannot
        // block here), so a concurrent eviction always sees this holder's
        // reference and defers the quota refund accordingly.
        return it->second.plan.get();
      }
      auto fut = it->second.plan;  // copy under lock; get() outside
      lock.unlock();
      return fut.get();
    }
    auto qit = quarantine_.find(key);
    if (qit != quarantine_.end() &&
        qit->second.consecutive_failures >= cfg_.quarantine_threshold &&
        std::chrono::steady_clock::now() < qit->second.retry_after) {
      // Fail fast with the stored error instead of re-running a build that
      // has failed deterministically several times in a row — waiters would
      // otherwise stampede behind every doomed single-flight attempt.
      ++stats_.quarantine_rejects;
      obs::count("registry.quarantine_rejects");
      throw Error("plan build quarantined after " +
                      std::to_string(qit->second.consecutive_failures) +
                      " consecutive failures: " + qit->second.last_error,
                  qit->second.last_code);
    }
    ++stats_.misses;
    obs::count("registry.misses");
    Entry e;
    e.plan = prom.get_future().share();
    e.tick = ++tick_;
    // Admit against the tenant's quota before any work happens — an
    // over-quota build is refused here, cheaply, not after preprocessing.
    charge_tenant_locked(e, tenant, reservation);
    entries_.emplace(key, std::move(e));
  }

  // Build outside the lock so concurrent acquires of *other* keys proceed
  // and same-key acquires block on the shared future, not the mutex.
  std::shared_ptr<Nufft> plan;
  try {
    obs::Span build_span("registry.build", "registry");
    plan = build_fn();
    std::size_t bytes = plan_resident_bytes(plan->plan(), g) + plan->workspace_bytes();

    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    it->second.ready = true;
    it->second.bytes = bytes;
    bytes_ += bytes;
    // The real footprint is known now — replace every waiter's reservation.
    true_up_entry_locked(it->second, bytes);
    quarantine_.erase(key);  // one success clears the failure history
    evict_locked(key);
  } catch (...) {
    const std::exception_ptr eptr = std::current_exception();
    std::string msg = "plan build failed";
    ErrorCode code = ErrorCode::kBuildFailure;
    try {
      std::rethrow_exception(eptr);
    } catch (const Error& e) {
      msg = e.what();
      code = e.code();
    } catch (const std::exception& e) {
      msg = e.what();
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The failed build never caches: erasing the pending entry means the
      // next acquire of this key starts fresh instead of observing a future
      // that is poisoned forever. The quota reservations held by the dying
      // entry — the builder's and every single-flight waiter's — are
      // refunded here; without this, a key that fails its way into
      // quarantine would leak its charge and slowly eat the tenant's budget.
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        refund_entry_locked(it->second);
        entries_.erase(it);
      }
      record_build_failure_locked(key, msg, code);
    }
    prom.set_exception(eptr);
    std::rethrow_exception(eptr);
  }
  prom.set_value(plan);
  return plan;
}

bool PlanRegistry::quarantine_plan(const std::shared_ptr<const Nufft>& plan,
                                   const std::string& reason) {
  if (plan == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    Entry& e = it->second;
    if (!e.ready || e.plan.get().get() != plan.get()) continue;
    const std::string key = it->first;
    bytes_ -= e.bytes;
    // The watchdog (and whoever submitted the job) still holds the plan;
    // like LRU eviction, the tenant charges follow the live references.
    if (!e.charges.empty()) {
      zombies_.push_back(Zombie{std::weak_ptr<const Nufft>(plan), std::move(e.charges)});
    }
    entries_.erase(it);
    // Jump straight past the failure-count threshold: one hung apply is
    // worth quarantine_threshold failed builds — the plan's preprocessing
    // output is suspect and re-acquiring it immediately would hand the next
    // job the same hazard. A later acquire after the backoff rebuilds from
    // scratch (or from spill) and one success clears the record.
    Quarantine& q = quarantine_[key];
    q.consecutive_failures = std::max(q.consecutive_failures + 1, cfg_.quarantine_threshold);
    q.last_error = reason;
    q.last_code = ErrorCode::kUnavailable;
    auto backoff = cfg_.quarantine_base_backoff;
    for (int i = cfg_.quarantine_threshold; i < q.consecutive_failures; ++i) {
      backoff = std::min(backoff * 2, cfg_.quarantine_max_backoff);
    }
    q.retry_after = std::chrono::steady_clock::now() + backoff;
    ++stats_.watchdog_quarantines;
    obs::count("registry.watchdog_quarantines");
    return true;
  }
  return false;
}

void PlanRegistry::record_build_failure_locked(const std::string& key, const std::string& msg,
                                               ErrorCode code) {
  ++stats_.build_failures;
  obs::count("registry.build_failures");
  Quarantine& q = quarantine_[key];
  ++q.consecutive_failures;
  q.last_error = msg;
  q.last_code = code;
  if (q.consecutive_failures >= cfg_.quarantine_threshold) {
    auto backoff = cfg_.quarantine_base_backoff;
    for (int i = cfg_.quarantine_threshold; i < q.consecutive_failures; ++i) {
      backoff = std::min(backoff * 2, cfg_.quarantine_max_backoff);
    }
    backoff = std::min(backoff, cfg_.quarantine_max_backoff);
    q.retry_after = std::chrono::steady_clock::now() + backoff;
  }
}

void PlanRegistry::evict_locked(const std::string& keep_key) {
  while (bytes_ > cfg_.max_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready || it->first == keep_key) continue;
      if (victim == entries_.end() || it->second.tick < victim->second.tick) victim = it;
    }
    if (victim == entries_.end()) break;  // nothing evictable (pending / just inserted)
    if (!cfg_.spill_dir.empty()) {
      const auto plan = victim->second.plan.get();
      std::filesystem::create_directories(cfg_.spill_dir);
      const std::string path = spill_path(victim->first);
      save_plan(path, plan->plan(), plan->grid_desc(), plan->config());
      if (fault::should_fail("registry.spill.corrupt")) corrupt_spill_file(path);
      ++stats_.spills;
      obs::count("registry.spills");
    }
    bytes_ -= victim->second.bytes;
    // Defer the quota refund until the last outside reference dies: eviction
    // only drops the registry's reference, and a tenant whose handles keep
    // the plan resident must stay charged for it — refunding here would let
    // register → evict → register cycles escape tenant_max_bytes.
    if (!victim->second.charges.empty()) {
      zombies_.push_back(Zombie{victim->second.plan.get(), std::move(victim->second.charges)});
    }
    entries_.erase(victim);
    ++stats_.evictions;
    obs::count("registry.evictions");
  }
  // An evicted plan nobody else held died with its entry just now; refund it
  // immediately rather than waiting for the next acquire.
  sweep_zombies_locked();
}

void PlanRegistry::charge_tenant_locked(Entry& e, const std::string& tenant,
                                        std::size_t bytes) {
  if (tenant.empty()) return;
  if (e.charges.count(tenant) != 0) return;  // this tenant already pays for it
  TenantUsage& u = tenants_[tenant];
  const bool over_bytes = cfg_.tenant_max_bytes != 0 && u.bytes + bytes > cfg_.tenant_max_bytes;
  const bool over_plans = cfg_.tenant_max_plans != 0 && u.plans + 1 > cfg_.tenant_max_plans;
  if (over_bytes || over_plans) {
    ++stats_.quota_rejects;
    obs::count("registry.quota_rejects");
    throw Error("tenant '" + tenant + "' over " + (over_bytes ? "byte" : "plan") +
                    " quota: " + std::to_string(u.bytes) + " B across " +
                    std::to_string(u.plans) + " plans resident, " + std::to_string(bytes) +
                    " B requested",
                ErrorCode::kOverloaded);
  }
  u.bytes += bytes;
  u.plans += 1;
  e.charges.emplace(tenant, bytes);
}

void PlanRegistry::refund_entry_locked(Entry& e) {
  refund_charges_locked(e.charges);
  e.charges.clear();
}

void PlanRegistry::refund_charges_locked(
    const std::unordered_map<std::string, std::size_t>& charges) const {
  for (const auto& [tenant, charged] : charges) {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) continue;
    it->second.bytes -= std::min(it->second.bytes, charged);
    if (it->second.plans > 0) it->second.plans -= 1;
    if (it->second.bytes == 0 && it->second.plans == 0) tenants_.erase(it);
  }
}

void PlanRegistry::sweep_zombies_locked() const {
  for (auto it = zombies_.begin(); it != zombies_.end();) {
    if (it->plan.expired()) {
      refund_charges_locked(it->charges);
      it = zombies_.erase(it);
    } else {
      ++it;
    }
  }
}

void PlanRegistry::true_up_entry_locked(Entry& e, std::size_t bytes) {
  for (auto& [tenant, charged] : e.charges) {
    TenantUsage& u = tenants_[tenant];
    u.bytes -= std::min(u.bytes, charged);
    u.bytes += bytes;
    charged = bytes;
  }
}

std::size_t PlanRegistry::tenant_bytes(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  sweep_zombies_locked();
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.bytes;
}

std::size_t PlanRegistry::tenant_plans(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  sweep_zombies_locked();
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.plans;
}

std::size_t PlanRegistry::estimate_plan_bytes(const GridDesc& g,
                                              const datasets::SampleSet& samples) {
  // Reordered coordinates (dim float arrays), per-sample LUT offsets and the
  // reorder permutation, plus one grid-sized complex workspace. This bounds
  // the dominant terms of plan_resident_bytes() + workspace_bytes() from
  // above for every supported configuration.
  const auto count = static_cast<std::size_t>(samples.count());
  const std::size_t per_sample =
      static_cast<std::size_t>(samples.dim + 1) * sizeof(float) + 2 * sizeof(index_t);
  return count * per_sample + static_cast<std::size_t>(g.grid_elems()) * sizeof(cfloat);
}

RegistryStats PlanRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t PlanRegistry::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace nufft::exec
