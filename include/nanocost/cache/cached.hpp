// Cached spellings of the deterministic entry points.
//
// Each *_cached function is observably identical to its plain
// counterpart -- PRs 1-6 made every one of these a pure function of
// its inputs, bitwise invariant under thread count and SIMD level, so
// a hit can return the memoized bytes without qualifying the answer.
// Keys come from cache/key.hpp (and deliberately exclude the thread
// pool and SIMD level: they do not shape the result); values round-trip
// through cache/codec.hpp and live in the process-wide sharded LRU
// (cache/lru.hpp).
//
// On a miss the plain function runs (on the caller's pool as usual),
// the encoded result is inserted, and the *computed* value is returned
// directly -- a miss is never slower than the uncached call by more
// than the encode.
//
// Every spelling is built on one public pair, lookup_encoded and
// publish_encoded, which callers that already hold (or want) the
// encoded bytes use directly -- the serve daemon answers an eq4 hit with
// the stored bytes, never decoding them.  Telemetry lives in the pair:
// each lookup counts one of cache.hits / cache.misses and records a
// "cache.lookup" span when tracing; each publish adds its size to
// cache.insert_bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/cache/hash.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/regularity/window_sweep.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::cache {

/// Copies the encoded result stored under `key` in the process-wide
/// result cache into `out`; returns false (leaving `out` unspecified) on
/// a miss.
[[nodiscard]] bool lookup_encoded(const Digest128& key, std::vector<std::uint8_t>& out);

/// Stores already-encoded result bytes under `key` (the cache may
/// reject or later evict them; a lookup then simply misses).
void publish_encoded(const Digest128& key, const std::vector<std::uint8_t>& bytes);

/// core::sweep_eq4, memoized.
[[nodiscard]] std::vector<core::SweepPoint> sweep_eq4_cached(const core::Eq4Inputs& inputs,
                                                             double lo, double hi, int steps,
                                                             exec::ThreadPool* pool = nullptr);

/// core::monte_carlo_cost, memoized.
[[nodiscard]] core::RiskResult monte_carlo_cost_cached(const core::UncertainInputs& inputs,
                                                       double s_d, int samples = 4000,
                                                       std::uint64_t seed = 1,
                                                       double die_budget = 0.0,
                                                       exec::ThreadPool* pool = nullptr);

/// core::robust_sd, memoized.
[[nodiscard]] core::RobustOptimum robust_sd_cached(const core::UncertainInputs& inputs,
                                                   double quantile, double lo, double hi,
                                                   int steps, int samples = 2000,
                                                   std::uint64_t seed = 1,
                                                   exec::ThreadPool* pool = nullptr);

/// regularity::sweep_windows, memoized (the cell hashes by content).
[[nodiscard]] std::vector<regularity::WindowSweepPoint> sweep_windows_cached(
    const layout::Cell& top, layout::Coord min_window, int steps,
    bool orientation_invariant = false, exec::ThreadPool* pool = nullptr);

/// fabsim::FabSimulator::run, memoized (the simulator hashes by
/// configuration content).
[[nodiscard]] fabsim::LotResult fabsim_run_cached(const fabsim::FabSimulator& sim,
                                                  std::int64_t n_wafers,
                                                  std::uint64_t seed = 42,
                                                  exec::ThreadPool* pool = nullptr);

/// place::anneal_place_multistart, memoized (the netlist hashes by
/// content).
[[nodiscard]] place::MultistartResult anneal_place_multistart_cached(
    const netlist::Netlist& netlist, std::int32_t rows, std::int32_t cols,
    std::int32_t starts, const place::AnnealParams& params = {},
    exec::ThreadPool* pool = nullptr);

}  // namespace nanocost::cache
