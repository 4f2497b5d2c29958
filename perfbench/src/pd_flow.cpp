// pd_flow: one caller, closed loop.  Each step generates a seeded
// 200-300-gate netlist and runs place::anneal_place_multistart (2 starts)
// -> route::route -> timing::analyze_placed on it.  Without this
// workload place/route/timing go unmeasured; the step's stage split is
// itself the evidence the router work waits for.  Flows on netlists
// below kHeavyGates are the light kind, the rest the heavy kind.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/route/router.hpp"
#include "nanocost/timing/sta.hpp"

namespace bench {

namespace {

namespace cache = nanocost::cache;
namespace exec = nanocost::exec;
namespace netlist = nanocost::netlist;
namespace obs = nanocost::obs;
namespace place = nanocost::place;
namespace route = nanocost::route;
namespace timing = nanocost::timing;

constexpr int kSetupReps = 5;
constexpr int kWarmFlows = 2;
constexpr std::int32_t kMinGates = 200;
constexpr std::int32_t kMaxGates = 300;
constexpr std::int32_t kHeavyGates = 250;
constexpr std::int32_t kStarts = 2;
constexpr std::uint64_t kSampleEvery = 16;  ///< flows kept for the output check

struct FlowInput final {
  std::int32_t gates = 0;
  std::uint64_t seed = 0;
};

FlowInput draw_flow(Rng& r) {
  FlowInput in;
  in.gates = kMinGates + static_cast<std::int32_t>(r.below(kMaxGates - kMinGates + 1));
  in.seed = r.next();
  return in;
}

/// Stage times of one flow, µs.
struct FlowTimes final {
  double place_us = 0.0;
  double route_us = 0.0;
  double sta_us = 0.0;
};

void put(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}
template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  put(out, &v, sizeof(v));
}

/// Runs one flow; returns its placement, routing and timing results as
/// bytes (placement through the cache codec, the rest field by field).
std::vector<std::uint8_t> run_flow(const FlowInput& in, exec::ThreadPool* pool,
                                   FlowTimes* times) {
  netlist::GeneratorParams gen;
  gen.gate_count = in.gates;
  gen.locality = 0.4;
  gen.seed = in.seed;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const auto cols = static_cast<std::int32_t>(std::ceil(std::sqrt(in.gates * 2.4)));
  const auto rows =
      static_cast<std::int32_t>(std::ceil(in.gates * 1.2 / static_cast<double>(cols)));
  place::AnnealParams params;
  params.seed = in.seed;

  const double t0 = now_s();
  const place::MultistartResult placed =
      place::anneal_place_multistart(nl, rows, cols, kStarts, params, pool);
  const double t1 = now_s();
  const route::RouteResult routed = route::route(nl, placed.best.placement);
  const double t2 = now_s();
  const timing::TimingResult timed = timing::analyze_placed(nl, placed.best.placement);
  const double t3 = now_s();
  if (times != nullptr) *times = FlowTimes{(t1 - t0) * 1e6, (t2 - t1) * 1e6, (t3 - t2) * 1e6};

  std::vector<std::uint8_t> out = cache::encode(placed);
  put(out, routed.total_wirelength_edges);
  put(out, routed.connections_routed);
  put(out, routed.overflowed_edges);
  put(out, routed.max_utilization);
  put(out, routed.average_utilization);
  put(out, routed.completed_rip_up_passes);
  for (std::int32_t r = 0; r < routed.grid.rows(); ++r) {
    for (std::int32_t c = 0; c < routed.grid.cols(); ++c) {
      if (c + 1 < routed.grid.cols()) put(out, routed.grid.h_demand(r, c));
      if (r + 1 < routed.grid.rows()) put(out, routed.grid.v_demand(r, c));
    }
  }
  put(out, timed.critical_path_ps);
  put(out, timed.total_gate_delay_ps);
  put(out, timed.total_wire_delay_ps);
  put(out, timed.critical_path.data(), timed.critical_path.size() * sizeof(std::int32_t));
  put(out, timed.net_arrival_ps.data(), timed.net_arrival_ps.size() * sizeof(double));
  return out;
}

struct FlowWindow final {
  Window w;
  std::vector<FlowTimes> times;
  std::vector<std::pair<FlowInput, std::vector<std::uint8_t>>> samples;
};

FlowWindow flow_window(std::uint64_t seed, std::uint64_t stream, double seconds) {
  FlowWindow fw;
  Rng r(mix_seed(seed, stream));
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  for (std::uint64_t i = 0; now_s() < deadline; ++i) {
    const FlowInput in = draw_flow(r);
    KindLatency& kind = in.gates < kHeavyGates ? fw.w.light : fw.w.heavy;
    const double start = now_s();
    FlowTimes times;
    std::vector<std::uint8_t> result;
    try {
      result = run_flow(in, nullptr, &times);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: flow failed: %s\n", e.what());
      kind.record_failed();
      continue;
    }
    kind.record_ok((now_s() - start) * 1e3);
    fw.times.push_back(times);
    if (i % kSampleEvery == 0) fw.samples.emplace_back(in, std::move(result));
  }
  fw.w.wall_s = now_s() - t0;
  fw.w.cpu_s = cpu_s() - cpu0;
  return fw;
}

}  // namespace

int run_pd_flow(const Args& args, const std::string& dir, Report& report, double usable_cores) {
  obs::set_metrics_enabled(true);
  PhaseCount warm{"setup"};
  const double setup_s = time_setups(
      kSetupReps, [] {},
      [&] {
        // Fixed netlist sizes, so set-up cost does not vary with the seed.
        Rng r(mix_seed(args.seed, 0x3F));
        for (int i = 0; i < kWarmFlows; ++i) {
          ++warm.attempted;
          try {
            (void)run_flow(FlowInput{i % 2 == 0 ? kMinGates + 25 : kMaxGates - 25, r.next()},
                           nullptr, nullptr);
            ++warm.ok;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "bench: flow failed: %s\n", e.what());
            ++warm.failed;
          }
        }
      });
  report.phase(warm);

  FlowWindow warmup = flow_window(args.seed, 3, kWarmupSeconds);
  report.phase(PhaseCount{"warmup", warmup.w.attempted(), warmup.w.ok(), warmup.w.failed()});

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  FlowWindow untraced = flow_window(args.seed, 1, seconds);
  report.phase(PhaseCount{"timed", untraced.w.attempted(), untraced.w.ok(), untraced.w.failed()});
  std::uint64_t attempted = warm.attempted + warmup.w.attempted() + untraced.w.attempted();
  std::uint64_t failed = warm.failed + warmup.w.failed() + untraced.w.failed();
  const auto stage_medians = [](const std::vector<FlowTimes>& t, double& p, double& r,
                                double& s) {
    std::vector<double> pv, rv, sv;
    for (const FlowTimes& f : t) {
      pv.push_back(f.place_us);
      rv.push_back(f.route_us);
      sv.push_back(f.sta_us);
    }
    p = median(pv);
    r = median(rv);
    s = median(sv);
  };
  {
    double p = 0, r = 0, s = 0;
    stage_medians(untraced.times, p, r, s);
    report.note("stage medians (untraced): place %.1f us, route %.1f us, sta %.1f us", p, r, s);
  }

  FlowWindow traced;
  if (args.trace) {
    const std::string trace_path = dir + "/trace.json";
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    obs::start_trace(trace_path);
    traced = flow_window(args.seed, 2, seconds);
    obs::stop_trace();
    const Scrape scrape(before, obs::snapshot_metrics());
    report.phase(PhaseCount{"traced", traced.w.attempted(), traced.w.ok(), traced.w.failed()});
    attempted += traced.w.attempted();
    failed += traced.w.failed();
    Layers l;
    l.ok_ops = static_cast<double>(traced.w.ok());
    stage_medians(traced.times, l.anneal_us, l.route_us, l.analyze_us);
    std::vector<double> all_ms = traced.w.light.ms;
    all_ms.insert(all_ms.end(), traced.w.heavy.ms.begin(), traced.w.heavy.ms.end());
    const double flow_us = median(all_ms) * 1e3;
    report.note("stage-sum flow base p50 of all flows %.1f us: place %.1f + route %.1f + sta "
                "%.1f (stage medians; %.1f%% of the flow, the rest is netlist generation)",
                flow_us, l.anneal_us, l.route_us, l.analyze_us,
                100 * ratio(l.anneal_us + l.route_us + l.analyze_us, flow_us));
    report_layers(report, l, scrape, read_trace(trace_path), untraced.w, traced.w,
                  usable_cores);
  }

  // Output check: sampled flows recomputed on a 1-thread pool must give
  // identical placement, routing and timing results.
  exec::ThreadPool serial(1);
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  for (const FlowWindow* fw : {&warmup, &untraced, &traced}) {
    for (const auto& [in, bytes] : fw->samples) {
      ++checked;
      if (run_flow(in, &serial, nullptr) != bytes) ++mismatched;
    }
  }
  report.note("output check: %llu flows recomputed on a 1-thread pool, %llu mismatched",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatched));
  if (checked == 0) report.fail_check("no flow was checked");
  if (mismatched > 0) report.fail_check("flow results differ on a 1-thread pool");

  if (!args.trace) report_end_to_end(report, untraced.w, setup_s, 0.9, 0.9, "flow <250 gates",
                    "flow >=250 gates");
  report.set_totals(attempted, failed);
  return 0;
}

}  // namespace bench
