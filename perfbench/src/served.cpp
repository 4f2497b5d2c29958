// Served workloads: an in-process serve::Server configured like the
// nanocost_serve defaults (metrics on, tracing off, 2 light-job workers,
// reject-newest admission), driven through serve::Client over a Unix
// socket by at most three client connections from this one process.
//
//   serve_hot       closed loop, 3 connections; 80% eq4 sweeps (60 steps)
//                   and 20% risk jobs (20 000 samples), Zipf-drawn from a
//                   small pool of distinct keys that setup has already
//                   sent once.  Repeat-heavy exploration traffic: cache
//                   hits, coalescing and per-request overhead dominate.
//   serve_cold      closed loop, 3 connections; 50% eq4 (kColdEq4Steps
//                   steps) and 50% risk (20 000 samples), every key
//                   unique.  The kernels dominate, every cache lookup
//                   misses, and the distinct eq4 results outgrow the
//                   64 MiB result cache, so its insert/evict path runs.
//   serve_campaign  closed loop, 3 tenant connections; fabline lot
//                   campaigns, 75% 64-wafer and 25% 16-wafer lots, ~25% of
//                   them resubmissions of the tenant's earlier campaigns.
//                   The only load on admission, the campaign engine and
//                   fabsim.  The timed server runs without the on-disk
//                   artifact tier (see run_campaign); the traced run
//                   measures the tier on a second server.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/cache/lru.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/serve/client.hpp"
#include "nanocost/serve/jobs.hpp"
#include "nanocost/serve/server.hpp"

namespace bench {

namespace {

namespace core = nanocost::core;
namespace cache = nanocost::cache;
namespace obs = nanocost::obs;
namespace serve = nanocost::serve;
namespace units = nanocost::units;

constexpr int kClients = 3;
constexpr int kSetupReps = 5;
constexpr std::int32_t kHotEq4Steps = 60;
constexpr std::int32_t kColdEq4Steps = 800;
constexpr std::int32_t kRiskSamples = 20000;
constexpr int kHotEq4Keys = 32;
constexpr int kHotRiskKeys = 8;
constexpr double kZipfExponent = 1.1;
constexpr int kColdWarmJobs = 8;          ///< per kind, sent during setup
constexpr std::uint64_t kColdSampleEvery = 16;
constexpr std::size_t kColdSampleCap = 24;  ///< per client
constexpr double kCampaignResubmitShare = 0.25;
constexpr std::int64_t kHeavyWafers = 64;
constexpr std::int64_t kLightWafers = 16;
constexpr double kLightLotShare = 0.25;
constexpr int kTierProbeJobs = 16;
/// A resubmission targets one of the tenant's fresh campaigns at least
/// this many campaigns old.
constexpr std::uint64_t kResubmitMinAge = 16;
constexpr int kCampaignWarm = 8;
constexpr std::size_t kCampaignChecks = 24;
constexpr std::size_t kKeepFresh = 256;  ///< per tenant and window
constexpr int kReplaySamples = 16;  ///< direct-call replays per kind (traced run)

enum class Mix { kHot, kCold };

// ---- inputs -----------------------------------------------------------------

core::Eq4Inputs random_eq4_inputs(Rng& r) {
  core::Eq4Inputs in;
  in.lambda = units::Micrometers{r.uniform(0.09, 0.35)};
  in.yield = units::Probability{r.uniform(0.6, 0.92)};
  in.manufacturing_cost = units::CostPerArea{r.uniform(4.0, 12.0)};
  in.transistors_per_chip = r.log_uniform(1e6, 1e8);
  in.n_wafers = r.log_uniform(5e3, 1e5);
  in.mask_cost = units::Money{r.log_uniform(3e5, 1.5e6)};
  return in;
}

struct LightJob final {
  bool is_eq4 = true;
  serve::Eq4Job eq4{};
  serve::RiskJob risk{};
  int key = -1;  ///< index into the hot pool; -1 for unique jobs
};

LightJob random_eq4_job(Rng& r, std::int32_t steps) {
  LightJob j;
  j.is_eq4 = true;
  j.eq4.inputs = random_eq4_inputs(r);
  j.eq4.lo = 2e2;
  j.eq4.hi = 1e4;
  j.eq4.steps = steps;
  return j;
}

LightJob random_risk_job(Rng& r) {
  LightJob j;
  j.is_eq4 = false;
  j.risk.inputs.nominal = random_eq4_inputs(r);
  j.risk.s_d = r.log_uniform(300.0, 5000.0);
  j.risk.samples = kRiskSamples;
  j.risk.seed = r.next() | 1;
  return j;
}

std::vector<std::uint8_t> direct_bytes(const LightJob& j) {
  if (j.is_eq4) {
    return cache::encode(core::sweep_eq4(j.eq4.inputs, j.eq4.lo, j.eq4.hi, j.eq4.steps));
  }
  return cache::encode(core::monte_carlo_cost(j.risk.inputs, j.risk.s_d, j.risk.samples,
                                              j.risk.seed, j.risk.die_budget));
}

serve::CampaignJob campaign_job(std::uint64_t seed, std::uint64_t index) {
  Rng r(mix_seed(seed, 0xCA, index));
  serve::CampaignJob job;
  job.n_wafers = r.unit() < kLightLotShare ? kLightWafers : kHeavyWafers;
  job.seed = r.next();
  job.defect_density_per_cm2 = r.uniform(0.3, 0.9);
  return job;
}

std::vector<std::uint8_t> direct_bytes(const serve::CampaignJob& job) {
  return cache::encode(serve::make_simulator(job).run(job.n_wafers, job.seed));
}

/// The serve_hot key pool: distinct eq4 and risk keys with Zipf weights.
struct HotPool final {
  std::vector<LightJob> keys;  ///< eq4 keys first, then risk keys
  std::vector<double> eq4_cdf;
  std::vector<double> risk_cdf;

  explicit HotPool(std::uint64_t seed) {
    Rng r(mix_seed(seed, 0x407));
    for (int i = 0; i < kHotEq4Keys; ++i) keys.push_back(random_eq4_job(r, kHotEq4Steps));
    for (int i = 0; i < kHotRiskKeys; ++i) keys.push_back(random_risk_job(r));
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i].key = static_cast<int>(i);
    eq4_cdf = zipf_cdf(kHotEq4Keys);
    risk_cdf = zipf_cdf(kHotRiskKeys);
  }

  static std::vector<double> zipf_cdf(int n) {
    std::vector<double> cdf;
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += 1.0 / std::pow(i + 1.0, kZipfExponent);
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(i + 1.0, kZipfExponent) / total;
      cdf.push_back(acc);
    }
    cdf.back() = 1.0;
    return cdf;
  }

  const LightJob& draw(Rng& r) const {
    const bool eq4 = r.unit() < 0.8;
    const std::vector<double>& cdf = eq4 ? eq4_cdf : risk_cdf;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), r.unit()) - cdf.begin());
    return keys[(eq4 ? 0 : kHotEq4Keys) + std::min(rank, cdf.size() - 1)];
  }
};

// ---- the server and its connections ------------------------------------------

int connect_unix_fd(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

struct Conn final {
  int fd = -1;
  serve::Client client;
};

class ServeEnv final {
 public:
  /// `tier_dir` non-empty: campaigns checkpoint and store blobs there.
  ServeEnv(const std::string& dir, int index, const std::string& tier_dir = "") {
    serve::ServerOptions options;
    options.artifact_dir = tier_dir;
    server_ = std::make_unique<serve::Server>(options);
    const std::string socket_path = dir + "/serve-" + std::to_string(index) + ".sock";
    server_->listen_unix(socket_path);
    for (int i = 0; i < kClients; ++i) {
      const int fd = connect_unix_fd(socket_path);
      conns.push_back(Conn{fd, serve::Client(fd, fd)});
      (void)conns.back().client.handshake("tenant-" + std::to_string(i));
    }
  }
  ~ServeEnv() {
    conns.clear();
    server_->shutdown();
  }
  ServeEnv(const ServeEnv&) = delete;
  ServeEnv& operator=(const ServeEnv&) = delete;

  std::vector<Conn> conns;

 private:
  std::unique_ptr<serve::Server> server_;
};

/// Submits one job and waits for it; false on any non-ok outcome.
bool round_trip(serve::Client& c, const LightJob& j, serve::Response& r) {
  try {
    const std::uint64_t id = j.is_eq4 ? c.submit(j.eq4) : c.submit(j.risk);
    r = c.wait(id);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: transport failure: %s\n", e.what());
    return false;
  }
  return r.status == serve::ResponseStatus::kOk;
}

// ---- closed loop (serve_hot / serve_cold) ----------------------------------------

struct ClientOut final {
  Window w;           ///< light = eq4, heavy = risk; latency = round trip
  std::uint64_t mismatches = 0;
  double inflight_max = 0.0;
  std::vector<std::vector<std::uint8_t>> first;  ///< hot: first bytes per key
  std::vector<std::pair<LightJob, std::vector<std::uint8_t>>> samples;  ///< cold
  std::vector<LightJob> replay;  ///< jobs kept for direct-call replays
};

void client_loop(serve::Client& c, Mix mix, const HotPool* pool, std::uint64_t stream_seed,
                 double deadline, ClientOut& out) {
  Rng r(stream_seed);
  obs::Gauge& inflight = obs::gauge("serve.inflight");
  if (pool != nullptr) out.first.assign(pool->keys.size(), {});
  int replay_eq4 = 0;
  int replay_risk = 0;
  for (std::uint64_t i = 0; now_s() < deadline; ++i) {
    const LightJob job = mix == Mix::kHot ? pool->draw(r)
                         : r.unit() < 0.5 ? random_eq4_job(r, kColdEq4Steps)
                                          : random_risk_job(r);
    KindLatency& kind = job.is_eq4 ? out.w.light : out.w.heavy;
    const double t0 = now_s();
    serve::Response resp;
    std::uint64_t id = 0;
    try {
      id = job.is_eq4 ? c.submit(job.eq4) : c.submit(job.risk);
      out.inflight_max = std::max(out.inflight_max, inflight.value());
      resp = c.wait(id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: transport failure: %s\n", e.what());
      kind.record_failed();
      return;  // the connection is unusable; this client stops
    }
    if (resp.status != serve::ResponseStatus::kOk) {
      kind.record_failed();
      continue;
    }
    kind.record_ok((now_s() - t0) * 1e3);
    int& replayed = job.is_eq4 ? replay_eq4 : replay_risk;
    if (replayed < kReplaySamples) {
      ++replayed;
      out.replay.push_back(job);
    }
    if (pool != nullptr) {
      std::vector<std::uint8_t>& first = out.first[static_cast<std::size_t>(job.key)];
      if (first.empty()) {
        first = resp.result;
      } else if (first != resp.result) {
        ++out.mismatches;
      }
    } else if (mix_seed(stream_seed, i) % kColdSampleEvery == 0 &&
               out.samples.size() < kColdSampleCap) {
      out.samples.emplace_back(job, std::move(resp.result));
    }
  }
}

Window closed_window(ServeEnv& env, Mix mix, const HotPool* pool, std::uint64_t seed,
                     std::uint64_t stream, double seconds, std::vector<ClientOut>& outs) {
  outs.assign(kClients, ClientOut{});
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      client_loop(env.conns[static_cast<std::size_t>(i)].client, mix, pool,
                  mix_seed(seed, stream, static_cast<std::uint64_t>(i)), deadline,
                  outs[static_cast<std::size_t>(i)]);
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  w.wall_s = now_s() - t0;
  w.cpu_s = cpu_s() - cpu0;
  for (const ClientOut& o : outs) {
    w.light.absorb(o.w.light);
    w.heavy.absorb(o.w.heavy);
  }
  return w;
}

// ---- open loop (serve_campaign) -------------------------------------------------

struct CampaignOut final {
  Window w;  ///< light = 16-wafer lots, heavy = 64-wafer lots; latency = round trip
  double queue_depth_max = 0.0;
  std::uint64_t mismatches = 0;
  /// Content hash of each ok result by job seed: resubmissions must
  /// repeat it.  Hashes, not bytes, so memory does not grow with
  /// throughput and peak RSS stays the program's.
  std::map<std::uint64_t, cache::Digest128> digests;
  std::vector<serve::CampaignJob> fresh_ok;  ///< first kKeepFresh ok fresh campaigns
};

/// Sends `count` fresh campaigns and `resubmits` resubmissions back to
/// back on one connection; returns the ok count.
std::uint64_t campaign_warm(ServeEnv& env, std::uint64_t seed, int count, int resubmits,
                            PhaseCount& phase) {
  serve::Client& c = env.conns[0].client;
  std::uint64_t ok = 0;
  for (int i = 0; i < count + resubmits; ++i) {
    serve::CampaignJob job =
        campaign_job(mix_seed(seed, 0x3A), static_cast<std::uint64_t>(i % count));
    // Fixed lot sizes, so set-up cost does not vary with the seed.
    job.n_wafers = i % count % 4 == 3 ? kLightWafers : kHeavyWafers;
    ++phase.attempted;
    try {
      const serve::Response r = c.wait(c.submit(job));
      if (r.status == serve::ResponseStatus::kOk) {
        ++ok;
        continue;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: transport failure: %s\n", e.what());
    }
    ++phase.failed;
  }
  phase.ok += ok;
  return ok;
}

/// One tenant's closed loop: a fresh campaign, or (kCampaignResubmitShare
/// of the time, once enough have completed) a resubmission of one of its
/// own earlier campaigns, whose bytes must repeat.
void campaign_loop(serve::Client& c, std::uint64_t stream_seed, double deadline,
                   CampaignOut& out) {
  Rng choices(stream_seed);
  const std::uint64_t job_stream = mix_seed(stream_seed, 3);
  obs::Gauge& depth = obs::gauge("serve.queue_depth");
  std::vector<serve::CampaignJob> fresh_sent;
  for (std::uint64_t i = 0; now_s() < deadline; ++i) {
    const bool resubmit =
        fresh_sent.size() > kResubmitMinAge && choices.unit() < kCampaignResubmitShare;
    const serve::CampaignJob job =
        resubmit ? fresh_sent[choices.below(fresh_sent.size() - kResubmitMinAge)]
                 : campaign_job(job_stream, i);
    if (!resubmit) fresh_sent.push_back(job);
    KindLatency& kind = job.n_wafers < kHeavyWafers ? out.w.light : out.w.heavy;
    const double t0 = now_s();
    serve::Response r;
    try {
      const std::uint64_t id = c.submit(job);
      out.queue_depth_max = std::max(out.queue_depth_max, depth.value());
      r = c.wait(id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: transport failure: %s\n", e.what());
      kind.record_failed();
      return;  // the connection is unusable; this tenant stops
    }
    if (r.status != serve::ResponseStatus::kOk) {
      kind.record_failed();
      continue;
    }
    kind.record_ok((now_s() - t0) * 1e3);
    const cache::Digest128 digest = cache::hash128(r.result.data(), r.result.size());
    const auto it = out.digests.find(job.seed);
    if (it == out.digests.end()) {
      out.digests.emplace(job.seed, digest);
      if (out.fresh_ok.size() < kKeepFresh) out.fresh_ok.push_back(job);
    } else if (it->second != digest) {
      ++out.mismatches;
    }
  }
}

Window campaign_window(ServeEnv& env, std::uint64_t seed, std::uint64_t stream, double seconds,
                       CampaignOut& out) {
  std::vector<CampaignOut> outs(kClients);
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      campaign_loop(env.conns[static_cast<std::size_t>(i)].client,
                    mix_seed(seed, stream, static_cast<std::uint64_t>(i)), deadline,
                    outs[static_cast<std::size_t>(i)]);
    });
  }
  for (std::thread& t : threads) t.join();
  out.w.wall_s = now_s() - t0;
  out.w.cpu_s = cpu_s() - cpu0;
  for (CampaignOut& o : outs) {
    out.w.light.absorb(o.w.light);
    out.w.heavy.absorb(o.w.heavy);
    out.queue_depth_max = std::max(out.queue_depth_max, o.queue_depth_max);
    out.mismatches += o.mismatches;
    out.digests.merge(o.digests);
    out.fresh_ok.insert(out.fresh_ok.end(), o.fresh_ok.begin(), o.fresh_ok.end());
  }
  return out.w;
}

// ---- per-layer attribution ----------------------------------------------------------

/// Times `n` encode/decode calls of `payload`-producing functions, µs.
template <typename Fn>
double time_us(int n, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back((now_s() - t0) * 1e6);
  }
  return median(t);
}

struct CodecTimes final {
  double encode_us = 0.0;
  double decode_us = 0.0;
};

template <typename Job>
CodecTimes codec_times(const Job& job, const std::vector<std::uint8_t>& result) {
  serve::Response r;
  r.request_id = 1;
  r.result = result;
  const std::vector<std::uint8_t> payload = serve::encode_payload(r);
  CodecTimes c;
  c.encode_us = time_us(64, [&] {
    const std::vector<std::uint8_t> p = serve::encode_payload(job);
    asm volatile("" : : "r"(p.data()) : "memory");
  });
  c.decode_us = time_us(64, [&] {
    const serve::Response d = serve::decode_response(payload);
    asm volatile("" : : "r"(d.result.data()) : "memory");
  });
  return c;
}

std::vector<double> ok_latencies(const KindLatency& kind) {
  std::vector<double> v;
  for (const double x : kind.ms) {
    if (std::isfinite(x)) v.push_back(x);
  }
  return v;
}

/// One job kind's stage sum: client encode + server time + decode +
/// outside (socket, reader wake-up) against the client round trip.
void stage_sum(Report& report, const char* kind, const std::vector<double>& rtt_ms,
               const Scrape& scrape, const CodecTimes& codec) {
  const std::string hist = std::string("serve.latency_us.") + kind + ".ok";
  const double n_server = scrape.hist_count(hist);
  if (rtt_ms.empty() || n_server == 0) return;
  const double rtt = mean(rtt_ms) * 1e3;
  const double server = scrape.hist_mean(hist);
  const double outside = rtt - codec.encode_us - server - codec.decode_us;
  report.note("stage-sum %-8s base rtt_mean=%.1f us (n=%zu client, %.0f server): "
              "encode %.1f us (%.1f%%) + server %.1f us (%.1f%%) + decode %.1f us (%.1f%%) "
              "+ outside %.1f us (%.1f%%) %s",
              kind, rtt, rtt_ms.size(), n_server, codec.encode_us,
              100 * ratio(codec.encode_us, rtt), server, 100 * ratio(server, rtt),
              codec.decode_us, 100 * ratio(codec.decode_us, rtt), outside,
              100 * ratio(outside, rtt),
              outside >= -0.05 * rtt ? "[ok]" : "[stages exceed the round trip]");
}

/// Scrapes once the server has recorded the latency of every response
/// already delivered: it records right after writing each response, so a
/// client can hold a response whose latency is not counted yet.  Called
/// between windows, when no request is in flight.
obs::MetricsSnapshot quiet_snapshot() {
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    obs::MetricsSnapshot next = obs::snapshot_metrics();
    if (Scrape(snap, next).hist_count("serve.request_us") == 0) return next;
    snap = std::move(next);
  }
  return snap;
}

/// Waits until the server has recorded `responses` job latencies since
/// `before` (it records right after writing each response), then scrapes.
obs::MetricsSnapshot settle_scrape(const obs::MetricsSnapshot& before, double responses) {
  obs::MetricsSnapshot after = obs::snapshot_metrics();
  for (int i = 0; i < 200 && Scrape(before, after).hist_count("serve.request_us") < responses;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = obs::snapshot_metrics();
  }
  return after;
}

void count_check(Report& report, const Scrape& scrape, double responses) {
  const double scraped = scrape.hist_count("serve.request_us");
  report.note("count-check serve.request_us count=%.0f vs job responses received=%.0f %s",
              scraped, responses, scraped == responses ? "[ok]" : "[MISMATCH]");
  if (scraped != responses) {
    report.fail_check("serve.request_us count does not match the responses received");
  }
}

double replay_us(const std::vector<LightJob>& jobs, bool eq4) {
  std::vector<double> t;
  for (const LightJob& j : jobs) {
    if (j.is_eq4 != eq4) continue;
    const double t0 = now_s();
    if (eq4) {
      const auto points = core::sweep_eq4(j.eq4.inputs, j.eq4.lo, j.eq4.hi, j.eq4.steps);
      asm volatile("" : : "r"(points.data()) : "memory");
    } else {
      const core::PartialRisk p = core::monte_carlo_cost_partial(
          j.risk.inputs, j.risk.s_d, j.risk.samples, j.risk.seed, j.risk.die_budget);
      asm volatile("" : : "r"(&p) : "memory");
    }
    t.push_back((now_s() - t0) * 1e6);
  }
  return median(t);
}

// ---- the workloads --------------------------------------------------------------------

int run_light(const Args& args, const std::string& dir, Report& report, Mix mix,
              double usable_cores) {
  const std::unique_ptr<HotPool> pool =
      mix == Mix::kHot ? std::make_unique<HotPool>(args.seed) : nullptr;
  std::unique_ptr<ServeEnv> env;
  int env_index = 0;
  PhaseCount warm{"setup"};
  const double setup_s = time_setups(
      kSetupReps, [&] { env.reset(); },
      [&] {
        cache::global_result_cache().clear();
        env = std::make_unique<ServeEnv>(dir, env_index++);
        serve::Client& c = env->conns[0].client;
        std::vector<LightJob> jobs;
        if (pool != nullptr) {
          jobs = pool->keys;
        } else {
          Rng r(mix_seed(args.seed, 0x3C));
          for (int i = 0; i < kColdWarmJobs; ++i) {
            jobs.push_back(random_eq4_job(r, kColdEq4Steps));
            jobs.push_back(random_risk_job(r));
          }
        }
        for (const LightJob& j : jobs) {
          serve::Response r;
          ++warm.attempted;
          ++(round_trip(c, j, r) ? warm.ok : warm.failed);
        }
      });
  report.phase(warm);

  std::vector<ClientOut> warm_outs;
  const Window warmup =
      closed_window(*env, mix, pool.get(), args.seed, 3, kWarmupSeconds, warm_outs);
  report.phase(PhaseCount{"warmup", warmup.attempted(), warmup.ok(), warmup.failed()});

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto evictions0 = cache::global_result_cache().stats().evictions;
  std::vector<ClientOut> outs;
  const Window untraced = closed_window(*env, mix, pool.get(), args.seed, 1, seconds, outs);
  report.note("result cache: %llu evictions in the window, %llu bytes resident",
              static_cast<unsigned long long>(cache::global_result_cache().stats().evictions -
                                              evictions0),
              static_cast<unsigned long long>(cache::global_result_cache().stats().bytes));
  PhaseCount timed{"timed", untraced.attempted(), untraced.ok(), untraced.failed()};
  report.phase(timed);
  std::uint64_t attempted = warm.attempted + warmup.attempted() + untraced.attempted();
  std::uint64_t failed = warm.failed + warmup.failed() + untraced.failed();

  std::vector<ClientOut> traced_outs;
  Window traced;
  if (args.trace) {
    const std::string trace_path = dir + "/trace.json";
    const obs::MetricsSnapshot before = quiet_snapshot();
    obs::start_trace(trace_path);
    traced = closed_window(*env, mix, pool.get(), args.seed, 2, seconds, traced_outs);
    obs::stop_trace();
    const obs::MetricsSnapshot after =
        settle_scrape(before, static_cast<double>(traced.attempted()));
    const Scrape scrape(before, after);
    report.phase(PhaseCount{"traced", traced.attempted(), traced.ok(), traced.failed()});
    attempted += traced.attempted();
    failed += traced.failed();

    std::vector<LightJob> replay;
    double inflight_max = 0.0;
    for (const ClientOut& o : traced_outs) {
      replay.insert(replay.end(), o.replay.begin(), o.replay.end());
      inflight_max = std::max(inflight_max, o.inflight_max);
    }
    // Codec timings on a representative job of each kind and its result.
    const LightJob* eq4_job = nullptr;
    const LightJob* risk_job = nullptr;
    for (const LightJob& j : replay) {
      if (j.is_eq4 && eq4_job == nullptr) eq4_job = &j;
      if (!j.is_eq4 && risk_job == nullptr) risk_job = &j;
    }
    CodecTimes eq4_codec;
    CodecTimes risk_codec;
    if (eq4_job != nullptr) eq4_codec = codec_times(eq4_job->eq4, direct_bytes(*eq4_job));
    if (risk_job != nullptr) risk_codec = codec_times(risk_job->risk, direct_bytes(*risk_job));
    stage_sum(report, "eq4", ok_latencies(traced.light), scrape, eq4_codec);
    stage_sum(report, "risk", ok_latencies(traced.heavy), scrape, risk_codec);
    count_check(report, scrape, static_cast<double>(traced.attempted()));

    Layers l;
    l.ok_ops = static_cast<double>(traced.ok());
    l.server_us_p50 = scrape.hist_quantile("serve.latency_us.eq4.ok", 0.5);
    l.outside_us_p50 = percentile(traced.light.ms, 0.5) * 1e3 - l.server_us_p50;
    l.encode_us = eq4_codec.encode_us;
    l.decode_us = eq4_codec.decode_us;
    l.coalesced_share = ratio(scrape.counter("serve.coalesced"), scrape.counter("serve.requests"));
    l.bytes_per_req = ratio(scrape.counter("serve.bytes_in") + scrape.counter("serve.bytes_out"),
                            scrape.counter("serve.requests"));
    l.inflight_max = inflight_max;
    l.eq4_us = replay_us(replay, true);
    l.risk_us = replay_us(replay, false);
    report_layers(report, l, scrape, read_trace(trace_path), untraced, traced, usable_cores);
  }

  // Output check, recomputed after the timed windows.
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  std::vector<ClientOut> all = warm_outs;
  all.insert(all.end(), outs.begin(), outs.end());
  all.insert(all.end(), traced_outs.begin(), traced_outs.end());
  if (pool != nullptr) {
    for (const ClientOut& o : all) mismatched += o.mismatches;
    for (std::size_t k = 0; k < pool->keys.size(); ++k) {
      const std::vector<std::uint8_t> expect = direct_bytes(pool->keys[k]);
      for (const ClientOut& o : all) {
        if (o.first[k].empty()) continue;
        ++checked;
        if (o.first[k] != expect) ++mismatched;
      }
    }
  } else {
    for (const ClientOut& o : all) {
      for (const auto& [job, bytes] : o.samples) {
        ++checked;
        if (direct_bytes(job) != bytes) ++mismatched;
      }
    }
  }
  report.note("output check: %llu served results compared with direct library calls, "
              "%llu mismatched",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatched));
  if (checked == 0) report.fail_check("no served result was checked");
  if (mismatched > 0) report.fail_check("served bytes differ from the direct library call");

  if (!args.trace) report_end_to_end(report, untraced, setup_s, 0.99, 0.99, "eq4", "risk");
  report.set_totals(attempted, failed);
  env.reset();
  return 0;
}

struct TierProbe final {
  double fresh_ops = 0;
  double restored = 0;       ///< Σ Response::artifact_hits over the replays
  double replay_chunks = 0;  ///< chunks the replays covered
  std::vector<double> fresh_us;
  std::vector<double> replay_us;
  std::uint64_t mismatches = 0;
};

/// Serves up to kTierProbeJobs of `jobs` through a second server that has
/// the on-disk artifact tier: each campaign fresh (computes, checkpoints,
/// stores its NCBLOB01 chunks), then resubmitted (replayed from the tier).
/// The replay must return the fresh bytes.
TierProbe tier_probe(const std::string& dir, const std::vector<serve::CampaignJob>& jobs) {
  TierProbe probe;
  const std::string tier_dir = dir + "/tier";
  {
    ServeEnv env(dir, 99, tier_dir);
    serve::Client& c = env.conns[0].client;
    for (std::size_t i = 0; i < jobs.size() && i < kTierProbeJobs; ++i) {
      const double t0 = now_s();
      const serve::Response fresh = c.wait(c.submit(jobs[i]));
      const double t1 = now_s();
      const serve::Response replay = c.wait(c.submit(jobs[i]));
      const double t2 = now_s();
      if (fresh.status != serve::ResponseStatus::kOk ||
          replay.status != serve::ResponseStatus::kOk || fresh.result != replay.result) {
        ++probe.mismatches;
        continue;
      }
      ++probe.fresh_ops;
      probe.fresh_us.push_back((t1 - t0) * 1e6);
      probe.replay_us.push_back((t2 - t1) * 1e6);
      probe.restored += static_cast<double>(replay.artifact_hits);
      probe.replay_chunks += static_cast<double>(replay.frontier_chunks);
    }
  }
  std::filesystem::remove_all(tier_dir);
  return probe;
}

int run_campaign(const Args& args, const std::string& dir, Report& report,
                 double usable_cores) {
  std::unique_ptr<ServeEnv> env;
  int env_index = 0;
  PhaseCount warm{"setup"};
  // The timed server has no artifact directory.  On the ext4 VM disk
  // this benchmark was tuned on, the ~17 file creates and renames of a
  // fresh 64-wafer campaign cost 1-5 ms of kernel time and swing 2-5x
  // from minute to minute, so no bound on campaign latency could hold
  // with the tier on.  tier_probe measures the tier per layer instead.
  const double setup_s = time_setups(
      kSetupReps, [&] { env.reset(); },
      [&] {
        env = std::make_unique<ServeEnv>(dir, env_index++);
        campaign_warm(*env, args.seed, kCampaignWarm, 2, warm);
      });
  report.phase(warm);

  CampaignOut wout;
  const Window warmup = campaign_window(*env, args.seed, 3, kWarmupSeconds, wout);
  report.phase(PhaseCount{"warmup", warmup.attempted(), warmup.ok(), warmup.failed()});

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  CampaignOut out;
  const Window untraced = campaign_window(*env, args.seed, 1, seconds, out);
  report.phase(PhaseCount{"timed", untraced.attempted(), untraced.ok(), untraced.failed()});
  report.note("admission queue depth max %.0f", out.queue_depth_max);
  std::uint64_t attempted = warm.attempted + warmup.attempted() + untraced.attempted();
  std::uint64_t failed = warm.failed + warmup.failed() + untraced.failed();

  CampaignOut tout;
  if (args.trace) {
    const std::string trace_path = dir + "/trace.json";
    const obs::MetricsSnapshot before = quiet_snapshot();
    obs::start_trace(trace_path);
    const Window traced = campaign_window(*env, args.seed, 2, seconds, tout);
    const obs::MetricsSnapshot after =
        settle_scrape(before, static_cast<double>(traced.attempted()));
    const Scrape scrape(before, after);
    const TierProbe tier = tier_probe(dir, tout.fresh_ok);
    const Scrape tier_scrape(after, obs::snapshot_metrics());
    obs::stop_trace();
    if (tier.mismatches > 0) report.fail_check("tier replays differ from fresh campaigns");
    report.phase(PhaseCount{"traced", traced.attempted(), traced.ok(), traced.failed()});
    attempted += traced.attempted();
    failed += traced.failed();

    CodecTimes codec;
    if (!tout.fresh_ok.empty()) {
      codec = codec_times(tout.fresh_ok.front(), direct_bytes(tout.fresh_ok.front()));
    }
    std::vector<double> rtt_ms = ok_latencies(traced.light);
    const std::vector<double> heavy_ms = ok_latencies(traced.heavy);
    rtt_ms.insert(rtt_ms.end(), heavy_ms.begin(), heavy_ms.end());
    stage_sum(report, "campaign", rtt_ms, scrape, codec);
    count_check(report, scrape, static_cast<double>(traced.attempted()));

    Layers l;
    l.ok_ops = static_cast<double>(traced.ok());
    l.server_us_p50 = scrape.hist_quantile("serve.latency_us.campaign.ok", 0.5);
    l.outside_us_p50 = percentile(rtt_ms, 0.5) * 1e3 - l.server_us_p50;
    l.encode_us = codec.encode_us;
    l.decode_us = codec.decode_us;
    l.coalesced_share = ratio(scrape.counter("serve.coalesced"), scrape.counter("serve.requests"));
    l.bytes_per_req = ratio(scrape.counter("serve.bytes_in") + scrape.counter("serve.bytes_out"),
                            scrape.counter("serve.requests"));
    l.wafers_per_op = ratio(scrape.counter("fabsim.wafers"), l.ok_ops);
    l.artifact_hit_share = ratio(tier.restored, tier.replay_chunks);
    l.checkpoint_bytes_per_op =
        ratio(tier_scrape.counter("robust.checkpoint_bytes"), tier.fresh_ops);
    l.artifact_stores_per_op =
        ratio(tier_scrape.counter("robust.artifact_stores"), tier.fresh_ops);
    l.tier_fresh_us = median(tier.fresh_us);
    l.tier_replay_us = median(tier.replay_us);
    l.wave_ms_p50 = scrape.hist_quantile("robust.wave_ms", 0.5);
    l.queue_depth_max = tout.queue_depth_max;
    l.shed_share = ratio(scrape.counter("serve.shed"), static_cast<double>(traced.attempted()));
    std::vector<double> lot;
    for (std::size_t i = 0; i < tout.fresh_ok.size() && i < kReplaySamples; ++i) {
      const serve::CampaignJob& job = tout.fresh_ok[i];
      const nanocost::fabsim::FabSimulator sim = serve::make_simulator(job);
      const double t0 = now_s();
      const auto result = sim.run(job.n_wafers, job.seed);
      lot.push_back((now_s() - t0) * 1e6);
      asm volatile("" : : "r"(&result) : "memory");
    }
    l.lot_us = median(lot);
    report.note("artifact tier probe: %.0f campaigns served fresh then resubmitted; %.0f of "
                "%.0f replayed chunks restored; %.0f checkpoint writes, %.0f blob stores",
                tier.fresh_ops, tier.restored, tier.replay_chunks,
                tier_scrape.counter("robust.checkpoint_writes"),
                tier_scrape.counter("robust.artifact_stores"));
    report_layers(report, l, scrape, read_trace(trace_path), untraced, traced, usable_cores);
  }

  // Output check: every resubmission matched its original's bytes (in
  // the loop); a seeded sample of fresh campaigns is recomputed here.
  std::uint64_t checked = 0;
  std::uint64_t mismatched = wout.mismatches + out.mismatches + tout.mismatches;
  for (const CampaignOut* o : {&wout, &out, &tout}) {
    const std::size_t n = o->fresh_ok.size();
    const std::size_t step = std::max<std::size_t>(1, n / kCampaignChecks);
    for (std::size_t i = mix_seed(args.seed, 0xC4) % step; i < n; i += step) {
      const serve::CampaignJob& job = o->fresh_ok[i];
      ++checked;
      const std::vector<std::uint8_t> expect = direct_bytes(job);
      if (cache::hash128(expect.data(), expect.size()) != o->digests.at(job.seed)) ++mismatched;
    }
  }
  report.note("output check: %llu served campaigns recomputed directly, %llu mismatched "
              "(resubmissions compared with their originals in the loop)",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatched));
  if (checked == 0) report.fail_check("no served campaign was checked");
  if (mismatched > 0) report.fail_check("served campaign bytes differ from the direct run");

  if (!args.trace) {
    report_end_to_end(report, untraced, setup_s, 0.99, 0.99, "16-wafer lot", "64-wafer lot");
  }
  report.set_totals(attempted, failed);
  env.reset();
  return 0;
}

}  // namespace

int run_served(const Args& args, const std::string& dir, Report& report, double usable_cores) {
  obs::set_metrics_enabled(true);
  if (args.workload == "serve_hot") return run_light(args, dir, report, Mix::kHot, usable_cores);
  if (args.workload == "serve_cold") {
    return run_light(args, dir, report, Mix::kCold, usable_cores);
  }
  return run_campaign(args, dir, report, usable_cores);
}

}  // namespace bench
