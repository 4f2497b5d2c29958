// Second property-sweep suite: invariants of the physical-design and
// extension modules across seeds and parameter grids, plus
// failure-injection on the layout parser.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "nanocost/floorplan/slicing.hpp"
#include "nanocost/layout/generators.hpp"
#include "nanocost/layout/io.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/route/router.hpp"
#include "nanocost/timing/sta.hpp"
#include "nanocost/yield/redundancy.hpp"

namespace nanocost {
namespace {

// ---------------------------------------------------------------------------
// Placer: across seeds, annealing never loses to its own starting point
// and the placement stays a permutation.

class PlacerSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacerSeeds, AnnealImprovesAndStaysLegal) {
  netlist::GeneratorParams gen;
  gen.gate_count = 150;
  gen.locality = 0.4;
  gen.seed = GetParam();
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  place::AnnealParams params;
  params.seed = GetParam() * 31 + 7;
  const place::PlaceResult r = place::anneal_place(nl, 8, 20, params);
  EXPECT_LE(r.final_hpwl, r.initial_hpwl + 1e-9);
  // Legality: every gate on a distinct site.
  std::vector<bool> seen(static_cast<std::size_t>(r.placement.site_count()), false);
  for (std::int32_t g = 0; g < nl.gate_count(); ++g) {
    const std::int32_t site = r.placement.site_of(g);
    ASSERT_GE(site, 0);
    ASSERT_LT(site, r.placement.site_count());
    EXPECT_FALSE(seen[static_cast<std::size_t>(site)]);
    seen[static_cast<std::size_t>(site)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerSeeds, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------------
// Router: wirelength is bounded below by per-net Manhattan bboxes and
// above by a spanning-tree bound, across locality.

class RouterLocality : public ::testing::TestWithParam<double> {};

TEST_P(RouterLocality, WirelengthBounds) {
  netlist::GeneratorParams gen;
  gen.gate_count = 250;
  gen.locality = GetParam();
  gen.seed = 9;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const place::PlaceResult placed = place::anneal_place(nl, 9, 30, {});
  const route::RouteResult r = route::route(nl, placed.placement);
  const double hpwl = place::total_hpwl(nl, placed.placement, 1.0);
  EXPECT_GE(static_cast<double>(r.total_wirelength_edges), hpwl - 1e-9);
  // Spanning-tree routing of an n-pin net costs < n * hpwl; globally a
  // factor of the max pin count bounds it -- use a generous 4x.
  EXPECT_LE(static_cast<double>(r.total_wirelength_edges), hpwl * 4.0);
}

INSTANTIATE_TEST_SUITE_P(Localities, RouterLocality,
                         ::testing::Values(0.9, 0.6, 0.3, 0.1, 0.03));

// ---------------------------------------------------------------------------
// Timing: critical path is monotone in site pitch (more distance, never
// faster) and in feature size scaling of gate delay.

class TimingPitch : public ::testing::TestWithParam<double> {};

TEST_P(TimingPitch, MonotoneInDistance) {
  netlist::GeneratorParams gen;
  gen.gate_count = 200;
  gen.seed = 4;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const place::PlaceResult placed = place::anneal_place(nl, 8, 30, {});
  timing::TimingParams a;
  a.site_pitch_um = GetParam();
  timing::TimingParams b = a;
  b.site_pitch_um = GetParam() * 2.0;
  EXPECT_LE(timing::analyze_placed(nl, placed.placement, a).critical_path_ps,
            timing::analyze_placed(nl, placed.placement, b).critical_path_ps + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Pitches, TimingPitch, ::testing::Values(3.0, 10.0, 40.0, 150.0));

// ---------------------------------------------------------------------------
// Floorplan: dead space stays bounded and blocks stay disjoint across
// seeds and block counts.

// Both fields are 64-bit so the struct has no padding: gtest names each
// case by a byte dump of the param, and padding bytes are uninitialised.
struct FloorplanCase {
  std::uint64_t blocks;
  std::uint64_t seed;
};

class FloorplanSweep : public ::testing::TestWithParam<FloorplanCase> {};

TEST_P(FloorplanSweep, PacksTightlyAndLegally) {
  const auto [n, seed] = GetParam();
  std::vector<floorplan::Block> blocks;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> area(0.5, 4.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    floorplan::Block b;
    b.name = "b" + std::to_string(i);
    b.area = area(rng);
    blocks.push_back(b);
  }
  floorplan::FloorplanParams params;
  params.seed = seed;
  const floorplan::FloorplanResult r = floorplan::floorplan(blocks, params);
  EXPECT_LT(r.dead_space(), 0.25) << "blocks=" << n << " seed=" << seed;
  ASSERT_EQ(r.blocks.size(), blocks.size());
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < r.blocks.size(); ++j) {
      const auto& a = r.blocks[i];
      const auto& b = r.blocks[j];
      const bool disjoint = a.x + a.width <= b.x + 1e-9 || b.x + b.width <= a.x + 1e-9 ||
                            a.y + a.height <= b.y + 1e-9 || b.y + b.height <= a.y + 1e-9;
      EXPECT_TRUE(disjoint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, FloorplanSweep,
                         ::testing::Values(FloorplanCase{2, 1}, FloorplanCase{4, 2},
                                           FloorplanCase{6, 3}, FloorplanCase{9, 4},
                                           FloorplanCase{12, 5}));

// ---------------------------------------------------------------------------
// Redundancy: repairable yield is monotone in spares and decreasing in
// fault pressure over a grid.

class RedundancyGrid : public ::testing::TestWithParam<double> {};

TEST_P(RedundancyGrid, MonotoneBothWays) {
  const double faults = GetParam();
  double prev = -1.0;
  for (int spares = 0; spares <= 10; ++spares) {
    const double y = yield::repairable_yield_poisson(faults, spares).value();
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_LE(yield::repairable_yield_poisson(faults * 2.0, 4).value(),
            yield::repairable_yield_poisson(faults, 4).value());
  EXPECT_LE(yield::repairable_yield_negbin(faults * 2.0, 1.5, 4).value(),
            yield::repairable_yield_negbin(faults, 1.5, 4).value());
}

INSTANTIATE_TEST_SUITE_P(FaultGrid, RedundancyGrid,
                         ::testing::Values(0.1, 0.5, 1.0, 2.5, 6.0));

// ---------------------------------------------------------------------------
// Layout parser fuzz: random single-line corruptions of a valid file
// must either parse (benign edit) or throw std::runtime_error /
// std::invalid_argument -- never crash or corrupt.

TEST(ParserFuzz, MutatedInputsFailCleanly) {
  layout::Library lib;
  const layout::Cell* sram = layout::make_sram_array(lib, 3, 3);
  auto shared = std::make_shared<layout::Library>(std::move(lib));
  const layout::Design design(shared, sram, units::Micrometers{0.25});
  std::ostringstream os;
  layout::save_design(os, design);
  const std::string good = os.str();

  // Sanity: the pristine file parses.
  {
    std::istringstream in(good);
    EXPECT_NO_THROW(layout::load_design(in));
  }

  std::mt19937_64 rng(123);
  std::uniform_int_distribution<std::size_t> pos(0, good.size() - 1);
  const char garbage[] = {'x', '-', '0', '\n', ' ', '?', 'Z', ';'};
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(garbage) - 1);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    mutated[pos(rng)] = garbage[pick(rng)];
    std::istringstream in(mutated);
    try {
      const layout::Design loaded = layout::load_design(in);
      // If it parsed, it must be internally consistent.
      EXPECT_GE(loaded.flat_rect_count(), 0);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // Most corruptions must be caught; some are benign (digit tweaks).
  EXPECT_GT(rejected, 100);
  EXPECT_EQ(parsed + rejected, 300);
}

}  // namespace
}  // namespace nanocost
