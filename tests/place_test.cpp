#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "nanocost/layout/counting.hpp"
#include "nanocost/netlist/estimate.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/place/synthesis.hpp"

namespace nanocost::place {
namespace {

netlist::Netlist small_netlist(std::int32_t gates = 200, double locality = 0.7,
                               std::uint64_t seed = 1) {
  netlist::GeneratorParams params;
  params.gate_count = gates;
  params.primary_inputs = 8;
  params.locality = locality;
  params.seed = seed;
  return netlist::generate_random_logic(params);
}

TEST(Placement, GridBookkeeping) {
  const netlist::Netlist nl = small_netlist(10);
  Placement p = Placement::ordered(nl, 4, 5);
  EXPECT_EQ(p.site_count(), 20);
  EXPECT_EQ(p.gate_count(), 10);
  EXPECT_EQ(p.site_of(7), 7);
  EXPECT_EQ(p.gate_at(7), 7);
  EXPECT_EQ(p.gate_at(15), -1);
  EXPECT_EQ(p.row_of(7), 1);
  EXPECT_EQ(p.col_of(7), 2);

  p.swap_sites(7, 15);
  EXPECT_EQ(p.site_of(7), 15);
  EXPECT_EQ(p.gate_at(7), -1);
  EXPECT_EQ(p.gate_at(15), 7);
}

TEST(Placement, CapacityEnforced) {
  const netlist::Netlist nl = small_netlist(30);
  EXPECT_THROW(Placement::ordered(nl, 4, 5), std::invalid_argument);
  EXPECT_THROW(Placement(0, 5, 1), std::invalid_argument);
}

TEST(Placement, GridPastInt32SitesIsRejectedByName) {
  // 65536 x 65536 sites would overflow the int32 site index.
  try {
    const Placement p(65536, 65536, 1);
    ADD_FAILURE() << "a 2^32-site grid was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("INT32_MAX"), std::string::npos) << e.what();
  }
  // Just past the limit: 46341^2 > 2^31 - 1.
  EXPECT_THROW(Placement(46341, 46341, 1), std::invalid_argument);
}

TEST(Placement, AssignRejectsOccupiedSite) {
  const netlist::Netlist nl = small_netlist(4);
  Placement p = Placement::ordered(nl, 2, 3);
  EXPECT_THROW(p.assign(0, 1), std::invalid_argument);
}

TEST(Hpwl, HandComputedTwoGateNet) {
  // One inverter chain: PI -> g0 -> g1; g0 at (0,0), g1 at (2,1).
  netlist::Netlist nl;
  const auto a = nl.add_primary_input();
  const auto g0 = nl.add_gate(netlist::GateType::kInv, {a});
  nl.add_gate(netlist::GateType::kInv, {nl.output_net_of(g0)});
  Placement p(2, 3, 2);
  p.assign(0, 0);  // row 0, col 0
  p.assign(1, 5);  // row 1, col 2
  // The only multi-pin net is g0->g1: |2-0| + row_weight * |1-0|.
  EXPECT_NEAR(total_hpwl(nl, p, 2.0), 2.0 + 2.0, 1e-12);
  EXPECT_NEAR(total_hpwl(nl, p, 3.0), 2.0 + 3.0, 1e-12);
}

TEST(Anneal, ImprovesOnOrderedAndRandomStarts) {
  const netlist::Netlist nl = small_netlist(300, 0.3, 5);
  const std::int32_t rows = 10, cols = 32;
  AnnealParams params;
  params.seed = 9;
  const PlaceResult result = anneal_place(nl, rows, cols, params);
  EXPECT_LT(result.final_hpwl, result.initial_hpwl);
  EXPECT_GT(result.moves_accepted, 0);
  EXPECT_GE(result.moves_tried, result.moves_accepted);
  // And beats a random placement handily.
  const double random_hpwl = total_hpwl(nl, Placement::random(nl, rows, cols, 3));
  EXPECT_LT(result.final_hpwl, random_hpwl * 0.6);
}

TEST(Anneal, FinalHpwlMatchesPlacementRecount) {
  const netlist::Netlist nl = small_netlist(150);
  AnnealParams params;
  params.row_weight = 2.5;
  const PlaceResult result = anneal_place(nl, 8, 24, params);
  EXPECT_NEAR(result.final_hpwl, total_hpwl(nl, result.placement, 2.5), 1e-6);
}

TEST(Anneal, LocalNetlistsPlaceShorter) {
  // Same size, different locality: the local netlist ends up with less
  // wire, which is the physical basis of Rent's rule.
  AnnealParams params;
  const double local =
      anneal_place(small_netlist(300, 0.8, 7), 10, 32, params).final_hpwl;
  const double global =
      anneal_place(small_netlist(300, 0.05, 7), 10, 32, params).final_hpwl;
  EXPECT_LT(local, global * 0.8);
}

TEST(Anneal, Validation) {
  const netlist::Netlist nl = small_netlist(10);
  AnnealParams bad;
  bad.cooling = 1.0;
  EXPECT_THROW(anneal_place(nl, 4, 4, bad), std::invalid_argument);
}

TEST(Estimate, PrePlacementEstimateIsInTheRightBallpark) {
  // The pre-placement estimator should land within ~2.5x of the
  // annealed truth for ordinary locality -- close enough to plan with,
  // wrong enough to cause iterations (the paper's point).
  const netlist::Netlist nl = small_netlist(400, 0.5, 21);
  const std::int32_t rows = 12, cols = 36;
  const PlaceResult placed = anneal_place(nl, rows, cols, AnnealParams{});
  const double estimated =
      netlist::estimate_total_wirelength(nl, static_cast<double>(rows) * cols);
  EXPECT_GT(estimated, placed.final_hpwl / 2.5);
  EXPECT_LT(estimated, placed.final_hpwl * 2.5);
}

TEST(Synthesis, EmitsGeometryMatchingTheNetlist) {
  const netlist::Netlist nl = small_netlist(120, 0.6, 2);
  const PlaceResult placed = anneal_place(nl, 6, 24, AnnealParams{});
  const SynthesisResult synth = synthesize(nl, placed.placement);

  // Every netlist transistor exists in silicon.
  EXPECT_EQ(synth.design.transistor_count(), nl.transistor_count());
  EXPECT_GT(synth.design.flat_rect_count(), 0);
  EXPECT_NEAR(synth.placed_hpwl_sites, placed.final_hpwl, 1e-9);
  EXPECT_GE(synth.channel_height, 8);

  // The measured density lands in the ASIC habitat.
  const double sd = synth.design.density().decompression_index;
  EXPECT_GT(sd, 80.0);
  EXPECT_LT(sd, 1000.0);
}

TEST(Synthesis, WorseWiringMeansSparserSilicon) {
  // The same netlist synthesized from a random placement needs bigger
  // channels than the annealed placement -> larger s_d.  This is the
  // chain the paper describes: design (placement) quality is a density
  // variable, independent of the process.
  const netlist::Netlist nl = small_netlist(300, 0.5, 4);
  const std::int32_t rows = 10, cols = 32;
  const PlaceResult good = anneal_place(nl, rows, cols, AnnealParams{});
  const Placement bad = Placement::random(nl, rows, cols, 17);

  const SynthesisResult synth_good = synthesize(nl, good.placement);
  const SynthesisResult synth_bad = synthesize(nl, bad);
  EXPECT_GT(synth_bad.channel_height, synth_good.channel_height);
  EXPECT_GT(synth_bad.design.density().decompression_index,
            synth_good.design.density().decompression_index);
}

}  // namespace
}  // namespace nanocost::place
