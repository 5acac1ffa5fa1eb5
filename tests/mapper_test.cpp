#include "map/mapper.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "aig/simulate.hpp"
#include "core/flow_space.hpp"
#include "designs/alu.hpp"
#include "designs/registry.hpp"
#include "designs/montgomery.hpp"
#include "designs/spn.hpp"
#include "opt/registry.hpp"
#include "util/crc32.hpp"

namespace flowgen::map {
namespace {

using aig::Aig;
using aig::Lit;

/// Gate-level replay of the whole cover against bit-parallel simulation of
/// the AIG: every mapped gate must output exactly its node's signature.
void expect_cover_matches_simulation(const Aig& g, const MappingResult& res) {
  util::Rng rng(12345);
  aig::Simulator sim(g, rng, 4);
  const CellLibrary& lib = CellLibrary::builtin();

  for (const CoverEntry& entry : res.cover) {
    const auto node_sig = sim.signature(aig::make_lit(entry.node, false));
    const Cell& cell = lib.cell(entry.match.cell_id);
    std::vector<std::vector<std::uint64_t>> leaf_sigs;
    for (std::uint32_t leaf : entry.cut.leaves) {
      leaf_sigs.push_back(sim.signature(aig::make_lit(leaf, false)));
    }
    for (std::size_t w = 0; w < 4; ++w) {
      for (int bit = 0; bit < 64; ++bit) {
        std::size_t cell_in = 0;
        for (unsigned pin = 0; pin < cell.num_inputs; ++pin) {
          const unsigned leaf = entry.match.pin_to_leaf[pin];
          bool v = (leaf_sigs[leaf][w] >> bit) & 1;
          if ((entry.match.leaf_flip_mask >> leaf) & 1) v = !v;
          if (v) cell_in |= (std::size_t{1} << pin);
        }
        const bool out = cell.function.bit(cell_in) ^ entry.match.out_flip;
        const bool expect = (node_sig[w] >> bit) & 1;
        ASSERT_EQ(out, expect)
            << "node " << entry.node << " cell " << cell.name;
      }
    }
  }
}

TEST(MapperTest, MapsSingleGateToMatchingCell) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  // lxor builds OR-of-ANDs whose root NODE computes XNOR (the XOR literal
  // is the complemented edge). The mapper maps positive node phases, so the
  // cover is one XNOR2 cell plus a polarity inverter on the PO.
  g.add_po(g.lxor(a, b));
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  ASSERT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(CellLibrary::builtin().cell(res.cover[0].match.cell_id).name,
            "XNOR2_X1");
  EXPECT_EQ(res.qor.num_cells, 1u);
  EXPECT_EQ(res.qor.num_inverters, 1u);

  // The positive-phase PO maps to XNOR2 directly, no inverter.
  Aig g2;
  const Lit a2 = g2.add_pi();
  const Lit b2 = g2.add_pi();
  g2.add_po(g2.lxnor(a2, b2));
  const MappingResult res2 = map_aig(g2, CellLibrary::builtin());
  ASSERT_EQ(res2.cover.size(), 1u);
  EXPECT_EQ(CellLibrary::builtin().cell(res2.cover[0].match.cell_id).name,
            "XNOR2_X1");
  EXPECT_EQ(res2.qor.num_inverters, 0u);
}

TEST(MapperTest, QorIsPositiveAndConsistent) {
  const Aig g = designs::make_alu(8);
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  EXPECT_GT(res.qor.area_um2, 0.0);
  EXPECT_GT(res.qor.delay_ps, 0.0);
  EXPECT_GT(res.qor.num_cells, 0u);
  EXPECT_EQ(res.qor.num_cells, res.cover.size());
}

class MapperDesignTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MapperDesignTest, CoverImplementsEveryMappedNode) {
  Aig g;
  const std::string name = GetParam();
  if (name == "alu") g = designs::make_alu(8);
  if (name == "mont") g = designs::make_montgomery(6);
  if (name == "spn") g = designs::make_spn(8, 2);
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  expect_cover_matches_simulation(g, res);
}

INSTANTIATE_TEST_SUITE_P(Designs, MapperDesignTest,
                         ::testing::Values("alu", "mont", "spn"));

TEST(MapperTest, CoverReachesAllPoCones) {
  const Aig g = designs::make_alu(8);
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  std::map<std::uint32_t, const CoverEntry*> by_node;
  for (const auto& e : res.cover) by_node[e.node] = &e;
  // Every AND node referenced by a PO must be covered, and recursively the
  // leaves of its match.
  std::vector<std::uint32_t> stack;
  for (Lit po : g.pos()) {
    if (g.is_and(aig::lit_node(po))) stack.push_back(aig::lit_node(po));
  }
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    ASSERT_TRUE(by_node.count(id)) << "uncovered node " << id;
    for (std::uint32_t leaf : by_node[id]->cut.leaves) {
      if (g.is_and(leaf) && by_node.count(leaf)) {
        // fine; already covered
      } else if (g.is_and(leaf)) {
        stack.push_back(leaf);
      }
    }
  }
}

TEST(MapperTest, DelayEqualsCriticalPoArrival) {
  const Aig g = designs::make_alu(8);
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  double max_arrival = 0.0;
  std::map<std::uint32_t, double> arrival;
  for (const auto& e : res.cover) arrival[e.node] = e.arrival_ps;
  for (Lit po : g.pos()) {
    const std::uint32_t id = aig::lit_node(po);
    double a = g.is_and(id) ? arrival[id] : 0.0;
    if (aig::lit_is_compl(po) && id != 0) {
      a += CellLibrary::builtin().inverter_delay();
    }
    max_arrival = std::max(max_arrival, a);
  }
  EXPECT_DOUBLE_EQ(res.qor.delay_ps, max_arrival);
}

TEST(MapperTest, AreaRecoveryDoesNotHurtDelay) {
  const Aig g = designs::make_montgomery(6);
  MapperParams with, without;
  with.area_recovery = true;
  without.area_recovery = false;
  const QoR q_with = evaluate_qor(g, CellLibrary::builtin(), with);
  const QoR q_without = evaluate_qor(g, CellLibrary::builtin(), without);
  EXPECT_LE(q_with.delay_ps, q_without.delay_ps + 1e-9);
  EXPECT_LE(q_with.area_um2, q_without.area_um2 * 1.02);
}

TEST(MapperTest, ConstantAndPassthroughPos) {
  Aig g;
  const Lit a = g.add_pi();
  g.add_po(aig::kLitTrue);
  g.add_po(a);
  g.add_po(aig::lit_not(a));
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  EXPECT_EQ(res.cover.size(), 0u);
  EXPECT_EQ(res.qor.num_inverters, 1u);  // one INV for ~a
  EXPECT_DOUBLE_EQ(res.qor.delay_ps,
                   CellLibrary::builtin().inverter_delay());
}

TEST(MapperTest, SharedInverterCountedOnce) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.land(a, b);
  // ~x feeds two gates: the polarity inverter must be shared.
  g.add_po(g.land(aig::lit_not(x), c));
  g.add_po(g.land(aig::lit_not(x), aig::lit_not(c)));
  const MappingResult res = map_aig(g, CellLibrary::builtin());
  expect_cover_matches_simulation(g, res);
}

TEST(MapperTest, CoversAlongRandomFlowsArePinned) {
  // One CRC-32 per design over map_aig's whole result for every graph
  // along 8 random m = 2 flows (the design, then the graph after each
  // step): per cover entry its node, cut leaves, cell, pin binding, leaf
  // flips, output flip and arrival, then the QoR record. A matcher or
  // mapper change that moves any gate of any cover fails here, not only
  // the QoR digests downstream.
  struct CoverPin {
    const char* design;
    std::uint32_t crc;
  };
  const CoverPin pins[] = {
      {"alu:8", 0xa18b8b2bu},
      {"alu16", 0x1fedf2c7u},
      {"spn16", 0xe07158e2u},
      {"mont:6", 0x26b6d052u},
  };
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  const CellLibrary& lib = CellLibrary::builtin();
  for (const CoverPin& pin : pins) {
    std::vector<std::uint8_t> bytes;
    auto put = [&](std::uint64_t v) {  // little-endian
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
      }
    };
    auto put_mapping = [&](const Aig& g) {
      const MappingResult res = map_aig(g, lib);
      put(res.cover.size());
      for (const CoverEntry& e : res.cover) {
        put(e.node);
        put(e.cut.leaves.size());
        for (std::uint32_t leaf : e.cut.leaves) put(leaf);
        put(e.match.cell_id);
        put(e.match.pin_to_leaf.size());
        for (std::uint8_t leaf : e.match.pin_to_leaf) put(leaf);
        put(e.match.leaf_flip_mask);
        put(e.match.out_flip);
        put(std::bit_cast<std::uint64_t>(e.arrival_ps));
      }
      put(std::bit_cast<std::uint64_t>(res.qor.area_um2));
      put(std::bit_cast<std::uint64_t>(res.qor.delay_ps));
      put(res.qor.num_cells);
      put(res.qor.num_inverters);
    };
    const Aig design = designs::make_design(pin.design);
    util::Rng rng(7);
    for (const core::Flow& flow : core::FlowSpace(2).sample_unique(8, rng)) {
      Aig g = design;
      put_mapping(g);
      for (const opt::StepId step : flow.steps) {
        g = registry.apply(g, step);
        put_mapping(g);
      }
    }
    EXPECT_EQ(util::crc32(bytes), pin.crc) << pin.design;
  }
}

}  // namespace
}  // namespace flowgen::map
