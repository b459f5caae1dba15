// Property tests of the hedged multi-party swap over randomized strongly
// connected digraphs: the paper's lemmas must hold on *any* swap topology,
// not just the textbook shapes.

#include <gtest/gtest.h>

#include <numeric>

#include "core/multi_party.hpp"
#include "crypto/rng.hpp"

namespace xchain::core {
namespace {

using graph::Digraph;
using graph::Vertex;
using sim::DeviationPlan;

/// A random strongly connected digraph: a Hamiltonian cycle through a
/// random permutation plus each remaining arc with probability ~1/3.
Digraph random_scc_digraph(std::size_t n, std::uint64_t seed) {
  crypto::Rng rng(seed);
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next_below(i + 1)]);
  }
  Digraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_arc(perm[i], perm[(i + 1) % n]);
  }
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      if (u != v && rng.next_below(3) == 0) g.add_arc(u, v);
    }
  }
  return g;
}

struct RandomCase {
  std::size_t n;
  std::uint64_t seed;
};

class RandomGraphSweep : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomGraphSweep, GraphIsWellFormed) {
  const auto [n, seed] = GetParam();
  const Digraph g = random_scc_digraph(n, seed);
  EXPECT_TRUE(g.strongly_connected());
  EXPECT_TRUE(g.is_feedback_vertex_set(g.minimum_feedback_vertex_set()));
  EXPECT_GE(g.diameter(), 1u);
}

TEST_P(RandomGraphSweep, ConformingRunCompletes) {
  const auto [n, seed] = GetParam();
  MultiPartyConfig cfg;
  cfg.g = random_scc_digraph(n, seed);
  cfg.delta = 1;
  const std::vector<DeviationPlan> plans(n, DeviationPlan::conforming());
  const auto r = run_multi_party_swap(cfg, plans);
  EXPECT_TRUE(r.all_redeemed) << "n=" << n << " seed=" << seed;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(r.payoffs[v].coin_delta, 0) << "party " << v;
  }
}

TEST_P(RandomGraphSweep, SingleDeviatorLemmasHold) {
  const auto [n, seed] = GetParam();
  const Digraph g = random_scc_digraph(n, seed);
  for (Vertex d = 0; d < n; ++d) {
    for (int halt = 0; halt <= kMultiPartyHedgedActions; ++halt) {
      MultiPartyConfig cfg;
      cfg.g = g;
      cfg.delta = 1;
      std::vector<DeviationPlan> plans(n, DeviationPlan::conforming());
      plans[d] = DeviationPlan::halt_after(halt);
      const auto r = run_multi_party_swap(cfg, plans);

      Amount total = 0;
      for (std::size_t v = 0; v < n; ++v) {
        total += r.payoffs[v].coin_delta;
        if (v == d) continue;
        EXPECT_GE(r.payoffs[v].coin_delta, r.assets_refunded[v])
            << "n=" << n << " seed=" << seed << " deviator=" << d
            << " halt@" << halt << " party=" << v;
      }
      EXPECT_EQ(total, 0) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST_P(RandomGraphSweep, PairedDeviatorsCannotExtractFromCompliant) {
  const auto [n, seed] = GetParam();
  if (n > 4) GTEST_SKIP() << "pair sweep bounded for test runtime";
  const Digraph g = random_scc_digraph(n, seed);
  for (Vertex d1 = 0; d1 < n; ++d1) {
    for (Vertex d2 = static_cast<Vertex>(d1 + 1); d2 < n; ++d2) {
      for (int halt : {0, 2, 3}) {
        MultiPartyConfig cfg;
        cfg.g = g;
        cfg.delta = 1;
        std::vector<DeviationPlan> plans(n, DeviationPlan::conforming());
        plans[d1] = DeviationPlan::halt_after(halt);
        plans[d2] = DeviationPlan::halt_after(halt);
        const auto r = run_multi_party_swap(cfg, plans);
        for (std::size_t v = 0; v < n; ++v) {
          if (v == d1 || v == d2) continue;
          EXPECT_GE(r.payoffs[v].coin_delta, r.assets_refunded[v])
              << "n=" << n << " seed=" << seed << " deviators=" << d1 << ","
              << d2 << " halt@" << halt << " party=" << v;
        }
      }
    }
  }
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  for (std::size_t n : {3u, 4u, 5u}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      cases.push_back({n, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Topologies, RandomGraphSweep,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           // Appended in steps: `const char* + std::string&&`
                           // trips the GCC-12 -Wrestrict false positive
                           // (PR 105651).
                           std::string name = "n";
                           name += std::to_string(info.param.n);
                           name += "_seed";
                           name += std::to_string(info.param.seed);
                           return name;
                         });

}  // namespace
}  // namespace xchain::core
