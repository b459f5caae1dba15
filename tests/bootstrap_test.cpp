#include <gtest/gtest.h>

#include "core/bootstrap.hpp"
#include "core/two_party.hpp"

namespace xchain::core {
namespace {

using sim::DeviationPlan;

BootstrapConfig config(int rounds) {
  BootstrapConfig cfg;
  cfg.alice_tokens = 1'000'000;
  cfg.bob_tokens = 1'000'000;
  cfg.factor = 100.0;
  cfg.rounds = rounds;
  cfg.delta = 2;
  return cfg;
}

TEST(Bootstrap2Party, ConformingSwapCompletes) {
  for (int r = 1; r <= 4; ++r) {
    const auto res = run_bootstrap_swap(config(r), DeviationPlan::conforming(),
                                        DeviationPlan::conforming());
    EXPECT_TRUE(res.swapped) << "rounds=" << r;
    EXPECT_EQ(res.alice.coin_delta, 0) << "rounds=" << r;
    EXPECT_EQ(res.bob.coin_delta, 0) << "rounds=" << r;
    EXPECT_EQ(res.alice.by_symbol.at("apricot"), -1'000'000);
    EXPECT_EQ(res.alice.by_symbol.at("banana"), 1'000'000);
  }
}

TEST(Bootstrap2Party, InitialRiskShrinksGeometrically) {
  // §6: with P = 100, the unprotected deposit shrinks 100x per round; at
  // r = 3 a $1M swap risks only $4 / $1.
  const auto r1 = run_bootstrap_swap(config(1), DeviationPlan::conforming(),
                                     DeviationPlan::conforming());
  const auto r3 = run_bootstrap_swap(config(3), DeviationPlan::conforming(),
                                     DeviationPlan::conforming());
  EXPECT_EQ(r1.initial_risk_banana, 20'000);  // (A+B)/P
  EXPECT_EQ(r3.initial_risk_banana, 4);       // (3A+B)/P^3 — the $4 claim
  EXPECT_EQ(r3.initial_risk_apricot, 1);      // A/P^3
}

TEST(Bootstrap2Party, PremiumLockupDurationIndependentOfRounds) {
  // §6: "The duration of the premium lock-up risk is one atomic swap
  // execution plus Delta, independent of the number of bootstrapping
  // rounds."
  Tick lockup_r2 = 0;
  for (int r = 1; r <= 5; ++r) {
    const auto res = run_bootstrap_swap(config(r), DeviationPlan::conforming(),
                                        DeviationPlan::conforming());
    if (r == 2) lockup_r2 = res.max_premium_lockup;
    if (r >= 2) {
      EXPECT_EQ(res.max_premium_lockup, lockup_r2) << "rounds=" << r;
    }
    EXPECT_LE(res.max_premium_lockup, 3 * config(r).delta);
  }
}

TEST(Bootstrap2Party, SingleRoundMatchesHedgedTwoParty) {
  // rounds = 1 is §5.2 with p_b = A/P and p_a + p_b = (A+B)/P: the
  // geometric ladder at P = 100 has the same rungs as two_party_ladder at
  // p_b = A/P, p_a = B/P, and plays the same under every deviation pair.
  BootstrapConfig bs;
  bs.alice_tokens = 10'000;
  bs.bob_tokens = 20'000;
  bs.factor = 100.0;
  bs.rounds = 1;
  bs.delta = 2;

  TwoPartyConfig tp;
  tp.alice_tokens = 10'000;
  tp.bob_tokens = 20'000;
  tp.premium_b = 100;  // A/P
  tp.premium_a = 200;  // B/P, so p_a + p_b = (A+B)/P = 300
  tp.delta = 2;
  const BootstrapConfig one_rung = two_party_ladder(tp);
  const BootstrapSchedule geometric = bootstrap_amounts(bs);
  const BootstrapSchedule explicit_rungs = bootstrap_amounts(one_rung);
  EXPECT_EQ(geometric.apricot, explicit_rungs.apricot);
  EXPECT_EQ(geometric.banana, explicit_rungs.banana);
  EXPECT_EQ(explicit_rungs.apricot, (std::vector<Amount>{10'000, 100}));
  EXPECT_EQ(explicit_rungs.banana, (std::vector<Amount>{20'000, 300}));

  for (int a = -1; a <= 3; ++a) {
    for (int b = -1; b <= 3; ++b) {
      auto plan = [](int k) {
        return k < 0 ? DeviationPlan::conforming()
                     : DeviationPlan::halt_after(k);
      };
      const auto lhs = run_bootstrap_swap(bs, plan(a), plan(b));
      const auto rhs = run_hedged_two_party(tp, plan(a), plan(b));
      EXPECT_EQ(lhs.swapped, rhs.swapped) << "a=" << a << " b=" << b;
      EXPECT_EQ(lhs.alice, rhs.alice) << "a=" << a << " b=" << b;
      EXPECT_EQ(lhs.bob, rhs.bob) << "a=" << a << " b=" << b;
      EXPECT_EQ(lhs.alice_lockup, rhs.alice_lockup) << "a=" << a << " b=" << b;
      EXPECT_EQ(lhs.bob_lockup, rhs.bob_lockup) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Bootstrap2Party, PremiumPhaseDefaultCostsNothing) {
  // r = 2: Bob performs his first deposit (banana rung 2) but skips his
  // apricot premium. Premium-phase defaults are the accepted residual
  // risk (§4): every held rung is refunded, nobody pays, and crucially no
  // principal was ever exposed.
  const auto res = run_bootstrap_swap(config(2), DeviationPlan::conforming(),
                                      DeviationPlan::halt_after(1));
  EXPECT_FALSE(res.swapped);
  EXPECT_EQ(res.alice.coin_delta, 0);
  EXPECT_EQ(res.bob.coin_delta, 0);
  EXPECT_EQ(res.alice_lockup, 0);  // principals never moved
  EXPECT_EQ(res.bob_lockup, 0);
}

TEST(Bootstrap2Party, BobDefaultsOnPrincipalPaysRungOne) {
  // r = 2: Bob deposits all premiums but never escrows his principal after
  // Alice escrowed hers: §5.2 semantics — Alice collects Bob's apricot
  // premium A^(1) = A/P as compensation for her locked principal.
  const auto res = run_bootstrap_swap(config(2), DeviationPlan::conforming(),
                                      DeviationPlan::halt_after(2));
  EXPECT_FALSE(res.swapped);
  EXPECT_GT(res.alice_lockup, 0);
  EXPECT_EQ(res.alice.coin_delta, 10'000);  // A/P = 1'000'000 / 100
  EXPECT_EQ(res.bob.coin_delta, -10'000);
}

TEST(Bootstrap2Party, AliceDefaultsOnPrincipalPaysGuard) {
  // r = 2: Alice deposits premiums but never escrows her principal; her
  // apricot guard (rung 2 = A/P^2 = 100) goes to Bob.
  const auto res = run_bootstrap_swap(config(2), DeviationPlan::halt_after(2),
                                      DeviationPlan::conforming());
  EXPECT_FALSE(res.swapped);
  EXPECT_LT(res.alice.coin_delta, 0);
  EXPECT_GT(res.bob.coin_delta, 0);
}

class BootstrapSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BootstrapSweep, CompliantPartiesNeverLoseCoins) {
  const auto [rounds, ka, kb] = GetParam();
  auto plan = [](int k) {
    return k < 0 ? DeviationPlan::conforming() : DeviationPlan::halt_after(k);
  };
  const auto res = run_bootstrap_swap(config(rounds), plan(ka), plan(kb));
  if (ka < 0) {
    EXPECT_GE(res.alice.coin_delta, 0)
        << "rounds=" << rounds << " bob halt@" << kb;
    if (res.alice_lockup > 0) {
      // Hedged: a compliant Alice whose principal was locked up gets paid.
      EXPECT_GT(res.alice.coin_delta, 0);
    }
  }
  if (kb < 0) {
    EXPECT_GE(res.bob.coin_delta, 0)
        << "rounds=" << rounds << " alice halt@" << ka;
    if (res.bob_lockup > 0) {
      EXPECT_GT(res.bob.coin_delta, 0);
    }
  }
  EXPECT_EQ(res.alice.coin_delta + res.bob.coin_delta, 0);
}

std::vector<std::tuple<int, int, int>> sweep_cases() {
  std::vector<std::tuple<int, int, int>> cases;
  for (int rounds : {1, 2, 3}) {
    const int actions = bootstrap_action_count(rounds);
    for (int a = -1; a <= actions; ++a) {
      for (int b = -1; b <= actions; ++b) {
        // Only sweep cases where at least one side is compliant (the
        // assertions are about compliant parties).
        if (a < 0 || b < 0) cases.emplace_back(rounds, a, b);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Plans, BootstrapSweep,
                         ::testing::ValuesIn(sweep_cases()));

}  // namespace
}  // namespace xchain::core
