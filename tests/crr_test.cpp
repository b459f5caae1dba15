#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/crr.hpp"

namespace xchain::core {
namespace {

/// Reference pricer in the model's direct form: every node price is
/// evaluated with its own pair of pow() calls. crr_price must match it bit
/// for bit.
double reference_crr_price(const CrrParams& p) {
  if (p.steps <= 0 || p.expiry <= 0.0 || p.volatility <= 0.0) {
    throw std::invalid_argument("crr_price: steps, expiry, volatility > 0");
  }
  const double dt = p.expiry / p.steps;
  const double u = std::exp(p.volatility * std::sqrt(dt));
  const double d = 1.0 / u;
  const double growth = std::exp(p.rate * dt);
  const double q = (growth - d) / (u - d);
  if (q <= 0.0 || q >= 1.0) {
    throw std::invalid_argument("crr_price: arbitrage-free bounds violated");
  }
  const double discount = 1.0 / growth;
  auto payoff = [&](double s) {
    return p.is_call ? std::max(s - p.strike, 0.0)
                     : std::max(p.strike - s, 0.0);
  };
  std::vector<double> values(p.steps + 1);
  for (int i = 0; i <= p.steps; ++i) {
    const double s = p.spot * std::pow(u, p.steps - i) * std::pow(d, i);
    values[i] = payoff(s);
  }
  for (int step = p.steps - 1; step >= 0; --step) {
    for (int i = 0; i <= step; ++i) {
      double v = discount * (q * values[i] + (1.0 - q) * values[i + 1]);
      if (p.american) {
        const double s = p.spot * std::pow(u, step - i) * std::pow(d, i);
        v = std::max(v, payoff(s));
      }
      values[i] = v;
    }
  }
  return values[0];
}

CrrParams base_params() {
  CrrParams p;
  p.spot = 100.0;
  p.strike = 100.0;
  p.rate = 0.05;
  p.volatility = 0.2;
  p.expiry = 1.0;
  p.steps = 1000;
  return p;
}

TEST(Crr, EuropeanCallMatchesBlackScholes) {
  CrrParams p = base_params();
  p.is_call = true;
  // Black–Scholes: C(100,100,5%,20%,1y) = 10.4506.
  EXPECT_NEAR(crr_price(p), 10.4506, 0.05);
}

TEST(Crr, EuropeanPutMatchesBlackScholes) {
  CrrParams p = base_params();
  p.is_call = false;
  // Put–call parity: P = C - S + K e^{-rT} = 10.4506 - 4.8771 = 5.5735.
  EXPECT_NEAR(crr_price(p), 5.5735, 0.05);
}

TEST(Crr, PutCallParityHolds) {
  CrrParams c = base_params();
  c.is_call = true;
  CrrParams p = base_params();
  p.is_call = false;
  const double lhs = crr_price(c) - crr_price(p);
  const double rhs = c.spot - c.strike * std::exp(-c.rate * c.expiry);
  EXPECT_NEAR(lhs, rhs, 1e-6);
}

TEST(Crr, AmericanCallEqualsEuropeanWithoutDividends) {
  CrrParams eu = base_params();
  CrrParams am = base_params();
  am.american = true;
  EXPECT_NEAR(crr_price(eu), crr_price(am), 1e-9);
}

TEST(Crr, AmericanPutExceedsEuropean) {
  CrrParams eu = base_params();
  eu.is_call = false;
  CrrParams am = eu;
  am.american = true;
  EXPECT_GT(crr_price(am), crr_price(eu));
}

TEST(Crr, ConvergenceInSteps) {
  CrrParams coarse = base_params();
  coarse.steps = 64;
  CrrParams fine = base_params();
  fine.steps = 2048;
  EXPECT_NEAR(crr_price(coarse), crr_price(fine), 0.2);
}

TEST(Crr, DeepInTheMoneyCallNearIntrinsic) {
  CrrParams p = base_params();
  p.spot = 200.0;
  p.rate = 0.0;
  // Intrinsic value 100; time value tiny relative to it.
  EXPECT_GT(crr_price(p), 100.0);
  EXPECT_LT(crr_price(p), 105.0);
}

TEST(Crr, RejectsDegenerateInputs) {
  CrrParams p = base_params();
  p.steps = 0;
  EXPECT_THROW(crr_price(p), std::invalid_argument);
  p = base_params();
  p.volatility = 0.0;
  EXPECT_THROW(crr_price(p), std::invalid_argument);
}

TEST(Crr, MatchesThePerNodeReferenceBitForBit) {
  int priced = 0, rejected = 0;
  // Zero steps, volatility or expiry fail the input guard; rate 1.0 over
  // long steps breaks the arbitrage bound.
  for (const int steps : {0, 1, 2, 3, 64, 256, 1000}) {
    for (const bool is_call : {true, false}) {
      for (const bool american : {false, true}) {
        for (const double volatility : {0.0, 0.05, 0.8, 2.0}) {
          for (const double rate : {0.0, 0.05, 1.0}) {
            for (const double expiry : {0.0, 12.0 / 1460, 3.0}) {
              // In and out of the money; the at-the-money premiums are
              // pinned exactly below.
              for (const double spot : {80.0, 125.0}) {
                CrrParams p;
                p.spot = spot;
                p.strike = 100.0;
                p.rate = rate;
                p.volatility = volatility;
                p.expiry = expiry;
                p.steps = steps;
                p.is_call = is_call;
                p.american = american;
                double want = 0;
                try {
                  want = reference_crr_price(p);
                } catch (const std::invalid_argument&) {
                  EXPECT_THROW(crr_price(p), std::invalid_argument)
                      << "steps=" << steps << " sigma=" << volatility
                      << " r=" << rate << " T=" << expiry;
                  ++rejected;
                  continue;
                }
                // Exact double equality: the tables multiply the same
                // pow() results the per-node expression computes.
                EXPECT_EQ(crr_price(p), want)
                    << "steps=" << steps << " call=" << is_call
                    << " american=" << american << " sigma=" << volatility
                    << " r=" << rate << " T=" << expiry << " S=" << spot;
                ++priced;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(priced, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SoreLoserPremium, CrrLadderDefaultsArePinned) {
  // The crr-ladder defaults (100k principals, sigma 0.8, r 0, delta 2, 6h
  // ticks): p_b over Alice's 6-delta lock-up, p_a over Bob's 5-delta one.
  EXPECT_EQ(sore_loser_premium(100'000, 0.8, 0.0, 12, 1460), 2890);
  EXPECT_EQ(sore_loser_premium(100'000, 0.8, 0.0, 10, 1460), 2639);
}

TEST(SoreLoserPremium, IncreasesWithLockupDuration) {
  const Amount p1 = sore_loser_premium(10'000, 0.5, 0.0, 6, 730.0);
  const Amount p2 = sore_loser_premium(10'000, 0.5, 0.0, 24, 730.0);
  EXPECT_GT(p1, 0);
  EXPECT_GT(p2, p1);
}

TEST(SoreLoserPremium, IncreasesWithVolatility) {
  const Amount lo = sore_loser_premium(10'000, 0.2, 0.0, 12, 730.0);
  const Amount hi = sore_loser_premium(10'000, 0.8, 0.0, 12, 730.0);
  EXPECT_GT(hi, lo);
}

TEST(SoreLoserPremium, SmallFractionOfPrincipal) {
  // The premise of the whole construction: p << v for realistic params
  // (here ~12h lockup at 50% annualized vol).
  const Amount v = 1'000'000;
  const Amount p = sore_loser_premium(v, 0.5, 0.0, 1, 730.0);
  EXPECT_GT(p, 0);
  EXPECT_LT(p, v / 50);
}

TEST(SoreLoserPremium, ZeroForDegenerateInputs) {
  EXPECT_EQ(sore_loser_premium(0, 0.5, 0.0, 6, 730.0), 0);
  EXPECT_EQ(sore_loser_premium(100, 0.5, 0.0, 0, 730.0), 0);
}

}  // namespace
}  // namespace xchain::core
