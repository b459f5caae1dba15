#pragma once

#include "common/types.hpp"

namespace xchain::core {

/// Cox–Ross–Rubinstein binomial option pricing [CRR '79], the model the
/// paper cites (§4) for estimating premiums.
struct CrrParams {
  double spot = 100.0;        ///< current asset value
  double strike = 100.0;      ///< exercise price
  double rate = 0.0;          ///< continuously compounded risk-free rate
  double volatility = 0.2;    ///< annualized sigma
  double expiry = 1.0;        ///< time to expiry in years
  int steps = 256;            ///< binomial tree depth
  bool is_call = true;        ///< call or put
  bool american = false;      ///< early exercise allowed
};

/// Prices the option by backward induction on the recombining binomial
/// tree with u = exp(sigma * sqrt(dt)), d = 1/u. Cost: O(steps^2) node
/// arithmetic over O(steps) pow() calls (the powers of u and d are
/// tabulated once per call). Throws std::invalid_argument unless steps,
/// expiry and volatility are positive and 0 < q < 1 (no arbitrage).
double crr_price(const CrrParams& p);

/// Premium estimate for a sore-loser escrow (paper §4): a counterparty who
/// may abandon the protocol holds, in effect, an American option on the
/// escrowed asset over the lock-up window ("this choice is called an
/// American call option", §1 fn. 1). We price the at-the-money American
/// put on the asset over the lock-up duration — the value of the right to
/// walk away if the asset depreciates — and round up to a whole coin.
///
/// `lockup_ticks` and `ticks_per_year` convert simulation time to year
/// fractions.
Amount sore_loser_premium(Amount asset_value, double volatility,
                          double rate, Tick lockup_ticks,
                          double ticks_per_year, int steps = 256);

}  // namespace xchain::core
