#include "core/crr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace xchain::core {

double crr_price(const CrrParams& p) {
  if (p.steps <= 0 || p.expiry <= 0.0 || p.volatility <= 0.0) {
    throw std::invalid_argument("crr_price: steps, expiry, volatility > 0");
  }
  const double dt = p.expiry / p.steps;
  const double u = std::exp(p.volatility * std::sqrt(dt));
  const double d = 1.0 / u;
  const double growth = std::exp(p.rate * dt);
  const double q = (growth - d) / (u - d);  // risk-neutral up probability
  if (q <= 0.0 || q >= 1.0) {
    throw std::invalid_argument("crr_price: arbitrage-free bounds violated");
  }
  const double discount = 1.0 / growth;

  auto payoff = [&](double s) {
    return p.is_call ? std::max(s - p.strike, 0.0)
                     : std::max(p.strike - s, 0.0);
  };

  // The asset price at node (step, i) is spot * u^(step-i) * d^i.
  // Tabulating both powers once multiplies the very pow() results a
  // per-node evaluation would, so prices stay bit-identical while pow()
  // runs 2*(steps+1) times instead of twice per node.
  std::vector<double> up(p.steps + 1), down(p.steps + 1);
  for (int k = 0; k <= p.steps; ++k) {
    up[k] = std::pow(u, k);
    down[k] = std::pow(d, k);
  }
  auto node_price = [&](int step, int i) {
    return p.spot * up[step - i] * down[i];
  };

  // Terminal layer.
  std::vector<double> values(p.steps + 1);
  for (int i = 0; i <= p.steps; ++i) {
    values[i] = payoff(node_price(p.steps, i));
  }
  // Backward induction.
  for (int step = p.steps - 1; step >= 0; --step) {
    for (int i = 0; i <= step; ++i) {
      double v = discount * (q * values[i] + (1.0 - q) * values[i + 1]);
      if (p.american) v = std::max(v, payoff(node_price(step, i)));
      values[i] = v;
    }
  }
  return values[0];
}

Amount sore_loser_premium(Amount asset_value, double volatility, double rate,
                          Tick lockup_ticks, double ticks_per_year,
                          int steps) {
  if (asset_value <= 0 || lockup_ticks <= 0 || ticks_per_year <= 0) return 0;
  CrrParams p;
  p.spot = static_cast<double>(asset_value);
  p.strike = p.spot;
  p.rate = rate;
  p.volatility = volatility;
  p.expiry = static_cast<double>(lockup_ticks) / ticks_per_year;
  p.steps = steps;
  p.is_call = false;
  p.american = true;
  return static_cast<Amount>(std::ceil(crr_price(p)));
}

}  // namespace xchain::core
