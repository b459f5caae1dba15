#pragma once

#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/binding.hpp"
#include "core/payoff.hpp"
#include "sim/deviation.hpp"
#include "sim/tree.hpp"

namespace xchain::core {

/// The three-party brokered sale of paper §8 (after Herlihy–Liskov–Shrira):
/// Alice brokers Bob's tickets to Carol, paying Bob `purchase_price` coins
/// out of Carol's `sale_price` escrow and pocketing the spread.
struct BrokerConfig {
  Amount ticket_count = 10;
  Amount sale_price = 101;      ///< Carol's escrow (coins)
  Amount purchase_price = 100;  ///< what Bob receives (coins)
  Amount premium_unit = 1;      ///< p
  Tick delta = 1;
};

struct BrokerResult {
  bool completed = false;  ///< all four arc buckets redeemed

  PayoffDelta alice;
  PayoffDelta bob;
  PayoffDelta carol;

  /// Ticks assets spent escrowed before being *refunded* (0 otherwise).
  Tick bob_lockup = 0;    ///< tickets
  Tick carol_lockup = 0;  ///< coins

  chain::EventLog events;
};

/// Deviation ordinals, phase-level:
///   Alice: 0 = trading premiums, 1 = redemption premiums,
///          2 = trades (A1/A2), 3 = hashkey release + relays (A3)
///   Bob:   0 = escrow premium, 1 = redemption premiums,
///          2 = escrow tickets (B1), 3 = hashkey release + relays (B2)
///   Carol: symmetric to Bob (C1 / C2).
inline constexpr int kBrokerActions = 4;

/// Runs the hedged broker protocol with per-party deviation plans.
BrokerResult run_broker_deal(const BrokerConfig& cfg,
                             sim::DeviationPlan alice, sim::DeviationPlan bob,
                             sim::DeviationPlan carol);

/// World of the brokered sale: both chains, both contracts, premium
/// tables, secrets, signature caches, and the three persistent actors,
/// built once. Runs go through sim::play (see TwoPartyWorld);
/// run_broker_deal plays a fresh world.
class BrokerWorld {
 public:
  explicit BrokerWorld(const BrokerConfig& cfg,
                       chain::TraceMode trace = chain::TraceMode::kFull);

  /// Bound form (core/binding.hpp): deploys the instance onto the shared
  /// MultiChain at `binding.party_base` / `binding.start`; the load
  /// scheduler drives the frame's actors on the shared chains.
  BrokerWorld(const BrokerConfig& cfg, const WorldBinding& binding,
              chain::TraceMode trace = chain::TraceMode::kOff);

  ~BrokerWorld();
  BrokerWorld(BrokerWorld&&) noexcept;
  BrokerWorld& operator=(BrokerWorld&&) noexcept;

  /// Chains, actors (Alice, Bob, Carol), and the run horizon
  /// (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per actor: Alice, Bob, Carol.
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: completed,
  /// Bob's and Carol's lock-ups, then Alice's, Bob's and Carol's balance
  /// changes. collect() is this summary read back, plus the event log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  BrokerResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xchain::core
