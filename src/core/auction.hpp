#pragma once

#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/payoff.hpp"
#include "sim/deviation.hpp"
#include "sim/tree.hpp"

namespace xchain::core {

/// What the auctioneer does at the declaration phase (paper §9). The smart
/// contracts confine her to publishing (or withholding) hashkeys, so this
/// enumerates her whole behaviour space.
enum class AuctioneerStrategy {
  kHonest,        ///< publish the true winner's hashkey on both chains
  kNoSetup,       ///< never escrow tickets / endow premiums
  kAbandon,       ///< set up, then walk away before declaring
  kDeclareLoser,  ///< publish the lowest bidder's hashkey on both chains
  kCoinOnly,      ///< publish the winner's key on the coin chain only
  kTicketOnly,    ///< publish the winner's key on the ticket chain only
  kSplit,         ///< winner's key on the coin chain, loser's on tickets
};

/// The auctioneer's strategy a plan variant names — the declaration
/// order above (0 = kHonest ... 6 = kSplit; larger variants name kSplit).
/// The auctioneer deviates through her plan's variant only.
AuctioneerStrategy auctioneer_of(int variant);

/// A bidder's behaviour, as a named shorthand. Bidders execute
/// sim::DeviationPlans over their scheduled-action ordinals (open: 0 = bid,
/// 1 = forward; sealed: 0 = commit, 1 = reveal, 2 = forward) — these enums
/// are the halt-style plans by legacy name, kept for tests and the model
/// checker; bidder_plan_of() maps them onto plans.
enum class BidderStrategy {
  kConform,         ///< bid, and forward one-sided hashkeys in the challenge
  kNoBid,           ///< sit out (arguably a favour, §9.2)
  kNoForward,       ///< bid, but shirk the challenge-phase forwarding duty
  kCommitNoReveal,  ///< sealed variant only: commit, never open the bid
};

/// The halt-style DeviationPlan a legacy BidderStrategy names.
sim::DeviationPlan bidder_plan_of(BidderStrategy strategy, bool sealed);

struct AuctionConfig {
  Amount ticket_count = 10;
  /// One entry per bidder (party ids 1..n); 0 means that bidder has no
  /// budget to bid with.
  std::vector<Amount> bids = {100, 80};
  Amount premium_unit = 2;  ///< p; the auctioneer endows n * p
  Tick delta = 2;
  /// Sealed variant only: the uniform collateral M escrowed with each
  /// commitment (it hides the bid). A bid above it is accepted as a
  /// commitment but refused at reveal: its collateral comes back at
  /// settlement, and it is owed nothing.
  Amount collateral = 150;
};

struct AuctionResult {
  /// Settlement concluded with the winner paying (coin side clean).
  bool completed = false;
  /// Which party received the tickets (auctioneer if refunded).
  PartyId tickets_to = kNoParty;

  PayoffDelta auctioneer;
  std::vector<PayoffDelta> bidders;

  chain::EventLog events;
};

/// Runs the hedged auction (paper §9): bidding (Delta), declaration
/// (Delta), challenge (3 * Delta), commit.
AuctionResult run_auction(const AuctionConfig& cfg, AuctioneerStrategy alice,
                          const std::vector<BidderStrategy>& bidders);

/// Runs the *sealed-bid* hedged auction — the commit-reveal extension the
/// paper's footnote 8 points to: commit (Delta), reveal (Delta), then the
/// §9 declaration / challenge / commit over the revealed bids. Bids stay
/// hidden behind uniform collateral until the reveal phase.
AuctionResult run_sealed_auction(const AuctionConfig& cfg,
                                 AuctioneerStrategy alice,
                                 const std::vector<BidderStrategy>& bidders);

/// World of the ticket auction (open or sealed-bid): chains, contracts,
/// endowments, bidder secrets, signature caches, and the persistent
/// auctioneer and bidder actors, built once. Runs go through sim::play
/// (see BootstrapWorld); the free functions above play a fresh world.
class AuctionWorld {
 public:
  AuctionWorld(const AuctionConfig& cfg, bool sealed,
               chain::TraceMode trace = chain::TraceMode::kFull);
  ~AuctionWorld();
  AuctionWorld(AuctionWorld&&) noexcept;
  AuctionWorld& operator=(AuctionWorld&&) noexcept;

  /// Chains, actors (auctioneer, then bidders 1..n), and the run horizon
  /// (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per actor: plans[0]'s variant is the auctioneer's
  /// declaration strategy (auctioneer_of), plans[1..n] are the bidders'
  /// deviation plans (delays land their submissions at the shifted tick;
  /// the contracts' inclusive deadlines decide whether a late
  /// bid/reveal/forward still counts).
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: completed,
  /// tickets_to, then the auctioneer's and each bidder's balance changes.
  /// collect() is this summary read back, plus the event log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  AuctionResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xchain::core
