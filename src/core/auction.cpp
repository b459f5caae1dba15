#include "core/auction.hpp"

#include <memory>
#include <tuple>

#include "contracts/auction.hpp"
#include "contracts/sealed_auction.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/secret.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

using contracts::AuctionTerms;
using contracts::CoinAuctionContract;
using contracts::TicketAuctionContract;

constexpr PartyId kAlice = 0;

struct Setup {
  CoinAuctionContract* coin = nullptr;
  TicketAuctionContract* ticket = nullptr;
  ChainId coin_chain = 0;
  ChainId ticket_chain = 0;
  std::vector<crypto::Secret> secrets;  ///< per bidder index
  crypto::SigningCache* sign_cache = nullptr;
  Tick declaration_start = 0;
};

class Auctioneer : public chain::SnapshotState<Auctioneer, sim::Party> {
 public:
  Auctioneer(const Setup& s, AuctioneerStrategy strategy,
             const std::vector<Amount>& bids)
      : chain::SnapshotState<Auctioneer, sim::Party>(kAlice, "alice"), s_(s),
        strategy_(strategy), bids_(bids) {}

  /// Tree executor: the strategy is schedule configuration (part of the
  /// trie's variant root), not run state — it is swapped per schedule and
  /// deliberately absent from state_tie().
  void set_strategy(AuctioneerStrategy strategy) { strategy_ = strategy; }

  void step(chain::MultiChain& chains, Tick now) override {
    if (strategy_ == AuctioneerStrategy::kNoSetup) return;
    if (!did_setup_) {
      did_setup_ = true;
      submit(chains, s_.ticket_chain, "escrow tickets",
             [c = s_.ticket](chain::TxContext& ctx) {
               c->escrow_tickets(ctx);
             });
      submit(chains, s_.coin_chain, "endow premium",
             [c = s_.coin](chain::TxContext& ctx) { c->endow_premium(ctx); });
    }
    if (strategy_ == AuctioneerStrategy::kAbandon) return;
    // Declaration phase: inspect bids, publish per strategy. (At Delta = 1
    // the bids only become visible one tick into the phase; wait for them —
    // the |q| * Delta hashkey timeout still accommodates the declaration.)
    if (!declared_ && now >= s_.declaration_start) {
      const auto win = s_.coin->winner();
      if (!win) return;  // no bids visible (yet): nothing to declare
      declared_ = true;
      const std::size_t lose = lowest_bidder().value_or(*win);
      switch (strategy_) {
        case AuctioneerStrategy::kHonest:
          publish(chains, *win, s_.coin_chain);
          publish(chains, *win, s_.ticket_chain);
          break;
        case AuctioneerStrategy::kDeclareLoser:
          publish(chains, lose, s_.coin_chain);
          publish(chains, lose, s_.ticket_chain);
          break;
        case AuctioneerStrategy::kCoinOnly:
          publish(chains, *win, s_.coin_chain);
          break;
        case AuctioneerStrategy::kTicketOnly:
          publish(chains, *win, s_.ticket_chain);
          break;
        case AuctioneerStrategy::kSplit:
          publish(chains, *win, s_.coin_chain);
          publish(chains, lose, s_.ticket_chain);
          break;
        default:
          break;
      }
    }
  }

 private:
  std::optional<std::size_t> lowest_bidder() const {
    std::optional<std::size_t> low;
    for (std::size_t i = 0; i < bids_.size(); ++i) {
      const auto b = s_.coin->bid_of(i);
      if (b && (!low || *b < *s_.coin->bid_of(*low))) low = i;
    }
    return low;
  }

  void publish(chain::MultiChain& chains, std::size_t bidder_index,
               ChainId chain) {
    // The cached hashkey outlives the run: closures take it by reference.
    const crypto::Hashkey& key = s_.sign_cache->leader_hashkey(
        bidder_index, s_.secrets[bidder_index].value(), kAlice, keys());
    if (chain == s_.coin_chain) {
      submit(chains, chain, "declare on coin chain",
             [c = s_.coin, bidder_index, &key](chain::TxContext& ctx) {
               c->present_hashkey(ctx, bidder_index, key);
             });
    } else {
      submit(chains, chain, "declare on ticket chain",
             [c = s_.ticket, bidder_index, &key](chain::TxContext& ctx) {
               c->present_hashkey(ctx, bidder_index, key);
             });
    }
  }

  const Setup& s_;
  AuctioneerStrategy strategy_;
  std::vector<Amount> bids_;
  bool did_setup_ = false;
  bool declared_ = false;

  auto state_tie() { return std::tie(did_setup_, declared_); }
  friend chain::SnapshotState<Auctioneer, sim::Party>;
};

class Bidder : public chain::SnapshotState<Bidder, sim::Party> {
 public:
  Bidder(PartyId id, const Setup& s, sim::DeviationPlan plan, Amount bid)
      : chain::SnapshotState<Bidder, sim::Party>(
            id, "bidder-" + std::to_string(id), plan),
        s_(s), bid_(bid), forwarded_(s.secrets.size(), 0) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // Ordinal 0: bid once the auctioneer's setup (tickets + premium) is
    // visible.
    if (!did_bid_ && s_.ticket->escrowed() && s_.coin->premium_endowed() &&
        bid_ > 0) {
      did_bid_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        submit(ch, s_.coin_chain, "place bid",
               [c = s_.coin, amount = bid_](chain::TxContext& ctx) {
                 c->place_bid(ctx, amount);
               });
      });
    }
    // Ordinal 1, challenge phase (Lemma 7): a hashkey on one contract but
    // not the other gets extended and forwarded.
    for (std::size_t i = 0; i < s_.secrets.size(); ++i) {
      if (forwarded_[i]) continue;
      const bool on_coin = s_.coin->hashkey_received(i);
      const bool on_ticket = s_.ticket->hashkey_received(i);
      if (on_coin == on_ticket) continue;
      const crypto::Hashkey& seen = on_coin
                                        ? *s_.coin->presented_hashkey(i)
                                        : *s_.ticket->presented_hashkey(i);
      if (std::find(seen.path.begin(), seen.path.end(), id()) !=
          seen.path.end()) {
        continue;
      }
      forwarded_[i] = 1;
      // The extended key lives in the world's SigningCache, so a delayed
      // submission captures a stable reference.
      const crypto::Hashkey& extended =
          s_.sign_cache->extended_hashkey(i, seen, id(), keys());
      act(chains, now, 1,
          [this, i, on_coin, &extended](chain::MultiChain& ch) {
            if (on_coin) {
              submit(ch, s_.ticket_chain, "forward hashkey",
                     [c = s_.ticket, i, &extended](chain::TxContext& ctx) {
                       c->present_hashkey(ctx, i, extended);
                     });
            } else {
              submit(ch, s_.coin_chain, "forward hashkey",
                     [c = s_.coin, i, &extended](chain::TxContext& ctx) {
                       c->present_hashkey(ctx, i, extended);
                     });
            }
          });
    }
  }

 private:
  const Setup& s_;
  Amount bid_;
  bool did_bid_ = false;
  std::vector<char> forwarded_;

  auto state_tie() { return std::tie(did_bid_, forwarded_); }
  friend chain::SnapshotState<Bidder, sim::Party>;
};

// ---------------------------------------------------------------------------
// Sealed-bid variant (footnote 8 extension)
// ---------------------------------------------------------------------------

struct SealedSetup {
  contracts::SealedCoinAuctionContract* coin = nullptr;
  contracts::TicketAuctionContract* ticket = nullptr;
  ChainId coin_chain = 0;
  ChainId ticket_chain = 0;
  std::vector<crypto::Secret> secrets;
  crypto::SigningCache* sign_cache = nullptr;
  Tick declaration_start = 0;
  Tick reveal_deadline = 0;
};

class SealedAuctioneer
    : public chain::SnapshotState<SealedAuctioneer, sim::Party> {
 public:
  SealedAuctioneer(const SealedSetup& s, AuctioneerStrategy strategy)
      : chain::SnapshotState<SealedAuctioneer, sim::Party>(kAlice, "alice"),
        s_(s), strategy_(strategy) {}

  void set_strategy(AuctioneerStrategy strategy) { strategy_ = strategy; }

  void step(chain::MultiChain& chains, Tick now) override {
    if (strategy_ == AuctioneerStrategy::kNoSetup) return;
    if (!did_setup_) {
      did_setup_ = true;
      submit(chains, s_.ticket_chain, "escrow tickets",
             [c = s_.ticket](chain::TxContext& ctx) {
               c->escrow_tickets(ctx);
             });
      submit(chains, s_.coin_chain, "endow premium",
             [c = s_.coin](chain::TxContext& ctx) { c->endow_premium(ctx); });
    }
    if (strategy_ == AuctioneerStrategy::kAbandon) return;
    if (!declared_ && now >= s_.declaration_start) {
      const auto win = s_.coin->winner();
      if (!win) return;
      declared_ = true;
      const std::size_t target = strategy_ == AuctioneerStrategy::kDeclareLoser
                                     ? lowest_revealed().value_or(*win)
                                     : *win;
      const bool to_coin = strategy_ != AuctioneerStrategy::kTicketOnly;
      const bool to_ticket = strategy_ != AuctioneerStrategy::kCoinOnly;
      if (to_coin) {
        const crypto::Hashkey& key = s_.sign_cache->leader_hashkey(
            target, s_.secrets[target].value(), kAlice, keys());
        submit(chains, s_.coin_chain, "declare (coin)",
               [c = s_.coin, target, &key](chain::TxContext& ctx) {
                 c->present_hashkey(ctx, target, key);
               });
      }
      if (to_ticket) {
        const std::size_t t =
            strategy_ == AuctioneerStrategy::kSplit
                ? lowest_revealed().value_or(target)
                : target;
        const crypto::Hashkey& tk = s_.sign_cache->leader_hashkey(
            t, s_.secrets[t].value(), kAlice, keys());
        submit(chains, s_.ticket_chain, "declare (ticket)",
               [c = s_.ticket, t, &tk](chain::TxContext& ctx) {
                 c->present_hashkey(ctx, t, tk);
               });
      }
    }
  }

 private:
  std::optional<std::size_t> lowest_revealed() const {
    std::optional<std::size_t> low;
    for (std::size_t i = 0; i < s_.secrets.size(); ++i) {
      const auto b = s_.coin->revealed_bid(i);
      if (b && (!low || *b < *s_.coin->revealed_bid(*low))) low = i;
    }
    return low;
  }

  const SealedSetup& s_;
  AuctioneerStrategy strategy_;
  bool did_setup_ = false;
  bool declared_ = false;

  auto state_tie() { return std::tie(did_setup_, declared_); }
  friend chain::SnapshotState<SealedAuctioneer, sim::Party>;
};

class SealedBidder : public chain::SnapshotState<SealedBidder, sim::Party> {
 public:
  SealedBidder(PartyId id, const SealedSetup& s, sim::DeviationPlan plan,
               Amount bid)
      : chain::SnapshotState<SealedBidder, sim::Party>(
            id, "bidder-" + std::to_string(id), plan),
        s_(s), bid_(bid),
        nonce_(crypto::Secret::from_label("nonce-" + name()).value()),
        forwarded_(s.secrets.size(), 0) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // A budget-less bidder has no protocol role at all (historical
    // sealed-variant behaviour: it neither commits nor forwards).
    if (bid_ <= 0) return;
    // Ordinal 0: commit once the auctioneer's setup is visible.
    if (!committed_ && s_.ticket->escrowed() && s_.coin->premium_endowed()) {
      committed_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        const auto digest =
            contracts::SealedCoinAuctionContract::commitment_of(bid_, nonce_);
        submit(ch, s_.coin_chain, "commit bid",
               [c = s_.coin, digest](chain::TxContext& ctx) {
                 c->commit_bid(ctx, digest);
               });
      });
    }
    // Ordinal 1: reveal once the commit phase has closed.
    if (!revealed_ && committed_ &&
        now > s_.coin->params().terms.bid_deadline) {
      revealed_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, s_.coin_chain, "reveal bid",
               [c = s_.coin, b = bid_, nn = nonce_](
                   chain::TxContext& ctx) { c->reveal_bid(ctx, b, nn); });
      });
    }
    // Ordinal 2: challenge-phase forwarding.
    for (std::size_t i = 0; i < s_.secrets.size(); ++i) {
      if (forwarded_[i]) continue;
      const bool on_coin = s_.coin->hashkey_received(i);
      const bool on_ticket = s_.ticket->hashkey_received(i);
      if (on_coin == on_ticket) continue;
      const crypto::Hashkey& seen = on_coin
                                        ? *s_.coin->presented_hashkey(i)
                                        : *s_.ticket->presented_hashkey(i);
      if (std::find(seen.path.begin(), seen.path.end(), id()) !=
          seen.path.end()) {
        continue;
      }
      forwarded_[i] = 1;
      const crypto::Hashkey& ext =
          s_.sign_cache->extended_hashkey(i, seen, id(), keys());
      act(chains, now, 2, [this, i, on_coin, &ext](chain::MultiChain& ch) {
        if (on_coin) {
          submit(ch, s_.ticket_chain, "forward",
                 [c = s_.ticket, i, &ext](chain::TxContext& ctx) {
                   c->present_hashkey(ctx, i, ext);
                 });
        } else {
          submit(ch, s_.coin_chain, "forward",
                 [c = s_.coin, i, &ext](chain::TxContext& ctx) {
                   c->present_hashkey(ctx, i, ext);
                 });
        }
      });
    }
  }

 private:
  const SealedSetup& s_;
  Amount bid_;
  crypto::Bytes nonce_;
  bool committed_ = false;
  bool revealed_ = false;
  std::vector<char> forwarded_;

  auto state_tie() { return std::tie(committed_, revealed_, forwarded_); }
  friend chain::SnapshotState<SealedBidder, sim::Party>;
};

}  // namespace

struct AuctionWorld::Impl {
  AuctionConfig cfg;
  bool sealed = false;
  chain::MultiChain chains;
  crypto::SigningCache sign_cache;
  Setup s;         ///< open variant
  SealedSetup ss;  ///< sealed variant
  std::unique_ptr<PayoffTracker> tracker;
  // Persistent actors (one variant populated, per `sealed`).
  std::unique_ptr<Auctioneer> alice;
  std::vector<std::unique_ptr<Bidder>> bidders;
  std::unique_ptr<SealedAuctioneer> sealed_alice;
  std::vector<std::unique_ptr<SealedBidder>> sealed_bidders;
  sim::TreeFrame frame;
};

AuctionWorld::AuctionWorld(const AuctionConfig& cfg, bool sealed,
                           chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  w.cfg = cfg;
  w.sealed = sealed;
  const std::size_t n = cfg.bids.size();
  const Tick d = cfg.delta;

  w.chains.set_trace(trace);
  chain::Blockchain& ticket_chain = w.chains.add_chain("ticketchain");
  chain::Blockchain& coin_chain = w.chains.add_chain("coinchain");

  AuctionTerms terms;
  terms.auctioneer = kAlice;
  crypto::Rng rng(sealed ? "sealed-auction" : "auction");
  std::vector<crypto::PublicKey> keys(n + 1);
  keys[kAlice] = crypto::keygen_cached("alice").pub;
  std::vector<crypto::Secret> secrets;
  for (std::size_t i = 0; i < n; ++i) {
    const PartyId pid = static_cast<PartyId>(i + 1);
    terms.bidders.push_back(pid);
    keys[pid] = crypto::keygen_cached("bidder-" + std::to_string(pid)).pub;
    secrets.push_back(crypto::Secret::random(rng));
    terms.hashlocks.push_back(secrets.back().hashlock());
  }
  terms.party_keys = keys;
  terms.delta = d;

  if (sealed) {
    SealedSetup& s = w.ss;
    s.ticket_chain = ticket_chain.id();
    s.coin_chain = coin_chain.id();
    // Declare only once the reveals are FINAL: the reveal deadline is
    // inclusive (a reveal submitted at 2Δ still lands in block 2Δ), so the
    // earliest tick the declaration can be based on complete information is
    // 2Δ + 1. Declaring at 2Δ — as the eager schedule used to — silently
    // relied on every bidder revealing early; a timely-but-last-moment
    // reveal would arrive after an honest declaration and settle the coin
    // contract for a different winner, costing the HONEST auctioneer her
    // premium endowment. The |q|·Δ hashkey timeouts (counted from the
    // contract's declaration_start = 2Δ) still accommodate the shift.
    s.declaration_start = 2 * d + 1;
    s.reveal_deadline = 2 * d;
    s.secrets = std::move(secrets);
    s.sign_cache = &w.sign_cache;

    terms.bid_deadline = d;  // commit phase
    terms.declaration_start = 2 * d;
    terms.commit_time = 6 * d;

    s.coin = &coin_chain.deploy<contracts::SealedCoinAuctionContract>(
        contracts::SealedCoinAuctionContract::Params{
            terms, cfg.premium_unit, cfg.collateral, s.reveal_deadline});
    s.ticket = &ticket_chain.deploy<contracts::TicketAuctionContract>(
        contracts::TicketAuctionContract::Params{terms, "ticket",
                                                 cfg.ticket_count});

    ticket_chain.ledger_for_setup().mint(chain::Address::party(kAlice),
                                         "ticket", cfg.ticket_count);
    coin_chain.ledger_for_setup().mint(
        chain::Address::party(kAlice), coin_chain.native(),
        cfg.premium_unit * static_cast<Amount>(n));
    for (std::size_t i = 0; i < n; ++i) {
      coin_chain.ledger_for_setup().mint(
          chain::Address::party(static_cast<PartyId>(i + 1)),
          coin_chain.native(), cfg.collateral);
    }
  } else {
    Setup& s = w.s;
    s.ticket_chain = ticket_chain.id();
    s.coin_chain = coin_chain.id();
    // Declare only once the bids are FINAL (inclusive bid deadline Δ + one
    // tick of visibility — see the sealed variant's comment; at Δ = 1 this
    // matches the old effective behaviour, where the auctioneer found no
    // visible bid at tick Δ and declared at Δ + 1 anyway).
    s.declaration_start = d + 1;
    s.secrets = std::move(secrets);
    s.sign_cache = &w.sign_cache;

    terms.bid_deadline = d;
    terms.declaration_start = d;
    terms.commit_time = 5 * d;

    s.coin = &coin_chain.deploy<CoinAuctionContract>(
        CoinAuctionContract::Params{terms, cfg.premium_unit});
    s.ticket = &ticket_chain.deploy<TicketAuctionContract>(
        TicketAuctionContract::Params{terms, "ticket", cfg.ticket_count});

    ticket_chain.ledger_for_setup().mint(chain::Address::party(kAlice),
                                         "ticket", cfg.ticket_count);
    coin_chain.ledger_for_setup().mint(
        chain::Address::party(kAlice), coin_chain.native(),
        cfg.premium_unit * static_cast<Amount>(n));
    for (std::size_t i = 0; i < n; ++i) {
      coin_chain.ledger_for_setup().mint(
          chain::Address::party(static_cast<PartyId>(i + 1)),
          coin_chain.native(), cfg.bids[i]);
    }
  }

  w.tracker = std::make_unique<PayoffTracker>(w.chains, n + 1);

  w.frame.chains = &w.chains;
  if (sealed) {
    w.sealed_alice =
        std::make_unique<SealedAuctioneer>(w.ss, AuctioneerStrategy::kHonest);
    w.frame.actors.push_back(w.sealed_alice.get());
    for (std::size_t i = 0; i < n; ++i) {
      w.sealed_bidders.push_back(std::make_unique<SealedBidder>(
          static_cast<PartyId>(i + 1), w.ss, sim::DeviationPlan::conforming(),
          cfg.bids[i]));
      w.frame.actors.push_back(w.sealed_bidders.back().get());
    }
    w.frame.horizon = 6 * d + 2;
  } else {
    w.alice = std::make_unique<Auctioneer>(w.s, AuctioneerStrategy::kHonest,
                                           cfg.bids);
    w.frame.actors.push_back(w.alice.get());
    for (std::size_t i = 0; i < n; ++i) {
      w.bidders.push_back(std::make_unique<Bidder>(
          static_cast<PartyId>(i + 1), w.s, sim::DeviationPlan::conforming(),
          cfg.bids[i]));
      w.frame.actors.push_back(w.bidders.back().get());
    }
    w.frame.horizon = 5 * d + 2;
  }
  sim::debug_validate_deadlines(w.chains, d);
}

AuctionWorld::~AuctionWorld() = default;
AuctionWorld::AuctionWorld(AuctionWorld&&) noexcept = default;
AuctionWorld& AuctionWorld::operator=(AuctionWorld&&) noexcept = default;

sim::DeviationPlan bidder_plan_of(BidderStrategy strategy, bool sealed) {
  switch (strategy) {
    case BidderStrategy::kConform: return sim::DeviationPlan::conforming();
    case BidderStrategy::kNoBid: return sim::DeviationPlan::halt_after(0);
    case BidderStrategy::kCommitNoReveal:
      return sim::DeviationPlan::halt_after(1);
    default:  // kNoForward: everything but the challenge-phase duty
      return sim::DeviationPlan::halt_after(sealed ? 2 : 1);
  }
}

AuctioneerStrategy auctioneer_of(int variant) {
  switch (variant) {
    case 0: return AuctioneerStrategy::kHonest;
    case 1: return AuctioneerStrategy::kNoSetup;
    case 2: return AuctioneerStrategy::kAbandon;
    case 3: return AuctioneerStrategy::kDeclareLoser;
    case 4: return AuctioneerStrategy::kCoinOnly;
    case 5: return AuctioneerStrategy::kTicketOnly;
    default: return AuctioneerStrategy::kSplit;
  }
}

sim::TreeFrame& AuctionWorld::frame() { return impl_->frame; }

void AuctionWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  Impl& w = *impl_;
  const AuctioneerStrategy alice = auctioneer_of(plans.at(0).variant());
  if (w.sealed) {
    w.sealed_alice->set_strategy(alice);
    for (std::size_t i = 0; i < w.sealed_bidders.size(); ++i) {
      w.sealed_bidders[i]->set_plan(plans.at(i + 1));
    }
  } else {
    w.alice->set_strategy(alice);
    for (std::size_t i = 0; i < w.bidders.size(); ++i) {
      w.bidders[i]->set_plan(plans.at(i + 1));
    }
  }
}

AuctionResult AuctionWorld::collect() const {
  const Impl& w = *impl_;
  const std::size_t n = w.cfg.bids.size();

  AuctionResult out;
  if (w.sealed) {
    out.completed = w.ss.coin->completed_cleanly();
    out.tickets_to = w.ss.ticket->awarded_to().value_or(kAlice);
  } else {
    out.completed = w.s.coin->completed_cleanly();
    out.tickets_to = w.s.ticket->awarded_to().value_or(kAlice);
  }
  out.auctioneer = w.tracker->delta(w.chains, kAlice);
  for (std::size_t i = 0; i < n; ++i) {
    out.bidders.push_back(
        w.tracker->delta(w.chains, static_cast<PartyId>(i + 1)));
  }
  out.events = w.chains.all_events();
  return out;
}

namespace {

AuctionResult play_auction(const AuctionConfig& cfg, bool sealed,
                           AuctioneerStrategy alice,
                           const std::vector<BidderStrategy>& bidders) {
  std::vector<sim::DeviationPlan> plans{
      sim::DeviationPlan::conforming().with_variant(static_cast<int>(alice))};
  for (const BidderStrategy s : bidders) {
    plans.push_back(bidder_plan_of(s, sealed));
  }
  AuctionWorld world(cfg, sealed);
  return sim::play(world, plans);
}

}  // namespace

AuctionResult run_sealed_auction(const AuctionConfig& cfg,
                                 AuctioneerStrategy alice,
                                 const std::vector<BidderStrategy>& bidders) {
  return play_auction(cfg, /*sealed=*/true, alice, bidders);
}

AuctionResult run_auction(const AuctionConfig& cfg, AuctioneerStrategy alice,
                          const std::vector<BidderStrategy>& bidders) {
  return play_auction(cfg, /*sealed=*/false, alice, bidders);
}

}  // namespace xchain::core
