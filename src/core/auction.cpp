#include "core/auction.hpp"

#include <memory>
#include <tuple>

#include "contracts/auction.hpp"
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
  Auctioneer(const Setup& s, AuctioneerStrategy strategy)
      : chain::SnapshotState<Auctioneer, sim::Party>(kAlice, "alice"), s_(s),
        strategy_(strategy) {}

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
      // Each chain gets the winner's key, or the lowest bidder's (the
      // winner's when it bid alone): on both chains for declare-loser, on
      // the ticket chain for split. Coin-only and ticket-only skip a chain.
      const std::size_t lose = lowest_bidder().value_or(*win);
      const bool loser = strategy_ == AuctioneerStrategy::kDeclareLoser;
      if (strategy_ != AuctioneerStrategy::kTicketOnly) {
        publish(chains, s_.coin_chain, s_.coin, "declare on coin chain",
                loser ? lose : *win);
      }
      if (strategy_ != AuctioneerStrategy::kCoinOnly) {
        publish(chains, s_.ticket_chain, s_.ticket, "declare on ticket chain",
                loser || strategy_ == AuctioneerStrategy::kSplit ? lose
                                                                  : *win);
      }
    }
  }

 private:
  std::optional<std::size_t> lowest_bidder() const {
    std::optional<std::size_t> low;
    for (std::size_t i = 0; i < s_.secrets.size(); ++i) {
      const auto b = s_.coin->bid_of(i);
      if (b && (!low || *b < *s_.coin->bid_of(*low))) low = i;
    }
    return low;
  }

  template <class Contract>
  void publish(chain::MultiChain& chains, ChainId chain, Contract* contract,
               const char* what, std::size_t bidder_index) {
    // The cached hashkey outlives the run: closures take it by reference.
    const crypto::Hashkey& key = s_.sign_cache->leader_hashkey(
        bidder_index, s_.secrets[bidder_index].value(), kAlice, keys());
    submit(chains, chain, what,
           [contract, bidder_index, &key](chain::TxContext& ctx) {
             contract->present_hashkey(ctx, bidder_index, key);
           });
  }

  const Setup& s_;
  AuctioneerStrategy strategy_;
  bool did_setup_ = false;
  bool declared_ = false;

  auto state_tie() { return std::tie(did_setup_, declared_); }
  friend chain::SnapshotState<Auctioneer, sim::Party>;
};

/// A bidder's scheduled actions are its bid intake, then the challenge-
/// phase forwarding: open 0 = bid, 1 = forward; sealed 0 = commit,
/// 1 = reveal, 2 = forward.
class Bidder : public chain::SnapshotState<Bidder, sim::Party> {
 public:
  Bidder(PartyId id, const Setup& s, sim::DeviationPlan plan, Amount bid)
      : chain::SnapshotState<Bidder, sim::Party>(
            id, "bidder-" + std::to_string(id), plan),
        s_(s), bid_(bid),
        nonce_(s.coin->sealed()
                   ? crypto::Secret::from_label("nonce-" + name()).value()
                   : crypto::Bytes{}),
        forwarded_(s.secrets.size(), 0) {}

  void step(chain::MultiChain& chains, Tick now) override {
    const bool sealed = s_.coin->sealed();
    // A budget-less sealed bidder has no protocol role at all: it neither
    // commits nor forwards. A budget-less open bidder still forwards.
    if (sealed && bid_ <= 0) return;
    // Ordinal 0: bid (open) or commit (sealed) once the auctioneer's setup
    // (tickets + premium) is visible.
    if (!entered_ && s_.ticket->escrowed() && s_.coin->premium_endowed() &&
        bid_ > 0) {
      entered_ = true;
      act(chains, now, 0, [this, sealed](chain::MultiChain& ch) {
        if (sealed) {
          const auto digest = CoinAuctionContract::commitment_of(bid_, nonce_);
          submit(ch, s_.coin_chain, "commit bid",
                 [c = s_.coin, digest](chain::TxContext& ctx) {
                   c->commit_bid(ctx, digest);
                 });
        } else {
          submit(ch, s_.coin_chain, "place bid",
                 [c = s_.coin, amount = bid_](chain::TxContext& ctx) {
                   c->place_bid(ctx, amount);
                 });
        }
      });
    }
    // Ordinal 1 (sealed): reveal once the commit phase has closed.
    if (sealed && !revealed_ && entered_ &&
        now > s_.coin->params().terms.bid_deadline) {
      revealed_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, s_.coin_chain, "reveal bid",
               [c = s_.coin, b = bid_, nn = nonce_](
                   chain::TxContext& ctx) { c->reveal_bid(ctx, b, nn); });
      });
    }
    // Ordinal 1 (open) or 2 (sealed), challenge phase (Lemma 7): a hashkey
    // on one contract but not the other gets extended and forwarded.
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
      act(chains, now, sealed ? 2 : 1,
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
  crypto::Bytes nonce_;  ///< sealed only: opens the commitment
  bool entered_ = false;   ///< bid placed (open) or committed (sealed)
  bool revealed_ = false;  ///< sealed only
  std::vector<char> forwarded_;

  auto state_tie() { return std::tie(entered_, revealed_, forwarded_); }
  friend chain::SnapshotState<Bidder, sim::Party>;
};

}  // namespace

struct AuctionWorld::Impl {
  AuctionConfig cfg;
  chain::MultiChain chains;
  crypto::SigningCache sign_cache;
  Setup s;
  std::unique_ptr<PayoffTracker> tracker;
  // Persistent actors.
  std::unique_ptr<Auctioneer> alice;
  std::vector<std::unique_ptr<Bidder>> bidders;
  sim::TreeFrame frame;
};

AuctionWorld::AuctionWorld(const AuctionConfig& cfg, bool sealed,
                           chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  w.cfg = cfg;
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

  // The bid intake takes Δ (open: bids) or 2Δ (sealed: commit, then
  // reveal); §9's declaration (Δ), challenge (3Δ) and commit follow it.
  const Tick intake_end = sealed ? 2 * d : d;
  terms.bid_deadline = d;
  terms.declaration_start = intake_end;
  terms.commit_time = intake_end + 4 * d;

  Setup& s = w.s;
  s.ticket_chain = ticket_chain.id();
  s.coin_chain = coin_chain.id();
  // Declare only once the bids are FINAL: the intake deadline is inclusive
  // (a bid or reveal submitted at its deadline still lands in that block),
  // so the earliest tick the declaration can be based on complete
  // information is one past it. Declaring at the deadline silently relied
  // on every bidder acting early; a timely-but-last-moment bid would
  // arrive after an honest declaration and settle the coin contract for a
  // different winner, costing the HONEST auctioneer her premium endowment.
  // The |q|·Δ hashkey timeouts (counted from the contract's
  // declaration_start) still accommodate the shift.
  s.declaration_start = intake_end + 1;
  s.secrets = std::move(secrets);
  s.sign_cache = &w.sign_cache;

  std::optional<CoinAuctionContract::Sealed> sealed_intake;
  if (sealed) sealed_intake = {cfg.collateral, /*reveal_deadline=*/2 * d};
  s.coin = &coin_chain.deploy<CoinAuctionContract>(
      CoinAuctionContract::Params{terms, cfg.premium_unit}, sealed_intake);
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
        coin_chain.native(), sealed ? cfg.collateral : cfg.bids[i]);
  }

  w.tracker = std::make_unique<PayoffTracker>(w.chains, n + 1);

  w.frame.chains = &w.chains;
  w.alice = std::make_unique<Auctioneer>(w.s, AuctioneerStrategy::kHonest);
  w.frame.actors.push_back(w.alice.get());
  for (std::size_t i = 0; i < n; ++i) {
    w.bidders.push_back(std::make_unique<Bidder>(
        static_cast<PartyId>(i + 1), w.s, sim::DeviationPlan::conforming(),
        cfg.bids[i]));
    w.frame.actors.push_back(w.bidders.back().get());
  }
  w.frame.horizon = terms.commit_time + 2;
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
  w.alice->set_strategy(auctioneer_of(plans.at(0).variant()));
  for (std::size_t i = 0; i < w.bidders.size(); ++i) {
    w.bidders[i]->set_plan(plans.at(i + 1));
  }
}

void AuctionWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  out.push_back(w.s.coin->completed_cleanly());
  out.push_back(w.s.ticket->awarded_to().value_or(kAlice));
  for (PartyId p = 0; p <= static_cast<PartyId>(w.cfg.bids.size()); ++p) {
    w.tracker->write_delta(w.chains, p, out);
  }
}

AuctionResult AuctionWorld::collect() const {
  const std::size_t n = impl_->cfg.bids.size();
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  AuctionResult out;
  out.completed = in.flag();
  out.tickets_to = static_cast<PartyId>(in.next());
  out.auctioneer = in.delta();
  out.bidders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.bidders.push_back(in.delta());
  out.events = impl_->chains.all_events();
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
