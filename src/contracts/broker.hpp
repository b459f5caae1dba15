#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "contracts/hedged_arc.hpp"
#include "crypto/hashkey.hpp"
#include "graph/digraph.hpp"

namespace xchain::contracts {

/// Per-chain contract for the hedged broker protocol (paper §8).
///
/// Each of the two chains (tickets, coins) hosts two arcs of the broker
/// digraph, each one HedgedArc (contracts/hedged_arc.hpp), exactly as in
/// §7: an *escrow arc* (X, A) funded with fresh assets by X, and a
/// *trading arc* (A, Y) that Alice funds *out of* the escrow bucket during
/// the trading phase (she brokers with assets she does not own). On the
/// coin chain the trade moves 100 of Carol's 101 escrowed coins toward
/// Bob; the residual coin is Alice's spread.
///
/// Premiums:
///  * the escrow premium E(X, A) is the escrow arc's premium: deposited by
///    X, refunded on escrow, awarded to A past the escrow deadline if the
///    arc is activated and the asset never arrived;
///  * the trading premium T(A, Y) is the trading arc's premium: deposited
///    by Alice, refunded on the trade, awarded to Y past the trading
///    deadline if the arc is activated and the trade never happened;
///  * redemption premiums per arc and per hashlock follow Equation 1, with
///    signature-authenticated paths and the §7.1 per-path deadlines.
///
/// Every asset bucket redeems to its arc's recipient once all three
/// hashkeys have been presented on that arc in time; at the final deadline
/// un-redeemed buckets refund to the *original owner* X (trading-phase
/// transfers are conditional).
class BrokerChainContract : public chain::SnapshotState<BrokerChainContract> {
 public:
  /// Selects which of the contract's two arcs an operation refers to.
  enum class Which : std::uint8_t { kEscrowArc = 0, kTradingArc = 1 };

  using Hashlock = contracts::Hashlock;

  /// The shared lattice terms (g, premium_unit, hashlocks — one per party,
  /// all lead — party_keys, delta, premium_base,
  /// redemption_premium_deadline, hashkey_base) plus the two arcs' own.
  struct Params : LatticeTerms {
    /// Instance namespacing offset: arcs, hashlock leaders, and party_keys
    /// all speak protocol-local vertex ids; the contract translates
    /// senders (global - base) on entry and payout addresses (local +
    /// base) on exit. Base 0 = the historical private-world identity map.
    PartyId party_base = 0;
    graph::Arc escrow_arc{};   ///< (X, A)
    graph::Arc trading_arc{};  ///< (A, Y)
    chain::Symbol symbol;      ///< asset traded on this chain
    Amount escrow_amount = 0;  ///< e.g. 101 coins / all tickets
    Amount trading_amount = 0; ///< e.g. 100 coins / all tickets
    Amount escrow_premium = 0; ///< E(X, A) = T(A)
    Amount trading_premium = 0;///< T(A, Y) = R_Y(Y)
    Tick escrow_premium_deadline = 0;
    Tick trading_premium_deadline = 0;
    Tick escrow_deadline = 0;
    Tick trading_deadline = 0;
  };

  explicit BrokerChainContract(Params p);

  // -- Transactions ----------------------------------------------------------

  void deposit_escrow_premium(chain::TxContext& ctx) {
    escrow_arc_.deposit_premium(ctx);
  }
  void deposit_trading_premium(chain::TxContext& ctx) {
    trading_arc_.deposit_premium(ctx);
  }
  void deposit_redemption_premium(chain::TxContext& ctx, Which arc,
                                  std::size_t leader_index,
                                  const graph::Path& q,
                                  const crypto::Signature& path_sig) {
    arc_of(arc).deposit_redemption_premium(ctx, leader_index, q, path_sig);
  }

  /// X escrows the principal into the escrow bucket; refunds E(X, A).
  void escrow(chain::TxContext& ctx);

  /// Alice moves `trading_amount` from the escrow bucket into the trading
  /// bucket; refunds T(A, Y).
  void trade(chain::TxContext& ctx);

  void present_hashkey(chain::TxContext& ctx, Which arc,
                       std::size_t leader_index, const crypto::Hashkey& key);

  void on_block(chain::TxContext& ctx) override;
  /// The escrow and trading deadlines and path_deadline(len) for every
  /// path length.
  std::vector<Tick> timeouts() const override {
    return escrow_arc_.with_path_deadlines(
        {p_.escrow_deadline, p_.trading_deadline});
  }

  // -- Public state -----------------------------------------------------------

  const Params& params() const { return p_; }
  /// One arc's premiums and hashkeys (what relaying parties read).
  const HedgedArc& hedged(Which arc) const {
    return arc == Which::kEscrowArc ? escrow_arc_ : trading_arc_;
  }
  bool escrowed() const { return escrowed_at_.has_value(); }
  bool traded() const { return traded_at_.has_value(); }
  std::optional<Tick> escrowed_at() const { return escrowed_at_; }

  bool escrow_premium_deposited() const {
    return escrow_arc_.premium_deposited();
  }
  bool escrow_premium_refunded() const {
    return escrow_arc_.premium_refunded();
  }
  bool escrow_premium_awarded() const { return escrow_arc_.premium_awarded(); }
  bool trading_premium_deposited() const {
    return trading_arc_.premium_deposited();
  }
  bool trading_premium_refunded() const {
    return trading_arc_.premium_refunded();
  }
  bool trading_premium_awarded() const {
    return trading_arc_.premium_awarded();
  }

  bool premium_activated(Which arc) const { return hedged(arc).activated(); }
  bool redemption_premium_deposited(Which arc, std::size_t leader) const {
    return hedged(arc).redemption_premium_deposited(leader);
  }
  Amount redemption_premium_amount(Which arc, std::size_t leader) const {
    return hedged(arc).redemption_premium_amount(leader);
  }
  const graph::Path& redemption_premium_path(Which arc,
                                             std::size_t leader) const {
    return hedged(arc).redemption_premium_path(leader);
  }

  bool hashlock_open(Which arc, std::size_t leader) const {
    return hedged(arc).hashlock_open(leader);
  }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      Which arc, std::size_t leader) const {
    return hedged(arc).presented_hashkey(leader);
  }

  /// Asset currently in each bucket.
  Amount escrow_bucket() const { return escrow_bucket_; }
  Amount trading_bucket() const { return trading_bucket_; }
  bool bucket_redeemed(Which arc) const {
    return arc == Which::kEscrowArc ? escrow_redeemed_ : trading_redeemed_;
  }
  bool refunded() const { return refunded_; }

  Tick path_deadline(std::size_t len) const {
    return escrow_arc_.path_deadline(len);
  }

 private:
  HedgedArc& arc_of(Which arc) {
    return arc == Which::kEscrowArc ? escrow_arc_ : trading_arc_;
  }
  /// Local vertex id -> on-chain account (instance namespacing).
  chain::Address acct(PartyId local) const {
    return chain::Address::party(p_.party_base + local);
  }
  /// Global sender -> local vertex id (wraps harmlessly for foreign
  /// senders — the id can never match a local vertex).
  PartyId local_sender(const chain::TxContext& ctx) const {
    return ctx.sender() - p_.party_base;
  }
  void try_redeem(chain::TxContext& ctx, Which arc);

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.symbol);
  HedgedArc escrow_arc_;
  HedgedArc trading_arc_;
  std::optional<Tick> escrowed_at_;
  std::optional<Tick> traded_at_;
  Amount escrow_bucket_ = 0;
  Amount trading_bucket_ = 0;
  bool escrow_redeemed_ = false;
  bool trading_redeemed_ = false;
  bool refunded_ = false;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(escrow_arc_.state(), trading_arc_.state(), escrowed_at_,
                    traded_at_, escrow_bucket_, trading_bucket_,
                    escrow_redeemed_, trading_redeemed_, refunded_);
  }
  friend chain::SnapshotState<BrokerChainContract>;
};

}  // namespace xchain::contracts
