#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/hashkey.hpp"
#include "graph/digraph.hpp"

namespace xchain::contracts {

/// Per-chain contract for the hedged broker protocol (paper §8).
///
/// Each of the two chains (tickets, coins) hosts two arcs of the broker
/// digraph: an *escrow arc* (X, A) funded with fresh assets by X, and a
/// *trading arc* (A, Y) that Alice funds *out of* the escrow bucket during
/// the trading phase (she brokers with assets she does not own). On the
/// coin chain the trade moves 100 of Carol's 101 escrowed coins toward
/// Bob; the residual coin is Alice's spread.
///
/// Premiums:
///  * the escrow premium E(X, A) is deposited by X and follows §7
///    semantics on the escrow arc (activation by redemption premiums,
///    refund on escrow, award to A if the asset never arrives);
///  * the trading premium T(A, Y) is deposited by Alice and mirrors the
///    escrow premium on the trading arc (refund on trade, award to Y if
///    the trade never happens after activation);
///  * redemption premiums per arc and per hashlock follow Equation 1, with
///    signature-authenticated paths, exactly as in §7.
///
/// Every asset bucket redeems to its arc's recipient once all three
/// hashkeys have been presented on that arc in time; at the final deadline
/// un-redeemed buckets refund to the *original owner* X (trading-phase
/// transfers are conditional).
class BrokerChainContract : public chain::SnapshotState<BrokerChainContract> {
 public:
  /// Selects which of the contract's two arcs an operation refers to.
  enum class Which : std::uint8_t { kEscrowArc = 0, kTradingArc = 1 };

  struct Hashlock {
    PartyId leader = kNoParty;
    crypto::Digest digest{};
  };

  struct Params {
    graph::Digraph g;
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
    Amount premium_unit = 0;   ///< p
    Amount escrow_premium = 0; ///< E(X, A) = T(A)
    Amount trading_premium = 0;///< T(A, Y) = R_Y(Y)
    std::vector<Hashlock> hashlocks;            ///< one per party (all lead)
    std::vector<crypto::PublicKey> party_keys;  ///< by PartyId
    Tick delta = 1;
    Tick escrow_premium_deadline = 0;
    Tick trading_premium_deadline = 0;
    /// Start of the redemption-premium relay phase: a deposit whose path
    /// has |q| hops is timely until premium_base + |q| * delta (the §7.1
    /// per-path rule — keeps the backward flow all-or-nothing per
    /// leader). 0 means "flat redemption_premium_deadline only".
    Tick premium_base = 0;
    Tick redemption_premium_deadline = 0;
    Tick escrow_deadline = 0;
    Tick trading_deadline = 0;
    Tick hashkey_base = 0;
  };

  explicit BrokerChainContract(Params p);

  // -- Transactions ----------------------------------------------------------

  void deposit_escrow_premium(chain::TxContext& ctx);
  void deposit_trading_premium(chain::TxContext& ctx);
  void deposit_redemption_premium(chain::TxContext& ctx, Which arc,
                                  std::size_t leader_index,
                                  const graph::Path& q,
                                  const crypto::Signature& path_sig);

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
  std::vector<Tick> timeouts() const override;

  // -- Public state -----------------------------------------------------------

  const Params& params() const { return p_; }
  bool escrowed() const { return escrowed_at_.has_value(); }
  bool traded() const { return traded_at_.has_value(); }
  std::optional<Tick> escrowed_at() const { return escrowed_at_; }

  bool escrow_premium_deposited() const { return ep_.deposited; }
  bool escrow_premium_refunded() const { return ep_.refunded; }
  bool escrow_premium_awarded() const { return ep_.awarded; }
  bool trading_premium_deposited() const { return tp_.deposited; }
  bool trading_premium_refunded() const { return tp_.refunded; }
  bool trading_premium_awarded() const { return tp_.awarded; }

  bool premium_activated(Which arc) const;
  bool redemption_premium_deposited(Which arc, std::size_t leader) const {
    return slot(arc, leader).deposited_at.has_value();
  }
  Amount redemption_premium_amount(Which arc, std::size_t leader) const {
    return slot(arc, leader).amount;
  }
  /// The (public) path a deposited redemption premium carried — what a
  /// relaying party extends during the backward flow.
  const graph::Path& redemption_premium_path(Which arc,
                                             std::size_t leader) const {
    return slot(arc, leader).path;
  }

  bool hashlock_open(Which arc, std::size_t leader) const {
    return keys_of(arc)[leader].has_value();
  }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      Which arc, std::size_t leader) const {
    return keys_of(arc)[leader];
  }

  /// Asset currently in each bucket.
  Amount escrow_bucket() const { return escrow_bucket_; }
  Amount trading_bucket() const { return trading_bucket_; }
  bool bucket_redeemed(Which arc) const {
    return arc == Which::kEscrowArc ? escrow_redeemed_ : trading_redeemed_;
  }
  bool refunded() const { return refunded_; }

  Tick path_deadline(std::size_t len) const {
    return p_.hashkey_base + static_cast<Tick>(diam_ + len) * p_.delta;
  }

 private:
  struct SimplePremium {
    Amount amount = 0;
    PartyId payer = kNoParty;
    bool deposited = false;
    bool refunded = false;
    bool awarded = false;

    void state_hash_into(std::uint64_t& h) const {
      chain::state_hash_values(h, deposited, refunded, awarded);
    }
  };
  struct RedemptionSlot {
    Amount amount = 0;
    graph::Path path;
    std::optional<Tick> deposited_at;
    bool refunded = false;
    bool awarded = false;

    void state_hash_into(std::uint64_t& h) const {
      chain::state_hash_values(h, amount, path, deposited_at, refunded,
                               awarded);
    }
  };

  const graph::Arc& arc_of(Which a) const {
    return a == Which::kEscrowArc ? p_.escrow_arc : p_.trading_arc;
  }
  /// Local vertex id -> on-chain account (instance namespacing).
  chain::Address acct(PartyId local) const {
    return chain::Address::party(p_.party_base + local);
  }
  /// Global sender -> local vertex id (wraps harmlessly for foreign
  /// senders — the id can never match a local vertex).
  PartyId local_sender(const chain::TxContext& ctx) const;
  std::vector<RedemptionSlot>& slots_of(Which a) {
    return a == Which::kEscrowArc ? rp_escrow_ : rp_trading_;
  }
  const std::vector<RedemptionSlot>& slots_of(Which a) const {
    return a == Which::kEscrowArc ? rp_escrow_ : rp_trading_;
  }
  const RedemptionSlot& slot(Which a, std::size_t leader) const {
    return slots_of(a)[leader];
  }
  std::vector<std::optional<crypto::Hashkey>>& keys_of(Which a) {
    return a == Which::kEscrowArc ? keys_escrow_ : keys_trading_;
  }
  const std::vector<std::optional<crypto::Hashkey>>& keys_of(Which a) const {
    return a == Which::kEscrowArc ? keys_escrow_ : keys_trading_;
  }
  bool all_open(Which a) const;
  void pay_simple(chain::TxContext& ctx, SimplePremium& prem, PartyId to,
                  bool award, const char* label);
  void try_redeem(chain::TxContext& ctx, Which arc);

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.symbol);
  std::size_t diam_;
  crypto::VerifyCache vcache_;
  /// Equation 1 amounts per (arc sender, deposit path) — pure in (g, p),
  /// so it survives rewinds like the signature memo.
  std::map<std::pair<PartyId, graph::Path>, Amount> rp_amount_memo_;
  SimplePremium ep_;
  SimplePremium tp_;
  std::vector<RedemptionSlot> rp_escrow_;
  std::vector<RedemptionSlot> rp_trading_;
  std::vector<std::optional<crypto::Hashkey>> keys_escrow_;
  std::vector<std::optional<crypto::Hashkey>> keys_trading_;
  std::optional<Tick> escrowed_at_;
  std::optional<Tick> traded_at_;
  Amount escrow_bucket_ = 0;
  Amount trading_bucket_ = 0;
  bool escrow_redeemed_ = false;
  bool trading_redeemed_ = false;
  bool refunded_ = false;

  /// Every mutable member (the signature and Equation-1 memos cache pure
  /// computation and are deliberately absent).
  auto state_tie() {
    return std::tie(ep_, tp_, rp_escrow_, rp_trading_, keys_escrow_,
                    keys_trading_, escrowed_at_, traded_at_, escrow_bucket_,
                    trading_bucket_, escrow_redeemed_, trading_redeemed_,
                    refunded_);
  }
  friend chain::SnapshotState<BrokerChainContract>;
};

}  // namespace xchain::contracts
