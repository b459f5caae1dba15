#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {

/// Premium-ladder escrow contract for bootstrapped swaps (paper §6,
/// Figure 2).
///
/// One ladder lives on each chain. Rung 0 is the principal; rung j >= 1 is
/// a premium deposit; rungs are deposited highest-index (smallest amount)
/// first, and depositors alternate between the two parties.
///
/// Rules:
///
///  * ORDER:   rung j may be deposited only after rung j+1 (same chain).
///  * RELEASE: each premium rung j >= 2 declares `released_by`: the rung
///             whose (same-chain) deposit ends its guard duty and refunds
///             it. Ordinary rungs release on the next deposit ("once the
///             next round finishes, the previous round's premiums are
///             refunded"); the persistent follower guard A^(2) releases
///             only on the principal ("Alice's A^(2) should be refunded
///             after Alice deposits her principal").
///  * DEFAULT: if rung j is missing at its deadline, the ladder dies and
///             every held rung is refunded — except a rung flagged
///             `guards_principal` when the missing rung is the principal:
///             that rung (the principal owner's own deposit) is forfeited
///             to the counterparty ("If Alice does not deposit her
///             principal, Bob receives A^(2) as compensation for locking
///             up A^(1)"). Premium-phase defaults forfeit nothing: the
///             locked values there are the small, accepted residual risk
///             (§4, §5.2).
///  * FINAL:   rung 1 and the principal follow §5.2: redemption with the
///             preimage pays the counterparty and refunds rung 1; an
///             escrowed-but-unredeemed principal is refunded to its owner
///             and rung 1 is awarded to the owner.
///
/// A ladder with one premium rung is exactly the hedged two-party contract
/// of §5.2: the hedged two-party swap runs on it (core::two_party_ladder),
/// and tests/ladder_test.cpp checks its §5.2 rules one by one.
///
/// All deadlines are inclusive; sweeps fire the first block past them.
class LadderContract : public chain::SnapshotState<LadderContract> {
 public:
  /// Per-rung static configuration. Rung 0's amount is in
  /// `principal_symbol`; all other rungs are native-coin premiums.
  struct RungSpec {
    PartyId depositor = kNoParty;
    Amount amount = 0;
    Tick deposit_deadline = 0;
    /// Premium rungs (j >= 2): deposit of this rung index refunds the rung.
    std::optional<std::size_t> released_by;
    /// Forfeited to the counterparty if the principal (rung 0) defaults.
    bool guards_principal = false;
  };

  struct Params {
    /// rungs[0] = principal, rungs[1..r] = premiums; deadlines must be
    /// strictly decreasing in index (higher rungs are deposited earlier).
    std::vector<RungSpec> rungs;
    PartyId counterparty = kNoParty;  ///< redeems the principal
    chain::Symbol principal_symbol;
    crypto::Digest hashlock{};
    Tick redemption_deadline = 0;
  };

  explicit LadderContract(Params p);

  /// Deposits rung `index`. Requires: sender is the rung's depositor, rung
  /// `index + 1` already deposited, timely, ladder alive.
  void deposit(chain::TxContext& ctx, std::size_t index);

  /// Redeems the principal with the preimage (pays the counterparty,
  /// refunds rung 1, publishes the preimage).
  void redeem(chain::TxContext& ctx, const crypto::Bytes& preimage);

  /// Timeout sweep implementing DEFAULT and FINAL above.
  void on_block(chain::TxContext& ctx) override;
  /// Every rung's deposit deadline and the redemption deadline.
  std::vector<Tick> timeouts() const override { return deadline_schedule(); }

  /// The scheduled-step deadline ladder: rung deposits run highest index
  /// first (deposit deadlines are strictly decreasing in rung index), so
  /// the step order is the reversed rung list, followed by redemption.
  std::vector<Tick> deadline_schedule() const override {
    std::vector<Tick> ladder;
    ladder.reserve(p_.rungs.size() + 1);
    for (std::size_t j = p_.rungs.size(); j-- > 0;) {
      ladder.push_back(p_.rungs[j].deposit_deadline);
    }
    ladder.push_back(p_.redemption_deadline);
    return ladder;
  }

  // -- Public state ---------------------------------------------------------
  enum class RungState : std::uint8_t {
    kEmpty,      ///< not deposited
    kHeld,       ///< deposited, unresolved
    kRefunded,   ///< returned to depositor
    kForfeited,  ///< awarded to the other party
    kRedeemed,   ///< principal only: claimed by counterparty
  };

  const Params& params() const { return p_; }
  RungState rung_state(std::size_t index) const {
    return rungs_[index].state;
  }
  bool rung_deposited(std::size_t index) const {
    return rungs_[index].deposited_at.has_value();
  }
  std::optional<Tick> rung_deposited_at(std::size_t index) const {
    return rungs_[index].deposited_at;
  }
  std::optional<Tick> rung_resolved_at(std::size_t index) const {
    return rungs_[index].resolved_at;
  }
  bool dead() const { return dead_; }
  bool principal_redeemed() const {
    return rungs_[0].state == RungState::kRedeemed;
  }
  const std::optional<crypto::Bytes>& revealed_preimage() const {
    return preimage_;
  }

 private:
  struct Rung {
    RungSpec spec;
    RungState state = RungState::kEmpty;
    std::optional<Tick> deposited_at;
    std::optional<Tick> resolved_at;

    void state_hash_into(std::uint64_t& h) const {
      // spec is immutable configuration; only the live fields hash.
      chain::state_hash_values(h, state, deposited_at, resolved_at);
    }
  };

  SymbolId symbol_of(std::size_t index, const chain::TxContext& ctx) const;
  void resolve(chain::TxContext& ctx, std::size_t index, PartyId to,
               RungState final_state);
  void kill(chain::TxContext& ctx, std::size_t missing_index);
  PartyId other_party(PartyId p) const;

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.principal_symbol);
  std::vector<Rung> rungs_;
  bool dead_ = false;
  std::optional<crypto::Bytes> preimage_;

  /// Every mutable member.
  auto state_tie() { return std::tie(rungs_, dead_, preimage_); }
  friend chain::SnapshotState<LadderContract>;
};

}  // namespace xchain::contracts
