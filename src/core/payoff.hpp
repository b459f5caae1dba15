#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"

namespace xchain::core {

/// A party's holdings across all chains at one instant: symbol -> amount.
using Holdings = std::map<chain::Symbol, Amount>;

/// Net change of a party's holdings over a protocol run.
struct PayoffDelta {
  /// Per-symbol deltas (tokens and native coins alike).
  Holdings by_symbol;

  /// Net premium/native-coin payoff summed across chains (the unit the
  /// paper's lemmas are stated in; all native coins valued at par, §4).
  Amount coin_delta = 0;

  /// Total valued payoff with every symbol at par.
  Amount value_delta = 0;

  /// by_symbol's entry for `symbol`, 0 when it never moved.
  Amount symbol_delta(const chain::Symbol& symbol) const;

  std::string str() const;
  bool operator==(const PayoffDelta&) const = default;
};

/// Captures party balances across chains so deltas can be computed after a
/// run. Snapshots are interned-symbol flat vectors read straight off the
/// dense ledgers — no string traffic until a delta materializes its
/// by_symbol map (and then only for symbols that actually changed).
class PayoffTracker {
 public:
  /// Snapshots balances of parties [0, party_count) over all chains.
  PayoffTracker(const chain::MultiChain& chains, std::size_t party_count);

  /// Snapshots balances of parties [first, first + party_count) — the
  /// namespaced-instance form: a load instance's parties live at a
  /// non-zero account base on the shared chains.
  PayoffTracker(const chain::MultiChain& chains, PartyId first,
                std::size_t party_count);

  /// Delta of `party`'s holdings between the snapshot and now. `party` is
  /// the same (global) id space the snapshot used.
  /// Native-coin symbols are those ending in "-coin" (MultiChain naming).
  PayoffDelta delta(const chain::MultiChain& chains, PartyId party) const;

 private:
  /// One party's balances at the snapshot, summed across chains.
  using Snapshot = std::vector<std::pair<SymbolId, Amount>>;

  static void accumulate(Snapshot& into, SymbolId sym, Amount amount);
  Snapshot snapshot_of(const chain::MultiChain& chains, PartyId party) const;

  PartyId first_ = 0;
  std::size_t party_count_;
  std::vector<Snapshot> initial_;
};

}  // namespace xchain::core
