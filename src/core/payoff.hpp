#pragma once

#include <cstdint>
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

/// A finished run's result as plain integers, which a world's summarize()
/// writes: its result flags and counts, then each party's balance changes
/// (PayoffTracker::write_delta). No strings and no maps, so writing one
/// into a reused buffer allocates nothing. Equal summaries mean equal
/// results: the schedule-tree executor keys its memo by them, and a
/// world's collect() reads its result back from one (SummaryReader).
using ResultSummary = std::vector<std::int64_t>;

/// An empty summary with room for a typical world's result (a few flags,
/// a few parties with a few symbols each), so that writing one seldom
/// reallocates.
inline ResultSummary summary_buffer() {
  ResultSummary summary;
  summary.reserve(64);
  return summary;
}

/// Reads a ResultSummary back in the order it was written. It points into
/// the summary, which must outlive it.
class SummaryReader {
 public:
  explicit SummaryReader(const ResultSummary& summary)
      : at_(summary.data()) {}
  explicit SummaryReader(ResultSummary&&) = delete;

  std::int64_t next() { return *at_++; }
  bool flag() { return next() != 0; }
  /// One party's balance changes, as PayoffTracker::write_delta wrote
  /// them.
  PayoffDelta delta();

 private:
  const std::int64_t* at_;
};

/// Captures party balances across chains so deltas can be computed after a
/// run. Snapshots are flat (SymbolId value, amount) word pairs read
/// straight off the dense ledgers — no string traffic until a delta
/// materializes its by_symbol map (and then only for symbols that actually
/// changed).
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

  /// The same delta, appended to `out` without strings: the number of
  /// symbols that moved, then one (SymbolId value, amount) pair each, in
  /// ascending id order, so equal deltas write equal words. Allocates only
  /// when `out` grows.
  void write_delta(const chain::MultiChain& chains, PartyId party,
                   ResultSummary& out) const;

 private:
  /// Adds `amount` of the symbol with id value `id` into the word pairs of
  /// `pairs` from `begin` on, appending a pair for a new symbol.
  static void add(ResultSummary& pairs, std::size_t begin, std::int64_t id,
                  Amount amount);
  /// Adds `party`'s balances on every chain into those pairs.
  static void add_holdings(const chain::MultiChain& chains, PartyId party,
                           ResultSummary& pairs, std::size_t begin);

  PartyId first_ = 0;
  std::size_t party_count_;
  /// Each party's balances at the snapshot, summed across chains, as
  /// word pairs.
  std::vector<ResultSummary> initial_;
};

}  // namespace xchain::core
