#include "core/payoff.hpp"

namespace xchain::core {

namespace {

bool is_native_coin(const chain::Symbol& sym) {
  static constexpr std::string_view kSuffix = "-coin";
  return sym.size() >= kSuffix.size() &&
         sym.compare(sym.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

}  // namespace

std::string PayoffDelta::str() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [sym, amt] : by_symbol) {
    if (amt == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += sym + ": " + std::to_string(amt);
  }
  out += "}";
  return out;
}

PayoffTracker::PayoffTracker(const chain::MultiChain& chains,
                             std::size_t party_count)
    : PayoffTracker(chains, /*first=*/0, party_count) {}

PayoffTracker::PayoffTracker(const chain::MultiChain& chains, PartyId first,
                             std::size_t party_count)
    : first_(first), party_count_(party_count) {
  initial_.reserve(party_count_);
  for (std::size_t p = 0; p < party_count_; ++p) {
    initial_.push_back(snapshot_of(chains, first_ + static_cast<PartyId>(p)));
  }
}

void PayoffTracker::accumulate(Snapshot& into, SymbolId sym, Amount amount) {
  // Linear scan: a party holds a handful of symbols at most, and the flat
  // vector beats any node container at that size.
  for (auto& [s, a] : into) {
    if (s == sym) {
      a += amount;
      return;
    }
  }
  into.emplace_back(sym, amount);
}

PayoffTracker::Snapshot PayoffTracker::snapshot_of(
    const chain::MultiChain& chains, PartyId party) const {
  Snapshot snap;
  const chain::Address addr = chain::Address::party(party);
  for (ChainId c = 0; c < chains.count(); ++c) {
    chains.at(c).ledger().for_each_holding(
        addr, [&](SymbolId sym, Amount amount) {
          accumulate(snap, sym, amount);
        });
  }
  return snap;
}

Amount PayoffDelta::symbol_delta(const chain::Symbol& symbol) const {
  const auto it = by_symbol.find(symbol);
  return it == by_symbol.end() ? 0 : it->second;
}

PayoffDelta PayoffTracker::delta(const chain::MultiChain& chains,
                                 PartyId party) const {
  PayoffDelta d;
  Snapshot diff = snapshot_of(chains, party);
  for (const auto& [sym, amt] : initial_.at(party - first_)) {
    accumulate(diff, sym, -amt);
  }
  for (const auto& [sym, amt] : diff) {
    if (amt == 0) continue;
    const std::string& name = SymbolTable::name(sym);
    d.by_symbol[name] += amt;
    d.value_delta += amt;
    if (is_native_coin(name)) d.coin_delta += amt;
  }
  return d;
}

}  // namespace xchain::core
