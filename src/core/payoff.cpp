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
  initial_.resize(party_count_);
  for (std::size_t p = 0; p < party_count_; ++p) {
    add_holdings(chains, first_ + static_cast<PartyId>(p), initial_[p], 0);
  }
}

void PayoffTracker::add(ResultSummary& pairs, std::size_t begin,
                        std::int64_t id, Amount amount) {
  // Linear scan: a party holds a handful of symbols at most, and the flat
  // vector beats any node container at that size.
  for (std::size_t i = begin; i < pairs.size(); i += 2) {
    if (pairs[i] == id) {
      pairs[i + 1] += amount;
      return;
    }
  }
  pairs.push_back(id);
  pairs.push_back(amount);
}

void PayoffTracker::add_holdings(const chain::MultiChain& chains,
                                 PartyId party, ResultSummary& pairs,
                                 std::size_t begin) {
  const chain::Address addr = chain::Address::party(party);
  for (ChainId c = 0; c < chains.count(); ++c) {
    chains.at(c).ledger().for_each_holding(
        addr, [&](SymbolId sym, Amount amount) {
          add(pairs, begin, static_cast<std::int64_t>(sym.value()), amount);
        });
  }
}

Amount PayoffDelta::symbol_delta(const chain::Symbol& symbol) const {
  const auto it = by_symbol.find(symbol);
  return it == by_symbol.end() ? 0 : it->second;
}

PayoffDelta PayoffTracker::delta(const chain::MultiChain& chains,
                                 PartyId party) const {
  ResultSummary summary;
  write_delta(chains, party, summary);
  return SummaryReader(summary).delta();
}

void PayoffTracker::write_delta(const chain::MultiChain& chains,
                                PartyId party, ResultSummary& out) const {
  const std::size_t count_at = out.size();
  out.push_back(0);
  const std::size_t begin = out.size();
  add_holdings(chains, party, out, begin);
  const ResultSummary& initial = initial_.at(party - first_);
  for (std::size_t i = 0; i < initial.size(); i += 2) {
    add(out, begin, initial[i], -initial[i + 1]);
  }
  // Keep the symbols that moved, insertion-sorted by id in place: a kept
  // pair lands at or before the slot it is read from.
  std::size_t end = begin;
  for (std::size_t i = begin; i < out.size(); i += 2) {
    const std::int64_t id = out[i];
    const std::int64_t amount = out[i + 1];
    if (amount == 0) continue;
    std::size_t j = end;
    for (; j > begin && out[j - 2] > id; j -= 2) {
      out[j] = out[j - 2];
      out[j + 1] = out[j - 1];
    }
    out[j] = id;
    out[j + 1] = amount;
    end += 2;
  }
  out.resize(end);
  out[count_at] = static_cast<std::int64_t>((end - begin) / 2);
}

PayoffDelta SummaryReader::delta() {
  PayoffDelta d;
  for (std::int64_t n = next(); n > 0; --n) {
    const std::string& name =
        SymbolTable::name(SymbolTable::at(static_cast<std::uint32_t>(next())));
    const Amount amount = next();
    d.by_symbol.emplace(name, amount);
    d.value_delta += amount;
    if (is_native_coin(name)) d.coin_delta += amount;
  }
  return d;
}

}  // namespace xchain::core
