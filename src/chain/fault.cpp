#include "chain/fault.hpp"

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "chain/blockchain.hpp"

namespace xchain::chain {

namespace {

/// Parses a non-negative decimal integer of type T at text[pos...],
/// advancing pos. Throws std::invalid_argument naming `what` when no
/// digits are present or the value does not fit in T.
template <class T>
T parse_uint_at(const std::string& text, std::size_t& pos, const char* what) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  const std::size_t digits = pos;
  std::uint64_t value = 0;
  bool overflow = false;
  while (pos < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos]))) {
    const auto digit = static_cast<std::uint64_t>(text[pos] - '0');
    overflow = overflow || value > (kMax - digit) / 10;
    if (!overflow) value = value * 10 + digit;
    ++pos;
  }
  if (pos == digits || overflow) {
    std::string what_msg = "fault spec: ";
    what_msg += overflow ? "out-of-range " : "expected ";
    what_msg += what;
    what_msg += " in '";
    what_msg += text;
    what_msg += "' at offset ";
    what_msg += std::to_string(digits);
    throw std::invalid_argument(what_msg);
  }
  return static_cast<T>(value);
}

/// Consumes ",key=" at text[pos...]; throws when absent (the grammar is
/// order-strict so every plan has exactly one spelling).
void expect_key(const std::string& text, std::size_t& pos, const char* key) {
  const std::string want = std::string(",") + key + "=";
  if (text.compare(pos, want.size(), want) != 0) {
    throw std::invalid_argument("fault spec: expected '" + want + "' in '" +
                                text + "' at offset " + std::to_string(pos));
  }
  pos += want.size();
}

/// True when ",key=" occurs at text[pos...] (lookahead only).
bool peek_key(const std::string& text, std::size_t pos, const char* key) {
  const std::string want = std::string(",") + key + "=";
  return text.compare(pos, want.size(), want) == 0;
}

/// Parses "A-B" (inclusive window) into clause.from/.to.
void parse_window(const std::string& text, std::size_t& pos,
                  FaultClause& clause) {
  clause.from = parse_uint_at<Tick>(text, pos, "window start");
  if (pos >= text.size() || text[pos] != '-') {
    throw std::invalid_argument("fault spec: expected '-' in window of '" +
                                text + "'");
  }
  ++pos;
  clause.to = parse_uint_at<Tick>(text, pos, "window end");
  if (clause.to < clause.from) {
    throw std::invalid_argument("fault spec: window ends before it starts in '" +
                                text + "'");
  }
}

FaultClause parse_clause(const std::string& text) {
  FaultClause clause;
  std::size_t pos = 0;
  if (text.rfind("outage@", 0) == 0) {
    clause.kind = FaultClause::Kind::kOutage;
    pos = 7;
    parse_window(text, pos, clause);
  } else if (text.rfind("squeeze@", 0) == 0) {
    clause.kind = FaultClause::Kind::kSqueeze;
    pos = 8;
    parse_window(text, pos, clause);
    expect_key(text, pos, "cap");
    clause.cap = parse_uint_at<int>(text, pos, "cap");
    if (peek_key(text, pos, "spam")) {
      expect_key(text, pos, "spam");
      clause.spam = parse_uint_at<int>(text, pos, "spam");
      if (clause.spam < 1) {
        throw std::invalid_argument(
            "fault spec: spam=0 is implicit, drop the key in '" + text + "'");
      }
      expect_key(text, pos, "fee");
      clause.spam_fee = parse_uint_at<Amount>(text, pos, "spam fee");
    }
    if (peek_key(text, pos, "mem")) {
      expect_key(text, pos, "mem");
      clause.mem = parse_uint_at<int>(text, pos, "mem limit");
    }
  } else if (text.rfind("drop@", 0) == 0) {
    clause.kind = FaultClause::Kind::kDrop;
    pos = 5;
    parse_window(text, pos, clause);
    expect_key(text, pos, "p");
    clause.permille = parse_uint_at<int>(text, pos, "permille");
    if (clause.permille < 1 || clause.permille > 1000) {
      throw std::invalid_argument(
          "fault spec: drop probability must be 1..1000 permille in '" + text +
          "'");
    }
    if (peek_key(text, pos, "seed")) {
      expect_key(text, pos, "seed");
      clause.seed = parse_uint_at<std::uint64_t>(text, pos, "seed");
      if (clause.seed == 0) {
        throw std::invalid_argument(
            "fault spec: seed=0 is implicit, drop the key in '" + text + "'");
      }
    }
  } else {
    throw std::invalid_argument(
        "fault spec: unknown clause '" + text +
        "' (want outage@A-B, squeeze@A-B,cap=N[,spam=N,fee=N][,mem=N], or "
        "drop@A-B,p=N[,seed=N])");
  }
  if (pos != text.size()) {
    throw std::invalid_argument("fault spec: trailing junk in '" + text +
                                "' at offset " + std::to_string(pos));
  }
  return clause;
}

/// SplitMix64 finalizer — the stateless drop hash's mixing primitive.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::string FaultClause::str() const {
  // Append-only string building (GCC 12's bogus -Wrestrict fires on
  // inlined operator+ chains in -Werror builds, GCC PR 105651).
  std::string out;
  switch (kind) {
    case Kind::kOutage:
      out = "outage@";
      break;
    case Kind::kSqueeze:
      out = "squeeze@";
      break;
    case Kind::kDrop:
      out = "drop@";
      break;
  }
  out += std::to_string(from);
  out += '-';
  out += std::to_string(to);
  if (kind == Kind::kSqueeze) {
    out += ",cap=";
    out += std::to_string(cap);
    if (spam > 0) {
      out += ",spam=";
      out += std::to_string(spam);
      out += ",fee=";
      out += std::to_string(spam_fee);
    }
    if (mem >= 0) {
      out += ",mem=";
      out += std::to_string(mem);
    }
  } else if (kind == Kind::kDrop) {
    out += ",p=";
    out += std::to_string(permille);
    if (seed != 0) {
      out += ",seed=";
      out += std::to_string(seed);
    }
  }
  return out;
}

bool ChainFaults::outage_at(Tick now) const {
  for (const FaultClause& c : clauses) {
    if (c.kind == FaultClause::Kind::kOutage && c.active(now)) return true;
  }
  return false;
}

int ChainFaults::cap_at(Tick now) const {
  int cap = -1;
  for (const FaultClause& c : clauses) {
    if (c.kind == FaultClause::Kind::kSqueeze && c.active(now)) {
      if (cap < 0 || c.cap < cap) cap = c.cap;
    }
  }
  return cap;
}

int ChainFaults::mem_at(Tick now) const {
  int mem = -1;
  for (const FaultClause& c : clauses) {
    if (c.kind == FaultClause::Kind::kSqueeze && c.active(now) && c.mem >= 0) {
      if (mem < 0 || c.mem < mem) mem = c.mem;
    }
  }
  return mem;
}

bool ChainFaults::drops_at(Tick now) const {
  for (const FaultClause& c : clauses) {
    if (c.kind == FaultClause::Kind::kDrop && c.active(now)) return true;
  }
  return false;
}

bool ChainFaults::should_drop(ChainId chain, Tick now,
                              std::uint64_t tx_seq) const {
  for (const FaultClause& c : clauses) {
    if (c.kind != FaultClause::Kind::kDrop || !c.active(now)) continue;
    // Pure function of (seed, chain, height, seq): replays byte-identically
    // across thread counts and rewind depths with no RNG state to reset.
    std::uint64_t h = 0xd6e8feb86659fd93ull ^ c.seed;
    h = mix64(h + static_cast<std::uint64_t>(chain) * 0x9e3779b97f4a7c15ull);
    h = mix64(h + static_cast<std::uint64_t>(now));
    h = mix64(h + tx_seq);
    if (h % 1000 < static_cast<std::uint64_t>(c.permille)) return true;
  }
  return false;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string entry = spec.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument(
          "fault spec: entry '" + entry +
          "' wants '<chain>:<clause>' (chain name or '*')");
    }
    plan.entries.emplace_back(entry.substr(0, colon),
                              parse_clause(entry.substr(colon + 1)));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return plan;
}

std::string FaultPlan::str() const {
  std::string out;
  for (const auto& [chain, clause] : entries) {
    if (!out.empty()) out += ';';
    out += chain;
    out += ':';
    out += clause.str();
  }
  return out;
}

bool FaultPlan::within_tolerance(Tick delta) const {
  for (const auto& [chain, clause] : entries) {
    (void)chain;
    switch (clause.kind) {
      case FaultClause::Kind::kOutage:
        // Outage must stay strictly inside the Delta slack the deadlines
        // are provisioned with (ISSUE: outage < Delta).
        if (clause.length() >= delta) return false;
        break;
      case FaultClause::Kind::kSqueeze:
        // A cap-0 squeeze blocks all inclusion while timeouts keep firing
        // — strictly worse than an outage, never recoverable by fees.
        if (clause.cap < 1) return false;
        break;
      case FaultClause::Kind::kDrop:
        // No finite fee outbids a discard; a seeded stream can drop every
        // rebroadcast, so drops are unbounded-loss by construction.
        return false;
    }
  }
  return true;
}

ChainFaults FaultPlan::for_chain(const std::string& name) const {
  ChainFaults out;
  for (const auto& [chain, clause] : entries) {
    if (chain == "*" || chain == name) out.clauses.push_back(clause);
  }
  return out;
}

ResiliencePolicy ResiliencePolicy::parse(const std::string& text) {
  ResiliencePolicy p;
  if (text == "naive") return p;
  if (text == "rebroadcast") {
    p.kind = Kind::kRebroadcast;
    return p;
  }
  if (text.rfind("fee-escalate", 0) == 0) {
    p.kind = Kind::kFeeEscalate;
    if (text.size() == 12) return p;
    if (text[12] == ':') {
      std::size_t pos = 13;
      p.base_fee = parse_uint_at<Amount>(text, pos, "base fee");
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        p.fee_step = parse_uint_at<Amount>(text, pos, "fee step");
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          p.max_fee = parse_uint_at<Amount>(text, pos, "max fee");
        }
      }
      if (pos == text.size()) {
        if (p == ResiliencePolicy{Kind::kFeeEscalate}) {
          throw std::invalid_argument(
              "resilience: default knobs are implicit, write 'fee-escalate' "
              "instead of '" + text + "'");
        }
        if (p.base_fee > p.max_fee) {
          // fee_at() clamps to the ceiling, so the first submission would
          // pay max_fee rather than the base the spec names.
          throw std::invalid_argument(
              "resilience: base fee " + std::to_string(p.base_fee) +
              " exceeds the max fee " + std::to_string(p.max_fee) + " in '" +
              text + "'");
        }
        return p;
      }
    }
  }
  throw std::invalid_argument(
      "resilience: unknown policy '" + text +
      "' (want naive, rebroadcast, or fee-escalate[:base[,step[,max]]])");
}

std::string ResiliencePolicy::str() const {
  switch (kind) {
    case Kind::kNaive:
      return "naive";
    case Kind::kRebroadcast:
      return "rebroadcast";
    case Kind::kFeeEscalate:
      break;
  }
  std::string out = "fee-escalate";
  const ResiliencePolicy defaults{Kind::kFeeEscalate};
  if (base_fee != defaults.base_fee || fee_step != defaults.fee_step ||
      max_fee != defaults.max_fee) {
    out += ':';
    out += std::to_string(base_fee);
    out += ',';
    out += std::to_string(fee_step);
    out += ',';
    out += std::to_string(max_fee);
  }
  return out;
}

void ChainEnvironment::install(MultiChain& chains) const {
  chains.set_environment(*this);
}

std::string ChainEnvironment::str() const {
  std::string out;
  if (!faults.empty()) {
    out += "faults=";
    out += faults.str();
  }
  if (resilience.active()) {
    if (!out.empty()) out += ' ';
    out += "resilience=";
    out += resilience.str();
  }
  return out;
}

}  // namespace xchain::chain
