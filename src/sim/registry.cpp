#include "sim/registry.hpp"

namespace xchain::sim {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out.empty() ? "<none>" : out;
}

// Upper bounds on every Δ and amount keep deadline and balance arithmetic
// far inside int64: deadlines add up multiples of Δ per round, arc and
// witness, and premiums and balances add up multiples of the amounts.
// Every test, CI grid and experiment stays at Δ <= 6.
constexpr double kMaxDelta = 1000;
constexpr Amount kMaxAmount = 1'000'000'000'000;

/// Parses a "100,80" bid list (auction schemas keep the per-bidder bid
/// vector as one string param so the bidder count itself is sweepable).
std::vector<Amount> parse_bids(const std::string& csv) {
  std::vector<Amount> out;
  for (const std::string& v : split_csv("param bids", csv)) {
    std::size_t pos = 0;
    long long parsed = 0;
    try {
      parsed = std::stoll(v, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != v.size()) {
      throw ParamError("param 'bids': '" + v +
                       "' is not an integer (want e.g. bids=100,80)");
    }
    if (parsed < 0) {
      throw ParamError("param 'bids': bids must be non-negative");
    }
    if (parsed > kMaxAmount) {
      throw ParamError("param 'bids': bids must be at most " +
                       std::to_string(kMaxAmount));
    }
    out.push_back(static_cast<Amount>(parsed));
  }
  return out;
}

// Shared scalar schema fragments. Bounds keep sweeps inside the regime the
// engines are specified for (e.g. delta >= 1 ticks, ring sizes that keep
// the exhaustive 5^n schedule space tractable).

ParamSet two_party_schema() {
  return ParamSet({
      ParamSpec::amount("alice_tokens", 100, "A: apricot principal")
          .between(1, kMaxAmount),
      ParamSpec::amount("bob_tokens", 50, "B: banana principal")
          .between(1, kMaxAmount),
      ParamSpec::amount("premium_a", 2, "p_a: Alice's premium component")
          .between(0, kMaxAmount),
      ParamSpec::amount("premium_b", 1, "p_b: Bob's premium")
          .between(0, kMaxAmount),
      ParamSpec::integer("delta", 2, "synchrony bound in ticks")
          .between(1, kMaxDelta),
  });
}

std::vector<ParamSpec> multi_party_scalars() {
  return {
      ParamSpec::amount("asset_amount", 100, "units per swapped asset")
          .between(1, kMaxAmount),
      // Each party holds 10^12 native coin per chain and posts up to 10p
      // on one chain (a 10-ring, Figure 3a), so a larger p could never be
      // paid.
      ParamSpec::amount("premium_unit", 1, "p: uniform premium per asset")
          .between(0, kMaxAmount / 10),
      ParamSpec::integer("delta", 1, "synchrony bound in ticks")
          .between(1, kMaxDelta),
      ParamSpec::integer("hedged", 1, "1 = hedged (§7), 0 = base baseline")
          .between(0, 1),
  };
}

ParamSet auction_schema() {
  return ParamSet({
      ParamSpec::amount("ticket_count", 10, "tickets on sale")
          .between(1, kMaxAmount),
      ParamSpec::text("bids", "100,80",
                      "per-bidder bids, comma-separated (sets bidder "
                      "count; each in [0, 1000000000000])"),
      ParamSpec::amount("premium_unit", 2, "p: auctioneer endows n*p")
          .between(0, kMaxAmount),
      ParamSpec::integer("delta", 2, "synchrony bound in ticks")
          .between(1, kMaxDelta),
      ParamSpec::amount("collateral", 150,
                        "sealed only: uniform commitment collateral M")
          .between(0, kMaxAmount),
  });
}

ParamSet broker_schema() {
  return ParamSet({
      ParamSpec::amount("ticket_count", 10, "tickets Bob sells")
          .between(1, kMaxAmount),
      ParamSpec::amount("sale_price", 101, "Carol's coin escrow")
          .between(1, kMaxAmount),
      ParamSpec::amount("purchase_price", 100, "what Bob receives")
          .between(1, kMaxAmount),
      // Each broker party holds 1,000,000 premium coin per chain and posts
      // up to 9p on one chain, so a larger p could never be paid.
      ParamSpec::amount("premium_unit", 1, "p: base premium")
          .between(0, 100'000),
      ParamSpec::integer("delta", 1, "synchrony bound in ticks")
          .between(1, kMaxDelta),
  });
}

ParamSet bootstrap_schema() {
  return ParamSet({
      ParamSpec::amount("alice_tokens", 1'000'000, "A: apricot principal")
          .between(1, kMaxAmount),
      ParamSpec::amount("bob_tokens", 1'000'000, "B: banana principal")
          .between(1, kMaxAmount),
      ParamSpec::real("factor", 100.0, "P: premium = value / P").at_least(1),
      ParamSpec::integer("rounds", 2, "r: bootstrap rounds").between(1, 16),
      ParamSpec::integer("delta", 2, "synchrony bound in ticks")
          .between(1, kMaxDelta),
  });
}

ParamSet crr_ladder_schema() {
  return ParamSet({
      ParamSpec::amount("alice_tokens", 100'000, "A: apricot principal")
          .between(1, kMaxAmount),
      ParamSpec::amount("bob_tokens", 100'000, "B: banana principal")
          .between(1, kMaxAmount),
      ParamSpec::integer("delta", 2, "synchrony bound in ticks")
          .between(1, kMaxDelta),
      ParamSpec::real("volatility", 0.8, "annualized sigma").at_least(0),
      ParamSpec::real("rate", 0.0, "risk-free rate").at_least(0),
      ParamSpec::real("ticks_per_year", 1460, "tick granularity (6h default)")
          .at_least(1),
  });
}

ParamSet bridge_schema() {
  return ParamSet({
      ParamSpec::integer("n_witnesses", 3, "n: witness parties")
          .between(1, 8),
      ParamSpec::integer("quorum", 2, "k: attestations completing the claim")
          .between(1, 8),
      ParamSpec::amount("transfer_amount", 100, "bridged principal")
          .between(1, kMaxAmount),
      ParamSpec::amount("witness_reward", 2, "reward per attestation")
          .between(1, 100),
      ParamSpec::amount("premium_unit", 2,
                        "user's hedge premium (bonds scale with it)")
          .between(1, 100),
      ParamSpec::integer("delta", 2, "synchrony bound in ticks")
          .between(1, 4),
  });
}

ProtocolRegistry build_global() {
  ProtocolRegistry r;
  r.add({"two-party", "hedged two-party swap (§5.2, Figure 1)",
         two_party_schema(), [](const ParamSet& p) {
           return std::make_unique<BootstrapSwapAdapter>(
               make_two_party_adapter(two_party_config_from(p)));
         }});
  {
    std::vector<ParamSpec> specs = {
        ParamSpec::integer("n", 3, "ring size (parties on the cycle)")
            .between(2, 10)};
    for (ParamSpec& s : multi_party_scalars()) specs.push_back(std::move(s));
    r.add({"multi-party-ring", "ARC multi-party swap on a directed n-cycle (§7)",
           ParamSet(std::move(specs)), [](const ParamSet& p) {
             return std::make_unique<MultiPartySwapAdapter>(
                 multi_party_config_from(
                     p, graph::Digraph::cycle(
                            static_cast<std::size_t>(p.get_int("n")))));
           }});
  }
  r.add({"multi-party-fig3a", "ARC multi-party swap on the Figure 3a digraph",
         ParamSet(multi_party_scalars()), [](const ParamSet& p) {
           return std::make_unique<MultiPartySwapAdapter>(
               multi_party_config_from(p, graph::Digraph::figure3a()));
         }});
  r.add({"auction-open", "open-bid ticket auction (§9)", auction_schema(),
         [](const ParamSet& p) {
           return std::make_unique<TicketAuctionAdapter>(
               auction_config_from(p), /*sealed=*/false);
         }});
  r.add({"auction-sealed", "sealed-bid ticket auction (§9, footnote 8)",
         auction_schema(), [](const ParamSet& p) {
           return std::make_unique<TicketAuctionAdapter>(
               auction_config_from(p), /*sealed=*/true);
         }});
  r.add({"broker", "three-party brokered sale (§8)", broker_schema(),
         [](const ParamSet& p) {
           return std::make_unique<BrokerDealAdapter>(broker_config_from(p));
         }});
  r.add({"bootstrap", "bootstrapped premium-ladder swap (§6, Figure 2)",
         bootstrap_schema(), [](const ParamSet& p) {
           return std::make_unique<BootstrapSwapAdapter>(
               bootstrap_config_from(p));
         }});
  r.add({"bridge-transfer",
         "hedged witness-bridge value transfer (XChainBridge-style door + "
         "k-of-n attestation claim)",
         bridge_schema(), [](const ParamSet& p) {
           return std::make_unique<BridgeAdapter>(
               bridge_config_from(p, core::BridgeVariant::kTransfer));
         }});
  r.add({"bridge-account-create",
         "hedged witness-bridge account create (reward split among "
         "attesting witnesses)",
         bridge_schema(), [](const ParamSet& p) {
           return std::make_unique<BridgeAdapter>(
               bridge_config_from(p, core::BridgeVariant::kAccountCreate));
         }});
  r.add({"crr-ladder", "single-rung ladder with CRR-priced premiums (§4+§6)",
         crr_ladder_schema(), [](const ParamSet& p) {
           core::BootstrapConfig principals = crr_principals_from(p);
           const CrrMarket market = crr_market_from(p);
           try {
             return std::make_unique<BootstrapSwapAdapter>(
                 make_crr_ladder_adapter(std::move(principals), market));
           } catch (const std::invalid_argument& e) {
             // Every market key is within its schema bound, yet CRR cannot
             // price zero volatility, or a rate that outgrows the up move.
             // That is an invalid configuration, not a sore-loser attack,
             // so it fails like one.
             std::string msg = "crr-ladder market";
             for (const char* key :
                  {"volatility", "rate", "ticks_per_year", "delta"}) {
               msg += ' ';
               msg += key;
               msg += '=';
               msg += p.value_str(key);
             }
             msg += " cannot be priced (";
             msg += e.what();
             msg += ')';
             throw ParamError(msg);
           }
         }});
  return r;
}

}  // namespace

const ProtocolRegistry& ProtocolRegistry::global() {
  static const ProtocolRegistry registry = build_global();
  return registry;
}

void ProtocolRegistry::add(ProtocolInfo info) {
  if (contains(info.name)) {
    throw RegistryError("protocol '" + info.name + "' already registered");
  }
  if (!info.factory) {
    throw RegistryError("protocol '" + info.name + "' has no factory");
  }
  protocols_.push_back(std::move(info));
}

bool ProtocolRegistry::contains(const std::string& name) const {
  for (const ProtocolInfo& p : protocols_) {
    if (p.name == name) return true;
  }
  return false;
}

const ProtocolInfo& ProtocolRegistry::info(const std::string& name) const {
  for (const ProtocolInfo& p : protocols_) {
    if (p.name == name) return p;
  }
  throw RegistryError("unknown protocol '" + name + "' (registered: " +
                      join(names()) + ")");
}

ParamSet ProtocolRegistry::defaults(const std::string& name) const {
  return info(name).defaults;
}

std::unique_ptr<ProtocolAdapter> ProtocolRegistry::make(
    const std::string& name, const ParamSet& params) const {
  return info(name).factory(params);
}

std::unique_ptr<ProtocolAdapter> ProtocolRegistry::make(
    const std::string& name) const {
  const ProtocolInfo& p = info(name);
  return p.factory(p.defaults);
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(protocols_.size());
  for (const ProtocolInfo& p : protocols_) out.push_back(p.name);
  return out;
}

core::TwoPartyConfig two_party_config_from(const ParamSet& p) {
  core::TwoPartyConfig cfg;
  cfg.alice_tokens = p.get_amount("alice_tokens");
  cfg.bob_tokens = p.get_amount("bob_tokens");
  cfg.premium_a = p.get_amount("premium_a");
  cfg.premium_b = p.get_amount("premium_b");
  cfg.delta = p.get_int("delta");
  return cfg;
}

core::MultiPartyConfig multi_party_config_from(const ParamSet& p,
                                               graph::Digraph g) {
  core::MultiPartyConfig cfg;
  cfg.g = std::move(g);
  cfg.asset_amount = p.get_amount("asset_amount");
  cfg.premium_unit = p.get_amount("premium_unit");
  cfg.delta = p.get_int("delta");
  cfg.hedged = p.get_int("hedged") != 0;
  return cfg;
}

core::AuctionConfig auction_config_from(const ParamSet& p) {
  core::AuctionConfig cfg;
  cfg.ticket_count = p.get_amount("ticket_count");
  cfg.bids = parse_bids(p.get_string("bids"));
  cfg.premium_unit = p.get_amount("premium_unit");
  cfg.delta = p.get_int("delta");
  cfg.collateral = p.get_amount("collateral");
  return cfg;
}

core::BrokerConfig broker_config_from(const ParamSet& p) {
  core::BrokerConfig cfg;
  cfg.ticket_count = p.get_amount("ticket_count");
  cfg.sale_price = p.get_amount("sale_price");
  cfg.purchase_price = p.get_amount("purchase_price");
  cfg.premium_unit = p.get_amount("premium_unit");
  cfg.delta = p.get_int("delta");
  // §8 precondition: the broker's spread is non-negative. With
  // purchase_price > sale_price a fully conforming run leaves Alice below
  // her break-even hedge floor by construction — a pricing choice, not a
  // sore-loser attack — so reject the configuration up front (the fuzzer
  // jitters parameters and must see this as invalid, not as a violation).
  if (cfg.purchase_price > cfg.sale_price) {
    throw ParamError("param 'purchase_price': " +
                     std::to_string(cfg.purchase_price) +
                     " exceeds sale_price " + std::to_string(cfg.sale_price) +
                     " (the broker spread must be non-negative)");
  }
  return cfg;
}

core::BootstrapConfig bootstrap_config_from(const ParamSet& p) {
  core::BootstrapConfig cfg;
  cfg.alice_tokens = p.get_amount("alice_tokens");
  cfg.bob_tokens = p.get_amount("bob_tokens");
  cfg.factor = p.get_double("factor");
  cfg.rounds = static_cast<int>(p.get_int("rounds"));
  cfg.delta = p.get_int("delta");
  return cfg;
}

core::BridgeConfig bridge_config_from(const ParamSet& p,
                                      core::BridgeVariant variant) {
  core::BridgeConfig cfg;
  cfg.variant = variant;
  cfg.n_witnesses = static_cast<int>(p.get_int("n_witnesses"));
  cfg.quorum = static_cast<int>(p.get_int("quorum"));
  cfg.transfer_amount = p.get_amount("transfer_amount");
  cfg.witness_reward = p.get_amount("witness_reward");
  cfg.premium_unit = p.get_amount("premium_unit");
  cfg.delta = p.get_int("delta");
  // An attestation quorum no witness set can reach strands every claim by
  // construction — a configuration error, not a sore-loser attack; the
  // fuzzer jitters parameters and must see this as invalid, not as a
  // violation.
  if (cfg.quorum > cfg.n_witnesses) {
    throw ParamError("param 'quorum': " + std::to_string(cfg.quorum) +
                     " exceeds n_witnesses " +
                     std::to_string(cfg.n_witnesses) +
                     " (the attestation quorum must be reachable)");
  }
  return cfg;
}

core::BootstrapConfig crr_principals_from(const ParamSet& p) {
  core::BootstrapConfig cfg;
  cfg.alice_tokens = p.get_amount("alice_tokens");
  cfg.bob_tokens = p.get_amount("bob_tokens");
  cfg.rounds = 1;
  cfg.delta = p.get_int("delta");
  return cfg;
}

CrrMarket crr_market_from(const ParamSet& p) {
  CrrMarket m;
  m.volatility = p.get_double("volatility");
  m.rate = p.get_double("rate");
  m.ticks_per_year = p.get_double("ticks_per_year");
  return m;
}

}  // namespace xchain::sim
