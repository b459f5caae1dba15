#pragma once

// Protocol registry: stable names -> ProtocolAdapter factories.
//
// Every protocol family the sweep engine covers registers itself here under
// a stable name (`two-party`, `multi-party-ring`, `multi-party-fig3a`,
// `auction-open`, `auction-sealed`, `broker`, `bootstrap`, `crr-ladder`,
// `bridge-transfer`, `bridge-account-create`) together with its declared
// ParamSet schema. Campaign specs, the
// `xchain-sweep` CLI, tests, and benches all resolve protocols through the
// registry, so a new ring size or premium split is a parameter assignment,
// not a C++ edit in three places. The reference configurations of
// `sim/reference_configs.hpp` are thin shims over the registry defaults —
// the canonical numbers live in the ParamSpec defaults declared here.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/auction.hpp"
#include "core/bootstrap.hpp"
#include "core/broker.hpp"
#include "core/multi_party.hpp"
#include "core/two_party.hpp"
#include "graph/digraph.hpp"
#include "sim/param.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {

/// Unknown protocol name (the message lists the registered names).
class RegistryError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One registered protocol: its stable name, a one-line description, its
/// declared parameter schema (with the canonical reference defaults), and
/// the factory that instantiates an adapter from a validated ParamSet.
struct ProtocolInfo {
  std::string name;
  std::string description;
  ParamSet defaults;
  std::function<std::unique_ptr<ProtocolAdapter>(const ParamSet&)> factory;
};

/// Name -> factory map over every sweepable protocol. `global()` holds the
/// built-in families; tests may build private registries to exercise
/// campaign plumbing against synthetic protocols. Lookups throw
/// RegistryError with the registered names on a miss — never UB.
class ProtocolRegistry {
 public:
  /// The process-wide registry with all built-in protocols registered.
  /// Built on first use (thread-safe); immutable afterwards.
  static const ProtocolRegistry& global();

  /// Registers a protocol; throws RegistryError on a duplicate name.
  void add(ProtocolInfo info);

  bool contains(const std::string& name) const;
  const ProtocolInfo& info(const std::string& name) const;

  /// A fresh copy of `name`'s schema, every value at its default.
  ParamSet defaults(const std::string& name) const;

  /// Instantiates `name` from `params` (must have been derived from
  /// defaults(name), so every key is schema-checked).
  std::unique_ptr<ProtocolAdapter> make(const std::string& name,
                                        const ParamSet& params) const;
  /// Instantiates `name` from its defaults.
  std::unique_ptr<ProtocolAdapter> make(const std::string& name) const;

  /// Registered names, in registration order.
  std::vector<std::string> names() const;
  const std::vector<ProtocolInfo>& protocols() const { return protocols_; }

 private:
  std::vector<ProtocolInfo> protocols_;
};

// Core-config builders from validated ParamSets — the bridge between the
// registry's declarative schemas and the engines' config structs. Exposed
// so reference_configs.hpp (and any caller that needs the struct rather
// than the adapter) derives the exact same numbers from the same defaults.
core::TwoPartyConfig two_party_config_from(const ParamSet& p);
core::MultiPartyConfig multi_party_config_from(const ParamSet& p,
                                               graph::Digraph g);
core::AuctionConfig auction_config_from(const ParamSet& p);
core::BrokerConfig broker_config_from(const ParamSet& p);
core::BootstrapConfig bootstrap_config_from(const ParamSet& p);
/// Shared by both bridge variants; rejects quorum > n_witnesses (an
/// unreachable attestation quorum is a configuration error, not a
/// sore-loser attack) with ParamError.
core::BridgeConfig bridge_config_from(const ParamSet& p,
                                      core::BridgeVariant variant);
/// Principal/delta half of the crr-ladder schema (premium rungs are priced
/// by the CRR market below). The crr-ladder factory rejects a market CRR
/// cannot price (zero volatility, or a rate that outgrows the up move)
/// with ParamError naming volatility, rate, ticks_per_year and delta.
core::BootstrapConfig crr_principals_from(const ParamSet& p);
CrrMarket crr_market_from(const ParamSet& p);

}  // namespace xchain::sim
