#pragma once

// Fuzz-input representation: (protocol, parameter overrides, one
// DeviationPlan per party), with a line-based text form that doubles as
// the corpus-file and minimized-reproducer format.
//
// The text grammar is deliberately the same one DeviationPlan::str()
// prints — "conform", "halt@k", "d<ordinal>+<ticks>", "x<ordinal>" joined
// with '.', an optional "v<variant>:" prefix — so a reproducer reads
// exactly like the schedule labels in sweep reports and round-trips
// through parse()/str() byte-identically:
//
//   # sore-loser walk-away after escrow
//   protocol two-party
//   set delta=3
//   plan 0 d2+6
//   plan 1 halt@2
//
// Missing `plan` lines mean the party conforms; `set` lines are
// schema-checked against the protocol's registered ParamSet before any
// run. canonical_input() reduces an input to the unique normal form the
// shrinker pins reproducers to: plans are re-encoded over the adapter's
// real action counts (out-of-range modifications drop, zero-tick delays
// become Perform, a maximal trailing run of Drops folds into the halt
// point) and overrides that merely restate a default disappear.
//
// Two further directives drive the chain fault layer (chain/fault.hpp):
//
//   fault <chain> <clause>     -- e.g. fault banana squeeze@4-10,cap=1
//   resilience <policy>        -- naive | rebroadcast | fee-escalate[:b,s,m]
//
// One `fault` line per clause (chain may be '*'); the clause grammar is
// FaultPlan's, already one-spelling-per-clause, so these lines round-trip
// like everything else. Violations that an injected fault causes (they
// vanish on a faultless twin of the same schedule) are expected substrate
// damage, not protocol bugs: InstancePool::run reclassifies them instead
// of reporting a violating run.

#include <string>
#include <utility>
#include <vector>

#include "chain/fault.hpp"
#include "sim/deviation.hpp"
#include "sim/param.hpp"
#include "sim/scenario.hpp"

namespace xchain::fuzz {

/// Malformed fuzz-input text (bad plan grammar, unknown directive,
/// missing protocol line). Parameter errors surface as sim::ParamError.
class FuzzFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses the DeviationPlan::str() grammar. Throws FuzzFormatError on
/// anything str() could not have printed (negative ordinals, zero delays,
/// duplicate parts for one ordinal, trailing garbage).
sim::DeviationPlan parse_plan(const std::string& text);

/// Dense per-ordinal view of a plan over a known script length — the form
/// mutation and shrinking operate on, since DeviationPlan itself has no
/// API for *removing* a modification.
std::vector<sim::ActionPolicy> decode_plan(const sim::DeviationPlan& plan,
                                           int action_count);

/// Rebuilds a DeviationPlan from a dense policy vector (plus variant) in
/// canonical form: delays < 1 become Perform, a maximal trailing run of
/// Drops becomes the halt point (never explicit x-mods), interior drops
/// stay x-mods. encode_plan(decode_plan(p, n), v) is the canonical form
/// of p over an n-action script.
sim::DeviationPlan encode_plan(const std::vector<sim::ActionPolicy>& acts,
                               int variant);

/// Canonical form of `plan` over an `action_count`-long script.
sim::DeviationPlan canonical_plan(const sim::DeviationPlan& plan,
                                  int action_count);

/// (key, value) parameter assignments, in application order.
using Overrides = std::vector<std::pair<std::string, std::string>>;

/// One fuzz input. `plans` is indexed by party and may be shorter than the
/// protocol's party count (missing tail = conforming parties).
struct FuzzInput {
  std::string protocol;
  /// Parameter overrides, in application order (the last one of a key
  /// wins).
  Overrides overrides;
  std::vector<sim::DeviationPlan> plans;
  /// Injected chain faults (`fault` lines, one clause per line) and the
  /// conforming parties' resilience policy (`resilience` line). Both
  /// default to inactive — the historical reliable substrate.
  chain::FaultPlan faults;
  chain::ResiliencePolicy resilience;

  /// The chain environment these fields describe (inactive when neither
  /// was set).
  chain::ChainEnvironment environment() const { return {faults, resilience}; }

  /// Parses the corpus-file text form. Throws FuzzFormatError on
  /// malformed lines; parameter values are NOT schema-checked here (the
  /// schema needs the registry — see params()).
  static FuzzInput parse(const std::string& text);

  /// The text form (round-trips through parse()).
  std::string str() const;

  /// Schema-checked ParamSet: `schema`'s defaults plus this input's
  /// overrides. Throws sim::ParamError on unknown keys / bad values.
  sim::ParamSet params(const sim::ParamSet& schema) const;

  /// The plan for party p (conforming when absent).
  const sim::DeviationPlan& plan_of(std::size_t p) const;
};

/// Canonical normal form against a concrete adapter + schema: plans are
/// truncated/extended to party_count() and canonicalized over each
/// party's action_count(); overrides are schema-validated, restated
/// defaults dropped, survivors emitted in schema declaration order. Two
/// semantically identical inputs canonicalize to the same str(). It is
/// canonical_plans() with canonical_overrides() in place of the
/// overrides; fuzz::InstancePool computes the latter once per instance.
FuzzInput canonical_input(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter,
                          const sim::ParamSet& schema);

/// The override half of canonical_input(): the values of `params` that
/// differ from `schema`'s defaults, in schema declaration order.
Overrides canonical_overrides(const sim::ParamSet& params,
                              const sim::ParamSet& schema);

/// The plan half of canonical_input(): `in` without its overrides, its
/// plans truncated/extended to party_count() and each canonical over its
/// party's action_count().
FuzzInput canonical_plans(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter);

/// The runnable schedule for `in` on `adapter`: plans padded with
/// conforming entries to party_count(), labelled by schedule_label().
sim::Schedule schedule_of(const FuzzInput& in,
                          const sim::ProtocolAdapter& adapter,
                          const std::string& overrides_label);

/// schedule_of() without the label, which costs more to build than the
/// plans: runs that audit clean never read it.
sim::Schedule unlabelled_schedule(const FuzzInput& in,
                                  const sim::ProtocolAdapter& adapter);

/// The label of `in`'s schedule on `adapter`, in the sweep engine's
/// "name[plan,plan,...]" convention with " (<overrides_label>)" appended
/// when that is non-empty.
std::string schedule_label(const FuzzInput& in,
                           const sim::ProtocolAdapter& adapter,
                           const std::string& overrides_label);

}  // namespace xchain::fuzz
