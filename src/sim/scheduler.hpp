#pragma once

#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "sim/party.hpp"

namespace xchain::sim {

/// Synchronous round scheduler (paper §3.1).
///
/// Each tick t:
///   1. every party runs tick(): delayed actions that have come due are
///      submitted first, then the party observes state up to block t-1 and
///      submits new transactions (in party-id order; order within a tick
///      never matters because submissions land in the same block);
///   2. every chain produces block t.
///
/// A state change made in block t is therefore observed and reacted to by
/// every party at tick t+1 — the propagation bound Delta is any number of
/// ticks >= 1, and protocol schedules express their timeouts as multiples
/// of it.
///
/// Timing contract (what the strategy-space delay menus lean on):
///   - Contract deadlines are INCLUSIVE: a transaction submitted at tick t
///     with deadline D is accepted iff t <= D (contracts reject with
///     `now() > deadline`). The timeout sweep that refunds/awards expired
///     escrows runs after transactions, so a deadline-tick submission
///     still lands.
///   - Protocol schedules space consecutive deadlines >= Delta apart, and
///     a conforming party reacts one tick after the enabling block. A
///     party that delays every action by at most Delta-1 ticks past its
///     enablement therefore still meets every deadline ("timely" delays,
///     StrategySpace::kTimelyDelays); a delay >= Delta can push a
///     submission past its deadline, where the contract ignores it and the
///     party is treated as a sore loser (kLateDelays).
///   - A delayed action is DECIDED when its guard first holds and
///     submitted when it comes due; contracts re-validate everything at
///     execution time, so a submission whose window closed (or whose
///     prerequisites changed) while it sat in the queue is rejected as a
///     no-op, never UB.
class Scheduler {
 public:
  explicit Scheduler(chain::MultiChain& chains) : chains_(chains) {}

  /// Convenience: applies `trace` to every chain before driving them.
  /// Sweep worlds pass TraceMode::kOff so runs stop recording events and
  /// per-transaction note strings; tests and examples keep kFull.
  Scheduler(chain::MultiChain& chains, chain::TraceMode trace)
      : chains_(chains) {
    chains_.set_trace(trace);
  }

  /// Registers a party (non-owning; the protocol engine owns its actors).
  void add_party(Party& p) { parties_.push_back(&p); }

  /// Runs ticks [now, horizon).
  void run_until(Tick horizon) {
    for (; now_ < horizon; ++now_) {
      for (Party* p : parties_) {
        p->tick(chains_, now_);
      }
      chains_.produce_all(now_);
    }
  }

  /// Checks every deployed contract's claimed deadline ladder
  /// (chain::Contract::deadline_schedule) against the timing contract
  /// above: deadlines must be spaced >= `delta` per scheduled step, the
  /// first one measured from tick 0. Throws std::logic_error naming the
  /// chain, contract, step, and offending pair — a protocol whose
  /// deadlines are packed tighter than Delta silently voids the
  /// "Delta-1 delays are always timely" guarantee every timely-delay
  /// sweep and fault-tolerance envelope leans on, so debug builds of the
  /// hedged worlds call this right after deployment.
  void validate_deadlines(Tick delta) const {
    for (ChainId c = 0; c < static_cast<ChainId>(chains_.count()); ++c) {
      const chain::Blockchain& bc = chains_.at(c);
      for (std::size_t i = 0; i < bc.contract_count(); ++i) {
        const std::vector<Tick> ladder =
            bc.contract_at(i).deadline_schedule();
        Tick prev = 0;
        for (std::size_t step = 0; step < ladder.size(); ++step) {
          if (ladder[step] - prev < delta) {
            // Append-only string building (GCC 12 -Wrestrict, PR 105651).
            std::string what =
                "Scheduler::validate_deadlines: contract ";
            what += std::to_string(i);
            what += " on chain '";
            what += bc.name();
            what += "' places deadline ";
            what += std::to_string(ladder[step]);
            what += " (step ";
            what += std::to_string(step);
            what += ") only ";
            what += std::to_string(ladder[step] - prev);
            what += " ticks after ";
            what += step == 0 ? "the protocol start" : "its predecessor";
            what += "; the inclusive-deadline timing contract requires >= ";
            what += std::to_string(delta);
            what += " (Delta) per scheduled step";
            throw std::logic_error(what);
          }
          prev = ladder[step];
        }
      }
    }
  }

  /// The next tick to execute.
  Tick now() const { return now_; }

 private:
  chain::MultiChain& chains_;
  std::vector<Party*> parties_;
  Tick now_ = 0;
};

/// Scheduler::validate_deadlines in debug builds, a no-op in release
/// builds: every private engine world checks its freshly deployed
/// ladders once, at setup.
inline void debug_validate_deadlines(chain::MultiChain& chains, Tick delta) {
#ifndef NDEBUG
  Scheduler(chains).validate_deadlines(delta);
#else
  (void)chains;
  (void)delta;
#endif
}

}  // namespace xchain::sim
