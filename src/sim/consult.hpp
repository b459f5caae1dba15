#pragma once

// Consultation log: which plan coordinates an execution actually read.
//
// The schedule-tree executor (sim/scenario.cpp) dedups and prefix-shares
// runs by the *decisions they consulted*, not by their raw schedule
// index: by determinism, two schedules that agree on every (party,
// ordinal) policy a run reads — and on the engine variant — produce
// identical executions, even if they differ on coordinates the run never
// reached (a dropped escrow makes the redeem ordinal moot, etc.). Each
// executed run records its consultations here, in order; the executor
// builds its memo-trie from the log and branches at each logged consult,
// resuming the next run from that consult's tick.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/deviation.hpp"

namespace xchain::sim {

/// One first-consultation: party `party` read its policy for `ordinal`
/// (answer `pol`) during tick `tick`. Only the first read per (party,
/// ordinal) is logged — the policy is constant within a run, so repeats
/// carry no information.
struct ConsultEntry {
  PartyId party = kNoParty;
  int ordinal = 0;
  ActionPolicy pol{};
  Tick tick = 0;
};

/// Per-run consultation log, owned by the tree executor and shared with
/// every Party of the world via Party::set_consult_log(). Entries are
/// appended in consultation order, so ticks are nondecreasing and any
/// tick-prefix of the log is a prefix of the entry list.
class ConsultLog {
 public:
  const std::vector<ConsultEntry>& entries() const { return entries_; }

  /// Clears the log for a fresh run of a world with `n_parties` parties.
  void begin_run(std::size_t n_parties) {
    entries_.clear();
    seen_.assign(n_parties, 0);
  }

  /// Prepares the log for a run resumed from the start of tick `resume`:
  /// entries recorded before that tick stand (the prefix replays
  /// identically), later ones are dropped and their seen-bits rebuilt.
  void begin_resumed_run(Tick resume) {
    std::size_t kept = 0;
    while (kept < entries_.size() && entries_[kept].tick < resume) ++kept;
    entries_.resize(kept);
    for (auto& bits : seen_) bits = 0;
    for (const ConsultEntry& e : entries_) mark_seen(e.party, e.ordinal);
  }

  /// Records a consultation (first one per (party, ordinal) wins).
  void record(PartyId party, int ordinal, ActionPolicy pol, Tick now) {
    if (ordinal >= 0 && ordinal < 64) {
      const std::uint64_t bit = 1ull << ordinal;
      if (seen_[party] & bit) return;
      seen_[party] |= bit;
    } else {
      // Out-of-range ordinals fall back to a scan; duplicates would only
      // deepen the executor's trie, never corrupt it, but keep the log
      // canonical anyway.
      for (const ConsultEntry& e : entries_) {
        if (e.party == party && e.ordinal == ordinal) return;
      }
    }
    entries_.push_back(ConsultEntry{party, ordinal, pol, now});
  }

 private:
  void mark_seen(PartyId party, int ordinal) {
    if (ordinal >= 0 && ordinal < 64) seen_[party] |= 1ull << ordinal;
  }

  std::vector<ConsultEntry> entries_;
  std::vector<std::uint64_t> seen_;  ///< per-party first-consult bitmask
};

}  // namespace xchain::sim
