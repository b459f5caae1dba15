#include "sim/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "chain/snapshot.hpp"
#include "common/parallel.hpp"
#include "core/crr.hpp"
#include "sim/consult.hpp"

namespace xchain::sim {

namespace {

/// Debug builds check every shortcut the sweep takes: they audit each
/// verdict-served schedule the exact way as well, and re-execute every
/// permuted serve.
#ifdef NDEBUG
constexpr bool kCheckShortcuts = false;
#else
constexpr bool kCheckShortcuts = true;
#endif

/// Mixed-radix view of one adapter's raw schedule space (party 0's plan
/// least significant — exactly the order the serial enumeration visits).
/// Random access by raw index lets parallel shards be plain index ranges,
/// so no path ever materializes the cross product (it is exponential in
/// the party count).
///
/// Construction applies the strategy-space bounds: halt-only spaces are
/// enumerated whole (back-compat, never truncated); delay spaces cap each
/// party's plan list and then trim all lists to the largest uniform
/// per-party size whose cross product fits the schedule budget, recording
/// ParamGrid-style truncation notices. Per-party lists put the halt-only
/// plans first, so halt coverage survives trimming longest.
class ScheduleSpace {
 public:
  ScheduleSpace(const ProtocolAdapter& adapter, const StrategySpace& strategies)
      : adapter_(adapter) {
    const std::size_t n = adapter.party_count();
    std::vector<PartyPlanSpace> raw;
    raw.reserve(n);
    const std::size_t cap = strategies.halt_only()
                                ? std::numeric_limits<std::size_t>::max()
                                : strategies.max_plans_per_party;
    for (std::size_t p = 0; p < n; ++p) {
      raw.push_back(
          adapter.plan_space(static_cast<PartyId>(p), strategies, cap));
    }

    if (!strategies.halt_only()) {
      const auto product_at = [&](std::size_t uniform) {
        std::size_t prod = 1;
        for (const PartyPlanSpace& r : raw) {
          const std::size_t s =
              std::max<std::size_t>(std::min(r.plans.size(), uniform), 1);
          if (prod > strategies.max_schedules / s + 1) {
            return std::numeric_limits<std::size_t>::max();
          }
          prod *= s;
        }
        return prod;
      };
      std::size_t uniform = 0;
      for (const PartyPlanSpace& r : raw) {
        uniform = std::max(uniform, r.plans.size());
      }
      while (uniform > 1 && product_at(uniform) > strategies.max_schedules) {
        --uniform;
      }
      for (PartyPlanSpace& r : raw) {
        if (r.plans.size() > uniform) r.plans.resize(uniform);
      }
      for (std::size_t p = 0; p < raw.size(); ++p) {
        if (!raw[p].truncated()) continue;
        truncations_.push_back(
            adapter.name() + ": strategy space '" + strategies.name() +
            "' truncated: party " + std::to_string(p) + " sweeping " +
            std::to_string(raw[p].plans.size()) + " of " +
            std::to_string(raw[p].full_size) + " plans (caps: " +
            std::to_string(strategies.max_plans_per_party) +
            " plans/party, " + std::to_string(strategies.max_schedules) +
            " schedules)");
      }
    }

    spaces_.reserve(raw.size());
    for (PartyPlanSpace& r : raw) spaces_.push_back(std::move(r.plans));
    // Halt-only spaces are never trimmed, so enough parties overflow the
    // count (7 * 3^39 auction schedules with 39 bidders).
    raw_size_ = 1;
    for (const auto& space : spaces_) {
      if (raw_size_ != 0 &&
          space.size() > std::numeric_limits<std::size_t>::max() / raw_size_) {
        std::string what = adapter.name();
        what += ": strategy space '";
        what += strategies.name();
        what += "' has more schedules than a 64-bit count holds (";
        what += std::to_string(n);
        what += " parties)";
        throw std::invalid_argument(what);
      }
      raw_size_ *= space.size();
    }
  }

  /// A plan's or a schedule's conformance mask (bit p set when party p's
  /// plan conforms within Δ; meaningless past 64 parties) and deviator
  /// count (plans off the reference plan).
  struct Bits {
    std::uint64_t conforming = 0;
    int deviators = 0;
  };

  /// Raw combination count, before any max_deviators filtering.
  std::size_t raw_size() const { return raw_size_; }

  /// The bounded per-party plan lists (index-decoded by decode()); the
  /// tree executor's depth-first exploration walks these directly.
  const std::vector<std::vector<DeviationPlan>>& plan_lists() const {
    return spaces_;
  }

  /// Truncation notices from the strategy-space bounds ([] when whole).
  const std::vector<std::string>& truncations() const { return truncations_; }

  /// Calls visit(raw index, plan indices, bits) for every schedule of raw
  /// indices [begin, end) within the deviator budget, in raw order. An
  /// odometer over the per-party plan indices stands in for decoding, and
  /// a per-(party, plan) table gives each plan's bits, so the walk needs no
  /// division and no plan copy: a step updates the schedule's bits from
  /// the digits it changed (party p's bit is p's alone, so an XOR swaps
  /// it).
  template <class Visit>
  void for_each(std::size_t begin, std::size_t end, int max_deviators,
                Visit&& visit) const {
    // Party p's plan d is table[at[p] + d].
    const Tick delta = adapter_.delta();
    std::vector<Bits> table;
    std::vector<std::size_t> at;
    for (std::size_t p = 0; p < spaces_.size(); ++p) {
      at.push_back(table.size());
      for (const DeviationPlan& plan : spaces_[p]) {
        table.push_back(
            {p < 64 && plan.conforms_within(delta) ? std::uint64_t{1} << p
                                                   : 0,
             plan.is_conforming() ? 0 : 1});
      }
    }
    std::vector<std::size_t> digit = digits(begin);
    Bits b;
    for (std::size_t p = 0; p < digit.size(); ++p) {
      b.conforming |= table[at[p] + digit[p]].conforming;
      b.deviators += table[at[p] + digit[p]].deviators;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (max_deviators < 0 || b.deviators <= max_deviators) {
        visit(i, digit, b);
      }
      for (std::size_t p = 0; p < digit.size(); ++p) {
        const Bits& was = table[at[p] + digit[p]];
        const bool carry = ++digit[p] == spaces_[p].size();
        if (carry) digit[p] = 0;
        const Bits& now = table[at[p] + digit[p]];
        b.conforming ^= was.conforming ^ now.conforming;
        b.deviators += now.deviators - was.deviators;
        if (!carry) break;
      }
    }
  }

  /// Raw index `index` as one plan index per party, party 0's least
  /// significant.
  std::vector<std::size_t> digits(std::size_t index) const {
    std::vector<std::size_t> digit(spaces_.size());
    for (std::size_t p = 0; p < spaces_.size(); ++p) {
      digit[p] = index % spaces_[p].size();
      index /= spaces_[p].size();
    }
    return digit;
  }

  /// Decodes the schedule whose plan indices are `digit` into `out`,
  /// reusing out's plan storage, and clears its label. Labels are built
  /// separately, and only when needed (per schedule they would dominate
  /// the decode cost), via fill_label().
  void decode(const std::vector<std::size_t>& digit, Schedule& out) const {
    // Copy-assign into existing plan slots: a clear()-and-push_back loop
    // frees and reallocates every plan's modifier list on every decode.
    out.plans.resize(spaces_.size());
    for (std::size_t p = 0; p < spaces_.size(); ++p) {
      out.plans[p] = spaces_[p][digit[p]];
    }
    out.label.clear();
  }

  /// Builds the human-readable label for a decoded schedule.
  void fill_label(Schedule& out) const {
    out.label = adapter_.name();
    for (std::size_t p = 0; p < out.plans.size(); ++p) {
      // Appended in steps: `const char* + std::string&&` trips the GCC-12
      // -Wrestrict false positive (PR 105651) under -Werror.
      out.label += p == 0 ? '[' : ',';
      out.label +=
          adapter_.plan_label(static_cast<PartyId>(p), out.plans[p]);
    }
    out.label += "]";
  }

 private:
  const ProtocolAdapter& adapter_;
  std::vector<std::vector<DeviationPlan>> spaces_;
  std::vector<std::string> truncations_;
  std::size_t raw_size_ = 0;
};

/// One contiguous slice of the schedule space, swept independently. Shards
/// carry no protocol name: they are merged into the caller's SweepReport.
struct ShardResult {
  std::size_t schedules_run = 0;
  std::size_t conforming_audited = 0;
  std::vector<Violation> violations;
  /// Raw schedule-space index per violation (aligned with `violations`) —
  /// what the fault-attribution pass re-runs on the faultless twin.
  std::vector<std::size_t> violation_raw;
};

/// What a sweep engine knows about one schedule before it is audited.
enum class Verdict {
  kClean,     ///< audits clean: count its conforming parties, nothing more
  kViolates,  ///< audits with violations: take the exact path
  kUnknown,   ///< take the exact path
};

/// Audits every schedule of raw indices [begin, end) within the deviator
/// budget. verdict_of(raw index, plan indices, conformance mask) settles a
/// clean schedule with its audited count alone; any other takes the exact
/// path — decode, take its outcomes from outcomes_of(raw index, schedule),
/// audit_schedule, and label its violations.
template <class VerdictOf, class OutcomesOf>
void sweep_range(const ScheduleSpace& space, int max_deviators,
                 std::size_t begin, std::size_t end, VerdictOf&& verdict_of,
                 OutcomesOf&& outcomes_of, ShardResult& out) {
  Schedule s;
  space.for_each(begin, end, max_deviators,
                 [&](std::size_t i, const std::vector<std::size_t>& digit,
                     const ScheduleSpace::Bits& bits) {
    ++out.schedules_run;
    const std::size_t conforming =
        static_cast<std::size_t>(std::popcount(bits.conforming));
    const Verdict verdict = verdict_of(i, digit, bits.conforming);
    if (verdict == Verdict::kClean && !kCheckShortcuts) {
      out.conforming_audited += conforming;
      return;
    }
    // Labels are built only for (rare) violations: per schedule they
    // would be a large fraction of the cost.
    space.decode(digit, s);
    const std::vector<PartyOutcome>& outcomes = outcomes_of(i, s);
    const std::size_t before = out.violations.size();
    const std::size_t audited =
        audit_schedule(s.label, outcomes, out.violations);
    out.conforming_audited += audited;
    const bool violates = out.violations.size() != before;
    const bool disagrees =
        verdict != Verdict::kUnknown &&
        (violates != (verdict == Verdict::kViolates) || audited != conforming);
    if (violates || disagrees) space.fill_label(s);
    if (disagrees) {
      throw std::logic_error("tree executor: the leaf verdict on " + s.label +
                             " differs from its exact audit");
    }
    for (std::size_t v = before; v < out.violations.size(); ++v) {
      out.violations[v].schedule = s.label;
      out.violation_raw.push_back(i);
    }
  });
}

/// Fault-attribution pass: every violating schedule re-runs on a
/// *faultless twin* — a clone of the adapter with the environment removed
/// (same config, fresh reliable world). A violation whose party audits
/// clean on the twin was caused by the injected chain faults, not by any
/// deviation, and is flagged fault_caused (attribute_fault; it still fails
/// the sweep, see Violation::fault_caused). Violations are rare, so the
/// twin's extra runs are noise next to the sweep itself.
void attribute_faults(const ProtocolAdapter& adapter,
                      const ScheduleSpace& space,
                      const std::vector<std::size_t>& violation_raw,
                      SweepReport& report) {
  if (report.violations.empty()) return;
  const std::unique_ptr<ProtocolAdapter> twin = adapter.clone();
  twin->set_environment({});
  Schedule s;
  std::vector<Violation> twin_violations;
  std::size_t last_raw = std::numeric_limits<std::size_t>::max();
  for (std::size_t v = 0; v < report.violations.size(); ++v) {
    const std::size_t raw = violation_raw.at(v);
    if (raw != last_raw) {
      twin_violations.clear();
      space.decode(space.digits(raw), s);
      audit_schedule(s.label, twin->run(s), twin_violations);
      last_raw = raw;
    }
    if (attribute_fault(report.violations[v], twin_violations)) {
      ++report.fault_caused;
    }
  }
}

/// Whether two runs' outcome vectors agree on every field but the
/// conformance flags, which depend on plan coordinates a run may never
/// consult and are patched per served schedule.
bool same_result(const std::vector<PartyOutcome>& a,
                 const std::vector<PartyOutcome>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PartyOutcome& x, const PartyOutcome& y) {
                      return x.name == y.name && x.payoff == y.payoff &&
                             x.bound == y.bound;
                    });
}

/// A hash of a result key (ProtocolAdapter::tree_result_key): one
/// multiply-and-shift step per word.
struct ResultKeyHash {
  std::size_t operator()(const core::ResultSummary& key) const noexcept {
    std::uint64_t h = key.size();
    for (const std::int64_t w : key) {
      h = (h ^ static_cast<std::uint64_t>(w)) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Prefix-sharing schedule-tree executor (the serial sweep's default
/// engine). One instance drives one adapter's TreeFrame through a whole
/// sweep. explore() runs every execution up front, depth-first:
///
///   * every executed run logs the (party, ordinal) plan coordinates it
///     actually consulted (ConsultLog, recorded inside Party::act);
///   * finished runs are memoized in a trie keyed by (engine-variant
///     vector, consulted decisions in consultation order), and each leaf
///     learns the raw schedule indices whose plans give its answers — by
///     determinism, all of them share its outcomes;
///   * every other answer a candidate plan gives to a consulted coordinate
///     is a branch: the executor rewinds the world (layered checkpoint
///     stack, one slot per tick) to that consult's tick and runs only the
///     new suffix.
///
/// Nothing a parent run knows is derived again for its children. One
/// shared candidate table (cand_, lists of plan indices in one arena)
/// holds each party's plans that agree with the current path; a run
/// narrows it along its *new* consults only, and an undo stack restores
/// it on the way back up. memoize() resumes its trie walk at the node the
/// run's kept log prefix reaches, read off a per-run trail of node ids,
/// and checks every entry the run recorded itself. The trie lives in an
/// arena of fixed-size node blocks with index edges (first child, next
/// sibling), so a node costs no allocation of its own and the whole trie
/// is freed at once.
///
/// A leaf holds an *outcome id*, not outcomes: runs that end alike share
/// one stored outcome vector and one AuditVerdict, computed once per
/// distinct outcome (the late-delays bridges end ~37k leaves in a few
/// dozen outcomes). A run finds its id by its result key, which the
/// adapter writes into a reused buffer without strings or maps, and only a
/// new key (a few dozen per protocol) maps the world's result to
/// outcomes. The sweep loop then answers most schedules from their
/// outcome's verdict under their conformance mask (verdict()), and serves
/// the rest — violating schedules, sampled permuted serves — from the
/// stored outcomes (outcomes()), never touching the world.
///
/// An adapter's interchangeable parties (ProtocolAdapter::
/// interchangeable_parties) shrink the walk: a schedule is *canonical*
/// when the range's plan indices are non-decreasing, and only branches
/// and sub-spaces whose candidate product holds a canonical schedule are
/// explored, each from a canonical representative. A schedule left without
/// a leaf is served from its sorted twin's, with the range's outcomes
/// permuted back; sampled permuted serves are re-executed as a guard.
///
/// Invariant: snapshot slot t holds the world state at the START of tick
/// t, so snap_depth() == t+1 right after tick t's slot is pushed and
/// rewinding to slot t resumes execution at tick t. Rewinds are
/// integrity-checked against 64-bit world state hashes recorded on
/// sampled *verification runs* (see kVerifyEvery), so a contract or actor
/// whose state_tie() misses a mutable member aborts the sweep instead of
/// corrupting it — at a per-tick cost paid on a fraction of runs rather
/// than all of them.
class TreeExecutor {
 public:
  TreeExecutor(const ProtocolAdapter& adapter, TreeFrame& frame)
      : adapter_(adapter), frame_(frame) {
    for (Party* p : frame_.actors) p->set_consult_log(&log_);
    // The world may arrive dirty (an earlier sweep or run() leaves
    // end-of-run state behind), but its slot 0 is always the post-setup
    // start-of-tick-0 state (WorldAdapter pushes it when it builds the
    // world), so rewind there.
    rewind_to(0, /*integrity_check=*/false);
    // Slot 0 backs every full replay and is never overwritten once
    // created, so its hash stays fresh for the whole sweep.
    hashes_.assign(1, world_hash());
    hashed_to_ = 1;
  }

  ~TreeExecutor() {
    for (Party* p : frame_.actors) p->set_consult_log(nullptr);
  }

  TreeExecutor(const TreeExecutor&) = delete;
  TreeExecutor& operator=(const TreeExecutor&) = delete;

  std::size_t nodes_executed() const { return nodes_executed_; }

  /// The shard loop's fast path for the schedule with raw index `raw`,
  /// plan indices `digit` and conformance mask `conforming`: its outcome's
  /// verdict under that mask. A schedule without a leaf of its own is a
  /// permuted serve, answered from its sorted twin's verdict under the
  /// twin's mask: a permutation moves each range party's outcome and
  /// conformance together, so the set of breaching checks and the audited
  /// count stay the same. kUnknown sends the schedule down the exact path:
  /// an adapter past 64 parties, a sampled permuted serve (outcomes()
  /// re-executes it), or a hole (outcomes() throws). Every permuted serve
  /// is counted once, here when it is settled clean and in outcomes()
  /// otherwise.
  Verdict verdict(std::size_t raw, const std::vector<std::size_t>& digit,
                  std::uint64_t conforming) {
    if (!verdicts_on_) return Verdict::kUnknown;
    std::uint32_t id = outcome_of_[raw];
    if (id == kNoOutcome) {
      if (verifying_serve()) return Verdict::kUnknown;
      const std::size_t first = sym_.first;
      std::copy_n(digit.begin() + static_cast<std::ptrdiff_t>(first),
                  sym_.size(), digits_.begin());
      const std::size_t twin = sorted_twin(raw);
      id = twin == raw ? kNoOutcome : outcome_of_[twin];
      if (id == kNoOutcome) return Verdict::kUnknown;
      conforming &= ~sym_mask_;
      for (std::size_t j = 0; j < sym_.size(); ++j) {
        if (sym_conforms_[digits_[order_[j]]]) {
          conforming |= std::uint64_t{1} << (first + j);
        }
      }
      if (verdicts_[id].violates(conforming, all_)) return Verdict::kViolates;
      ++permuted_serves_;
      return Verdict::kClean;
    }
    return verdicts_[id].violates(conforming, all_) ? Verdict::kViolates
                                                    : Verdict::kClean;
  }

  /// The outcomes of the schedule with raw index `raw` (decoded into `s`
  /// by the caller), served from its explored leaf's stored outcome.
  /// Conformance flags are patched in place on that shared vector, so a
  /// lookup costs no allocation and no copy; the reference holds this
  /// schedule's flags until the next call. A schedule without a leaf of
  /// its own is served from its sorted twin's outcome, permuted into one
  /// reused scratch vector. The sub-space partition says explore() reached
  /// every in-budget canonical index; a hole is a completeness bug, and
  /// serving it silently would mis-attribute outcomes.
  const std::vector<PartyOutcome>& outcomes(std::size_t raw,
                                            const Schedule& s) {
    if (const std::uint32_t id = outcome_of_[raw]; id != kNoOutcome) {
      patch_conformance(s, outcomes_[id]);
      return outcomes_[id];
    }
    const std::size_t first = sym_.first;
    const std::size_t k = sym_.size();
    for (std::size_t j = 0; j < k; ++j) {
      digits_[j] = raw / strides_[first + j] % lists()[first + j].size();
    }
    const std::size_t twin = sorted_twin(raw);
    const std::uint32_t id = twin == raw ? kNoOutcome : outcome_of_[twin];
    if (id == kNoOutcome) {
      throw std::logic_error(
          adapter_.name() +
          ": tree exploration left part of the schedule space uncovered");
    }
    // Names stay with their positions; payoffs and bounds follow plans.
    const std::vector<PartyOutcome>& from = outcomes_[id];
    permuted_.resize(from.size());
    for (std::size_t q = 0; q < from.size(); ++q) {
      if (q < first || q >= first + k) permuted_[q] = from[q];
    }
    for (std::size_t j = 0; j < k; ++j) {
      PartyOutcome& to = permuted_[first + order_[j]];
      to.name = from[first + order_[j]].name;
      to.payoff = from[first + j].payoff;
      to.bound = from[first + j].bound;
    }
    patch_conformance(s, permuted_);
    if (verifying_serve()) {
      // Re-execute on the brute path (run(): rewind to slot 0, plain
      // play). The actors still log their consultations, so start a fresh
      // log for them.
      log_.begin_run(frame_.actors.size());
      if (adapter_.run(s) != permuted_) {
        Schedule labelled = s;
        space_->fill_label(labelled);
        throw std::logic_error(
            adapter_.name() + ": permuted serve of " + labelled.label +
            " differs from its re-execution — parties [" +
            std::to_string(sym_.first) + ", " + std::to_string(sym_.last) +
            ") are declared interchangeable but are not");
      }
    }
    ++permuted_serves_;
    return permuted_;
  }

  /// Populates the trie by a depth-first walk of the schedule tree within
  /// the deviator budget (-1 = unbounded): every distinct consulted-
  /// decision path executes once per sub-space, and each path resumes from
  /// its branch point (rewind to the branch tick, run only the new suffix)
  /// — so total tick work is proportional to the size of the TREE, not
  /// leaves x horizon. A budget couples parties globally (the count of
  /// deviating plans), which per-branch candidate sets cannot express, so
  /// the space is split party by party into disjoint sub-spaces in which
  /// every party takes either its reference plan or one of its others;
  /// splitting stops once the remaining budget covers the remaining
  /// parties. Throws std::logic_error when the adapter's interchangeable
  /// parties do not all exist or do not share one plan list.
  void explore(const ScheduleSpace& space, int max_deviators) {
    space_ = &space;
    const std::vector<std::vector<DeviationPlan>>& lists = space.plan_lists();
    const std::size_t n = lists.size();
    sym_ = adapter_.interchangeable_parties();
    if (sym_.size() > 0 &&
        (sym_.last > n ||
         std::any_of(lists.begin() + sym_.first, lists.begin() + sym_.last,
                     [&](const auto& l) { return l != lists[sym_.first]; }))) {
      throw std::logic_error(
          adapter_.name() + ": parties [" + std::to_string(sym_.first) +
          ", " + std::to_string(sym_.last) +
          ") are declared interchangeable but do not share one plan list");
    }
    if (sym_.size() < 2) sym_ = {};
    digits_.assign(sym_.size(), 0);
    order_.assign(sym_.size(), 0);
    sym_mask_ = 0;
    sym_conforms_.clear();
    for (std::size_t p = sym_.first; p < sym_.last && p < 64; ++p) {
      sym_mask_ |= std::uint64_t{1} << p;
    }
    if (sym_.size() > 0) {
      for (const DeviationPlan& plan : lists[sym_.first]) {
        sym_conforms_.push_back(plan.conforms_within(adapter_.delta()));
      }
    }
    // Verdicts need a conformance mask, one bit per party.
    verdicts_on_ = n <= 64;
    all_ = n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    // Raw-index strides matching ScheduleSpace::digits (party 0 is
    // the fastest-varying digit). Every leaf learns the exact set of
    // plan-index combinations it covers, so outcome_of_ maps each raw
    // index straight to its leaf's outcome.
    strides_.assign(n, 1);
    std::size_t total = 1;
    for (std::size_t p = 0; p < n; ++p) {
      strides_[p] = total;
      total *= lists[p].size();
    }
    outcome_of_.assign(total, kNoOutcome);
    cand_.assign(n, {});
    picked_.assign(n, -1);
    sched_.plans.resize(n);
    explore_parties(n, max_deviators);
  }

 private:
  static constexpr std::uint32_t kNoOutcome =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoNode =
      std::numeric_limits<std::uint32_t>::max();

  /// One memo-trie node: the question "which policy does `party`'s plan
  /// give ordinal `ordinal`?", with its answers' nodes linked from `child`
  /// through their `sibling`s, each carrying the answer on the edge into
  /// it (`choice`, `delay`). A leaf holds the outcome id of the run that
  /// ended there. Roots are keyed by the schedule's variant vector:
  /// variants steer engines outside the consultation mechanism (the
  /// auctioneer's declaration strategy), so runs under different variants
  /// never share nodes.
  struct TrieNode {
    Tick delay = 0;
    PartyId party = kNoParty;
    int ordinal = -1;
    std::uint32_t leaf = kNoOutcome;  ///< outcome id, once a run ends here
    std::uint32_t child = kNoNode;
    std::uint32_t sibling = kNoNode;
    ActionChoice choice = ActionChoice::kPerform;

    ActionPolicy answer() const { return {choice, delay}; }
  };

  /// The trie's nodes, by id, in blocks of kBlock that never move: making
  /// a node allocates only when a block fills, and a reference to a node
  /// stays valid while others are made.
  class TrieArena {
   public:
    std::uint32_t make(const ActionPolicy& answer) {
      if (size_ % kBlock == 0) {
        blocks_.push_back(std::make_unique<TrieNode[]>(kBlock));
      }
      TrieNode& node = (*this)[size_];
      node.choice = answer.choice;
      node.delay = answer.delay;
      return size_++;
    }
    TrieNode& operator[](std::uint32_t id) {
      return blocks_[id / kBlock][id % kBlock];
    }

   private:
    static constexpr std::uint32_t kBlock = 2048;
    std::vector<std::unique_ptr<TrieNode[]>> blocks_;
    std::uint32_t size_ = 0;
  };

  /// Party p's candidates are cand_pool_[begin, end), ascending plan
  /// indices.
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  /// One narrowing, undone by restoring `party`'s span and cutting the
  /// pool back to `top`.
  struct Undo {
    PartyId party;
    Span span;
    std::uint32_t top;
  };

  /// The bounded per-party plan lists explore() walks.
  const std::vector<std::vector<DeviationPlan>>& lists() const {
    return space_->plan_lists();
  }

  std::uint64_t world_hash() const {
    std::uint64_t h = frame_.chains->state_hash();
    for (const Party* p : frame_.actors) p->state_hash(h);
    return h;
  }

  /// Hashing every pushed slot would cost a full world walk per executed
  /// tick — more than the execution itself. Instead, every kVerifyEvery-th
  /// executed run (and the first few, so broken snapshots fail in the
  /// smallest reproducer) is a *verification run*: its pushes record the
  /// world hash, and any later rewind into a still-fresh hashed slot
  /// recomputes and compares. hashed_to_ tracks how many leading slots
  /// hold fresh hashes (a hashless push over a slot stales it and
  /// everything above).
  static constexpr std::size_t kVerifyEvery = 32;

  bool verifying() const {
    return nodes_executed_ < 2 || nodes_executed_ % kVerifyEvery == 0;
  }

  /// Permuted serves are sampled the same way (every one in Debug): a
  /// sampled serve re-executes its schedule and compares.
  bool verifying_serve() const {
    return kCheckShortcuts || permuted_serves_ < 2 ||
           permuted_serves_ % kVerifyEvery == 0;
  }

  /// The raw index of `raw`'s sorted twin, from the range's plan indices
  /// in digits_: a stable sort of them, with order_[j] the range position
  /// holding the j-th smallest, so the twin's j-th range party plays that
  /// position's plan.
  std::size_t sorted_twin(std::size_t raw) {
    const std::size_t first = sym_.first;
    std::size_t twin = raw;
    for (std::size_t j = 0; j < sym_.size(); ++j) {
      twin -= digits_[j] * strides_[first + j];
      std::size_t i = j;
      for (; i > 0 && digits_[order_[i - 1]] > digits_[j]; --i) {
        order_[i] = order_[i - 1];
      }
      order_[i] = j;
    }
    for (std::size_t j = 0; j < sym_.size(); ++j) {
      twin += digits_[order_[j]] * strides_[first + j];
    }
    return twin;
  }

  void push_slot(Tick t, bool with_hash) {
    const std::size_t d = static_cast<std::size_t>(t);
    frame_.snap_push();
    if (with_hash && hashed_to_ >= d) {
      if (hashes_.size() <= d) hashes_.resize(d + 1);
      hashes_[d] = world_hash();
      hashed_to_ = d + 1;
    } else if (hashed_to_ > d) {
      hashed_to_ = d;
    }
  }

  void rewind_to(Tick t, bool integrity_check) {
    const std::size_t d = static_cast<std::size_t>(t);
    frame_.snap_rewind(d);
    if (integrity_check && d < hashed_to_ && world_hash() != hashes_[d]) {
      throw std::logic_error(
          adapter_.name() + ": tree executor state hash mismatch after "
          "rewind to tick " + std::to_string(t) +
          " — a contract or actor snapshot misses a mutable member (its "
          "state_tie() must list every mutable member)");
    }
  }

  /// Explores every sub-space in which parties [0, open) are still to be
  /// chosen and each later party q takes the plans in its cand_ span, with
  /// `budget` deviators left (-1 = unbounded). The last open party splits
  /// first, so party 0's choice varies fastest, as in the raw-index order.
  /// A party splits by engine variant, in first-seen order: variants steer
  /// engines outside the consultation mechanism, so each choice of
  /// variants is its own tree. Under a binding budget each variant splits
  /// again, into the reference plan (budget kept) and the rest (one spent).
  void explore_parties(std::size_t open, int budget) {
    if (open == 0) {
      if (canonical(nullptr)) dfs(0, -1);
      return;
    }
    const std::size_t p = open - 1;
    const std::vector<DeviationPlan>& plans = lists()[p];
    const bool split = budget >= 0 && static_cast<std::size_t>(budget) < open;
    const int max_deviate = split && budget > 0 ? 1 : 0;
    std::vector<int> variants;
    for (const DeviationPlan& plan : plans) {
      if (std::find(variants.begin(), variants.end(), plan.variant()) ==
          variants.end()) {
        variants.push_back(plan.variant());
      }
    }
    for (const int v : variants) {
      for (int deviate = 0; deviate <= max_deviate; ++deviate) {
        const auto top = static_cast<std::uint32_t>(cand_pool_.size());
        for (std::size_t i = 0; i < plans.size(); ++i) {
          if (plans[i].variant() == v &&
              (!split || plans[i].is_conforming() == (deviate == 0))) {
            cand_pool_.push_back(static_cast<int>(i));
          }
        }
        cand_[p] = {top, static_cast<std::uint32_t>(cand_pool_.size())};
        if (cand_[p].end > top) explore_parties(p, budget - deviate);
        cand_pool_.resize(top);
      }
    }
  }

  /// Whether the candidate table's product holds a canonical schedule, one
  /// whose interchangeable parties' plan indices are non-decreasing
  /// (always, without such parties). Candidate lists are ascending, so a
  /// greedy walk decides it: each range party takes its least candidate
  /// not below its predecessor's. With `pick`, the least canonical
  /// schedule is written there, every other party at its first candidate;
  /// a plan is copied only where the party's pick changed.
  bool canonical(Schedule* pick) {
    const auto take = [&](std::size_t p, int idx) {
      if (!pick || picked_[p] == idx) return;
      picked_[p] = idx;
      pick->plans[p] = lists()[p][static_cast<std::size_t>(idx)];
    };
    int floor = 0;
    for (std::size_t p = 0; p < cand_.size(); ++p) {
      const int* first = cand_pool_.data() + cand_[p].begin;
      const int* last = cand_pool_.data() + cand_[p].end;
      if (p < sym_.first || p >= sym_.last) {
        take(p, *first);
        continue;
      }
      const int* it = std::lower_bound(first, last, floor);
      if (it == last) return false;
      floor = *it;
      take(p, floor);
    }
    return true;
  }

  /// Narrows `party`'s candidates to the plans answering `answer` at
  /// `ordinal`, pushing the undo record restore() pops. A narrowed list is
  /// a copy on top of the pool; a list the answer leaves whole stays put.
  void narrow(PartyId party, int ordinal, const ActionPolicy& answer) {
    const Span was = cand_[party];
    const auto top = static_cast<std::uint32_t>(cand_pool_.size());
    undo_.push_back({party, was, top});
    const std::vector<DeviationPlan>& plans = lists()[party];
    for (std::uint32_t k = was.begin; k < was.end; ++k) {
      const int idx = cand_pool_[k];
      if (plans[static_cast<std::size_t>(idx)].policy(ordinal) == answer) {
        cand_pool_.push_back(idx);
      }
    }
    const auto end = static_cast<std::uint32_t>(cand_pool_.size());
    if (end - top == was.end - was.begin) {
      cand_pool_.resize(top);
    } else {
      cand_[party] = {top, end};
    }
  }

  /// Undoes the latest narrow().
  void restore() {
    const Undo u = undo_.back();
    undo_.pop_back();
    cand_[u.party] = u.span;
    cand_pool_.resize(u.top);
  }

  /// Records that the leaf `id` serves the candidate table's whole
  /// product, so the sweep loop resolves each of its raw indices with one
  /// table load. An odometer over the candidate lists moves the raw index
  /// by the digits it changes.
  void mark_covered(std::uint32_t id) {
    const std::size_t n = cand_.size();
    at_.assign(n, 0);
    std::size_t raw = 0;
    for (std::size_t p = 0; p < n; ++p) {
      raw += static_cast<std::size_t>(cand_pool_[cand_[p].begin]) *
             strides_[p];
    }
    while (true) {
      outcome_of_[raw] = id;
      std::size_t p = 0;
      for (; p < n; ++p) {
        const Span sp = cand_[p];
        const auto was = static_cast<std::size_t>(
            cand_pool_[sp.begin + at_[p]]);
        if (++at_[p] < sp.end - sp.begin) {
          raw += (static_cast<std::size_t>(cand_pool_[sp.begin + at_[p]]) -
                  was) * strides_[p];
          break;
        }
        raw -= (was - static_cast<std::size_t>(cand_pool_[sp.begin])) *
               strides_[p];
        at_[p] = 0;
      }
      if (p == n) break;
    }
  }

  /// One depth-first exploration step. The candidate table lists, per
  /// party, the plans that agree with the log's first from_pos + 1
  /// consults (every answer an ancestor run recorded, down to the branch
  /// this run takes); a representative — each party's first candidate,
  /// the interchangeable ones' least canonical choice, so every executed
  /// leaf serves a canonical schedule — executes from tick `from` (the
  /// world holds the prefix state). The run is memoized, and its NEW
  /// consults, pushed onto path_ because children rewrite the log, narrow
  /// the table one by one: what is left is the product the leaf serves.
  /// They are then walked deepest-first, each narrowing undone first, so
  /// the table agrees with the consults before it: the consulted party's
  /// candidates are partitioned by their answer, and every class other
  /// than the taken one holding a canonical schedule becomes a child
  /// branch — rewind to the consult's tick, re-run with a representative
  /// of the class, recurse. Deepest-first order keeps every rewind target
  /// inside the shared prefix of the snapshot stack. Within a sub-space
  /// distinct leaves differ at their first divergent consulted answer, and
  /// sub-spaces are disjoint, so no raw index is marked twice.
  void dfs(Tick from, std::ptrdiff_t from_pos) {
    canonical(&sched_);
    execute(sched_, from);
    const std::uint32_t id = memoize(sched_);
    ++nodes_executed_;

    const std::size_t base = path_.size();
    const std::vector<ConsultEntry>& log = log_.entries();
    path_.insert(path_.end(), log.begin() + (from_pos + 1), log.end());
    const std::size_t len = path_.size() - base;
    for (std::size_t j = base; j < base + len; ++j) {
      narrow(path_[j].party, path_[j].ordinal, path_[j].pol);
    }
    mark_covered(id);
    for (std::size_t j = len; j-- > 0;) {
      restore();
      const ConsultEntry e = path_[base + j];
      const Span pool = cand_[e.party];
      const std::size_t seen = seen_.size();
      seen_.push_back(e.pol);
      for (std::uint32_t k = pool.begin; k < pool.end; ++k) {
        const ActionPolicy alt =
            lists()[e.party][static_cast<std::size_t>(cand_pool_[k])].policy(
                e.ordinal);
        if (std::find(seen_.begin() + static_cast<std::ptrdiff_t>(seen),
                      seen_.end(), alt) != seen_.end()) {
          continue;
        }
        seen_.push_back(alt);
        narrow(e.party, e.ordinal, alt);
        if (canonical(nullptr)) {
          dfs(e.tick, from_pos + 1 + static_cast<std::ptrdiff_t>(j));
        }
        restore();
      }
      seen_.resize(seen);
    }
    path_.resize(base);
  }

  void execute(const Schedule& s, Tick resume) {
    if (frame_.chains->snap_depth() > static_cast<std::size_t>(resume)) {
      rewind_to(resume, /*integrity_check=*/true);
    }
    adapter_.tree_set_plans(s);
    if (resume == 0) {
      log_.begin_run(frame_.actors.size());
    } else {
      // Entries before the resume tick stand: the restored state already
      // reflects those decisions (and their queued delayed actions), and
      // their answers agree with `s`, which branches at the resume tick.
      log_.begin_resumed_run(resume);
    }
    kept_ = log_.entries().size();
    const bool with_hash = verifying();
    for (Tick t = resume; t < frame_.horizon; ++t) {
      if (frame_.chains->snap_depth() <= static_cast<std::size_t>(t)) {
        push_slot(t, with_hash);
      }
      for (Party* p : frame_.actors) p->tick(*frame_.chains, t);
      frame_.chains->produce_all(t);
    }
  }

  /// Records the just-executed run of `s` in the trie and returns its
  /// outcome id, verifying determinism: runs sharing a decision prefix
  /// must consult the same coordinate next, and a run reaching an existing
  /// leaf — possible only across deviator-set sub-spaces — must reproduce
  /// its outcomes, conformance flags aside. The walk starts at the run's
  /// first own log entry: a fresh run's at the root of its variant
  /// vector, a resumed run's at trail_[kept_], the node its kept log
  /// prefix reached when an earlier run recorded that prefix. Every entry
  /// the run recorded itself, same-tick re-consults of the prefix
  /// included, is checked, and trail_ follows it.
  ///
  /// The run's outcome id comes from its result key (the adapter's
  /// tree_result_key: plan variants and the world's string-free summary),
  /// looked up in keys_ (one hash, an exact compare). Only a new key
  /// derives the run's outcomes (tree_collect): they take the next id,
  /// with the vector stored and its audit verdict computed once. A known
  /// key is trusted, except on verification runs (every run in Debug) and
  /// at an existing leaf, which derive the outcomes anyway and throw
  /// unless they equal the key's.
  std::uint32_t memoize(const Schedule& s) {
    const std::vector<ConsultEntry>& log = log_.entries();
    trail_.resize(log.size() + 1);
    if (kept_ == 0) {
      key_.clear();
      for (const DeviationPlan& plan : s.plans) {
        key_.push_back(plan.variant());
      }
      const auto [root, made] = roots_.try_emplace(key_, kNoNode);
      if (made) root->second = trie_.make({});
      trail_[0] = root->second;
    }
    std::uint32_t here = trail_[kept_];
    for (std::size_t k = kept_; k < log.size(); ++k) {
      const ConsultEntry& e = log[k];
      TrieNode& node = trie_[here];
      if (node.leaf != kNoOutcome ||
          (node.party != kNoParty &&
           (node.party != e.party || node.ordinal != e.ordinal))) {
        throw std::logic_error(
            adapter_.name() +
            ": tree executor consult sequence diverged between runs "
            "sharing a decision prefix — engine is not deterministic in "
            "its consulted plan coordinates");
      }
      node.party = e.party;
      node.ordinal = e.ordinal;
      std::uint32_t child = node.child;
      while (child != kNoNode && trie_[child].answer() != e.pol) {
        child = trie_[child].sibling;
      }
      if (child == kNoNode) {
        child = trie_.make(e.pol);
        trie_[child].sibling = node.child;
        node.child = child;
      }
      here = child;
      trail_[k + 1] = here;
    }
    TrieNode& node = trie_[here];
    const bool revisit = node.leaf != kNoOutcome;
    const std::uint32_t id =
        node.party == kNoParty ? outcome_id(s, revisit) : kNoOutcome;
    if (id == kNoOutcome || (revisit && node.leaf != id)) {
      throw std::logic_error(
          adapter_.name() +
          ": tree executor run consulted a prefix of an earlier run with "
          "equal answers but ended differently — engine is not "
          "deterministic");
    }
    node.leaf = id;
    return id;
  }

  /// The outcome id of the just-executed run of `s`, by its result key;
  /// with `check` (or on a verification run, or in Debug) a known key's
  /// outcomes are derived as well and must equal the stored ones.
  std::uint32_t outcome_id(const Schedule& s, bool check) {
    adapter_.tree_result_key(s, result_key_);
    const auto known = keys_.find(result_key_);
    if (known == keys_.end()) {
      if (outcomes_.size() == kNoOutcome) {
        throw std::length_error(adapter_.name() +
                                ": tree executor ran out of outcome ids");
      }
      const auto id = static_cast<std::uint32_t>(outcomes_.size());
      outcomes_.push_back(adapter_.tree_collect(s));
      if (verdicts_on_) verdicts_.push_back(audit_verdict(outcomes_.back()));
      keys_.emplace(result_key_, id);
      return id;
    }
    const std::uint32_t id = known->second;
    if ((check || kCheckShortcuts || verifying()) &&
        !same_result(outcomes_[id], adapter_.tree_collect(s))) {
      throw std::logic_error(
          adapter_.name() +
          ": tree executor run ended differently from an earlier run with "
          "an equal result key — the key misses a result field the "
          "outcomes read, or the engine is not deterministic");
    }
    return id;
  }

  /// Conformance flags depend on plan coordinates a run may never consult
  /// (a halted party's later ordinals, say), so they are the one outcome
  /// field that can differ between schedules sharing a leaf — recompute
  /// them per schedule. Everything else is determined by the executed
  /// path: adapters keep their HedgeBound terms path-determined (see
  /// TicketAuctionAdapter::outcomes_from).
  void patch_conformance(const Schedule& s,
                         std::vector<PartyOutcome>& out) const {
    const Tick delta = adapter_.delta();
    for (std::size_t p = 0; p < out.size(); ++p) {
      out[p].conforming = s.plans[p].conforms_within(delta);
    }
  }

  const ProtocolAdapter& adapter_;
  TreeFrame& frame_;
  ConsultLog log_;
  std::size_t kept_ = 0;  ///< log entries the current run kept, not made
  TrieArena trie_;
  std::map<std::vector<int>, std::uint32_t> roots_;  ///< variants -> root
  /// trail_[k]: the node the log's first k entries reach.
  std::vector<std::uint32_t> trail_;
  const ScheduleSpace* space_ = nullptr;
  /// The candidate table, its pool and undo stack; the consults each
  /// active dfs() frame walks (its new log suffix), and the answers each
  /// has branched on at its current consult.
  std::vector<Span> cand_;
  std::vector<int> cand_pool_;
  std::vector<Undo> undo_;
  std::vector<ConsultEntry> path_;
  std::vector<ActionPolicy> seen_;
  /// The one schedule dfs() executes, and its plan index per party.
  Schedule sched_;
  std::vector<int> picked_;
  std::vector<std::size_t> at_;  ///< mark_covered()'s odometer
  /// Raw index -> its leaf's outcome id (kNoOutcome: unexplored); outcome
  /// id -> the outcome vector of its result key, and -> its verdict (none
  /// past 64 parties).
  std::vector<std::uint32_t> outcome_of_;
  std::vector<std::vector<PartyOutcome>> outcomes_;
  std::vector<AuditVerdict> verdicts_;
  bool verdicts_on_ = false;
  std::uint64_t all_ = 0;  ///< conformance mask of every party
  std::vector<std::size_t> strides_;  ///< raw-index stride per party
  std::vector<std::uint64_t> hashes_;  ///< world hash per snapshot slot
  std::size_t hashed_to_ = 0;  ///< leading slots whose hashes are fresh
  std::vector<int> key_;       ///< memoize()'s scratch: the run's variants
  /// outcome_id()'s scratch, and each result key seen with the outcome id
  /// its first run derived: one entry per distinct key, not per run.
  core::ResultSummary result_key_;
  std::unordered_map<core::ResultSummary, std::uint32_t, ResultKeyHash> keys_;
  std::size_t nodes_executed_ = 0;
  PartyRange sym_;  ///< interchangeable parties (empty: no reduction)
  std::uint64_t sym_mask_ = 0;  ///< their conformance bits
  std::vector<bool> sym_conforms_;  ///< per plan of their shared list
  /// Scratch for permuted serves: the range's plan indices, their stable
  /// sort order, and the served outcomes.
  std::vector<std::size_t> digits_;
  std::vector<std::size_t> order_;
  std::vector<PartyOutcome> permuted_;
  std::size_t permuted_serves_ = 0;
};

}  // namespace

std::string SweepReport::line() const {
  return protocol + ": " + std::to_string(schedules_run) + " schedules, " +
         std::to_string(conforming_audited) + " conforming-party audits, " +
         std::to_string(violations.size()) + " violations";
}

std::string SweepReport::str() const {
  std::string s = line();
  for (const std::string& t : truncations) {
    s += "\n  " + t;
  }
  for (const Violation& v : violations) {
    s += "\n  " + v.str();
  }
  return s;
}

void validate_sweep_options(const SweepOptions& opts) {
  if (opts.max_deviators < -1) {
    throw std::invalid_argument(
        "SweepOptions.max_deviators must be >= -1 (-1 = unbounded), got " +
        std::to_string(opts.max_deviators));
  }
  if (opts.strategies.max_plans_per_party == 0) {
    throw std::invalid_argument(
        "StrategySpace.max_plans_per_party must be >= 1");
  }
  if (opts.strategies.max_schedules == 0) {
    throw std::invalid_argument("StrategySpace.max_schedules must be >= 1");
  }
}

std::vector<Schedule> ScenarioRunner::enumerate(int max_deviators) const {
  return enumerate(SweepOptions{max_deviators, /*threads=*/1, {}});
}

std::vector<Schedule> ScenarioRunner::enumerate(
    const SweepOptions& opts) const {
  validate_sweep_options(opts);
  const ScheduleSpace space(adapter_, opts.strategies);
  std::vector<Schedule> schedules;
  space.for_each(0, space.raw_size(), opts.max_deviators,
                 [&](std::size_t, const std::vector<std::size_t>& digit,
                     const ScheduleSpace::Bits&) {
                   space.decode(digit, schedules.emplace_back());
                   space.fill_label(schedules.back());
                 });
  return schedules;
}

std::size_t ScenarioRunner::schedule_count(
    const SweepOptions& opts, std::vector<std::string>* truncations) const {
  validate_sweep_options(opts);
  const ScheduleSpace space(adapter_, opts.strategies);
  if (truncations) {
    truncations->insert(truncations->end(), space.truncations().begin(),
                        space.truncations().end());
  }
  if (opts.max_deviators < 0) return space.raw_size();
  std::size_t count = 0;
  space.for_each(0, space.raw_size(), opts.max_deviators,
                 [&](std::size_t, const std::vector<std::size_t>&,
                     const ScheduleSpace::Bits&) { ++count; });
  return count;
}

SweepReport ScenarioRunner::sweep(int max_deviators) const {
  return sweep(SweepOptions{max_deviators, /*threads=*/1, {}});
}

SweepReport ScenarioRunner::sweep(const SweepOptions& opts) const {
  validate_sweep_options(opts);
  SweepReport report;
  report.protocol = adapter_.name();

  const ScheduleSpace space(adapter_, opts.strategies);
  report.truncations = space.truncations();

  // An active chain environment forces the brute executor: faults carry
  // mempool contents across blocks, and the tree executor's layered
  // snapshots require an empty mempool at every branch point.
  const bool env_active = adapter_.environment().active();
  if (env_active && opts.executor == SweepExecutor::kTree) {
    throw std::invalid_argument(
        "SweepOptions.executor = kTree, but adapter '" + adapter_.name() +
        "' has an active chain environment (fault-injected sweeps run on "
        "the brute executor)");
  }
  const bool tree_capable = !env_active && adapter_.tree_frame() != nullptr;
  if (opts.executor == SweepExecutor::kTree && !tree_capable) {
    throw std::invalid_argument(
        "SweepOptions.executor = kTree, but adapter '" + adapter_.name() +
        "' is not tree-capable (it has no engine world)");
  }
  // Spawning a worker only pays for itself over a batch of schedules:
  // clamp so each worker gets at least ~16, degrading small spaces toward
  // the serial path instead of paying thread/clone overhead for microwork.
  constexpr std::size_t kMinSchedulesPerWorker = 16;
  unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      resolve_threads(opts.threads),
      std::max<std::size_t>(space.raw_size() / kMinSchedulesPerWorker, 1)));
  std::optional<TreeExecutor> tree;
  if (opts.executor == SweepExecutor::kTree ||
      (opts.executor == SweepExecutor::kAuto && workers <= 1 &&
       tree_capable)) {
    // The tree executor is inherently serial (one world, one snapshot
    // stack); kTree overrides any thread request. Exploration runs every
    // execution up front, so the shard loop below only reads leaves.
    workers = 1;
    tree.emplace(adapter_, *adapter_.tree_frame());
    tree->explore(space, opts.max_deviators);
  }
  report.workers = workers;

  // Contiguous raw-index shards, several per worker so uneven
  // per-schedule run costs balance out; workers claim shards in order and
  // decode each index on the fly (constant memory). Merging in shard order
  // reproduces the serial enumeration order exactly, so the report is
  // bit-identical whatever the worker count or claiming order.
  const std::size_t shard_count =
      std::min(space.raw_size(), static_cast<std::size_t>(workers) * 8);
  std::vector<ShardResult> shards(shard_count);
  // Worker 0 brute-replays on the caller's adapter, every other worker on
  // a private clone: chains built by run() are stateful.
  std::vector<std::unique_ptr<ProtocolAdapter>> clones(workers);
  parallel_for(workers, shard_count, [&](unsigned worker, std::size_t shard) {
    const std::size_t begin = shard * space.raw_size() / shard_count;
    const std::size_t end = (shard + 1) * space.raw_size() / shard_count;
    if (tree) {
      sweep_range(
          space, opts.max_deviators, begin, end,
          [&](std::size_t raw, const std::vector<std::size_t>& digit,
              std::uint64_t conforming) {
            return tree->verdict(raw, digit, conforming);
          },
          [&](std::size_t raw, const Schedule& s) -> const auto& {
            return tree->outcomes(raw, s);
          },
          shards[shard]);
      return;
    }
    if (worker > 0 && !clones[worker]) clones[worker] = adapter_.clone();
    const ProtocolAdapter& engine = worker > 0 ? *clones[worker] : adapter_;
    std::vector<PartyOutcome> outcomes;
    sweep_range(
        space, opts.max_deviators, begin, end,
        [](std::size_t, const std::vector<std::size_t>&, std::uint64_t) {
          return Verdict::kUnknown;
        },
        [&](std::size_t, const Schedule& s) -> const auto& {
          return outcomes = engine.run(s);
        },
        shards[shard]);
  });

  std::vector<std::size_t> violation_raw;
  for (ShardResult& shard : shards) {
    report.schedules_run += shard.schedules_run;
    report.conforming_audited += shard.conforming_audited;
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(shard.violations.begin()),
                             std::make_move_iterator(shard.violations.end()));
    violation_raw.insert(violation_raw.end(), shard.violation_raw.begin(),
                         shard.violation_raw.end());
  }
  report.nodes_executed =
      tree ? tree->nodes_executed() : report.schedules_run;
  report.schedules_covered = report.schedules_run;
  report.dedup_hits = report.schedules_run - report.nodes_executed;
  if (env_active) {
    // The twin runs serially on the caller's adapter clone: violations are
    // rare, and a deterministic single-threaded pass keeps the report
    // byte-identical whatever the worker count.
    attribute_faults(adapter_, space, violation_raw, report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Multi-party ARC swap
// ---------------------------------------------------------------------------

std::vector<PartyOutcome> MultiPartySwapAdapter::outcomes_from(
    const core::MultiPartyResult& r, const Schedule& s) const {
  std::vector<PartyOutcome> outcomes;
  for (std::size_t v = 0; v < cfg_.g.size(); ++v) {
    PartyOutcome o{"party-" + std::to_string(v),
                   s.plans[v].conforms_within(cfg_.delta), r.payoffs[v], {}};
    if (cfg_.hedged) {
      o.bound.min_coin_delta = cfg_.premium_unit * r.assets_refunded[v];
    }
    o.bound.completed = r.all_redeemed;
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// Ticket auction
// ---------------------------------------------------------------------------

std::string TicketAuctionAdapter::variant_label(int variant) {
  switch (variant) {
    case 0: return "honest";
    case 1: return "no-setup";
    case 2: return "abandon";
    case 3: return "declare-loser";
    case 4: return "coin-only";
    case 5: return "ticket-only";
    default: return "split";
  }
}

PartyPlanSpace TicketAuctionAdapter::plan_space(
    PartyId p, const StrategySpace& strategies, std::size_t cap) const {
  if (p != 0) return ProtocolAdapter::plan_space(p, strategies, cap);
  // The auctioneer's behaviour space is her seven declaration strategies,
  // variant-tagged onto otherwise-conforming plans (she has no halt/delay
  // ordinals of her own: the contracts confine her to publishing or
  // withholding hashkeys). Enumerated in the historical variant order.
  PartyPlanSpace out;
  out.full_size = 7;
  for (int variant = 0; variant < 7 && out.plans.size() < cap; ++variant) {
    out.plans.push_back(
        DeviationPlan::conforming().with_variant(variant));
  }
  return out;
}

std::string TicketAuctionAdapter::plan_label(
    PartyId p, const DeviationPlan& plan) const {
  if (p == 0) return variant_label(plan.variant());
  return plan.str();
}

std::vector<PartyOutcome> TicketAuctionAdapter::outcomes_from(
    const core::AuctionResult& r, const Schedule& s) const {
  const int variant = s.plans[0].variant();
  const core::AuctioneerStrategy strat = core::auctioneer_of(variant);
  // A bid can count when it is positive and, sealed, within the collateral
  // (the contract refuses a larger reveal). Config only, so every bound
  // term below stays path-determined.
  const auto admissible = [this](Amount bid) {
    return bid > 0 && (!sealed_ || bid <= cfg_.collateral);
  };
  // Liveness: an auction in which no bid can count has no winner to settle
  // for, so its refund-everything settlement is its completion.
  const bool completed =
      r.completed ||
      std::none_of(cfg_.bids.begin(), cfg_.bids.end(), admissible);
  std::vector<PartyOutcome> outcomes;
  outcomes.push_back(
      {"auctioneer", s.plans[0].conforms_within(cfg_.delta), r.auctioneer,
       {}});
  outcomes.back().bound.completed = completed;
  for (std::size_t i = 0; i + 1 < s.plans.size(); ++i) {
    PartyOutcome o{"bidder-" + std::to_string(i + 1),
                   s.plans[i + 1].conforms_within(cfg_.delta), r.bidders[i],
                   {}};
    if (o.payoff.symbol_delta("ticket") > 0) {
      o.bound.goods_received = true;
      o.bound.spend_allowance = cfg_.bids[i];  // never pay above the bid
    } else if (variant != 0 && strat != core::AuctioneerStrategy::kNoSetup &&
               !r.completed && admissible(cfg_.bids[i])) {
      // §9.2: a bidder locked its bid (the auctioneer did set up, so
      // bidding happened) and the deviant auctioneer killed the auction
      // without shipping it tickets — a conforming bidder is owed the
      // premium p. A sealed bid above the collateral is owed nothing: the
      // contract rejects its reveal and refunds the collateral, and only
      // revealed bidders are paid premiums. The floor is attached whether
      // or not the bidder itself conformed: the audit only reads
      // conforming parties' bounds, and keeping every bound term
      // path-determined (variant + run result + config, never the bidder's
      // own plan) is what lets the tree executor serve cached outcomes to
      // schedules differing only in never-consulted plan coordinates.
      o.bound.min_coin_delta = cfg_.premium_unit;
    }
    o.bound.completed = completed;
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// Brokered sale
// ---------------------------------------------------------------------------

std::vector<PartyOutcome> BrokerDealAdapter::outcomes_from(
    const core::BrokerResult& r, const Schedule& s) const {
  // Alice never escrows a principal of her own (§8: she brokers other
  // people's assets), so her hedge floor is breaking even. Bob and Carol
  // are sellers: a locked-and-refunded principal earns at least the base
  // premium p (§8.2's single-round formula compensates every lock-up with
  // at least one premium unit).
  PartyOutcome alice{"alice", s.plans[0].conforms_within(cfg_.delta), r.alice,
                     {}};
  // A seller's lock-up earns the premium floor only when the sale failed
  // for them: principal locked, refunded, AND the counter-asset never
  // arrived. A deviator can strand the two chains half-done — e.g. Carol
  // delaying her relays just past the ticket chain's path deadline while
  // every coin-chain bucket still redeems — leaving Bob with both his
  // refunded tickets and the full purchase price. He is then strictly
  // better off than on completion, so no premium is owed (fuzz-found).
  PartyOutcome bob{"bob", s.plans[1].conforms_within(cfg_.delta), r.bob, {}};
  if (r.bob_lockup > 0 && r.bob.symbol_delta("coin") <= 0) {
    bob.bound.min_coin_delta = cfg_.premium_unit;
  }
  PartyOutcome carol{"carol", s.plans[2].conforms_within(cfg_.delta), r.carol,
                     {}};
  if (r.carol_lockup > 0 && r.carol.symbol_delta("ticket") <= 0) {
    carol.bound.min_coin_delta = cfg_.premium_unit;
  }
  alice.bound.completed = bob.bound.completed = carol.bound.completed =
      r.completed;
  bob.bound.principal_lost = lost_principal(r.bob, "ticket", "coin");
  carol.bound.principal_lost = lost_principal(r.carol, "coin", "ticket");
  return {std::move(alice), std::move(bob), std::move(carol)};
}

// ---------------------------------------------------------------------------
// Bootstrapped premium ladder, geometric or CRR-priced
// ---------------------------------------------------------------------------

BootstrapSwapAdapter::BootstrapSwapAdapter(core::BootstrapConfig cfg,
                                           std::string name)
    : cfg_(std::move(cfg)),
      name_(name.empty()
                ? "bootstrap-ladder-r" + std::to_string(cfg_.rounds)
                : std::move(name)) {
  // Floors from the effective ladder: an unredeemed escrowed principal is
  // refunded together with the rung-1 award on its own chain (§6 FINAL,
  // mirroring §5.2's p_b for Alice). Bob's banana rung-1 carries p_a + p_b,
  // but when both principals were locked, Alice's refund claims the apricot
  // rung-1 that Bob deposited — so his guaranteed net is the difference,
  // exactly the two-party p_a.
  const core::BootstrapSchedule amounts = core::bootstrap_amounts(cfg_);
  alice_floor_ = amounts.apricot[1];
  bob_floor_ = std::max<Amount>(amounts.banana[1] - amounts.apricot[1], 0);
}

std::vector<PartyOutcome> BootstrapSwapAdapter::outcomes_from(
    const core::BootstrapResult& r, const Schedule& s) const {
  PartyOutcome alice{"alice", s.plans[0].conforms_within(cfg_.delta), r.alice,
                     {}};
  if (r.alice_lockup > 0) alice.bound.min_coin_delta = alice_floor_;
  PartyOutcome bob{"bob", s.plans[1].conforms_within(cfg_.delta), r.bob, {}};
  if (r.bob_lockup > 0) bob.bound.min_coin_delta = bob_floor_;
  alice.bound.completed = bob.bound.completed = r.swapped;
  alice.bound.principal_lost = lost_principal(r.alice, "apricot", "banana");
  bob.bound.principal_lost = lost_principal(r.bob, "banana", "apricot");
  return {std::move(alice), std::move(bob)};
}

// ---------------------------------------------------------------------------
// Witness/attestation bridge
// ---------------------------------------------------------------------------

std::vector<PartyOutcome> BridgeAdapter::outcomes_from(
    const core::BridgeResult& r, const Schedule& s) const {
  // Every bound term is path-determined (variant + run result + config,
  // never the party's own plan) — required for tree-executor dedup
  // correctness, same as the auction adapters.
  std::vector<PartyOutcome> out;
  PartyOutcome user{"user", s.plans[0].conforms_within(cfg_.delta),
                    r.payoffs[0], {}};
  if (r.transfer_completed) {
    // The wrapped asset arrived; the witness reward pool is the user's
    // legitimate spend in exchange for it.
    user.bound.goods_received = true;
    user.bound.spend_allowance = cfg_.reward_pool();
  } else if (r.committed && cfg_.hedged()) {
    // Stranded commit (witness stall / quorum failure): the forfeited
    // bonds must cover the eager-reward outlay plus the premium floor.
    user.bound.min_coin_delta = cfg_.premium_unit;
  }
  user.bound.completed = r.transfer_completed;
  out.push_back(std::move(user));
  for (PartyId w = 1; w <= static_cast<PartyId>(cfg_.n_witnesses); ++w) {
    const std::size_t i = static_cast<std::size_t>(w);
    PartyOutcome o{"witness-" + std::to_string(w),
                   s.plans[i].conforms_within(cfg_.delta), r.payoffs[i], {}};
    // On a completed transfer every conforming witness attested in time
    // and collected its reward; otherwise break-even (a conforming
    // witness's bond always returns — its own settle report carries the
    // attester set that clears it).
    if (r.transfer_completed) o.bound.min_coin_delta = cfg_.witness_reward;
    o.bound.completed = r.transfer_completed;
    out.push_back(std::move(o));
  }
  return out;
}

BootstrapSwapAdapter make_two_party_adapter(const core::TwoPartyConfig& cfg) {
  return BootstrapSwapAdapter(core::two_party_ladder(cfg), "hedged-two-party");
}

BootstrapSwapAdapter make_crr_ladder_adapter(core::BootstrapConfig cfg,
                                             const CrrMarket& m) {
  // CRR-prices the single premium rung pair of a one-round ladder: p_b for
  // Alice's principal lock-up, p_a for Bob's, banana rung = p_a + p_b
  // (§5.2). The lock-up windows mirror the two-party deadlines: Alice's
  // principal is at risk for up to 6 Delta ticks, Bob's for 5 Delta.
  cfg.rounds = 1;
  const Amount p_b = std::max<Amount>(
      core::sore_loser_premium(cfg.alice_tokens, m.volatility, m.rate,
                               6 * cfg.delta, m.ticks_per_year),
      1);
  const Amount p_a = std::max<Amount>(
      core::sore_loser_premium(cfg.bob_tokens, m.volatility, m.rate,
                               5 * cfg.delta, m.ticks_per_year),
      1);
  cfg.apricot_premiums = {p_b};
  cfg.banana_premiums = {p_a + p_b};
  return BootstrapSwapAdapter(std::move(cfg), "crr-ladder");
}

}  // namespace xchain::sim
