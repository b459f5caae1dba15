#include "sim/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/crr.hpp"
#include "sim/consult.hpp"

namespace xchain::sim {

namespace {

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
    raw_size_ = 1;
    for (const auto& space : spaces_) raw_size_ *= space.size();
  }

  /// Raw combination count, before any max_deviators filtering.
  std::size_t raw_size() const { return raw_size_; }

  /// The bounded per-party plan lists (index-decoded by make()); the tree
  /// executor's depth-first exploration walks these directly.
  const std::vector<std::vector<DeviationPlan>>& plan_lists() const {
    return spaces_;
  }

  /// Truncation notices from the strategy-space bounds ([] when whole).
  const std::vector<std::string>& truncations() const { return truncations_; }

  /// Decodes raw index `index` into `out`, reusing out's plan storage.
  /// Returns false (leaving `out` unspecified) when the combination
  /// exceeds the deviator budget. Labels are built separately (and only
  /// when needed — per schedule they would dominate the decode cost) via
  /// fill_label().
  bool make(std::size_t index, int max_deviators, Schedule& out,
            bool with_label) const {
    std::size_t rest = index;
    int deviators = 0;
    // Copy-assign into existing plan slots. A clear()-and-push_back loop
    // frees and reallocates every plan's modifier list on every decode;
    // with the tree executor serving most schedules straight from the
    // memo-trie, those per-decode allocations are a measurable slice of
    // the whole sweep loop.
    out.plans.resize(spaces_.size());
    for (std::size_t p = 0; p < spaces_.size(); ++p) {
      const auto& space = spaces_[p];
      const DeviationPlan& plan = space[rest % space.size()];
      rest /= space.size();
      if (!plan.is_conforming()) ++deviators;
      out.plans[p] = plan;
    }
    if (max_deviators >= 0 && deviators > max_deviators) return false;

    if (with_label) {
      fill_label(out);
    } else {
      out.label.clear();
    }
    return true;
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

void sweep_range(const ProtocolAdapter& adapter, const ScheduleSpace& space,
                 int max_deviators, std::size_t begin, std::size_t end,
                 ShardResult& out) {
  Schedule s;
  for (std::size_t i = begin; i < end; ++i) {
    // Decode without the label: on a reused world the label strings would
    // be a large fraction of the per-schedule cost, and the audit only
    // needs them on (rare) violations — fill them in after the fact.
    if (!space.make(i, max_deviators, s, /*with_label=*/false)) continue;
    const std::vector<PartyOutcome> outcomes = adapter.run(s);
    const std::size_t before = out.violations.size();
    out.conforming_audited += audit_schedule(s.label, outcomes, out.violations);
    if (out.violations.size() != before) {
      space.fill_label(s);
      for (std::size_t v = before; v < out.violations.size(); ++v) {
        out.violations[v].schedule = s.label;
        out.violation_raw.push_back(i);
      }
    }
    ++out.schedules_run;
  }
}

/// Fault-attribution pass: every violating schedule re-runs on a
/// *faultless twin* — a clone of the adapter with the environment removed
/// (same config, fresh reliable world). A violation whose party audits
/// clean on the twin was caused by the injected chain faults, not by any
/// deviation, and is flagged fault_caused (it still fails the sweep; see
/// Violation::fault_caused). Violations are rare, so the twin's extra
/// runs are noise next to the sweep itself.
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
      space.make(raw, /*max_deviators=*/-1, s, /*with_label=*/false);
      audit_schedule(s.label, twin->run(s), twin_violations);
      last_raw = raw;
    }
    Violation& violation = report.violations[v];
    bool on_twin = false;
    for (const Violation& tv : twin_violations) {
      if (tv.party == violation.party) {
        on_twin = true;
        break;
      }
    }
    violation.fault_caused = !on_twin;
    if (violation.fault_caused) ++report.fault_caused;
  }
}

/// Prefix-sharing schedule-tree executor (the serial sweep's default
/// engine). One instance drives one adapter's TreeFrame through a whole
/// sweep:
///
///   * every executed run logs the (party, ordinal) plan coordinates it
///     actually consulted (ConsultLog, recorded inside Party::act);
///   * finished runs are memoized in a trie keyed by (engine-variant
///     vector, consulted decisions in consultation order) — a schedule
///     whose trie walk reaches a leaf is, by determinism, guaranteed the
///     cached outcomes without touching the world (a dedup hit);
///   * a schedule that must execute is diffed against the last executed
///     run's consult log: everything before the first divergent consult
///     replays identically, so the executor rewinds the world (layered
///     checkpoint stack, one slot per tick) to that tick and runs only the
///     suffix.
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

  /// Produces the outcomes of the schedule with raw index `raw` (decoded
  /// into `s` by the caller). Dedup hits are the common case and must
  /// cost no allocations and no copies: conformance flags are patched in
  /// place on the leaf's stored outcomes and a reference to them is
  /// returned. After explore() the leaf comes from an O(1) table lookup;
  /// otherwise (filtered sweeps) the memo-trie is walked and a miss
  /// executes the (shared-prefix-skipping) run into `scratch`.
  const std::vector<PartyOutcome>& run_one(std::size_t raw, const Schedule& s,
                                           std::vector<PartyOutcome>& scratch) {
    if (!leaf_of_.empty()) {
      TrieNode* node = leaf_of_[raw];
      patch_conformance(s, node->outcomes);
      return node->outcomes;
    }
    key_.clear();
    for (const DeviationPlan& p : s.plans) key_.push_back(p.variant());
    TrieNode* node = &roots_[key_];
    while (!node->leaf && node->party != kNoParty) {
      const ActionPolicy pol = s.plans[node->party].policy(node->ordinal);
      TrieNode* child = nullptr;
      for (auto& e : node->edges) {
        if (e.first == pol) {
          child = e.second.get();
          break;
        }
      }
      if (!child) break;
      node = child;
    }
    if (node->leaf) {
      patch_conformance(s, node->outcomes);
      return node->outcomes;
    }

    Tick resume = 0;
    if (has_last_ && last_key_ == key_) resume = divergence_tick(s);
    execute(s, resume);
    ++nodes_executed_;
    scratch = adapter_.tree_collect(s);
    memoize(scratch);
    return scratch;
  }

  /// Pre-populates the trie by a depth-first walk of the schedule tree:
  /// every distinct consulted-decision path executes exactly once, and
  /// each path resumes from its branch point (rewind to the branch tick,
  /// run only the new suffix) — so total tick work is proportional to the
  /// size of the TREE, not leaves x horizon. After exploration every
  /// run_one() is a trie hit. Only sound for unfiltered sweeps: a
  /// deviator budget couples parties globally (the count of deviating
  /// plans), which per-branch candidate sets cannot express — filtered
  /// sweeps use the lazy run_one() path instead.
  void explore(const std::vector<std::vector<DeviationPlan>>& lists) {
    lists_ = &lists;
    const std::size_t n = lists.size();
    // Raw-index strides matching ScheduleSpace::make's decode (party 0 is
    // the fastest-varying digit). Every leaf learns the exact set of
    // plan-index combinations it covers, so leaf_of_ maps each raw index
    // straight to its leaf and run_one() never walks the trie again.
    strides_.assign(n, 1);
    std::size_t total = 1;
    for (std::size_t p = 0; p < n; ++p) {
      strides_[p] = total;
      total *= lists[p].size();
    }
    leaf_of_.assign(total, nullptr);
    // Engine-variant classes per party, in first-seen (= enumeration)
    // order. Variants steer engines outside the consultation mechanism,
    // so each cross-product choice of classes is its own tree.
    std::vector<std::vector<std::pair<int, std::vector<int>>>> classes(n);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < lists[p].size(); ++i) {
        const int v = lists[p][i].variant();
        auto it = std::find_if(classes[p].begin(), classes[p].end(),
                               [v](const auto& c) { return c.first == v; });
        if (it == classes[p].end()) {
          classes[p].push_back({v, {}});
          it = std::prev(classes[p].end());
        }
        it->second.push_back(static_cast<int>(i));
      }
    }
    std::vector<std::size_t> pick(n, 0);
    while (true) {
      std::vector<std::vector<int>> cand(n);
      for (std::size_t p = 0; p < n; ++p) {
        cand[p] = classes[p][pick[p]].second;
      }
      dfs(cand, 0, -1);
      std::size_t p = 0;
      for (; p < n; ++p) {
        if (++pick[p] < classes[p].size()) break;
        pick[p] = 0;
      }
      if (p == n) break;
    }
    // The branch partition argument says the leaves' coverage sets tile
    // the whole space; a hole here means a completeness bug, and serving
    // it silently would mis-attribute outcomes.
    for (const TrieNode* node : leaf_of_) {
      if (node == nullptr) {
        throw std::logic_error(
            adapter_.name() +
            ": tree exploration left part of the schedule space uncovered");
      }
    }
  }

 private:
  /// One memo-trie node: the question "which policy does `party`'s plan
  /// give ordinal `ordinal`?", one edge per answer seen so far. Leaves
  /// carry the outcomes of the run that ended there. Roots live in a map
  /// keyed by the schedule's variant vector: variants steer engines
  /// outside the consultation mechanism (the auctioneer's declaration
  /// strategy), so runs under different variants never share nodes.
  struct TrieNode {
    PartyId party = kNoParty;
    int ordinal = -1;
    bool leaf = false;
    std::vector<PartyOutcome> outcomes;
    std::vector<std::pair<ActionPolicy, std::unique_ptr<TrieNode>>> edges;
  };

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

  /// One depth-first exploration step. `cand[p]` lists the indices (into
  /// lists_[p]) of party p's plans compatible with the current path prefix;
  /// each party's representative — the first candidate — executes from tick
  /// `from` (the world holds the prefix state; positions <= from_pos of the
  /// consult log are the prefix and belong to ancestor frames). The run is
  /// memoized, then its NEW consult positions are walked deepest-first: at
  /// each, the consulted party's still-viable candidates are partitioned by
  /// their answer, and every class other than the taken one becomes a child
  /// branch — rewind to the consult's tick, re-run with a representative of
  /// the class, recurse. Deepest-first order keeps every rewind target
  /// inside the shared prefix of the snapshot stack.
  void dfs(const std::vector<std::vector<int>>& cand, Tick from,
           std::ptrdiff_t from_pos) {
    Schedule s;
    s.plans.reserve(cand.size());
    for (std::size_t p = 0; p < cand.size(); ++p) {
      s.plans.push_back(
          (*lists_)[p][static_cast<std::size_t>(cand[p].front())]);
    }
    key_.clear();
    for (const DeviationPlan& pl : s.plans) key_.push_back(pl.variant());
    execute(s, from);
    ++nodes_executed_;
    TrieNode* const leaf = memoize(adapter_.tree_collect(s));

    // Branch exploration rewrites log_, so walk a copy of this run's path.
    const std::vector<ConsultEntry> path = log_.entries();
    // Viability filter: does plan `pl` of `party` agree with every answer
    // the path consulted from that party before position `upto`?
    const auto viable = [&](PartyId party, const DeviationPlan& pl,
                            std::size_t upto) {
      for (std::size_t j = 0; j < upto; ++j) {
        if (path[j].party != party) continue;
        if (pl.policy(path[j].ordinal) != path[j].pol) return false;
      }
      return true;
    };

    // This leaf serves exactly the cross-product of each party's
    // candidates that agree with the complete path — record it so
    // run_one() resolves raw indices with one table load. (Distinct
    // leaves differ at their first divergent consulted answer, so the
    // sets written here never collide.)
    {
      std::vector<std::vector<int>> covered(cand.size());
      for (std::size_t p = 0; p < cand.size(); ++p) {
        for (const int idx : cand[p]) {
          if (viable(static_cast<PartyId>(p),
                     (*lists_)[p][static_cast<std::size_t>(idx)],
                     path.size())) {
            covered[p].push_back(idx);
          }
        }
      }
      std::vector<std::size_t> at(cand.size(), 0);
      while (true) {
        std::size_t raw = 0;
        for (std::size_t p = 0; p < cand.size(); ++p) {
          raw += static_cast<std::size_t>(covered[p][at[p]]) * strides_[p];
        }
        leaf_of_[raw] = leaf;
        std::size_t p = 0;
        for (; p < cand.size(); ++p) {
          if (++at[p] < covered[p].size()) break;
          at[p] = 0;
        }
        if (p == cand.size()) break;
      }
    }
    for (std::size_t i = path.size(); i-- > 0;) {
      if (static_cast<std::ptrdiff_t>(i) <= from_pos) break;
      const ConsultEntry& e = path[i];
      const auto& plans = (*lists_)[e.party];
      std::vector<int> pool;
      for (const int idx : cand[e.party]) {
        if (viable(e.party, plans[static_cast<std::size_t>(idx)], i)) {
          pool.push_back(idx);
        }
      }
      std::vector<ActionPolicy> seen{e.pol};
      for (const int idx : pool) {
        const ActionPolicy alt =
            plans[static_cast<std::size_t>(idx)].policy(e.ordinal);
        if (std::find(seen.begin(), seen.end(), alt) != seen.end()) continue;
        seen.push_back(alt);
        std::vector<std::vector<int>> nc(cand.size());
        for (std::size_t q = 0; q < cand.size(); ++q) {
          if (q == static_cast<std::size_t>(e.party)) {
            for (const int pi : pool) {
              if (plans[static_cast<std::size_t>(pi)].policy(e.ordinal) ==
                  alt) {
                nc[q].push_back(pi);
              }
            }
          } else {
            for (const int qi : cand[q]) {
              if (viable(static_cast<PartyId>(q),
                         (*lists_)[q][static_cast<std::size_t>(qi)], i)) {
                nc[q].push_back(qi);
              }
            }
          }
        }
        dfs(nc, e.tick, static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  /// First tick at which `s` answers a consulted coordinate differently
  /// from the last executed run — the resume point. No divergence cannot
  /// happen on a trie miss (identical consulted answers would have reached
  /// the leaf); replay in full if it somehow does.
  Tick divergence_tick(const Schedule& s) const {
    for (const ConsultEntry& e : log_.entries()) {
      if (s.plans[e.party].policy(e.ordinal) != e.pol) return e.tick;
    }
    return 0;
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
      // their answers agree with `s` by choice of the resume point.
      log_.begin_resumed_run(resume);
    }
    const bool with_hash = verifying();
    for (Tick t = resume; t < frame_.horizon; ++t) {
      if (frame_.chains->snap_depth() <= static_cast<std::size_t>(t)) {
        push_slot(t, with_hash);
      }
      for (Party* p : frame_.actors) p->tick(*frame_.chains, t);
      frame_.chains->produce_all(t);
    }
    last_key_ = key_;
    has_last_ = true;
  }

  /// Records the just-executed run in the trie (returning its leaf),
  /// verifying determinism: runs sharing a decision prefix must consult
  /// the same coordinate next.
  TrieNode* memoize(const std::vector<PartyOutcome>& out) {
    TrieNode* node = &roots_[key_];
    for (const ConsultEntry& e : log_.entries()) {
      if (node->leaf ||
          (node->party != kNoParty &&
           (node->party != e.party || node->ordinal != e.ordinal))) {
        throw std::logic_error(
            adapter_.name() +
            ": tree executor consult sequence diverged between runs "
            "sharing a decision prefix — engine is not deterministic in "
            "its consulted plan coordinates");
      }
      node->party = e.party;
      node->ordinal = e.ordinal;
      TrieNode* child = nullptr;
      for (auto& edge : node->edges) {
        if (edge.first == e.pol) {
          child = edge.second.get();
          break;
        }
      }
      if (!child) {
        node->edges.emplace_back(e.pol, std::make_unique<TrieNode>());
        child = node->edges.back().second.get();
      }
      node = child;
    }
    if (node->party != kNoParty || node->leaf) {
      throw std::logic_error(
          adapter_.name() +
          ": tree executor run consulted a strict prefix of an earlier "
          "run with equal answers — engine is not deterministic");
    }
    node->leaf = true;
    node->outcomes = out;
    return node;
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
  std::map<std::vector<int>, TrieNode> roots_;
  const std::vector<std::vector<DeviationPlan>>* lists_ = nullptr;
  std::vector<TrieNode*> leaf_of_;  ///< raw index -> leaf, after explore()
  std::vector<std::size_t> strides_;  ///< raw-index stride per party
  std::vector<std::uint64_t> hashes_;  ///< world hash per snapshot slot
  std::size_t hashed_to_ = 0;  ///< leading slots whose hashes are fresh
  std::vector<int> key_;               ///< current schedule's variant vector
  std::vector<int> last_key_;          ///< last executed run's variant vector
  bool has_last_ = false;
  std::size_t nodes_executed_ = 0;
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
  Schedule s;
  for (std::size_t i = 0; i < space.raw_size(); ++i) {
    if (space.make(i, opts.max_deviators, s, /*with_label=*/true)) {
      schedules.push_back(std::move(s));
    }
  }
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
  Schedule s;
  for (std::size_t i = 0; i < space.raw_size(); ++i) {
    if (space.make(i, opts.max_deviators, s, /*with_label=*/false)) ++count;
  }
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
  unsigned threads = opts.threads != 0
                         ? opts.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  // Spawning a worker only pays for itself over a batch of schedules:
  // clamp so each worker gets at least ~16, degrading small spaces toward
  // the serial path instead of paying thread/clone overhead for microwork.
  constexpr std::size_t kMinSchedulesPerWorker = 16;
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads,
      std::max<std::size_t>(space.raw_size() / kMinSchedulesPerWorker, 1)));
  report.workers = threads;

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
  const bool use_tree =
      opts.executor == SweepExecutor::kTree ||
      (opts.executor == SweepExecutor::kAuto && threads <= 1 && tree_capable);

  if (use_tree) {
    // The tree executor is inherently serial (one world, one snapshot
    // stack); kTree overrides any thread request.
    report.workers = 1;
    TreeExecutor exec(adapter_, *adapter_.tree_frame());
    // Unfiltered sweeps pre-populate the trie depth-first (each distinct
    // decision path executes once, from its branch point); the schedule
    // loop below then only audits trie hits. A deviator budget couples
    // parties globally, so filtered sweeps skip exploration and let
    // run_one() execute lazily instead.
    if (opts.max_deviators < 0 && space.raw_size() > 0) {
      exec.explore(space.plan_lists());
    }
    Schedule s;
    std::vector<PartyOutcome> scratch;
    for (std::size_t i = 0; i < space.raw_size(); ++i) {
      if (!space.make(i, opts.max_deviators, s, /*with_label=*/false)) {
        continue;
      }
      const std::vector<PartyOutcome>& outcomes = exec.run_one(i, s, scratch);
      const std::size_t before = report.violations.size();
      report.conforming_audited +=
          audit_schedule(s.label, outcomes, report.violations);
      if (report.violations.size() != before) {
        space.fill_label(s);
        for (std::size_t v = before; v < report.violations.size(); ++v) {
          report.violations[v].schedule = s.label;
        }
      }
      ++report.schedules_run;
    }
    report.nodes_executed = exec.nodes_executed();
    report.dedup_hits = report.schedules_run - report.nodes_executed;
    report.schedules_covered = report.schedules_run;
    return report;
  }

  if (threads <= 1) {
    ShardResult all;
    sweep_range(adapter_, space, opts.max_deviators, 0, space.raw_size(),
                all);
    report.schedules_run = all.schedules_run;
    report.conforming_audited = all.conforming_audited;
    report.violations = std::move(all.violations);
    report.nodes_executed = report.schedules_run;
    report.schedules_covered = report.schedules_run;
    if (env_active) {
      attribute_faults(adapter_, space, all.violation_raw, report);
    }
    return report;
  }

  // Contiguous raw-index shards, several per worker so uneven
  // per-schedule run costs balance out; workers claim shards through an
  // atomic cursor and decode each index on the fly (constant memory).
  // Merging in shard order reproduces the serial enumeration order
  // exactly, so the report is bit-identical to the serial path's whatever
  // the thread count or claiming order.
  const std::size_t shard_count =
      std::min(space.raw_size(), static_cast<std::size_t>(threads) * 8);
  std::vector<ShardResult> shards(shard_count);
  std::atomic<std::size_t> next_shard{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        // A private engine per worker: chains built by run() are stateful,
        // and a future adapter may keep per-run scratch state on itself.
        const std::unique_ptr<ProtocolAdapter> engine = adapter_.clone();
        const ScheduleSpace worker_space(*engine, opts.strategies);
        for (std::size_t shard = next_shard.fetch_add(1);
             shard < shard_count; shard = next_shard.fetch_add(1)) {
          const std::size_t begin = shard * space.raw_size() / shard_count;
          const std::size_t end =
              (shard + 1) * space.raw_size() / shard_count;
          sweep_range(*engine, worker_space, opts.max_deviators, begin, end,
                      shards[shard]);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

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
  report.nodes_executed = report.schedules_run;
  report.schedules_covered = report.schedules_run;
  if (env_active) {
    // The twin runs serially on the caller's adapter clone: violations are
    // rare, and a deterministic single-threaded pass keeps the report
    // byte-identical whatever the worker count.
    attribute_faults(adapter_, space, violation_raw, report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Two-party swap
// ---------------------------------------------------------------------------

std::vector<PartyOutcome> TwoPartySwapAdapter::outcomes_from(
    const core::TwoPartyResult& r, const Schedule& s) const {
  PartyOutcome alice{"alice", s.plans[0].conforms_within(cfg_.delta), r.alice,
                     {}};
  if (r.alice_lockup > 0) alice.bound.min_coin_delta = cfg_.premium_b;
  PartyOutcome bob{"bob", s.plans[1].conforms_within(cfg_.delta), r.bob, {}};
  if (r.bob_lockup > 0) bob.bound.min_coin_delta = cfg_.premium_a;
  alice.bound.completed = bob.bound.completed = r.swapped;
  alice.bound.principal_lost = lost_principal(r.alice, "apricot", "banana");
  bob.bound.principal_lost = lost_principal(r.bob, "banana", "apricot");
  return {std::move(alice), std::move(bob)};
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
  std::vector<PartyOutcome> outcomes;
  outcomes.push_back(
      {"auctioneer", s.plans[0].conforms_within(cfg_.delta), r.auctioneer,
       {}});
  outcomes.back().bound.completed = r.completed;
  for (std::size_t i = 0; i + 1 < s.plans.size(); ++i) {
    PartyOutcome o{"bidder-" + std::to_string(i + 1),
                   s.plans[i + 1].conforms_within(cfg_.delta), r.bidders[i],
                   {}};
    if (o.payoff.symbol_delta("ticket") > 0) {
      o.bound.goods_received = true;
      o.bound.spend_allowance = cfg_.bids[i];  // never pay above the bid
    } else if (variant != 0 && strat != core::AuctioneerStrategy::kNoSetup &&
               !r.completed && cfg_.bids[i] > 0 &&
               (!sealed_ || cfg_.bids[i] <= cfg_.collateral)) {
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
    o.bound.completed = r.completed;
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
