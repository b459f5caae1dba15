#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/schnorr.hpp"
#include "sim/consult.hpp"
#include "sim/deviation.hpp"

namespace xchain::sim {

class Party;

/// Deferred chain mutations, the load generator's determinism seam. When a
/// party carries a TxSink, everything it would do to a chain — submit a
/// transaction, bump a pending fee — is recorded here instead of applied,
/// and the chains stay strictly read-only while the party ticks. The load
/// scheduler ticks instance shards on worker threads (reads race-free by
/// construction), then drains each instance's sink serially in instance-id
/// order, so submission ordinals — and therefore fee-tie ordering, block
/// selection, and every downstream audit — are identical at any thread
/// count. Drained submissions patch their real ids back into the party's
/// outstanding set (Party::resolve_submission).
class TxSink {
 public:
  void clear() {
    submits_.clear();
    bumps_.clear();
  }
  bool empty() const { return submits_.empty() && bumps_.empty(); }

  /// Applies every recorded mutation in record order, then clears.
  /// Returns the number of transactions it submitted.
  std::size_t drain();

 private:
  friend class Party;
  struct DeferredSubmit {
    chain::Blockchain* bc;
    chain::Transaction tx;
    Party* party;          ///< null for untracked fire-and-forget traffic
    std::size_t slot;      ///< outstanding_ index to patch with the real id
  };
  struct DeferredBump {
    chain::Blockchain* bc;
    std::uint64_t id;
    Amount fee;
  };
  std::vector<DeferredSubmit> submits_;
  std::vector<DeferredBump> bumps_;
};

/// An active protocol participant. Parties are the only *active* entities
/// in the model (paper §3.1): once per tick they observe public chain state
/// and submit transactions; contracts do the rest.
///
/// Every party carries a DeviationPlan. Engine code marks each scheduled
/// action's decision point with act(): the plan then performs the action
/// immediately, queues it `delay` ticks into the future (the Scheduler
/// flushes the queue, via tick(), before the party's next step()), or
/// drops it — so halting, timely lateness, and past-deadline
/// timing-griefing all flow through one per-ordinal mechanism instead of
/// per-engine strategy enums.
///
/// Parties persist for their world's lifetime: each schedule installs a
/// new plan with set_plan(), and their mutable state rides the world's
/// snapshot stack (snapshot() below), so a rewind to the post-setup slot
/// restores every actor with the chains. Acting sits on the sweep hot
/// path: key pairs come from the process-wide keygen cache, the submit()
/// helper below builds trace notes only on chains that actually record
/// them, and the conforming fast path of act() adds no allocation over a
/// direct submit.
class Party {
 public:
  Party(PartyId id, std::string name)
      : id_(id), name_(std::move(name)), keys_(crypto::keygen_cached(name_)) {}
  Party(PartyId id, std::string name, DeviationPlan plan)
      : id_(id),
        name_(std::move(name)),
        keys_(crypto::keygen_cached(name_)),
        plan_(std::move(plan)) {}
  virtual ~Party() = default;

  Party(const Party&) = delete;
  Party& operator=(const Party&) = delete;

  PartyId id() const { return id_; }
  const std::string& name() const { return name_; }
  const crypto::KeyPair& keys() const { return keys_; }
  const DeviationPlan& plan() const { return plan_; }
  chain::Address address() const { return chain::Address::party(account_id()); }

  /// The party's on-chain identity: its protocol-local id offset by the
  /// instance's account base. Private-world protocols keep base 0, where
  /// account_id() == id(); instances bound to a shared MultiChain get
  /// disjoint base ranges so ledger rows and tx senders never collide
  /// across instances while vertex/ordinal logic keeps the local id.
  PartyId account_id() const { return account_base_ + id_; }
  PartyId account_base() const { return account_base_; }
  void set_account_base(PartyId base) { account_base_ = base; }

  /// Attaches (or detaches, with null) the deferred-submission sink — see
  /// TxSink. While attached, this party never mutates a chain directly.
  void set_tx_sink(TxSink* sink) { sink_ = sink; }

  /// Patches the real submission id into an outstanding entry once the
  /// sink drains its deferred submit (TxSink::drain).
  void resolve_submission(std::size_t slot, std::uint64_t id) {
    outstanding_.at(slot).id = id;
  }

  /// One scheduler tick: outstanding (submitted-but-unconfirmed)
  /// transactions are serviced per the chain's ResiliencePolicy, delayed
  /// actions that have come due are submitted next (in the order they
  /// were decided), then the party observes and acts. Called by the
  /// Scheduler; engines override step(), not this.
  void tick(chain::MultiChain& chains, Tick now) {
    now_ = now;
    if (!outstanding_.empty()) service_outstanding(chains, now);
    if (!pending_.empty()) flush_due(chains, now);
    step(chains, now);
  }

  /// Observe-and-act hook, called once per tick before block production.
  /// Transactions submitted here are applied in this tick's blocks.
  virtual void step(chain::MultiChain& chains, Tick now) = 0;

  /// Swaps in a new deviation plan (actors are built once per world and
  /// re-planned per schedule).
  void set_plan(DeviationPlan plan) { plan_ = std::move(plan); }

  /// Points act() at the executor's consultation log (null — the default —
  /// records nothing and costs one branch).
  void set_consult_log(ConsultLog* log) { consults_ = log; }

  /// Snapshot-stack hook, mirroring chain::Contract::snapshot: actors of
  /// reused worlds derive from chain::SnapshotState<Self, Party> and list
  /// their mutable members in state_tie() (the base's pending-action queue
  /// is handled here). The default throws so a stateful actor class that
  /// never opted in fails loudly instead of leaking state across runs.
  virtual void snapshot(chain::SnapshotOp op, std::size_t depth) {
    (void)op;
    (void)depth;
    throw std::logic_error(
        "Party::snapshot: party does not support checkpoint stacking "
        "(derive from chain::SnapshotState<Self, Party> and list mutable "
        "members in state_tie())");
  }

  /// Mixes this party's mutable state into the rewind integrity hash.
  virtual void state_hash(std::uint64_t& h) const { state_hash_members(h); }

 protected:
  /// Decision point for the scheduled action `ordinal`, to be reached when
  /// (and only when) the action's guard first holds. Applies the party's
  /// plan: Perform runs `perform(chains)` immediately, Delay(d) queues it
  /// for tick now + d (saturating: a delay past the last tick never comes
  /// due), Drop discards it. Returns false only for Drop, so
  /// callers can distinguish "will happen" from "never will"; either way
  /// the decision is made exactly once — callers flip their did-flags
  /// regardless of the result.
  template <class Fn, class = std::enable_if_t<
                          std::is_invocable_v<Fn&, chain::MultiChain&>>>
  bool act(chain::MultiChain& chains, Tick now, int ordinal, Fn&& perform) {
    const ActionPolicy pol = plan_.policy(ordinal);
    if (consults_) consults_->record(id_, ordinal, pol, now);
    if (pol.choice == ActionChoice::kDrop) return false;
    if (pol.choice == ActionChoice::kDelay && pol.delay > 0) {
      constexpr Tick kNever = std::numeric_limits<Tick>::max();
      const Tick due = pol.delay > kNever - now ? kNever : now + pol.delay;
      pending_.push_back({due, std::forward<Fn>(perform)});
      return true;
    }
    perform(chains);
    return true;
  }

  /// Submits `effect` to `chain` signed by this party. The trace note
  /// ("<name>: <what>") is only materialized when the chain traces —
  /// sweep runs at TraceMode::kOff never touch the strings.
  void submit(chain::MultiChain& chains, ChainId chain, const char* what,
              std::function<void(chain::TxContext&)> effect) const {
    chain::Blockchain& bc = chains.at(chain);
    chain::Transaction tx;
    tx.sender = account_id();
    if (bc.tracing()) tx.note = name_ + ": " + what;
    tx.effect = std::move(effect);
    dispatch(bc, std::move(tx));
  }

  /// Same, for labels that are themselves costly to build: `label` (any
  /// callable returning a string) only runs on traced chains.
  template <class LabelFn,
            class = std::enable_if_t<std::is_invocable_v<LabelFn&>>>
  void submit(chain::MultiChain& chains, ChainId chain, LabelFn&& label,
              std::function<void(chain::TxContext&)> effect) const {
    chain::Blockchain& bc = chains.at(chain);
    chain::Transaction tx;
    tx.sender = account_id();
    if (bc.tracing()) tx.note = name_ + ": " + label();
    tx.effect = std::move(effect);
    dispatch(bc, std::move(tx));
  }

  /// SnapshotState hooks for the base's own mutable state: the pending
  /// (delayed) action queue and the outstanding (resilience-tracked)
  /// submissions. The queued closures snapshot by value — they capture
  /// plain data — and hash by due-tick (the closure bodies are determined
  /// by the decision that queued them, which the due tick and queue
  /// position pin down); outstanding entries hash by their scalar fields
  /// for the same reason.
  void snapshot_members(chain::SnapshotOp op, std::size_t depth) {
    pending_stack_.apply(op, depth, std::tie(pending_));
    outstanding_stack_.apply(op, depth, std::tie(outstanding_));
  }
  void state_hash_members(std::uint64_t& h) const {
    chain::state_hash_mix(h, pending_.size());
    for (const Pending& p : pending_) {
      chain::state_hash_mix(h, static_cast<std::uint64_t>(p.due));
    }
    chain::state_hash_mix(h, outstanding_.size());
    for (const Outstanding& o : outstanding_) {
      chain::state_hash_mix(h, o.id);
      chain::state_hash_mix(h, static_cast<std::uint64_t>(o.chain));
      chain::state_hash_mix(h, static_cast<std::uint64_t>(o.decided));
    }
  }

 private:
  struct Pending {
    Tick due;
    std::function<void(chain::MultiChain&)> fn;
  };

  /// One fire-and-watch submission (any active ResiliencePolicy): enough
  /// to resubmit the identical payload if the chain drops or evicts it.
  struct Outstanding {
    std::uint64_t id = 0;  ///< current submission id on the chain
    ChainId chain = 0;
    Tick decided = 0;  ///< tick of the first submission (escalation base)
    std::string note;
    std::function<void(chain::TxContext&)> effect;
  };

  /// Hands a fully built transaction to the chain — or, with a TxSink
  /// attached, records it for the serial merge phase. Under an active
  /// ResiliencePolicy the submission is tracked and remembered for
  /// servicing; the naive policy is the historical fire-and-forget.
  void dispatch(chain::Blockchain& bc, chain::Transaction tx) const {
    const chain::ResiliencePolicy& pol = bc.resilience();
    if (!pol.active()) {
      if (sink_) {
        sink_->submits_.push_back({&bc, std::move(tx), nullptr, 0});
      } else {
        bc.submit(std::move(tx));
      }
      return;
    }
    tx.track = true;
    tx.fee = pol.fee_at(now_, now_);
    Outstanding o;
    o.chain = bc.id();
    o.decided = now_;
    o.note = tx.note;
    o.effect = tx.effect;  // copy; the original moves into the mempool
    if (sink_) {
      outstanding_.push_back(std::move(o));  // id patched at drain
      sink_->submits_.push_back({&bc, std::move(tx),
                                 const_cast<Party*>(this),
                                 outstanding_.size() - 1});
    } else {
      o.id = bc.submit(std::move(tx));
      outstanding_.push_back(std::move(o));
    }
  }

  /// Reacts to the fate of tracked submissions: confirmed entries are
  /// forgotten, dropped/evicted ones are resubmitted (at an escalated fee
  /// under kFeeEscalate), and still-pending ones get their priority
  /// bumped as the deadline nears. Runs before flush_due so a resubmission
  /// decided this tick still lands in this tick's block.
  void service_outstanding(chain::MultiChain& chains, Tick now) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding_.size(); ++i) {
      Outstanding& o = outstanding_[i];
      chain::Blockchain& bc = chains.at(o.chain);
      const chain::ResiliencePolicy& pol = bc.resilience();
      bool keep = true;
      switch (bc.tx_status(o.id)) {
        case chain::TxStatus::kIncluded:
        case chain::TxStatus::kUnknown:
          keep = false;  // confirmed (or statuses were reset: stale entry)
          break;
        case chain::TxStatus::kPending:
          if (pol.kind == chain::ResiliencePolicy::Kind::kFeeEscalate) {
            const Amount fee = pol.fee_at(o.decided, now);
            if (sink_) {
              sink_->bumps_.push_back({&bc, o.id, fee});
            } else {
              bc.bump_fee(o.id, fee);
            }
          }
          break;
        case chain::TxStatus::kDropped:
        case chain::TxStatus::kEvicted: {
          chain::Transaction tx;
          tx.sender = account_id();
          tx.note = o.note;
          tx.effect = o.effect;
          tx.fee = pol.fee_at(o.decided, now);
          tx.track = true;
          if (sink_) {
            // The entry survives compaction at index `kept`; the real id
            // lands there when the sink drains.
            sink_->submits_.push_back({&bc, std::move(tx), this, kept});
          } else {
            o.id = bc.submit(std::move(tx));
          }
          break;
        }
      }
      if (keep) {
        if (kept != i) outstanding_[kept] = std::move(outstanding_[i]);
        ++kept;
      }
    }
    outstanding_.resize(kept);
  }

  void flush_due(chain::MultiChain& chains, Tick now) {
    // Due actions run in decision order; the queue is tiny (one entry per
    // delayed ordinal of one party), so compaction beats cleverness.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].due <= now) {
        pending_[i].fn(chains);
      } else {
        if (kept != i) pending_[kept] = std::move(pending_[i]);
        ++kept;
      }
    }
    pending_.resize(kept);
  }

  PartyId id_;
  std::string name_;
  const crypto::KeyPair& keys_;
  PartyId account_base_ = 0;
  TxSink* sink_ = nullptr;
  DeviationPlan plan_;
  std::vector<Pending> pending_;
  ConsultLog* consults_ = nullptr;
  chain::TieStack<std::vector<Pending>> pending_stack_;
  /// Tick being executed — set by tick() so the const submit() helpers
  /// can stamp decision times; 0 covers setup-phase submissions.
  Tick now_ = 0;
  /// Mutable because submissions happen inside const engine helpers; the
  /// tracked set is logically bookkeeping about an already-made decision.
  mutable std::vector<Outstanding> outstanding_;
  chain::TieStack<std::vector<Outstanding>> outstanding_stack_;
};

inline std::size_t TxSink::drain() {
  const std::size_t submitted = submits_.size();
  for (DeferredSubmit& s : submits_) {
    const std::uint64_t id = s.bc->submit(std::move(s.tx));
    if (s.party) s.party->resolve_submission(s.slot, id);
  }
  // Bumps commute with the submissions above (max-of-fees on ids from
  // earlier ticks), so relative order between the two lists is free.
  for (const DeferredBump& b : bumps_) {
    b.bc->bump_fee(b.id, b.fee);
  }
  clear();
  return submitted;
}

}  // namespace xchain::sim
