#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chain/address.hpp"
#include "chain/event.hpp"
#include "chain/fault.hpp"
#include "chain/ledger.hpp"
#include "chain/snapshot.hpp"
#include "common/types.hpp"

namespace xchain::chain {

class Blockchain;

/// How much human-readable trace a chain records. Sweep runs execute
/// millions of transactions whose traces nobody reads; kOff stops the
/// per-transaction string traffic (event logs and submit-site note labels)
/// without touching protocol behaviour. Tests and examples keep kFull.
enum class TraceMode : std::uint8_t { kFull, kOff };

/// Execution context handed to contract code while a transaction (or the
/// per-block timeout sweep) runs. It exposes *only this chain's* state —
/// contracts cannot observe other chains (paper §3.1); cross-chain
/// information travels exclusively via parties re-submitting it.
class TxContext {
 public:
  /// Height of the block being produced.
  Tick now() const { return now_; }

  /// The party that signed the transaction (kNoParty during the timeout
  /// sweep, which models anyone triggering an expired refund).
  PartyId sender() const { return sender_; }

  ChainId chain_id() const;

  /// Mutable same-chain balance book.
  Ledger& ledger();

  /// The chain's native currency symbol (used for premiums).
  const Symbol& native() const;

  /// Interned handle for the native symbol — the hot-path spelling.
  SymbolId native_id() const;

  /// False when the chain runs traceless (TraceMode::kOff): callers should
  /// skip building emit() arguments entirely.
  bool tracing() const;

  /// Appends to the chain's public event log (no-op when traceless).
  void emit(ContractId contract, std::string kind, std::string detail = "");

 private:
  friend class Blockchain;
  TxContext(Blockchain& bc, PartyId sender, Tick now)
      : bc_(bc), sender_(sender), now_(now) {}

  Blockchain& bc_;
  PartyId sender_;
  Tick now_;
};

/// A signed transaction: a deterministic state transition applied when the
/// next block is produced. The closure body is the "contract call payload";
/// it invokes typed methods on contract objects, which validate sender,
/// amounts, and deadlines themselves.
struct Transaction {
  PartyId sender = kNoParty;
  std::string note;  ///< trace label, e.g. "alice: escrow principal"
  std::function<void(TxContext&)> effect;
  /// Inclusion priority under a capacity squeeze (FaultPlan). Fees are
  /// *virtual*: they order block selection but are never debited, so the
  /// audit's conservation invariant is untouched. Higher wins; ties break
  /// by submission order (older first).
  Amount fee = 0;
  /// Record an inclusion/drop/eviction status for this tx (resilient
  /// parties set this so they can observe and react; anonymous protocol
  /// traffic stays untracked and free).
  bool track = false;
  /// @{ Internal, assigned by Blockchain::submit — leave defaulted.
  std::uint64_t seq = 0;  ///< chain-wide submission ordinal (per run)
  bool fresh = true;      ///< submitted since the last produced block
  /// @}
};

/// Lifecycle of a tracked transaction (Transaction::track).
enum class TxStatus : std::uint8_t {
  kUnknown,   ///< never tracked on this chain (or since rewound)
  kPending,   ///< sitting in the mempool
  kIncluded,  ///< applied in a produced block
  kDropped,   ///< discarded by a seeded submission-drop fault
  kEvicted,   ///< pushed out of a bounded mempool by higher-fee traffic
};

/// Base class for blockchain-resident programs (paper §3.1: passive,
/// public, deterministic, trusted). Derived classes expose typed methods
/// that require a TxContext&, so their state can only change inside block
/// production.
class Contract {
 public:
  Contract() = default;
  virtual ~Contract() = default;

  Contract(const Contract&) = delete;
  Contract& operator=(const Contract&) = delete;

  ContractId id() const { return id_; }
  ChainId chain_id() const { return chain_; }

  /// The contract's escrow account.
  Address address() const { return Address::contract(id_); }

  /// The timeout sweep, run after a block's transactions are applied.
  /// Contracts process expired timelocks here (refunds, premium awards) —
  /// modelling the convention that the entitled party always triggers an
  /// expired refund, which is their dominant strategy. The chain calls it
  /// only in blocks where one of timeouts() came due — once, however many
  /// did — so it must change state only there. Debug builds call it in
  /// every block and throw if a call the chain would have skipped changed
  /// state_hash() or emitted an event.
  virtual void on_block(TxContext& ctx) { (void)ctx; }

  /// The deadlines on_block compares against, read once at deploy: a
  /// timeout d comes due in the first produced block past d (the first
  /// block after deploy, if d had already passed). A superset is harmless;
  /// the default (none) suits contracts without a sweep.
  virtual std::vector<Tick> timeouts() const { return {}; }

  /// Snapshot-stack hook (Blockchain::snap_push/snap_rewind): the only
  /// way a contract's state rolls back, whether a reused world rewinds to
  /// its post-setup slot 0 or the tree executor to a mid-run tick.
  /// Contract implementers: derive from chain::SnapshotState<Self> instead
  /// of Contract directly and list every mutable member in state_tie();
  /// pure caches of deterministic computation may stay out. The default
  /// throws: a stateful contract that never opted in must fail loudly on
  /// a rewound world, never silently carry state across runs.
  virtual void snapshot(SnapshotOp op, std::size_t depth) {
    (void)op;
    (void)depth;
    throw std::logic_error(
        "Contract::snapshot: contract does not support checkpoint "
        "stacking (derive from chain::SnapshotState and list mutable "
        "members in state_tie())");
  }

  /// Mixes this contract's mutable state into the rewind integrity hash.
  /// Provided by SnapshotState from the same state_tie().
  virtual void state_hash(std::uint64_t& h) const { (void)h; }

  /// The contract's claimed deadline ladder, in scheduled-step order, for
  /// Scheduler::validate_deadlines: consecutive entries (and the first
  /// entry, measured from tick 0) must sit >= Delta apart, the spacing the
  /// timing contract's "Delta-1 delays are always timely" guarantee rests
  /// on. Contracts making no sequential-spacing claim (e.g. the base
  /// §5.1 HTLC, whose coinciding timelocks are the paper's deliberate
  /// vulnerability) return the default empty ladder.
  virtual std::vector<Tick> deadline_schedule() const { return {}; }

 protected:
  /// SnapshotState hook for base-class mutable members (none here).
  void snapshot_members(SnapshotOp, std::size_t) {}
  void state_hash_members(std::uint64_t&) const {}

 private:
  friend class Blockchain;
  ContractId id_ = 0;
  ChainId chain_ = 0;
};

/// One simulated blockchain: a ledger, a contract registry, a mempool, and
/// an event log. Blocks are produced by the simulation scheduler at every
/// tick; a transaction submitted during tick t is included in block t and
/// visible to all parties from tick t+1 on.
class Blockchain {
 public:
  /// Observer invoked once per applied transaction (chain id, signer,
  /// block height). An external instrument — not chain state: snapshots
  /// leave it untouched. The load generator uses it to map
  /// inclusions back to protocol instances for latency percentiles.
  using InclusionObserver = std::function<void(ChainId, PartyId, Tick)>;

  Blockchain(ChainId id, std::string name, Symbol native);

  ChainId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Symbol& native() const { return native_; }
  SymbolId native_id() const { return native_id_; }

  TraceMode trace() const { return trace_; }
  void set_trace(TraceMode mode) { trace_ = mode; }
  bool tracing() const { return trace_ == TraceMode::kFull; }

  /// Read-only ledger view (public state).
  const Ledger& ledger() const { return ledger_; }

  /// Setup-only mutable ledger access for minting initial endowments.
  Ledger& ledger_for_setup() { return ledger_; }

  /// Height of the most recently produced block (-1 before the first).
  Tick height() const { return height_; }

  /// Public event log.
  const EventLog& events() const { return events_; }

  /// Queues a transaction for the next block and returns its submission
  /// id (the handle tx_status()/bump_fee() key on when tx.track is set).
  /// Throws std::logic_error on a halted or finalized chain — submitting
  /// past the end of the simulated timeline is a caller bug, never a
  /// silent no-op.
  std::uint64_t submit(Transaction tx);

  /// Status of a tracked submission (TxStatus::kUnknown for untracked
  /// ids or after a snap_rewind()).
  TxStatus tx_status(std::uint64_t id) const;

  /// Raises a pending tracked transaction's fee to max(current, fee);
  /// returns false when the tx is no longer in the mempool.
  bool bump_fee(std::uint64_t id, Amount fee);

  /// Permanently stops the chain: produce_block becomes invalid and
  /// submit throws. Models an operator-level chain death (distinct from a
  /// FaultPlan outage, which parties may keep submitting through).
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  /// Marks the simulated timeline complete: submit throws from here on.
  /// Runs call this after their final tick; snap_rewind() re-opens the
  /// chain.
  void finalize() { finalized_ = true; }
  bool finalized() const { return finalized_; }

  /// Installs this chain's compiled fault clauses (empty = the reliable
  /// fast path, byte-identical to the historical substrate).
  void set_faults(ChainFaults faults) { faults_ = std::move(faults); }
  const ChainFaults& faults() const { return faults_; }

  /// The resubmission policy parties on this chain should follow (the
  /// chain is just the carrier: MultiChain::set_environment fans the
  /// world's policy out here so party code can read it per submission).
  void set_resilience(const ResiliencePolicy& policy) { resilience_ = policy; }
  const ResiliencePolicy& resilience() const { return resilience_; }

  /// Number of transactions applied since the chain was built (rewound
  /// with the snapshot stack, so reused worlds report per-run counts).
  std::size_t applied_tx_count() const { return applied_tx_count_; }

  /// Installs (or clears, with an empty function) the per-inclusion
  /// observer. At most one; the previous observer is replaced.
  void set_inclusion_observer(InclusionObserver obs) {
    on_included_ = std::move(obs);
  }

  /// Deployed-contract introspection (Scheduler::validate_deadlines).
  /// contract_count() counts every slot ever deployed, retired ones
  /// included; contract_at() throws std::out_of_range past the last slot
  /// and std::logic_error on a retired one.
  std::size_t contract_count() const { return contracts_.size(); }
  const Contract& contract_at(std::size_t i) const;

  /// Frees the contracts with ids [first, last): the load generator
  /// retires a finished instance's contracts this way. Their slots stay
  /// as tombstones, so every id stays stable; their escrow rows keep
  /// their balances; their timeouts never run again (the deadline index
  /// skips them and drops them as its cursor passes). The caller
  /// guarantees that nothing references them any more: no pending
  /// transaction's effect and no live actor. Throws std::logic_error
  /// while a snapshot is stacked, since no rewind could restore them, and
  /// std::out_of_range unless first <= last <= contract_count().
  void retire(ContractId first, ContractId last);

  /// True when a mempool transaction was signed by an account in
  /// [first, last): an instance's range still has traffic in flight.
  bool has_pending(PartyId first, PartyId last) const;

  /// Deploys a contract; returns a stable reference. Deployment happens at
  /// protocol setup (parties pre-agree on contracts, paper §4); funding
  /// operations are transactions.
  template <class C, class... Args>
  C& deploy(Args&&... args) {
    auto owned = std::make_unique<C>(std::forward<Args>(args)...);
    C& ref = *owned;
    register_contract(std::move(owned));
    return ref;
  }

  /// Applies the queued transactions as the block at height `now`, then
  /// runs the timeout sweep of every contract with a timeout due in it
  /// (Contract::timeouts: a deadline in [height(), now)) — each once, in
  /// contract-id order. An outage freezes the height, so the first block
  /// after it fires every timeout the outage covered. Throws
  /// std::logic_error unless now > height().
  void produce_block(Tick now);

  /// Layered snapshot stack, the chain's only rollback. snap_push()
  /// snapshots the live chain — ledger, height, tx count, every contract —
  /// as one more depth; snap_rewind(d) restores depth d, truncates above
  /// it, and restarts the run from there: the mempool empties and the
  /// per-run fault runtime (submission ordinals, tracked statuses, halt
  /// and finalize flags) is forgotten. A reused world pushes slot 0 right
  /// after setup and rewinds to it before every run; the tree executor
  /// pushes one slot per executed tick. Callable only at a tick boundary
  /// on a traceless chain: the mempool must be empty (block production
  /// consumed it) and the event log stays empty under TraceMode::kOff, so
  /// neither is part of a snapshot. A chain holding a retired contract
  /// refuses snap_push (std::logic_error), and retire() refuses a chain
  /// with a snapshot stacked, so retirement and rollback never meet.
  void snap_push();
  void snap_rewind(std::size_t depth);
  std::size_t snap_depth() const { return ledger_.snap_depth(); }

  /// Order-sensitive hash of the live chain state (ledger + height + tx
  /// count + contracts) — the rewind integrity check. Throws
  /// std::logic_error on a chain holding a retired contract, like
  /// snap_push().
  void state_hash(std::uint64_t& h) const;

 private:
  friend class TxContext;

  void register_contract(std::unique_ptr<Contract> c);

  /// produce_block's general path: bounded capacity, spam injection,
  /// seeded drops, fee-ordered selection, carry-over and eviction. Only
  /// taken when this chain has fault clauses installed.
  void produce_block_faulted(Tick now);

  /// Applies batch_ as the block at `now`, then runs the timeout sweep.
  void apply_batch(Tick now);

  /// The timeout sweep of block `now`: on_block for every live contract
  /// with a wake tick in (height_ before this block, now], in id order.
  void run_timeouts(Tick now);

  /// Throws std::logic_error naming `op` when a contract is retired.
  void require_no_retired(const char* op) const;

  /// Records `status` for tx if it is tracked.
  void record_status(const Transaction& tx, TxStatus status);

  ChainId id_;
  std::string name_;
  Symbol native_;
  SymbolId native_id_;
  TraceMode trace_ = TraceMode::kFull;
  Ledger ledger_;
  Tick height_ = -1;
  std::vector<Transaction> mempool_;
  std::vector<Transaction> batch_;  ///< produce_block scratch, capacity reused
  /// Indexed by contract id; a retired contract's slot is null.
  std::vector<std::unique_ptr<Contract>> contracts_;
  std::size_t retired_ = 0;  ///< null slots in contracts_
  /// Deadline index: one (wake tick, contract id) per declared timeout,
  /// sorted, where the wake tick is the first block past the deadline.
  /// wakes_[0, wake_cursor_) have wake tick <= height_, i.e. have fired;
  /// snap_rewind re-derives the cursor from the restored height, and
  /// fired entries are erased only while no snapshot could need them.
  std::vector<std::pair<Tick, ContractId>> wakes_;
  std::size_t wake_cursor_ = 0;
  std::vector<ContractId> due_;  ///< run_timeouts scratch
  EventLog events_;
  std::size_t applied_tx_count_ = 0;
  /// snap_push() counters stack ({height, applied_tx_count} per depth);
  /// the ledger and contracts keep their own synchronized stacks.
  std::vector<std::pair<Tick, std::size_t>> snap_counters_;
  ChainFaults faults_;
  ResiliencePolicy resilience_;
  InclusionObserver on_included_;
  bool halted_ = false;
  bool finalized_ = false;
  std::uint64_t next_seq_ = 0;
  /// (submission id, status) for tracked txs. submit() assigns strictly
  /// increasing ids and appends, so the vector stays sorted by id and
  /// tx_status()/record_status() binary-search it — under load-generator
  /// traffic thousands of tracked entries coexist per chain.
  std::vector<std::pair<std::uint64_t, TxStatus>> tx_status_;
  /// produce_block_faulted scratch (selection / eviction index vectors and
  /// flags), members so their capacity survives across blocks.
  std::vector<std::size_t> sel_order_;
  std::vector<char> sel_flags_;
};

/// The collection of independent chains in a simulation, advanced in
/// lockstep by the scheduler. Chains share nothing but the clock.
class MultiChain {
 public:
  /// Creates a chain whose native currency is named after the chain,
  /// e.g. "apricot" -> native symbol "apricot-coin".
  Blockchain& add_chain(const std::string& name);

  /// Returns the chain named `name`, creating it on first use — the
  /// shared-world path: every protocol instance bound to one MultiChain
  /// resolves its chains by name, so all two-party instances compete on
  /// the same "apricot"/"banana" pair instead of private worlds.
  Blockchain& get_or_add_chain(const std::string& name);

  Blockchain& at(ChainId id) { return *chains_.at(id); }
  const Blockchain& at(ChainId id) const { return *chains_.at(id); }

  std::size_t count() const { return chains_.size(); }

  /// Trace mode applied to every chain, current and future.
  void set_trace(TraceMode mode);
  TraceMode trace() const { return trace_; }

  /// Installs a chain environment — fault plan (matched per chain by
  /// name / '*') and resilience policy — on every chain, current and
  /// future. The default-constructed environment restores the reliable
  /// substrate exactly.
  void set_environment(const ChainEnvironment& env);
  const ChainEnvironment& environment() const { return env_; }

  /// Installs an inclusion observer on every chain, current and future
  /// (see Blockchain::set_inclusion_observer).
  void set_inclusion_observer(Blockchain::InclusionObserver obs);

  /// Marks every chain's timeline complete (Blockchain::finalize).
  void finalize_all();

  /// Produces the block at height `now` on every chain.
  void produce_all(Tick now);

  /// Layered snapshot stack over every chain (see Blockchain); depths
  /// advance in lockstep across chains.
  void snap_push();
  void snap_rewind(std::size_t depth);
  std::size_t snap_depth() const;

  /// Order-sensitive hash over every chain's live state.
  std::uint64_t state_hash() const;

  /// Concatenated event logs of all chains, sorted by (tick, chain).
  EventLog all_events() const;

 private:
  std::vector<std::unique_ptr<Blockchain>> chains_;
  TraceMode trace_ = TraceMode::kFull;
  ChainEnvironment env_;
  Blockchain::InclusionObserver observer_;
};

}  // namespace xchain::chain
