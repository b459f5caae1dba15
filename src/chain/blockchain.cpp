#include "chain/blockchain.hpp"

#include <algorithm>

namespace xchain::chain {

ChainId TxContext::chain_id() const { return bc_.id(); }

Ledger& TxContext::ledger() { return bc_.ledger_; }

const Symbol& TxContext::native() const { return bc_.native(); }

SymbolId TxContext::native_id() const { return bc_.native_id(); }

bool TxContext::tracing() const { return bc_.tracing(); }

void TxContext::emit(ContractId contract, std::string kind,
                     std::string detail) {
  if (!bc_.tracing()) return;
  bc_.events_.push_back(
      Event{now_, bc_.id(), contract, std::move(kind), std::move(detail)});
}

Blockchain::Blockchain(ChainId id, std::string name, Symbol native)
    : id_(id),
      name_(std::move(name)),
      native_(std::move(native)),
      native_id_(SymbolTable::intern(native_)) {}

std::uint64_t Blockchain::submit(Transaction tx) {
  if (halted_ || finalized_) {
    // Append-only string building (GCC 12 -Wrestrict, PR 105651).
    std::string what = "Blockchain::submit: chain '";
    what += name_;
    what += halted_ ? "' is halted" : "' has finalized its timeline";
    what += " — no future block can include this transaction";
    if (!tx.note.empty()) {
      what += " (";
      what += tx.note;
      what += ')';
    }
    throw std::logic_error(what);
  }
  tx.seq = next_seq_++;
  tx.fresh = true;
  const std::uint64_t id = tx.seq;
  if (tx.track) tx_status_.emplace_back(id, TxStatus::kPending);
  mempool_.push_back(std::move(tx));
  return id;
}

TxStatus Blockchain::tx_status(std::uint64_t id) const {
  // tx_status_ is sorted by id: submit() hands out strictly increasing
  // ids and appends. Load-generator chains carry thousands of tracked
  // entries, so the lookup must not be linear.
  const auto it = std::lower_bound(
      tx_status_.begin(), tx_status_.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it != tx_status_.end() && it->first == id) return it->second;
  return TxStatus::kUnknown;
}

bool Blockchain::bump_fee(std::uint64_t id, Amount fee) {
  // The mempool stays seq-ascending through every path (submission
  // appends, carry-over and eviction compact in place), so the pending
  // entry is binary-searchable by its submission id.
  const auto it = std::lower_bound(
      mempool_.begin(), mempool_.end(), id,
      [](const Transaction& tx, std::uint64_t key) { return tx.seq < key; });
  if (it == mempool_.end() || it->seq != id || !it->track) return false;
  if (fee > it->fee) it->fee = fee;
  return true;
}

void Blockchain::record_status(const Transaction& tx, TxStatus status) {
  if (!tx.track) return;
  const auto it = std::lower_bound(
      tx_status_.begin(), tx_status_.end(), tx.seq,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it != tx_status_.end() && it->first == tx.seq) {
    it->second = status;
    return;
  }
  // Tracked txs were registered at submit(); reaching here means the
  // statuses were cleared mid-flight. Insert in place to keep the vector
  // sorted for the binary searches above.
  tx_status_.emplace(it, tx.seq, status);
}

const Contract& Blockchain::contract_at(std::size_t i) const {
  const Contract* c = contracts_.at(i).get();
  if (!c) {
    std::string what = "Blockchain::contract_at: contract ";
    what += std::to_string(i);
    what += " on chain '";
    what += name_;
    what += "' is retired";
    throw std::logic_error(what);
  }
  return *c;
}

void Blockchain::retire(ContractId first, ContractId last) {
  if (first > last || last > contracts_.size()) {
    // Append-only string building (GCC 12 -Wrestrict, PR 105651).
    std::string what = "Blockchain::retire: contract range [";
    what += std::to_string(first);
    what += ", ";
    what += std::to_string(last);
    what += ") is out of range";
    throw std::out_of_range(what);
  }
  if (snap_depth() > 0) {
    throw std::logic_error(
        "Blockchain::retire: a snapshot is stacked, and no rewind could "
        "restore a retired contract");
  }
  for (ContractId c = first; c < last; ++c) {
    if (contracts_[c]) {
      contracts_[c].reset();
      ++retired_;
    }
  }
}

bool Blockchain::has_pending(PartyId first, PartyId last) const {
  return std::any_of(mempool_.begin(), mempool_.end(),
                     [&](const Transaction& tx) {
                       return tx.sender >= first && tx.sender < last;
                     });
}

void Blockchain::require_no_retired(const char* op) const {
  if (retired_ == 0) return;
  std::string what = "Blockchain::";
  what += op;
  what += ": chain '";
  what += name_;
  what += "' holds retired contracts";
  throw std::logic_error(what);
}

void Blockchain::register_contract(std::unique_ptr<Contract> c) {
  c->id_ = contracts_.size();
  c->chain_ = id_;
  // A deadline already past at deploy wakes the contract in the next
  // block, as a sweep over every contract would have. Every new wake tick
  // exceeds height_, so it lands at or after the cursor.
  for (const Tick deadline : c->timeouts()) {
    const std::pair<Tick, ContractId> wake{std::max(deadline, height_) + 1,
                                           c->id_};
    const auto from =
        wakes_.begin() + static_cast<std::ptrdiff_t>(wake_cursor_);
    wakes_.insert(std::upper_bound(from, wakes_.end(), wake), wake);
  }
  contracts_.push_back(std::move(c));
}

void Blockchain::produce_block(Tick now) {
  if (now <= height_) {
    // Append-only string building (GCC 12 -Wrestrict, PR 105651).
    std::string what = "Blockchain::produce_block: chain '";
    what += name_;
    what += "' is at height ";
    what += std::to_string(height_);
    what += "; block ";
    what += std::to_string(now);
    what += " would not advance it";
    throw std::logic_error(what);
  }
  if (!faults_.empty()) {
    produce_block_faulted(now);
    return;
  }
  height_ = now;
  // The batch/mempool pair ping-pongs so both keep their capacity across
  // blocks.
  batch_.clear();
  batch_.swap(mempool_);
  apply_batch(now);
}

void Blockchain::apply_batch(Tick now) {
  // Submission order (contracts can rely on arrival order, paper §3.2
  // footnote), then the timeout sweep.
  for (Transaction& tx : batch_) {
    TxContext ctx(*this, tx.sender, now);
    tx.effect(ctx);
    ++applied_tx_count_;
    record_status(tx, TxStatus::kIncluded);
    if (on_included_) on_included_(id_, tx.sender, now);
  }
  run_timeouts(now);
}

void Blockchain::run_timeouts(Tick now) {
  // The cursor already sits past every wake tick <= the previous height,
  // so the due range is a walk forward from it.
  due_.clear();
  while (wake_cursor_ < wakes_.size() && wakes_[wake_cursor_].first <= now) {
    due_.push_back(wakes_[wake_cursor_++].second);
  }
  if (due_.size() > 1) {
    std::sort(due_.begin(), due_.end());
    due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
  }
  TxContext sweep(*this, kNoParty, now);
#ifdef NDEBUG
  for (const ContractId c : due_) {
    if (contracts_[c]) contracts_[c]->on_block(sweep);
  }
#else
  // Safety net for timeouts() under-declaring: visit every live contract,
  // as an unindexed sweep would, and require each call the index skips to
  // leave the contract's state and the event log untouched.
  auto next = due_.begin();
  for (ContractId c = 0; c < contracts_.size(); ++c) {
    const bool due = next != due_.end() && *next == c;
    if (due) ++next;
    if (!contracts_[c]) continue;  // retired: its wake entries are skipped
    Contract& contract = *contracts_[c];
    if (due) {
      contract.on_block(sweep);
      continue;
    }
    std::uint64_t before = kStateHashSeed;
    std::uint64_t after = kStateHashSeed;
    contract.state_hash(before);
    const std::size_t events_before = events_.size();
    contract.on_block(sweep);
    contract.state_hash(after);
    if (before != after || events_.size() != events_before) {
      std::string what = "Blockchain::run_timeouts: contract ";
      what += std::to_string(c);
      what += " on chain '";
      what += name_;
      what += "' changed state in block ";
      what += std::to_string(now);
      what += ", where none of its timeouts() came due (timeouts() must "
              "list every deadline on_block compares against)";
      throw std::logic_error(what);
    }
  }
#endif
  // Fired entries matter only to a rewind; with no snapshot stacked, drop
  // them once they outnumber the pending ones, so a long run's index stays
  // proportional to its live contracts at amortized O(1) per entry.
  if (wake_cursor_ * 2 > wakes_.size() && snap_depth() == 0) {
    wakes_.erase(wakes_.begin(),
                 wakes_.begin() + static_cast<std::ptrdiff_t>(wake_cursor_));
    wake_cursor_ = 0;
  }
}

void Blockchain::produce_block_faulted(Tick now) {
  if (faults_.outage_at(now)) {
    // Full outage: no block at this tick. Height freezes, queued
    // transactions park in the mempool, and — because the timeout sweep
    // belongs to block production — timelocks do not fire either; the
    // first block after the outage fires every one it covered. Parties
    // may keep submitting (unlike halt()): their transactions wait out
    // the outage.
    for (Transaction& tx : mempool_) tx.fresh = false;
    return;
  }
  height_ = now;

  // 1. Seeded submission drops hit fresh (submitted-since-last-block)
  //    transactions only; carried-over entries already survived the hop.
  if (faults_.drops_at(now)) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < mempool_.size(); ++i) {
      Transaction& tx = mempool_[i];
      if (tx.fresh && faults_.should_drop(id_, now, tx.seq)) {
        record_status(tx, TxStatus::kDropped);
      } else {
        if (kept != i) mempool_[kept] = std::move(tx);
        ++kept;
      }
    }
    mempool_.resize(kept);
  }

  // 2. Synthetic congestion: spam competes for block space at its fee
  //    but never carries over — squeezed blocks see fresh pressure each
  //    tick, unselected spam evaporates below.
  const std::size_t real_count = mempool_.size();
  faults_.each_spam(now, [&](int count, Amount fee) {
    for (int i = 0; i < count; ++i) {
      Transaction spam;
      spam.sender = kNoParty;
      if (tracing()) spam.note = "fault: spam";
      spam.effect = [](TxContext&) {};
      spam.fee = fee;
      spam.seq = next_seq_++;
      mempool_.push_back(std::move(spam));
    }
  });

  // 3. Fee-priority selection under the active capacity: the top `cap`
  //    by (fee desc, submission order asc) — older submissions win fee
  //    ties, which is what lets an escalating party overtake same-fee
  //    spam — applied in submission order (arrival order within a block
  //    is what contracts rely on, paper §3.2 footnote). One shared-chain
  //    tick sees the whole tick's traffic at once, so selection is a
  //    partial nth_element partition plus a sort of only the selected
  //    cap indices, not a full sort of the mempool.
  const int cap = faults_.cap_at(now);
  sel_order_.resize(mempool_.size());
  for (std::size_t i = 0; i < sel_order_.size(); ++i) sel_order_[i] = i;
  if (cap >= 0 && static_cast<std::size_t>(cap) < sel_order_.size()) {
    std::nth_element(
        sel_order_.begin(), sel_order_.begin() + cap, sel_order_.end(),
        [&](std::size_t a, std::size_t b) {
          if (mempool_[a].fee != mempool_[b].fee) {
            return mempool_[a].fee > mempool_[b].fee;
          }
          return mempool_[a].seq < mempool_[b].seq;
        });
    sel_order_.resize(static_cast<std::size_t>(cap));
    std::sort(sel_order_.begin(), sel_order_.end());
  }
  sel_flags_.assign(mempool_.size(), 0);
  for (const std::size_t i : sel_order_) sel_flags_[i] = 1;

  batch_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mempool_.size(); ++i) {
    Transaction& tx = mempool_[i];
    if (sel_flags_[i]) {
      batch_.push_back(std::move(tx));
    } else if (i < real_count) {
      tx.fresh = false;
      if (kept != i) mempool_[kept] = std::move(tx);
      ++kept;
    }
    // Unselected spam (i >= real_count) evaporates.
  }
  mempool_.resize(kept);

  // 4. Bounded mempool: carry-overs beyond the active mem limit are
  //    evicted lowest priority first (fee asc, youngest submission
  //    first), mirroring the selection order. Only the `excess` evictees
  //    need ordering — another nth_element partition.
  const int mem = faults_.mem_at(now);
  if (mem >= 0 && mempool_.size() > static_cast<std::size_t>(mem)) {
    sel_order_.resize(mempool_.size());
    for (std::size_t i = 0; i < sel_order_.size(); ++i) sel_order_[i] = i;
    const std::size_t excess = mempool_.size() - static_cast<std::size_t>(mem);
    std::nth_element(
        sel_order_.begin(), sel_order_.begin() + static_cast<std::ptrdiff_t>(excess),
        sel_order_.end(), [&](std::size_t a, std::size_t b) {
          if (mempool_[a].fee != mempool_[b].fee) {
            return mempool_[a].fee < mempool_[b].fee;
          }
          return mempool_[a].seq > mempool_[b].seq;
        });
    sel_flags_.assign(mempool_.size(), 0);
    for (std::size_t k = 0; k < excess; ++k) sel_flags_[sel_order_[k]] = 1;
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < mempool_.size(); ++i) {
      Transaction& tx = mempool_[i];
      if (sel_flags_[i]) {
        record_status(tx, TxStatus::kEvicted);
      } else {
        if (survivors != i) mempool_[survivors] = std::move(tx);
        ++survivors;
      }
    }
    mempool_.resize(survivors);
  }

  // 5. Apply the selected block, then the timeout sweep — identical to
  //    the fast path from here on.
  apply_batch(now);
}

void Blockchain::snap_push() {
  // Tick-boundary-only, traceless-only: the mempool was consumed by block
  // production and the event log never grows under TraceMode::kOff, so
  // neither needs to be part of a snapshot.
  if (!mempool_.empty() || tracing()) {
    throw std::logic_error(
        "Blockchain::snap_push: checkpoints stack only at tick boundaries "
        "of traceless chains");
  }
  // Every slot is live from here on: retire() refuses a stacked snapshot.
  require_no_retired("snap_push");
  const std::size_t depth = ledger_.snap_depth();
  ledger_.snap_push();
  if (depth < snap_counters_.size()) {
    snap_counters_[depth] = {height_, applied_tx_count_};
  } else {
    snap_counters_.emplace_back(height_, applied_tx_count_);
  }
  for (auto& c : contracts_) c->snapshot(SnapshotOp::kPush, depth);
}

void Blockchain::snap_rewind(std::size_t depth) {
  ledger_.snap_rewind(depth);
  height_ = snap_counters_.at(depth).first;
  applied_tx_count_ = snap_counters_.at(depth).second;
  // Fired entries leave the index only while no snapshot is stacked, so
  // every entry past the restored height is still here: the height alone
  // places the cursor.
  wake_cursor_ = static_cast<std::size_t>(
      std::lower_bound(wakes_.begin(), wakes_.end(),
                       std::pair<Tick, ContractId>{height_ + 1, 0}) -
      wakes_.begin());
  mempool_.clear();
  // Fault runtime (submission ordinals, tracked statuses, halt flags) is
  // per-run state: rewinding to a snapshot restarts the run from that
  // point, so a rewind to slot 0 replays a run exactly as a fresh world
  // would. Fault-active sweeps rewind only to slot 0 (the brute
  // executor), so mid-run snapshot layering never coexists with a live
  // fault runtime.
  next_seq_ = 0;
  tx_status_.clear();
  halted_ = false;
  finalized_ = false;
  // kRestore leaves the stack at depth + 1, matching the ledger.
  for (auto& c : contracts_) c->snapshot(SnapshotOp::kRestore, depth);
}

void Blockchain::state_hash(std::uint64_t& h) const {
  require_no_retired("state_hash");
  ledger_.state_hash(h);
  state_hash_mix(h, static_cast<std::uint64_t>(height_));
  state_hash_mix(h, applied_tx_count_);
  for (const auto& c : contracts_) c->state_hash(h);
}

Blockchain& MultiChain::add_chain(const std::string& name) {
  const ChainId id = static_cast<ChainId>(chains_.size());
  chains_.push_back(
      std::make_unique<Blockchain>(id, name, name + "-coin"));
  chains_.back()->set_trace(trace_);
  chains_.back()->set_faults(env_.faults.for_chain(name));
  chains_.back()->set_resilience(env_.resilience);
  chains_.back()->set_inclusion_observer(observer_);
  return *chains_.back();
}

Blockchain& MultiChain::get_or_add_chain(const std::string& name) {
  for (auto& c : chains_) {
    if (c->name() == name) return *c;
  }
  return add_chain(name);
}

void MultiChain::set_inclusion_observer(Blockchain::InclusionObserver obs) {
  observer_ = std::move(obs);
  for (auto& c : chains_) c->set_inclusion_observer(observer_);
}

void MultiChain::set_trace(TraceMode mode) {
  trace_ = mode;
  for (auto& c : chains_) c->set_trace(mode);
}

void MultiChain::set_environment(const ChainEnvironment& env) {
  env_ = env;
  for (auto& c : chains_) {
    c->set_faults(env_.faults.for_chain(c->name()));
    c->set_resilience(env_.resilience);
  }
}

void MultiChain::finalize_all() {
  for (auto& c : chains_) c->finalize();
}

void MultiChain::produce_all(Tick now) {
  for (auto& c : chains_) c->produce_block(now);
}

void MultiChain::snap_push() {
  for (auto& c : chains_) c->snap_push();
}

void MultiChain::snap_rewind(std::size_t depth) {
  for (auto& c : chains_) c->snap_rewind(depth);
}

std::size_t MultiChain::snap_depth() const {
  return chains_.empty() ? 0 : chains_.front()->snap_depth();
}

std::uint64_t MultiChain::state_hash() const {
  std::uint64_t h = kStateHashSeed;
  for (const auto& c : chains_) c->state_hash(h);
  return h;
}

EventLog MultiChain::all_events() const {
  EventLog all;
  for (const auto& c : chains_) {
    all.insert(all.end(), c->events().begin(), c->events().end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.tick != b.tick) return a.tick < b.tick;
    return a.chain < b.chain;
  });
  return all;
}

}  // namespace xchain::chain
