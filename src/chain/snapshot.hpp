#pragma once

// Layered state snapshots: the checkpoint *stack*, the one rollback
// mechanism of a reusable world.
//
// A reused world rolls back to its post-setup state (slot 0) before every
// run, and the scenario tree executor (sim/scenario.cpp) to the start of
// an arbitrary tick, so every stateful object in a world — ledgers,
// contracts, protocol actors — keeps a stack of snapshots of its mutable
// members, one per pushed tick. The helpers here make that mechanical:
//
//   * a class lists its mutable members once, as a std::tie, and a
//     TieStack of the matching value types gives push / restore /
//     truncate over them;
//   * all three operations funnel through one SnapshotOp dispatch, so
//     the owning class implements a single virtual;
//   * restore copies values back into live members and truncate only
//     shrinks the logical depth — slots above the live depth keep their
//     heap capacity and are overwritten in place by the next push, so
//     the steady-state DFS walk (push / rewind / push ...) allocates
//     nothing once the stack has reached its high-water depth (the slab
//     reuse idiom production chain runtimes use for ledger deltas).
//
// state_hash_mix / hash_tie provide the matching order-sensitive 64-bit
// state hash (FNV-1a over the same tied members), which the tree
// executor uses as an integrity check: the hash recorded when a
// checkpoint is pushed must equal the hash recomputed after rewinding to
// it, so an actor or contract whose snapshot misses a mutable member
// fails loudly instead of silently corrupting the sweep.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace xchain::chain {

class Contract;

/// The one-virtual snapshot protocol: push the live state, restore the
/// live state from depth `d` (leaving depths 0..d intact), or truncate
/// the stack to depth `d` (discarding snapshots at d and above).
enum class SnapshotOp : std::uint8_t { kPush, kRestore, kTruncate };

/// 64-bit FNV-1a mix step for state hashing.
inline void state_hash_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

constexpr std::uint64_t kStateHashSeed = 0xcbf29ce484222325ull;

namespace detail {

template <class T>
void hash_value(std::uint64_t& h, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    state_hash_mix(h, static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    state_hash_mix(h, static_cast<std::uint64_t>(v));
  } else if constexpr (requires { v.state_hash_into(h); }) {
    // Aggregates opt in with a member hook (e.g. a contract's per-leader
    // premium record) — see state_hash_values below.
    v.state_hash_into(h);
  } else if constexpr (requires {
                         v.secret;
                         v.path;
                         v.sigs;
                       }) {
    // crypto::Hashkey, matched structurally so the crypto layer need not
    // depend on this header.
    hash_value(h, v.secret);
    hash_value(h, v.path);
    hash_value(h, v.sigs);
  } else if constexpr (requires {
                         v.e;
                         v.s;
                       }) {
    // crypto::Signature, likewise structural.
    hash_value(h, v.e);
    hash_value(h, v.s);
  } else if constexpr (requires {
                         v.has_value();
                         *v;
                       } && !requires { v.begin(); }) {
    // optional-like
    state_hash_mix(h, v.has_value() ? 1 : 0);
    if (v.has_value()) hash_value(h, *v);
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    // pair/tuple/array-like with structured element access
    std::apply([&](const auto&... es) { (hash_value(h, es), ...); }, v);
  } else {
    // Containers of hashable elements (vector<char>, map<K, V>, ...).
    state_hash_mix(h, static_cast<std::uint64_t>(v.size()));
    for (const auto& e : v) hash_value(h, e);
  }
}

}  // namespace detail

/// A stack of value-snapshots of a fixed set of lvalues, addressed by the
/// std::tie the owner passes to every call (always the same members, in
/// the same order). Logical depth is tracked separately from the backing
/// vector so truncation keeps slot capacity for reuse.
template <class... Ts>
class TieStack {
 public:
  using Tie = std::tuple<Ts&...>;

  std::size_t depth() const { return depth_; }

  void apply(SnapshotOp op, std::size_t d, Tie tie) {
    switch (op) {
      case SnapshotOp::kPush:
        if (depth_ < slots_.size()) {
          slots_[depth_] = tie;  // overwrite a retired slot in place
        } else {
          slots_.emplace_back(tie);
        }
        ++depth_;
        break;
      case SnapshotOp::kRestore:
        tie = slots_[d];
        depth_ = d + 1;
        break;
      case SnapshotOp::kTruncate:
        depth_ = d;
        break;
    }
  }

  /// Order-sensitive hash of the LIVE tied values (not the stack).
  void hash(std::uint64_t& h, std::tuple<const Ts&...> tie) const {
    std::apply([&](const Ts&... vs) { (detail::hash_value(h, vs), ...); },
               tie);
  }

 private:
  std::vector<std::tuple<Ts...>> slots_;
  std::size_t depth_ = 0;
};

/// Order-sensitive hash of a tuple of (references to) hashable values.
template <class... Ts>
void hash_tie(std::uint64_t& h, const std::tuple<Ts...>& tie) {
  std::apply([&](const auto&... vs) { (detail::hash_value(h, vs), ...); },
             tie);
}

/// Hashes a flat list of values — the body of a struct's state_hash_into
/// hook:
///
///   struct Rung {
///     ...
///     void state_hash_into(std::uint64_t& h) const {
///       chain::state_hash_values(h, state, deposited_at, resolved_at);
///     }
///   };
template <class... Vs>
void state_hash_values(std::uint64_t& h, const Vs&... vs) {
  (detail::hash_value(h, vs), ...);
}

namespace detail {

template <class Tie>
struct TieStackFor;
template <class... Ts>
struct TieStackFor<std::tuple<Ts&...>> {
  using type = TieStack<Ts...>;
};

struct ErasedStack {
  virtual ~ErasedStack() = default;
};
template <class S>
struct StackHolder final : ErasedStack {
  S stack;
};

}  // namespace detail

/// CRTP mixin implementing the snapshot protocol for any class whose base
/// declares `virtual void snapshot(SnapshotOp, std::size_t)` and
/// `virtual void state_hash(std::uint64_t&) const` (chain::Contract,
/// sim::Party). The derived class lists its mutable members ONCE:
///
///   class ArcContract : public chain::SnapshotState<ArcContract> {
///     auto state_tie() { return std::tie(phase_, escrowed_, ...); }
///     friend chain::SnapshotState<ArcContract>;
///   };
///
/// Every member named in state_tie() is snapshotted and hashed; a member
/// left out is exactly the bug the executor's rewind-integrity hash
/// exists to catch, so keep the tie exhaustive over mutable state.
template <class D, class Base = Contract>
class SnapshotState : public Base {
 public:
  using Base::Base;

  void snapshot(SnapshotOp op, std::size_t depth) override {
    // snapshot_members is the base's own mutable state (e.g. a Party's
    // pending-action queue) — a plain hook, so the unported-class guard
    // in the base's virtual snapshot() is not inherited here.
    this->snapshot_members(op, depth);
    auto tie = static_cast<D*>(this)->state_tie();
    using Stack = typename detail::TieStackFor<decltype(tie)>::type;
    // Lazily created and type-erased: D is incomplete while this base is
    // instantiated, so the stack's concrete type can only be named inside
    // function bodies (instantiated once D is complete). One allocation
    // per object, first push only.
    if (!stack_) stack_ = std::make_unique<detail::StackHolder<Stack>>();
    static_cast<detail::StackHolder<Stack>&>(*stack_).stack.apply(op, depth,
                                                                  tie);
  }

  void state_hash(std::uint64_t& h) const override {
    this->state_hash_members(h);
    // state_tie() only reads through the references here; the const_cast
    // spares every derived class a second, const overload.
    hash_tie(h, const_cast<D*>(static_cast<const D*>(this))->state_tie());
  }

 private:
  std::unique_ptr<detail::ErasedStack> stack_;
};

}  // namespace xchain::chain
