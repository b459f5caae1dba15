#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chain/address.hpp"
#include "common/symbol.hpp"
#include "common/types.hpp"

namespace xchain::chain {

/// Names an asset kind on a chain, e.g. "apricot", "banana", "ticket", or
/// the chain's native coin used for premiums.
using Symbol = std::string;

/// Per-chain balance book: (address, symbol) -> amount.
///
/// Storage is dense, the way production chain runtimes key hot state:
/// party and contract ids index rows directly, and each distinct symbol
/// occupies a small per-ledger column (mapped from its global SymbolId), so
/// the hot path — contract-driven transfers during block production — is a
/// handful of array indexings with no hashing or string traffic. (The old
/// representation was an unordered_map over (Address, string) keys with a
/// weak XOR/shift hash; the dense book replaced it outright.)
///
/// All mutation happens inside transaction execution (the chain runtime
/// constructs the only mutable references); reads are free for everyone,
/// matching the public-ledger model of §3.1.
class Ledger {
 public:
  /// Balance of `who` in `sym` (0 if never touched).
  Amount balance(const Address& who, SymbolId sym) const;
  Amount balance(const Address& who, const Symbol& sym) const {
    return balance(who, SymbolTable::intern(sym));
  }

  /// Creates `amount` units of `sym` at `who` out of thin air. Used only
  /// for world setup (initial endowments), never by contracts.
  void mint(const Address& who, SymbolId sym, Amount amount);
  void mint(const Address& who, const Symbol& sym, Amount amount) {
    mint(who, SymbolTable::intern(sym), amount);
  }

  /// Moves `amount` of `sym` from `from` to `to`. Returns false (and moves
  /// nothing) if `from`'s balance is insufficient or amount is negative.
  bool transfer(const Address& from, const Address& to, SymbolId sym,
                Amount amount);
  bool transfer(const Address& from, const Address& to, const Symbol& sym,
                Amount amount) {
    return transfer(from, to, SymbolTable::intern(sym), amount);
  }

  /// Every (address, symbol, amount) triple with nonzero balance, in
  /// deterministic order — (kind, id, symbol name) ascending, exactly the
  /// order the pre-dense map-and-sort implementation produced. Used by
  /// payoff accounting and traces.
  std::vector<std::tuple<Address, Symbol, Amount>> holdings() const;

  /// Calls `fn(SymbolId, Amount)` for each nonzero holding of `who`, in
  /// symbol-name order — the allocation-free spine of holdings().
  template <class F>
  void for_each_holding(const Address& who, F&& fn) const {
    const std::vector<Amount>* row = row_of(who);
    if (!row) return;
    for (const std::uint32_t col : cols_by_name_) {
      if (col < row->size() && (*row)[col] != 0) {
        fn(symbols_[col], (*row)[col]);
      }
    }
  }

  /// Layered snapshot stack, the ledger's only rollback: a reused world
  /// pushes slot 0 right after setup and rewinds to it before every run,
  /// and the tree executor pushes one more slot per executed tick and
  /// rewinds to arbitrary depths on backtrack. Implemented as an undo log,
  /// not copies: a push records a watermark (O(1)), mutations append their
  /// previous value while the stack is live, and a rewind plays the log
  /// backwards — so cost scales with the balances actually written, never
  /// with the size of the book. (The copy-per-push predecessor was the
  /// single largest line item of a tree sweep's executed runs.)
  void snap_push();
  /// Restores the balances snapshotted at `depth` (< snap_depth()) and
  /// makes it the top: snap_depth() becomes depth + 1.
  void snap_rewind(std::size_t depth);
  std::size_t snap_depth() const { return snap_depth_; }

  /// Order-sensitive 64-bit hash of every balance cell (the rewind
  /// integrity check of the tree executor).
  void state_hash(std::uint64_t& h) const;

 private:
  /// Rows indexed by party id / contract id respectively; cells indexed by
  /// per-ledger column. Rows and columns grow on demand and may be ragged
  /// (a row only reaches as far as the last column it ever touched).
  using Book = std::vector<std::vector<Amount>>;

  const std::vector<Amount>* row_of(const Address& who) const;
  Amount* cell(const Address& who, std::uint32_t col);
  std::uint32_t column_of(SymbolId sym);

  Book party_;
  Book contract_;
  /// SymbolId::value() -> column (kNoColumn when absent from this ledger).
  std::vector<std::uint32_t> col_of_;
  std::vector<SymbolId> symbols_;           ///< column -> symbol
  std::vector<std::uint32_t> cols_by_name_; ///< columns, symbol-name order

  /// One reversible mutation, recorded while the snapshot stack is live.
  /// Books only grow during execution, so three kinds suffice: a cell's
  /// previous value, a row's previous length, a book's previous row count.
  struct Undo {
    enum class Kind : std::uint8_t { kCell, kRowSize, kBookSize };
    Kind kind;
    std::uint8_t book;  ///< 0 = party_, 1 = contract_
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    Amount old = 0;  ///< previous cell value / previous size
  };

  std::vector<Undo> undo_;
  /// undo_ watermark per snapshot depth; slots above the live depth keep
  /// their capacity and are overwritten in place by later pushes.
  std::vector<std::size_t> marks_;
  std::size_t snap_depth_ = 0;

  static constexpr std::uint32_t kNoColumn = 0xffffffffu;
};

}  // namespace xchain::chain
