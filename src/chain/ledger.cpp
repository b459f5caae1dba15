#include "chain/ledger.hpp"

#include <algorithm>

#include "chain/snapshot.hpp"

namespace xchain::chain {

const std::vector<Amount>* Ledger::row_of(const Address& who) const {
  const Book& book = who.kind == Address::Kind::kParty ? party_ : contract_;
  if (who.id >= book.size()) return nullptr;
  return &book[who.id];
}

Amount* Ledger::cell(const Address& who, std::uint32_t col) {
  const std::uint8_t which = who.kind == Address::Kind::kParty ? 0 : 1;
  Book& book = which == 0 ? party_ : contract_;
  // Every cell() caller writes through the returned pointer, so while the
  // snapshot stack is live this is the one choke point that must log the
  // previous value (and any structural growth) for snap_rewind().
  const bool logging = snap_depth_ > 0;
  if (who.id >= book.size()) {
    if (logging) {
      undo_.push_back({Undo::Kind::kBookSize, which, 0, 0,
                       static_cast<Amount>(book.size())});
    }
    book.resize(who.id + 1);
  }
  std::vector<Amount>& row = book[who.id];
  if (col >= row.size()) {
    if (logging) {
      undo_.push_back({Undo::Kind::kRowSize, which,
                       static_cast<std::uint32_t>(who.id), 0,
                       static_cast<Amount>(row.size())});
    }
    row.resize(col + 1, 0);
  }
  if (logging) {
    undo_.push_back({Undo::Kind::kCell, which,
                     static_cast<std::uint32_t>(who.id), col, row[col]});
  }
  return &row[col];
}

std::uint32_t Ledger::column_of(SymbolId sym) {
  if (sym.value() < col_of_.size() && col_of_[sym.value()] != kNoColumn) {
    return col_of_[sym.value()];
  }
  if (sym.value() >= col_of_.size()) {
    col_of_.resize(sym.value() + 1, kNoColumn);
  }
  const auto col = static_cast<std::uint32_t>(symbols_.size());
  col_of_[sym.value()] = col;
  symbols_.push_back(sym);
  // Keep the name-ordered column list sorted so holdings() stays in the
  // deterministic (kind, id, symbol name) order the map-era code produced.
  // Columns are few per ledger; re-sorting on insert is cold-path work.
  cols_by_name_.push_back(col);
  std::sort(cols_by_name_.begin(), cols_by_name_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return SymbolTable::name(symbols_[a]) <
                     SymbolTable::name(symbols_[b]);
            });
  return col;
}

Amount Ledger::balance(const Address& who, SymbolId sym) const {
  if (!sym.valid() || sym.value() >= col_of_.size()) return 0;
  const std::uint32_t col = col_of_[sym.value()];
  if (col == kNoColumn) return 0;
  const std::vector<Amount>* row = row_of(who);
  return row && col < row->size() ? (*row)[col] : 0;
}

void Ledger::mint(const Address& who, SymbolId sym, Amount amount) {
  *cell(who, column_of(sym)) += amount;
}

bool Ledger::transfer(const Address& from, const Address& to, SymbolId sym,
                      Amount amount) {
  if (amount < 0) return false;
  if (amount == 0) return true;
  if (balance(from, sym) < amount) return false;
  const std::uint32_t col = column_of(sym);
  *cell(from, col) -= amount;
  *cell(to, col) += amount;
  return true;
}

std::vector<std::tuple<Address, Symbol, Amount>> Ledger::holdings() const {
  std::vector<std::tuple<Address, Symbol, Amount>> out;
  const auto scan = [&](const Book& book, Address::Kind kind) {
    for (std::size_t id = 0; id < book.size(); ++id) {
      const Address who{kind, id};
      for (const std::uint32_t col : cols_by_name_) {
        if (col < book[id].size() && book[id][col] != 0) {
          out.emplace_back(who, SymbolTable::name(symbols_[col]),
                           book[id][col]);
        }
      }
    }
  };
  scan(party_, Address::Kind::kParty);
  scan(contract_, Address::Kind::kContract);
  return out;
}

void Ledger::snap_push() {
  if (snap_depth_ < marks_.size()) {
    marks_[snap_depth_] = undo_.size();
  } else {
    marks_.push_back(undo_.size());
  }
  ++snap_depth_;
}

void Ledger::snap_rewind(std::size_t depth) {
  // Play the log backwards to the watermark recorded when `depth` was
  // pushed: a cell's final value is the oldest record in the undone range
  // (its value at the start of tick `depth`), and size records shrink
  // structures back in step. Books never shrink outside this function, so
  // every record indexes in-bounds state when its turn comes.
  const std::size_t mark = marks_.at(depth);
  for (std::size_t i = undo_.size(); i-- > mark;) {
    const Undo& u = undo_[i];
    Book& book = u.book == 0 ? party_ : contract_;
    switch (u.kind) {
      case Undo::Kind::kCell:
        book[u.row][u.col] = u.old;
        break;
      case Undo::Kind::kRowSize:
        book[u.row].resize(static_cast<std::size_t>(u.old));
        break;
      case Undo::Kind::kBookSize:
        book.resize(static_cast<std::size_t>(u.old));
        break;
    }
  }
  undo_.resize(mark);
  snap_depth_ = depth + 1;
}

void Ledger::state_hash(std::uint64_t& h) const {
  const auto scan = [&](const Book& book) {
    state_hash_mix(h, book.size());
    for (const auto& row : book) {
      state_hash_mix(h, row.size());
      for (const Amount a : row) {
        state_hash_mix(h, static_cast<std::uint64_t>(a));
      }
    }
  };
  scan(party_);
  scan(contract_);
}

}  // namespace xchain::chain
