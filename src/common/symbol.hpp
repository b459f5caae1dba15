#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace xchain {

/// Interned handle for an asset-symbol name ("apricot", "banana-coin",
/// "ticket", ...). Production chain runtimes key hot state by small
/// integers, not strings (cf. rippled's ledger-object indices); SymbolId is
/// that handle here. Ids are dense, process-wide, and stable for the
/// process lifetime, so they can index vectors directly.
class SymbolId {
 public:
  constexpr SymbolId() = default;

  /// False for a default-constructed (never interned) id.
  constexpr bool valid() const { return v_ != kInvalid; }

  /// Dense index in [0, SymbolTable::size()).
  constexpr std::uint32_t value() const { return v_; }

  friend constexpr bool operator==(SymbolId, SymbolId) = default;

 private:
  friend class SymbolTable;
  explicit constexpr SymbolId(std::uint32_t v) : v_(v) {}

  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t v_ = kInvalid;
};

/// Process-wide symbol interner. Thread-safe: sweeps intern symbols from
/// worker threads while building per-worker worlds. Interning is O(1)
/// amortized; `name()` lookups return references that stay valid forever
/// (storage never moves or shrinks).
class SymbolTable {
 public:
  /// Returns the id for `name`, interning it on first sight.
  static SymbolId intern(std::string_view name);

  /// The name behind an id. Precondition: `id.valid()`.
  static const std::string& name(SymbolId id);

  /// The id whose value() is `value`, for ids stored as plain integers.
  /// Precondition: `value < size()`.
  static SymbolId at(std::uint32_t value) { return SymbolId(value); }

  /// Number of symbols interned so far (ids are < size()).
  static std::size_t size();
};

}  // namespace xchain

template <>
struct std::hash<xchain::SymbolId> {
  std::size_t operator()(const xchain::SymbolId& s) const noexcept {
    return std::hash<std::uint32_t>{}(s.value());
  }
};
