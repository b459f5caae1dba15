#pragma once

// Typed protocol parameters and grid expansion.
//
// The paper's guarantee (Definition 1 and the per-protocol lemmas) is
// quantified over *all* protocol parameters, so the sweep layer must be
// drivable over configuration space, not just deviation-schedule space. A
// ParamSet is a protocol's declared parameter schema — every parameter has
// a type, a default, optional bounds, and a description — plus the current
// values; assignment is always by (key, string-value) pair so campaign
// specs, CLI flags, and JSON all speak the same language, and every
// malformed assignment fails with a descriptive ParamError, never UB. A
// ParamGrid is a set of axes (`key=a,b,c`) expanded into the cross product
// of ParamSets, with an explicit cap and truncation report so exponential
// grids degrade loudly instead of hanging.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace xchain::sim {

/// Any malformed parameter operation: unknown key, unparsable value, or a
/// value outside the declared bounds. The message names the parameter and
/// what was expected.
class ParamError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parameter value type. kInt and kAmount share integer storage; the
/// distinction documents intent (counts vs token amounts) in --list output.
enum class ParamType { kInt, kAmount, kDouble, kString };

std::string param_type_name(ParamType t);

/// One declared parameter: type, default, optional numeric bounds, and a
/// one-line description (surfaced by `xchain-sweep --list`).
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kInt;
  std::string description;

  // Defaults (the one matching `type` is authoritative).
  std::int64_t int_default = 0;
  double double_default = 0.0;
  std::string string_default;

  // Inclusive numeric bounds; ignored for kString.
  bool has_min = false, has_max = false;
  double min = 0.0, max = 0.0;

  static ParamSpec integer(std::string key, std::int64_t def,
                           std::string description);
  static ParamSpec amount(std::string key, Amount def,
                          std::string description);
  static ParamSpec real(std::string key, double def, std::string description);
  static ParamSpec text(std::string key, std::string def,
                        std::string description);

  /// Builder-style inclusive bounds (numeric types only).
  ParamSpec& at_least(double lo);
  ParamSpec& at_most(double hi);
  ParamSpec& between(double lo, double hi);

  /// Human-readable default for --list output.
  std::string default_str() const;
  /// "[lo, hi]" / "[lo, +inf)" / "" when unbounded.
  std::string bounds_str() const;
};

/// A schema-checked set of parameter values. Constructed from a protocol's
/// declared ParamSpecs (each value starts at its default); `set()` parses
/// and validates one assignment. All getters throw ParamError on an
/// unknown key, so a typo'd read is as loud as a typo'd write.
class ParamSet {
 public:
  ParamSet() = default;
  explicit ParamSet(std::vector<ParamSpec> specs);

  /// Parses `value` according to the key's declared type and bounds.
  /// Throws ParamError (naming the key, the expectation, and — for an
  /// unknown key — the valid keys) on any mismatch.
  void set(const std::string& key, const std::string& value);

  std::int64_t get_int(const std::string& key) const;
  Amount get_amount(const std::string& key) const;
  double get_double(const std::string& key) const;
  const std::string& get_string(const std::string& key) const;

  bool has(const std::string& key) const;
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// True iff `key` was explicitly set() since construction.
  bool is_set(const std::string& key) const;

  /// "k=v" pairs for every key set() since construction, a value equal
  /// to its default included, in declaration order — the campaign
  /// report's per-configuration label ("" when nothing was set).
  std::string overrides_str() const;

  /// Current value of `key` rendered as a string (default or override).
  std::string value_str(const std::string& key) const;

 private:
  struct Slot {
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
    bool overridden = false;
  };

  std::size_t index_of(const std::string& key) const;

  std::vector<ParamSpec> specs_;
  std::vector<Slot> values_;
};

/// Splits "a, b,c" into trimmed items. Empty items ("3,", "3,,5", "")
/// throw ParamError naming `what` — a stray comma is a typo to surface,
/// not a shorter list to sweep. Shared by grid axes and the auction bid
/// list so every CSV in the layer has the same strictness.
std::vector<std::string> split_csv(const std::string& what,
                                   const std::string& csv);

/// One grid axis: every value `key` takes across the campaign.
struct GridAxis {
  std::string key;
  std::vector<std::string> values;
};

/// The expansion of a ParamGrid: one ParamSet per grid point, plus an
/// explicit record of truncation so capped campaigns never silently pose
/// as exhaustive ones.
struct GridExpansion {
  std::vector<ParamSet> points;
  std::size_t total_points = 0;  ///< full cross-product size
  bool truncated() const { return points.size() < total_points; }
  /// "" when complete; one line naming the cap and the dropped count.
  std::string truncation_report() const;
};

/// A cross product of per-key value lists over one protocol's ParamSet.
/// Axes added for the same key merge (their value lists concatenate), so
/// repeated `--grid k=...` flags compose.
class ParamGrid {
 public:
  /// Adds axis `key` = `values` (non-empty). Validation against a schema
  /// happens at expand() time, when the schema is known.
  void add_axis(const std::string& key, std::vector<std::string> values);

  /// Parses "a,b,c" into an axis for `key`.
  void add_axis_csv(const std::string& key, const std::string& csv);

  bool empty() const { return axes_.empty(); }
  const std::vector<GridAxis>& axes() const { return axes_; }

  /// Expands the cross product over `defaults` (each point = defaults +
  /// one value per axis), in row-major order with the FIRST axis varying
  /// slowest. Every value is validated through ParamSet::set, so a bad
  /// grid fails before any sweep runs; so does a value that renders like
  /// an earlier one of its axis (ParamSet::value_str: "01" after "1"),
  /// which would repeat a point. At most `cap` points are materialized;
  /// the full size is reported in GridExpansion.
  GridExpansion expand(const ParamSet& defaults, std::size_t cap = 4096) const;

 private:
  std::vector<GridAxis> axes_;
};

}  // namespace xchain::sim
