#include "sim/param.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace xchain::sim {

namespace {

std::string join_keys(const std::vector<ParamSpec>& specs) {
  std::string out;
  for (const ParamSpec& s : specs) {
    if (!out.empty()) out += ", ";
    out += s.key;
  }
  return out.empty() ? "<none>" : out;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw ParamError("param '" + key + "': '" + value +
                     "' is not an integer");
  }
  return static_cast<std::int64_t>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    throw ParamError("param '" + key + "': '" + value +
                     "' is not a finite number");
  }
  return v;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Renders doubles compactly but distinctly: %.10g keeps enough precision
/// that distinct grid values get distinct labels (and tiny values render
/// as "1e-07", not a truncated "0").
std::string double_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

std::string param_type_name(ParamType t) {
  switch (t) {
    case ParamType::kInt: return "int";
    case ParamType::kAmount: return "amount";
    case ParamType::kDouble: return "double";
    case ParamType::kString: return "string";
  }
  return "?";
}

ParamSpec ParamSpec::integer(std::string key, std::int64_t def,
                             std::string description) {
  ParamSpec s;
  s.key = std::move(key);
  s.type = ParamType::kInt;
  s.int_default = def;
  s.description = std::move(description);
  return s;
}

ParamSpec ParamSpec::amount(std::string key, Amount def,
                            std::string description) {
  ParamSpec s = integer(std::move(key), def, std::move(description));
  s.type = ParamType::kAmount;
  return s;
}

ParamSpec ParamSpec::real(std::string key, double def,
                          std::string description) {
  ParamSpec s;
  s.key = std::move(key);
  s.type = ParamType::kDouble;
  s.double_default = def;
  s.description = std::move(description);
  return s;
}

ParamSpec ParamSpec::text(std::string key, std::string def,
                          std::string description) {
  ParamSpec s;
  s.key = std::move(key);
  s.type = ParamType::kString;
  s.string_default = std::move(def);
  s.description = std::move(description);
  return s;
}

ParamSpec& ParamSpec::at_least(double lo) {
  has_min = true;
  min = lo;
  return *this;
}

ParamSpec& ParamSpec::at_most(double hi) {
  has_max = true;
  max = hi;
  return *this;
}

ParamSpec& ParamSpec::between(double lo, double hi) {
  return at_least(lo).at_most(hi);
}

std::string ParamSpec::default_str() const {
  switch (type) {
    case ParamType::kInt:
    case ParamType::kAmount: return std::to_string(int_default);
    case ParamType::kDouble: return double_str(double_default);
    case ParamType::kString: return string_default;
  }
  return "";
}

std::string ParamSpec::bounds_str() const {
  if (type == ParamType::kString || (!has_min && !has_max)) return "";
  // Integer bounds print whole: "%.10g" would show 10^12 as 1e+12.
  const auto num = [this](double v) {
    return type == ParamType::kDouble
               ? double_str(v)
               : std::to_string(static_cast<std::int64_t>(v));
  };
  const std::string lo = has_min ? num(min) : "-inf";
  const std::string hi = has_max ? num(max) : "+inf";
  return (has_min ? "[" : "(") + lo + ", " + hi + (has_max ? "]" : ")");
}

ParamSet::ParamSet(std::vector<ParamSpec> specs) : specs_(std::move(specs)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    for (std::size_t j = i + 1; j < specs_.size(); ++j) {
      if (specs_[i].key == specs_[j].key) {
        throw ParamError("duplicate param spec '" + specs_[i].key + "'");
      }
    }
  }
  values_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    values_[i].i = specs_[i].int_default;
    values_[i].d = specs_[i].double_default;
    values_[i].s = specs_[i].string_default;
  }
}

std::size_t ParamSet::index_of(const std::string& key) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].key == key) return i;
  }
  throw ParamError("unknown param '" + key + "' (valid: " +
                   join_keys(specs_) + ")");
}

bool ParamSet::has(const std::string& key) const {
  for (const ParamSpec& s : specs_) {
    if (s.key == key) return true;
  }
  return false;
}

bool ParamSet::is_set(const std::string& key) const {
  return values_[index_of(key)].overridden;
}

void ParamSet::set(const std::string& key, const std::string& value) {
  const std::size_t i = index_of(key);
  const ParamSpec& spec = specs_[i];
  Slot& slot = values_[i];
  switch (spec.type) {
    case ParamType::kInt:
    case ParamType::kAmount: {
      const std::int64_t v = parse_int(key, value);
      if ((spec.has_min && static_cast<double>(v) < spec.min) ||
          (spec.has_max && static_cast<double>(v) > spec.max)) {
        throw ParamError("param '" + key + "': " + value +
                         " is outside bounds " + spec.bounds_str());
      }
      slot.i = v;
      break;
    }
    case ParamType::kDouble: {
      const double v = parse_double(key, value);
      if ((spec.has_min && v < spec.min) || (spec.has_max && v > spec.max)) {
        throw ParamError("param '" + key + "': " + value +
                         " is outside bounds " + spec.bounds_str());
      }
      slot.d = v;
      break;
    }
    case ParamType::kString:
      slot.s = value;
      break;
  }
  slot.overridden = true;
}

std::int64_t ParamSet::get_int(const std::string& key) const {
  const std::size_t i = index_of(key);
  if (specs_[i].type != ParamType::kInt &&
      specs_[i].type != ParamType::kAmount) {
    throw ParamError("param '" + key + "' is " +
                     param_type_name(specs_[i].type) + ", not int");
  }
  return values_[i].i;
}

Amount ParamSet::get_amount(const std::string& key) const {
  return static_cast<Amount>(get_int(key));
}

double ParamSet::get_double(const std::string& key) const {
  const std::size_t i = index_of(key);
  if (specs_[i].type != ParamType::kDouble) {
    throw ParamError("param '" + key + "' is " +
                     param_type_name(specs_[i].type) + ", not double");
  }
  return values_[i].d;
}

const std::string& ParamSet::get_string(const std::string& key) const {
  const std::size_t i = index_of(key);
  if (specs_[i].type != ParamType::kString) {
    throw ParamError("param '" + key + "' is " +
                     param_type_name(specs_[i].type) + ", not string");
  }
  return values_[i].s;
}

std::string ParamSet::value_str(const std::string& key) const {
  const std::size_t i = index_of(key);
  switch (specs_[i].type) {
    case ParamType::kInt:
    case ParamType::kAmount: return std::to_string(values_[i].i);
    case ParamType::kDouble: return double_str(values_[i].d);
    case ParamType::kString: return values_[i].s;
  }
  return "";
}

std::string ParamSet::overrides_str() const {
  std::string out;
  for (const ParamSpec& spec : specs_) {
    if (!is_set(spec.key)) continue;
    if (!out.empty()) out += " ";
    out += spec.key + "=" + value_str(spec.key);
  }
  return out;
}

std::string GridExpansion::truncation_report() const {
  if (!truncated()) return "";
  return "grid truncated: " + std::to_string(total_points) +
         " points exceed the cap, only the first " +
         std::to_string(points.size()) + " expanded";
}

void ParamGrid::add_axis(const std::string& key,
                         std::vector<std::string> values) {
  if (values.empty()) {
    throw ParamError("grid axis '" + key + "' has no values");
  }
  for (GridAxis& axis : axes_) {
    if (axis.key == key) {
      axis.values.insert(axis.values.end(),
                         std::make_move_iterator(values.begin()),
                         std::make_move_iterator(values.end()));
      return;
    }
  }
  axes_.push_back({key, std::move(values)});
}

std::vector<std::string> split_csv(const std::string& what,
                                   const std::string& csv) {
  std::vector<std::string> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = trim(
        csv.substr(start, comma == std::string::npos ? comma : comma - start));
    if (item.empty()) {
      throw ParamError("'" + what + "': empty item in value list '" + csv +
                       "' (want e.g. a,b,c)");
    }
    values.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

void ParamGrid::add_axis_csv(const std::string& key, const std::string& csv) {
  add_axis(key, split_csv("grid axis " + key, csv));
}

GridExpansion ParamGrid::expand(const ParamSet& defaults,
                                std::size_t cap) const {
  // Validate every axis value up front: a capped expansion must still
  // reject a bad value that only the truncated tail would have reached.
  // A value the schema renders like an earlier one ("01" after "1") would
  // run and count one configuration twice, so it is an error too.
  for (const GridAxis& axis : axes_) {
    ParamSet probe = defaults;
    std::vector<std::string> seen;
    for (const std::string& value : axis.values) {
      probe.set(axis.key, value);
      std::string normal = probe.value_str(axis.key);
      if (std::find(seen.begin(), seen.end(), normal) != seen.end()) {
        throw ParamError("grid axis '" + axis.key + "': '" + value +
                         "' repeats the value " + normal);
      }
      seen.push_back(std::move(normal));
    }
  }

  GridExpansion out;
  out.total_points = 1;
  for (const GridAxis& axis : axes_) {
    // Overflow-safe product: grids are user input.
    if (out.total_points >
        std::numeric_limits<std::size_t>::max() / axis.values.size()) {
      throw ParamError("grid size overflows");
    }
    out.total_points *= axis.values.size();
  }

  const std::size_t n = std::min(out.total_points, cap);
  out.points.reserve(n);
  // Row-major with the first axis varying slowest, mirroring the order the
  // axes were declared — campaign reports stay in spec order.
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (std::size_t p = 0; p < n; ++p) {
    ParamSet point = defaults;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      point.set(axes_[a].key, axes_[a].values[idx[a]]);
    }
    out.points.push_back(std::move(point));
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++idx[a] < axes_[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return out;
}

}  // namespace xchain::sim
