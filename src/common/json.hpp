#pragma once

// The one JSON writer behind every artifact the tools emit, and the build
// stamp every artifact carries: campaign sweeps (sim/campaign.hpp), fuzz
// reports (fuzz/harness.hpp) and the load report (tools/xchain_bench.cpp).
// CI and the smoke scripts match these artifacts' exact layout
// (`^  "violations": 0,`), so the writer owns it: a multi-line container
// puts each member on its own line, indented two spaces per nesting
// level, and closes on a line of its own; a single-line container joins
// its members with ", ". An empty container is [] or {} either way.
// Strings escape quote, backslash, \n and \t by name and every other
// control character as \u00XX.

#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xchain {

/// Builds one document, a multi-line top-level object, in call order.
/// field() adds to the open object and item() to the open array;
/// containers nest through begin_*()/end() pairs.
class JsonWriter {
 public:
  enum class Layout { kMultiLine, kOneLine };

  JsonWriter& field(std::string_view key, std::string_view value) {
    return put(key, quoted(value));
  }
  template <std::integral T>
  JsonWriter& field(std::string_view key, T value) {
    if constexpr (std::same_as<T, bool>) {
      return put(key, value ? "true" : "false");
    } else {
      return put(key, std::to_string(value));
    }
  }
  /// `value` in fixed notation with `digits` decimals, as printf's "%.*f".
  JsonWriter& field(std::string_view key, double value, int digits);
  JsonWriter& item(std::string_view value) {
    return put(std::nullopt, quoted(value));
  }

  /// Opens an object as member `key` of the open object, or keyless as
  /// the next element of the open array.
  JsonWriter& begin_object(std::string_view key,
                           Layout layout = Layout::kMultiLine) {
    return open(key, '{', layout);
  }
  JsonWriter& begin_object(Layout layout = Layout::kMultiLine) {
    return open(std::nullopt, '{', layout);
  }
  JsonWriter& begin_array(std::string_view key,
                          Layout layout = Layout::kMultiLine) {
    return open(key, '[', layout);
  }
  JsonWriter& end();

  /// Closes the top-level object and returns the newline-terminated
  /// document; the writer is spent. Every begin_*() must have been matched
  /// by an end() first.
  std::string finish();

 private:
  struct Frame {
    char close;
    bool one_line;
    bool empty = true;
  };

  static std::string quoted(std::string_view s);
  /// Appends the innermost container's next member: separator and
  /// indentation, `"key": ` when keyed, then `text`.
  JsonWriter& put(std::optional<std::string_view> key, std::string_view text);
  JsonWriter& open(std::optional<std::string_view> key, char opener,
                   Layout layout);

  std::string out_ = "{";
  std::vector<Frame> frames_ = {{'}', false}};  // the top-level object
};

/// Which build produced an artifact: the configure-time git HEAD, the
/// CMake build type and the compiler.
struct BuildStamp {
  std::string git_commit;
  std::string build_type;
  std::string compiler;

  /// Writes "git_commit", "build_type" and "compiler", then the host's
  /// "hardware_threads", without which a scaling curve cannot be read.
  void write(JsonWriter& w) const;
};

/// This binary's own stamp (common/stamp.cpp, the one reader of the
/// XCHAIN_* build defines). "unknown" in every field for a build that sets
/// none.
const BuildStamp& build_stamp();

}  // namespace xchain
