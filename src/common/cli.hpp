#pragma once

// Helpers the command-line tools share: flag parsing and the checked
// artifact write.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace xchain {

/// True when `s` is a plain base-10 integer: digits, after one '-' when
/// `signed_ok`. strtoll and strtoull also skip leading whitespace and take
/// a '+', and strtoull wraps a '-' value to a huge one; a flag takes none
/// of that.
inline bool plain_integer(const std::string& s, bool signed_ok) {
  std::size_t i = signed_ok && !s.empty() && s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// Parses a base-10 flag integer into [lo, hi]; overflow and trailing junk
/// fail like any other bad value (no silent truncation to a different
/// meaning).
inline bool parse_long(const std::string& s, long long lo, long long hi,
                       long long& out) {
  if (!plain_integer(s, /*signed_ok=*/true)) return false;
  errno = 0;
  out = std::strtoll(s.c_str(), nullptr, 10);
  return errno != ERANGE && out >= lo && out <= hi;
}

/// Parses a base-10 flag integer over the whole unsigned 64-bit range
/// (seeds); a sign fails.
inline bool parse_ulong(const std::string& s, unsigned long long& out) {
  if (!plain_integer(s, /*signed_ok=*/false)) return false;
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// Splits a comma-separated flag value into its items. Empty items are
/// kept ("1," is "1" and ""), so a caller that rejects an empty item
/// rejects a stray comma too; an empty value has no items.
inline std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> items;
  if (s.empty()) return items;
  std::size_t at = 0;
  for (std::size_t comma; (comma = s.find(',', at)) != std::string::npos;
       at = comma + 1) {
    items.push_back(s.substr(at, comma - at));
  }
  items.push_back(s.substr(at));
  return items;
}

/// Writes `text` to `path`, replacing its contents. A failed open, a short
/// write or a failed close (a full disk) prints "<tool>: cannot open PATH"
/// or "<tool>: short write to PATH" on stderr and returns false.
inline bool write_file(const char* tool, const std::string& path,
                       const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "%s: cannot open %s\n", tool, path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0 || written != text.size()) {
    std::fprintf(stderr, "%s: short write to %s\n", tool, path.c_str());
    return false;
  }
  return true;
}

}  // namespace xchain
