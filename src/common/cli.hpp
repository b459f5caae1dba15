#pragma once

// Helpers the command-line tools share: flag parsing and the checked
// artifact write.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace xchain {

/// Parses a base-10 flag integer into [lo, hi]; overflow and trailing junk
/// fail like any other bad value (no silent truncation to a different
/// meaning).
inline bool parse_long(const std::string& s, long long lo, long long hi,
                       long long& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0' && errno != ERANGE && out >= lo &&
         out <= hi;
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
