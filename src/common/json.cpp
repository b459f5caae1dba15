#include "common/json.hpp"

#include <cstdio>
#include <thread>

namespace xchain {

std::string JsonWriter::quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

JsonWriter& JsonWriter::put(std::optional<std::string_view> key,
                            std::string_view text) {
  Frame& f = frames_.back();
  if (f.one_line) {
    if (!f.empty) out_ += ", ";
  } else {
    out_ += f.empty ? "\n" : ",\n";
    out_.append(2 * frames_.size(), ' ');
  }
  f.empty = false;
  if (key) {
    out_ += quoted(*key);
    out_ += ": ";
  }
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, double value,
                              int digits) {
  char buf[512];  // fits any double at the few decimals artifacts use
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return put(key, buf);
}

JsonWriter& JsonWriter::open(std::optional<std::string_view> key,
                             char opener, Layout layout) {
  put(key, std::string_view(&opener, 1));
  frames_.push_back({opener == '{' ? '}' : ']', layout == Layout::kOneLine});
  return *this;
}

JsonWriter& JsonWriter::end() {
  const Frame f = frames_.back();
  frames_.pop_back();
  if (!f.one_line && !f.empty) {
    out_ += '\n';
    out_.append(2 * frames_.size(), ' ');
  }
  out_ += f.close;
  return *this;
}

std::string JsonWriter::finish() {
  end();
  out_ += '\n';
  return std::move(out_);
}

void BuildStamp::write(JsonWriter& w) const {
  w.field("git_commit", git_commit)
      .field("build_type", build_type)
      .field("compiler", compiler)
      .field("hardware_threads", std::thread::hardware_concurrency());
}

}  // namespace xchain
