#include "common/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace pam {

namespace {

// Indentation is copied out of this buffer; deeper nesting takes several
// copies.
constexpr std::string_view kSpaces = "                                ";

constexpr char kHexDigits[] = "0123456789abcdef";

template <typename Int>
void write_integer(std::ostream& out, Int v) {
  char buf[24];  // 20 digits + sign for any 64-bit integer
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.write(buf, end - buf);
}

}  // namespace

void JsonWriter::write(std::string_view s) {
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void JsonWriter::write_escaped(std::string_view s) {
  out_.put('"');
  // Copy maximal runs that need no escaping in one write each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    write(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': write("\\\""); break;
      case '\\': write("\\\\"); break;
      case '\n': write("\\n"); break;
      case '\r': write("\\r"); break;
      case '\t': write("\\t"); break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4], kHexDigits[c & 0xf]};
        write({esc, sizeof(esc)});
      }
    }
  }
  write(s.substr(run));
  out_.put('"');
}

void JsonWriter::indent() {
  for (std::size_t n = 2 * has_element_.size(); n > 0;) {
    const std::size_t chunk = std::min(n, kSpaces.size());
    write(kSpaces.substr(0, chunk));
    n -= chunk;
  }
}

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": on the same line
  }
  if (!has_element_.empty()) {
    if (has_element_.back() == '1') {
      out_.put(',');
    }
    has_element_.back() = '1';
    out_.put('\n');
    indent();
  }
}

void JsonWriter::open(char bracket) {
  separate();
  out_.put(bracket);
  has_element_ += '0';
}

void JsonWriter::close(char bracket) {
  const bool had = has_element_.back() == '1';
  has_element_.pop_back();
  if (had) {
    out_.put('\n');
    indent();
  }
  out_.put(bracket);
}

void JsonWriter::begin_object() { open('{'); }

void JsonWriter::end_object() {
  close('}');
  if (has_element_.empty()) {
    out_.put('\n');
  }
}

void JsonWriter::begin_array() { open('['); }

void JsonWriter::end_array() { close(']'); }

void JsonWriter::key(std::string_view k) {
  separate();
  write_escaped(k);
  write(": ");
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  separate();
  write_escaped(v);
}

void JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    write("null");
    return;
  }
  // The standard defines this conversion as printf's "%.10g" in the C
  // locale, which is what the reports have always carried.
  char buf[32];  // needs at most 17 ("-1.234567890e+308")
  const char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 10).ptr;
  write({buf, static_cast<std::size_t>(end - buf)});
}

void JsonWriter::value(std::uint64_t v) {
  separate();
  write_integer(out_, v);
}

void JsonWriter::value(std::int64_t v) {
  separate();
  write_integer(out_, v);
}

void JsonWriter::value(bool v) {
  separate();
  write(v ? "true" : "false");
}

void JsonWriter::null() {
  separate();
  write("null");
}

}  // namespace pam
