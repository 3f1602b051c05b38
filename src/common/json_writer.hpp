// Minimal streaming JSON writer shared by every machine-readable emitter
// in the tree (experiment MetricsSink, benchreport BenchReporter).
//
// Lives in common/ so low layers can emit JSON without depending on the
// experiment subsystem; the schema each emitter produces is documented next
// to that emitter (docs/REPRODUCING.md, docs/BENCHMARKS.md).

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace pam {

/// Minimal streaming JSON writer: correct escaping, 2-space pretty
/// printing, commas managed by the writer.  Nesting is the caller's
/// responsibility (begin/end calls must balance).  Tokens go straight into
/// the stream; the writer itself allocates nothing per token.
class JsonWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  /// Opens `{`; close with the matching end_object().
  void begin_object();
  /// Closes the innermost object.
  void end_object();
  /// Opens `[`; close with the matching end_array().
  void begin_array();
  /// Closes the innermost array.
  void end_array();

  /// Emits the key for the next value inside an object.
  void key(std::string_view k);

  /// Emits a string value (escaped).
  void value(std::string_view v);
  /// Emits a C-string value (escaped).
  void value(const char* v) { value(std::string_view{v}); }
  /// Emits a number; non-finite values are emitted as null.
  void value(double v);
  /// Emits an unsigned integer.
  void value(std::uint64_t v);
  /// Emits a signed integer.
  void value(std::int64_t v);
  /// Emits a signed integer.
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  /// Emits true/false.
  void value(bool v);
  /// Emits null.
  void null();

 private:
  void separate();  ///< comma/newline/indent before a new element
  void indent();
  void open(char bracket);
  void close(char bracket);
  void write(std::string_view s);
  void write_escaped(std::string_view s);  ///< quoted, JSON-escaped

  std::ostream& out_;
  /// One entry per open container, '1' once it holds an element; its size
  /// is the nesting depth.
  std::string has_element_;
  bool pending_key_ = false;
};

}  // namespace pam
