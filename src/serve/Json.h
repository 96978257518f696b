//===- serve/Json.h - Minimal JSON values for the wire protocol -*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request side of the serving protocol. The repo has plenty of JSON
/// *emitters* (Status::toJson, RunReport::toJson, bench::JsonReport) but
/// until the daemon existed nothing needed to read JSON back; this is the
/// smallest recursive-descent reader that covers the protocol grammar —
/// objects, arrays, strings with the standard escapes, numbers, booleans,
/// null — hardened for hostile input: a depth cap, a strict
/// must-consume-everything top level, and structured E020 errors instead
/// of exceptions, so the soak test can throw mutated garbage at it all
/// day. Numbers are kept as doubles (the protocol's integers are far
/// below 2^53); \uXXXX escapes are decoded to UTF-8.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SERVE_JSON_H
#define LCDFG_SERVE_JSON_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lcdfg {
namespace serve {

/// One parsed JSON value. A tagged aggregate rather than a variant: the
/// protocol's values are tiny and short-lived, so the few wasted bytes
/// buy simple, non-throwing accessors.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<std::pair<std::string, JsonValue>> Members; ///< Kind::Object
  std::vector<JsonValue> Items;                           ///< Kind::Array

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNull() const { return K == Kind::Null; }

  /// First member named \p Key (nullptr when absent or not an object).
  const JsonValue *find(std::string_view Key) const;

  /// Typed reads with defaults; a present member of the wrong type reads
  /// as the default (callers that must distinguish use find()).
  std::string asString(std::string_view Def = "") const;
  std::int64_t asInt(std::int64_t Def = 0) const;
  double asDouble(double Def = 0.0) const;
  bool asBool(bool Def = false) const;
};

/// Parses \p Text as exactly one JSON value (leading/trailing whitespace
/// allowed, nothing else). Errors are E020-protocol with a byte offset in
/// the message.
support::Expected<JsonValue> parseJson(std::string_view Text);

/// Convenience: "key":"escaped-value" fragment builders used by the
/// response writers (escaping through support::appendJsonEscaped).
std::string jsonField(std::string_view Key, std::string_view Value);
std::string jsonField(std::string_view Key, std::int64_t Value);
std::string jsonField(std::string_view Key, double Value);
std::string jsonField(std::string_view Key, bool Value);

} // namespace serve
} // namespace lcdfg

#endif // LCDFG_SERVE_JSON_H
