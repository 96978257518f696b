//===- support/StringUtils.h - String helpers for the parser ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used by the omplc pragma parser, pretty printers
/// and JSON emitters.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_STRINGUTILS_H
#define LCDFG_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace lcdfg {

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view S, char Sep);

/// Splits on \p Sep but only at nesting depth zero with respect to
/// parentheses, braces, and brackets. Used to split "(x,y),(x+1,y)" into
/// the two tuples rather than four fragments.
std::vector<std::string> splitTopLevel(std::string_view S, char Sep);

bool startsWith(std::string_view S, std::string_view Prefix);

/// Consumes \p Prefix from the front of \p S (after trimming); returns true
/// and advances \p S on success.
bool consumePrefix(std::string_view &S, std::string_view Prefix);

namespace support {

/// Appends \p S to \p Out escaped for the inside of a JSON string literal
/// (quotes not included): `"` `\` newline, CR and tab get their short
/// escapes, every other byte below 0x20 becomes \u00XX, and all other
/// bytes pass through. The one escaper behind every JSON emitter.
void appendJsonEscaped(std::string &Out, std::string_view S);

} // namespace support

} // namespace lcdfg

#endif // LCDFG_SUPPORT_STRINGUTILS_H
