//===- verify/Diagnostics.cpp - Verifier diagnostics ----------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "verify/Diagnostics.h"

#include "support/StringUtils.h"

#include <sstream>

using namespace lcdfg;
using namespace lcdfg::verify;

const char *verify::severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

namespace {

void printPoint(std::ostringstream &OS, const std::vector<std::int64_t> &Pt) {
  OS << "(";
  for (std::size_t I = 0; I < Pt.size(); ++I)
    OS << (I ? "," : "") << Pt[I];
  OS << ")";
}

/// Appends `,"Key":V` for a non-negative index field.
void jsonIndex(std::string &Out, const char *Key, std::int64_t V) {
  if (V < 0)
    return;
  Out += ",\"";
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

void jsonPoint(std::string &Out, const char *Key,
               const std::vector<std::int64_t> &Pt) {
  if (Pt.empty())
    return;
  Out += ",\"";
  Out += Key;
  Out += "\":[";
  for (std::size_t I = 0; I < Pt.size(); ++I) {
    if (I)
      Out += ",";
    Out += std::to_string(Pt[I]);
  }
  Out += "]";
}

} // namespace

std::string Diagnostic::toString() const {
  std::ostringstream OS;
  OS << severityName(Sev) << "[" << CheckId << "]";
  if (Task >= 0)
    OS << " task " << Task;
  if (Instr >= 0)
    OS << " instr " << Instr;
  if (Space >= 0)
    OS << " space " << Space;
  if (!Array.empty())
    OS << " array " << Array;
  OS << ": " << Message;
  if (!Point.empty()) {
    OS << " at ";
    printPoint(OS, Point);
  }
  if (OtherTask >= 0 || OtherInstr >= 0 || !OtherPoint.empty()) {
    OS << "; other";
    if (OtherTask >= 0)
      OS << " task " << OtherTask;
    if (OtherInstr >= 0)
      OS << " instr " << OtherInstr;
    if (!OtherPoint.empty()) {
      OS << " at ";
      printPoint(OS, OtherPoint);
    }
  }
  return OS.str();
}

std::size_t Diagnostics::count(Severity Sev) const {
  std::size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Sev)
      ++N;
  return N;
}

std::string Diagnostics::toString() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags)
    OS << D.toString() << "\n";
  OS << "verify: " << count(Severity::Error) << " error(s), "
     << count(Severity::Warning) << " warning(s), " << count(Severity::Note)
     << " note(s)\n";
  return OS.str();
}

std::string Diagnostics::toJson() const {
  std::string Out = "{\"diagnostics\":[";
  for (std::size_t I = 0; I < Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    Out += I ? ",{\"severity\":\"" : "{\"severity\":\"";
    Out += severityName(D.Sev);
    Out += "\",\"check\":\"";
    support::appendJsonEscaped(Out, D.CheckId);
    Out += "\",\"message\":\"";
    support::appendJsonEscaped(Out, D.Message);
    Out += "\"";
    jsonIndex(Out, "task", D.Task);
    jsonIndex(Out, "instr", D.Instr);
    jsonIndex(Out, "other_task", D.OtherTask);
    jsonIndex(Out, "other_instr", D.OtherInstr);
    jsonIndex(Out, "space", D.Space);
    if (!D.Array.empty()) {
      Out += ",\"array\":\"";
      support::appendJsonEscaped(Out, D.Array);
      Out += "\"";
    }
    jsonPoint(Out, "point", D.Point);
    jsonPoint(Out, "other_point", D.OtherPoint);
    Out += "}";
  }
  Out += "],\"errors\":" + std::to_string(count(Severity::Error)) +
         ",\"warnings\":" + std::to_string(count(Severity::Warning)) +
         ",\"notes\":" + std::to_string(count(Severity::Note)) + "}";
  return Out;
}
