//===- exec/FaultInjector.h - Injected faults for hardening -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for exercising the fail-operational
/// execution layer. An armed FaultSpec names a site, a kind, and the
/// 1-based occurrence at which it fires:
///
///   LCDFG_FAULT=<site>:<kind>[:<nth>]
///
///   site    kind       effect
///   ------  --------   ----------------------------------------------
///   kernel  throw      StatusError(E012) from inside a kernel task
///   task    fail       StatusError(E012) before a task-graph node runs
///   modulo  corrupt    shrinks one modulo stream's window on a plan
///                      copy (caught statically as V001 under --verify)
///   input   truncate   halves one persistent backing space (caught by
///                      the runner's plan-vs-storage validation)
///   jitval  reject     forces the JIT translation-validation gate to
///                      reject one kernel (surfaced as L008, the run
///                      keeps the interpreted bodies)
///   serve   drop       the daemon closes one client connection before
///                      writing any response byte (the client observes
///                      EOF -> E018); other connections are untouched
///   serve   truncate   the daemon writes roughly half of one response
///                      line and closes mid-frame (the client sees an
///                      unterminated/corrupt frame -> E020)
///   serve   delay      the daemon stalls LCDFG_SERVE_DELAY_MS inside one
///                      response write — the server-side slow-loris; a
///                      stall past the client deadline is E019, a short
///                      one is absorbed
///
/// Faults are one-shot: a spec disarms itself when it fires, so a
/// degradation-ladder retry observes a healthy system — recovery from a
/// transient fault is deterministic and testable. The process-wide
/// injector arms itself from LCDFG_FAULT on first use; tests arm and
/// disarm programmatically.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_FAULTINJECTOR_H
#define LCDFG_EXEC_FAULTINJECTOR_H

#include "support/Status.h"

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>

namespace lcdfg {

namespace storage {
class ConcreteStorage;
}

namespace exec {

struct ExecutionPlan;

/// Where a fault strikes.
enum class FaultSite { None, Kernel, Task, Modulo, Input, JitValidate, Serve };
/// What the fault does at its site.
enum class FaultKind { None, Throw, Fail, Corrupt, Truncate, Reject, Drop, Delay };

/// One parsed fault specification.
struct FaultSpec {
  FaultSite Site = FaultSite::None;
  FaultKind Kind = FaultKind::None;
  /// 1-based occurrence of the site at which the fault fires.
  unsigned Nth = 1;
};

/// Printable names ("kernel", "throw", ...) for messages and reports.
std::string_view faultSiteName(FaultSite Site);
std::string_view faultKindName(FaultKind Kind);

/// The process-wide fault injector. Thread-safe: sites are probed from
/// pool workers; the unarmed fast path is a relaxed atomic load.
class FaultInjector {
public:
  /// The global instance, armed once from LCDFG_FAULT (when set and
  /// parseable; a malformed spec is reported fatally — a fault campaign
  /// with a typo must not silently test nothing).
  static FaultInjector &global();

  /// Parses "<site>:<kind>[:<nth>]", validating the site/kind pairing
  /// shown in the file header. Returns E012-fault-injected errors for
  /// malformed specs.
  static support::Expected<FaultSpec> parseSpec(std::string_view Spec);

  /// Arms exactly \p Spec, replacing anything previously armed.
  void arm(FaultSpec Spec);
  void disarm();
  bool armedFor(FaultSite Site) const;

  /// True exactly when this probe is the armed spec's Nth occurrence of
  /// \p Site; the spec disarms itself on firing (one-shot).
  bool shouldFire(FaultSite Site);

  /// Like shouldFire, but reports *which* kind fired at \p Site (so a
  /// single probe point — the serve response write — can dispatch between
  /// serve:drop / serve:truncate / serve:delay). FaultKind::None when the
  /// armed spec did not fire.
  FaultKind fire(FaultSite Site);

  /// Faults fired since the last arm() (0 or 1 under one-shot specs).
  unsigned firedCount() const;

  /// Applies an armed modulo:corrupt fault to \p Plan: shrinks the first
  /// wrap window (ModSize > 1) it finds by one element, the smallest
  /// corruption a reuse-distance window cannot absorb. Returns true when
  /// the fault fired and the plan was mutated.
  bool applyPlanFault(ExecutionPlan &Plan);

  /// Applies an armed input:truncate fault to \p Store: halves the Nth
  /// eligible persistent backing space (per \p Plan's space table; each
  /// eligible space counts as one occurrence of the site). Returns true
  /// when the fault fired and the store was mutated.
  bool applyStorageFault(const ExecutionPlan &Plan,
                         storage::ConcreteStorage &Store);

private:
  mutable std::mutex Mu;
  std::atomic<bool> Armed{false};
  FaultSpec Spec;
  unsigned Hits = 0;
  unsigned Fired = 0;
};

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_FAULTINJECTOR_H
