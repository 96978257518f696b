//===- exec/FaultInjector.cpp ---------------------------------------------===//

#include "exec/FaultInjector.h"

#include "exec/ExecutionPlan.h"
#include "obs/Trace.h"
#include "storage/StorageMap.h"
#include "support/Errors.h"
#include "support/StringUtils.h"

#include <cstddef>
#include <cstdlib>

using namespace lcdfg;
using namespace lcdfg::exec;
using support::ErrorCode;

std::string_view exec::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::None:
    return "none";
  case FaultSite::Kernel:
    return "kernel";
  case FaultSite::Task:
    return "task";
  case FaultSite::Modulo:
    return "modulo";
  case FaultSite::Input:
    return "input";
  case FaultSite::JitValidate:
    return "jitval";
  case FaultSite::Serve:
    return "serve";
  }
  return "none";
}

std::string_view exec::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::None:
    return "none";
  case FaultKind::Throw:
    return "throw";
  case FaultKind::Fail:
    return "fail";
  case FaultKind::Corrupt:
    return "corrupt";
  case FaultKind::Truncate:
    return "truncate";
  case FaultKind::Reject:
    return "reject";
  case FaultKind::Drop:
    return "drop";
  case FaultKind::Delay:
    return "delay";
  }
  return "none";
}

support::Expected<FaultSpec> FaultInjector::parseSpec(std::string_view Spec) {
  auto Bad = [&](std::string Why) {
    return support::Status::error(ErrorCode::FaultInjected,
                                  "bad LCDFG_FAULT spec '" +
                                      std::string(Spec) + "': " +
                                      std::move(Why));
  };
  std::vector<std::string> Parts = split(Spec, ':');
  if (Parts.size() < 2 || Parts.size() > 3)
    return Bad("expected <site>:<kind>[:<nth>]");

  FaultSpec S;
  std::string_view Site = trim(Parts[0]);
  if (Site == "kernel")
    S.Site = FaultSite::Kernel;
  else if (Site == "task")
    S.Site = FaultSite::Task;
  else if (Site == "modulo")
    S.Site = FaultSite::Modulo;
  else if (Site == "input")
    S.Site = FaultSite::Input;
  else if (Site == "jitval")
    S.Site = FaultSite::JitValidate;
  else if (Site == "serve")
    S.Site = FaultSite::Serve;
  else
    return Bad("unknown site '" + std::string(Site) +
               "' (kernel|task|modulo|input|jitval|serve)");

  std::string_view Kind = trim(Parts[1]);
  if (Kind == "throw")
    S.Kind = FaultKind::Throw;
  else if (Kind == "fail")
    S.Kind = FaultKind::Fail;
  else if (Kind == "corrupt")
    S.Kind = FaultKind::Corrupt;
  else if (Kind == "truncate")
    S.Kind = FaultKind::Truncate;
  else if (Kind == "reject")
    S.Kind = FaultKind::Reject;
  else if (Kind == "drop")
    S.Kind = FaultKind::Drop;
  else if (Kind == "delay")
    S.Kind = FaultKind::Delay;
  else
    return Bad("unknown kind '" + std::string(Kind) +
               "' (throw|fail|corrupt|truncate|reject|drop|delay)");

  const bool Paired = (S.Site == FaultSite::Kernel && S.Kind == FaultKind::Throw) ||
                      (S.Site == FaultSite::Task && S.Kind == FaultKind::Fail) ||
                      (S.Site == FaultSite::Modulo && S.Kind == FaultKind::Corrupt) ||
                      (S.Site == FaultSite::Input && S.Kind == FaultKind::Truncate) ||
                      (S.Site == FaultSite::JitValidate && S.Kind == FaultKind::Reject) ||
                      (S.Site == FaultSite::Serve &&
                       (S.Kind == FaultKind::Drop ||
                        S.Kind == FaultKind::Truncate ||
                        S.Kind == FaultKind::Delay));
  if (!Paired)
    return Bad("kind '" + std::string(Kind) + "' does not apply to site '" +
               std::string(Site) + "'");

  if (Parts.size() == 3) {
    std::string_view N = trim(Parts[2]);
    unsigned Nth = 0;
    for (char C : N) {
      if (C < '0' || C > '9')
        return Bad("occurrence '" + std::string(N) + "' is not a number");
      Nth = Nth * 10 + static_cast<unsigned>(C - '0');
    }
    if (Nth == 0)
      return Bad("occurrence must be >= 1");
    S.Nth = Nth;
  }
  return S;
}

FaultInjector &FaultInjector::global() {
  static FaultInjector *FI = [] {
    auto *Injector = new FaultInjector();
    if (const char *Env = std::getenv("LCDFG_FAULT"); Env && *Env) {
      auto Spec = parseSpec(Env);
      if (!Spec)
        reportFatalError(Spec.error().toString());
      Injector->arm(*Spec);
    }
    return Injector;
  }();
  return *FI;
}

void FaultInjector::arm(FaultSpec S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spec = S;
  Hits = 0;
  Fired = 0;
  Armed.store(S.Site != FaultSite::None, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> Lock(Mu);
  Spec = FaultSpec{};
  Armed.store(false, std::memory_order_relaxed);
}

bool FaultInjector::armedFor(FaultSite Site) const {
  if (!Armed.load(std::memory_order_relaxed))
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  return Spec.Site == Site;
}

bool FaultInjector::shouldFire(FaultSite Site) {
  return fire(Site) != FaultKind::None;
}

FaultKind FaultInjector::fire(FaultSite Site) {
  if (!Armed.load(std::memory_order_relaxed))
    return FaultKind::None;
  std::lock_guard<std::mutex> Lock(Mu);
  // The Nth occurrence fires and disarms the spec (one-shot — retries down
  // the degradation ladder see a healthy system).
  if (Spec.Site != Site || ++Hits < Spec.Nth)
    return FaultKind::None;
  const FaultSpec FiredSpec = Spec;
  Spec = FaultSpec{};
  ++Fired;
  Armed.store(false, std::memory_order_relaxed);
  // Annotate the firing on the trace timeline (the tracer never calls back
  // into the injector, so taking its lock under Mu cannot invert).
  obs::Tracer &Tr = obs::Tracer::global();
  if (Tr.enabled()) {
    std::string Label = "fault:" +
                        std::string(faultSiteName(FiredSpec.Site)) + ":" +
                        std::string(faultKindName(FiredSpec.Kind));
    Tr.instant(obs::SpanKind::Marker, Tr.intern(Label));
    Tr.add(obs::Counter::FaultsFired, 1);
  }
  return FiredSpec.Kind;
}

unsigned FaultInjector::firedCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Fired;
}

bool FaultInjector::applyPlanFault(ExecutionPlan &Plan) {
  if (!armedFor(FaultSite::Modulo))
    return false;
  for (NestInstr &I : Plan.Instrs) {
    for (StmtRecord &S : I.Stmts) {
      auto Corrupt = [&](Stream &St) {
        if (!St.Modulo || St.ModSize <= 1)
          return false;
        if (!shouldFire(FaultSite::Modulo))
          return false;
        St.ModSize -= 1;
        return true;
      };
      if (Corrupt(S.Write))
        return true;
      for (Stream &R : S.Reads)
        if (Corrupt(R))
          return true;
    }
  }
  return false;
}

bool FaultInjector::applyStorageFault(const ExecutionPlan &Plan,
                                      storage::ConcreteStorage &Store) {
  if (!armedFor(FaultSite::Input))
    return false;
  for (std::size_t S = 0; S < Plan.NumSpaces && S < Store.numSpaces(); ++S) {
    if (!Plan.SpacePersistent[S] || Store.space(S).size() <= 1)
      continue;
    // Every eligible space is one occurrence of the site: keep scanning on
    // a miss so input:truncate:<nth> with nth > 1 can still fire.
    if (!shouldFire(FaultSite::Input))
      continue;
    Store.space(S).resize(Store.space(S).size() / 2);
    return true;
  }
  return false;
}
