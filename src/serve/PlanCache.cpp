//===- serve/PlanCache.cpp ------------------------------------------------===//

#include "serve/PlanCache.h"

#include "codegen/Generator.h"
#include "graph/GraphBuilder.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "support/Hash.h"
#include "verify/PlanVerifier.h"

#include <chrono>
#include <tuple>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::serve;
using support::ErrorCode;

namespace {

/// Batched synthetic stand-in bodies, mirroring the lcdfg-opt driver: a
/// parsed chain carries no executable kernels, so a sum of reads
/// (accumulating, or pure under hardening — the accumulating form reads
/// its unwritten target, which is exactly what the NaN guard flags) stands
/// in per read arity.
template <int Arity>
void batchedSum(double *W, const double *const *R, const std::int64_t *S,
                std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = W[I * WS];
    for (int J = 0; J < Arity; ++J)
      Sum += R[J][I * S[J]];
    W[I * WS] = Sum;
  }
}

template <int Arity>
void batchedPureSum(double *W, const double *const *R, const std::int64_t *S,
                    std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (int J = 0; J < Arity; ++J)
      Sum += R[J][I * S[J]];
    W[I * WS] = Sum;
  }
}

codegen::BatchedKernel batchedSumForArity(std::size_t Arity, bool Pure) {
  static constexpr codegen::BatchedKernel Acc[] = {
      batchedSum<0>, batchedSum<1>, batchedSum<2>, batchedSum<3>,
      batchedSum<4>, batchedSum<5>, batchedSum<6>, batchedSum<7>,
      batchedSum<8>};
  static constexpr codegen::BatchedKernel PureT[] = {
      batchedPureSum<0>, batchedPureSum<1>, batchedPureSum<2>,
      batchedPureSum<3>, batchedPureSum<4>, batchedPureSum<5>,
      batchedPureSum<6>, batchedPureSum<7>, batchedPureSum<8>};
  if (Arity >= sizeof(Acc) / sizeof(Acc[0]))
    return nullptr;
  return Pure ? PureT[Arity] : Acc[Arity];
}

/// The same left-associated sum as an expression, so JIT emissions add in
/// the interpreter's order (bit-identity across kernel modes).
codegen::KernelExpr sumExpr(std::size_t Arity, bool Pure) {
  codegen::KernelExpr E = Pure ? codegen::lit(0.0) : codegen::current();
  for (std::size_t J = 0; J < Arity; ++J)
    E = E + codegen::read(static_cast<unsigned>(J));
  return E;
}

/// Registers one synthetic kernel per distinct read arity and assigns ids
/// to every nest the parse left kernel-less.
void assignSyntheticKernels(ir::LoopChain &Chain,
                            codegen::KernelRegistry &Kernels, bool Harden) {
  std::map<std::size_t, int> ByArity;
  auto IdFor = [&](std::size_t Arity) {
    auto It = ByArity.find(Arity);
    if (It != ByArity.end())
      return It->second;
    int Id = Harden ? Kernels.add(
                          [](const std::vector<double> &Reads, double) {
                            double Sum = 0.0;
                            for (double R : Reads)
                              Sum += R;
                            return Sum;
                          },
                          batchedSumForArity(Arity, true), sumExpr(Arity, true))
                    : Kernels.add(
                          [](const std::vector<double> &Reads, double Current) {
                            double Sum = Current;
                            for (double R : Reads)
                              Sum += R;
                            return Sum;
                          },
                          batchedSumForArity(Arity, false),
                          sumExpr(Arity, false));
    ByArity.emplace(Arity, Id);
    return Id;
  };
  for (unsigned N = 0; N < Chain.numNests(); ++N)
    if (Chain.nest(N).KernelId < 0) {
      std::size_t Arity = 0;
      for (const ir::Access &A : Chain.nest(N).Reads)
        Arity += A.Offsets.size();
      Chain.nest(N).KernelId = IdFor(Arity);
    }
}

std::int64_t storageBytes(const storage::ConcreteStorage &Store) {
  std::int64_t Bytes = 0;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Bytes += static_cast<std::int64_t>(Store.space(S).size() * sizeof(double));
  return Bytes;
}

} // namespace

void CompiledPlan::seedStore(storage::ConcreteStorage &Store) const {
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == ir::StorageKind::PersistentInput) {
      std::vector<double> &Buf = Store.spaceOf(Name);
      for (std::size_t I = 0; I < Buf.size(); ++I)
        Buf[I] = 0.001 * static_cast<double>((I * 2654435761u) % 1000u);
    }
}

bool PlanCache::Key::operator<(const Key &O) const {
  return std::tie(ChainHash, ScriptHash, Size, Widen, Threads, Scheduler,
                  Harden) < std::tie(O.ChainHash, O.ScriptHash, O.Size,
                                     O.Widen, O.Threads, O.Scheduler,
                                     O.Harden);
}

PlanCache::Key PlanCache::keyOf(const RequestSpec &Spec) {
  Key K;
  K.ChainHash = support::fnv1a64(Spec.Chain.data(), Spec.Chain.size());
  K.ScriptHash = support::fnv1a64(Spec.Script.data(), Spec.Script.size());
  K.Size = Spec.Size;
  K.Widen = Spec.Widen;
  K.Threads = Spec.Threads;
  K.Scheduler = static_cast<int>(Spec.Scheduler);
  K.Harden = Spec.Harden;
  return K;
}

namespace {

support::Expected<CompiledPlanPtr> compileImpl(const RequestSpec &Spec) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();

  auto CP = std::make_shared<CompiledPlan>();

  parser::ParseResult Parsed = parser::parseLoopChain(Spec.Chain);
  if (!Parsed)
    return Parsed.status().withContext("while compiling a serve request");
  CP->Chain = std::move(*Parsed.Chain);
  assignSyntheticKernels(CP->Chain, CP->Kernels, Spec.Harden);

  CP->G.emplace(graph::buildGraph(CP->Chain));
  if (!Spec.Script.empty()) {
    parser::ScriptResult R = parser::runScript(*CP->G, Spec.Script);
    if (!R)
      return support::Status::error(ErrorCode::IllegalTransform,
                                    "script line " + std::to_string(R.Line) +
                                        ": " + R.Error)
          .withContext("while compiling a serve request");
  }

  // Bind every plausible extent symbol to the requested size; chains only
  // consult the symbols they actually use.
  for (const char *Sym : {"N", "M", "X", "Y", "Z", "W"})
    CP->Env.emplace(Sym, Spec.Size);

  auto SPlan = storage::StoragePlan::tryBuild(*CP->G, true, Spec.Widen);
  if (!SPlan)
    return SPlan.takeError().withContext("while compiling a serve request");
  CP->SPlan = std::move(*SPlan);

  // One throwaway concrete binding: lowering resolves streams against it,
  // and it prices the per-request allocation for admission control.
  auto Lowered = support::tryInvoke([&] {
    storage::ConcreteStorage Store(CP->SPlan, CP->Env);
    CP->Ast = codegen::generate(*CP->G);
    CP->Plan = exec::ExecutionPlan::fromAst(*CP->G, *CP->Ast, Store, CP->Env);
    CP->StoreBytes = storageBytes(Store);
    storage::FootprintTracker Tracker =
        exec::buildFootprintTracker(CP->Plan, Store);
    CP->SerialHighWater = Tracker.serialHighWater();

    // The untransformed fallback rung, lowered against its own storage
    // plan (the transformed plan's store may have collapsed arrays the
    // fallback still writes in full).
    CP->RefG.emplace(graph::buildGraph(CP->Chain));
    CP->FbSPlan = storage::StoragePlan::build(*CP->RefG);
    storage::ConcreteStorage FbStore(CP->FbSPlan, CP->Env);
    CP->FbPlan =
        exec::ExecutionPlan::fromChain(CP->Chain, FbStore, CP->Env, &*CP->RefG);
    CP->FallbackBytes = storageBytes(FbStore);
    return 0;
  });
  if (!Lowered)
    return Lowered.takeError().withContext("while compiling a serve request");

  CP->Cost = graph::computeCost(*CP->G);
  CP->TrafficBytes =
      8 * CP->Cost.TotalRead.evaluate(std::max<std::int64_t>(Spec.Size, 1));
  // The ladder snapshots both stores before running, so a request's true
  // footprint is twice each allocation.
  CP->AdmitBytes = 2 * (CP->StoreBytes + CP->FallbackBytes);

  // Strict verification once per compile; per-request runs skip the gate
  // (the verdict cannot change for an immutable plan). An unclean plan is
  // still returned — the server answers its requests with E011.
  verify::VerifyOptions VOpts;
  VOpts.Kernels = &CP->Kernels;
  verify::PlanVerifier Verifier(CP->Plan, VOpts);
  verify::Diagnostics Diags = Verifier.verify();
  verify::checkGraphSchedule(*CP->G, Diags);
  if (Diags.hasErrors()) {
    CP->VerifyClean = false;
    CP->VerifyDetail = Diags.toString();
  }

  // Pre-warm the lazily memoized dependence closures: concurrent requests
  // share this entry read-only, and the first closure computation is the
  // one mutation a cold plan would otherwise make under readers.
  (void)CP->Plan.dependenceClosure();
  (void)CP->FbPlan.dependenceClosure();

  CP->CompileSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();
  return CompiledPlanPtr(std::move(CP));
}

} // namespace

support::Expected<CompiledPlanPtr> PlanCache::compile(const RequestSpec &Spec) {
  // Exception barrier for the whole pipeline: deep passes (graph build,
  // cost polynomials, verification) raise StatusError for chains that
  // parse but are not compilable — e.g. a fuzzed access that names a
  // variable its domain never binds. A daemon must hand those back as a
  // per-request Status, never let them unwind a connection thread.
  try {
    return compileImpl(Spec);
  } catch (const support::StatusError &E) {
    support::Status S = E.status();
    return S.withContext("while compiling a serve request");
  } catch (const std::exception &E) {
    return support::Status::error(ErrorCode::InvalidChain, E.what())
        .withContext("while compiling a serve request");
  }
}

PlanCache::PlanCache(std::size_t Capacity)
    : Capacity(Capacity == 0 ? 1 : Capacity) {}

support::Expected<CompiledPlanPtr> PlanCache::get(const RequestSpec &Spec,
                                                  bool *Hit) {
  if (Hit)
    *Hit = false;
  if (Spec.Bypass) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.Misses;
    obs::Tracer::global().add(obs::Counter::ServeCacheMisses, 1);
  } else {
    Key K = keyOf(Spec);
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(K);
    if (It != Entries.end()) {
      ++Stats.Hits;
      obs::Tracer::global().add(obs::Counter::ServeCacheHits, 1);
      Order.splice(Order.begin(), Order, It->second.Order);
      if (Hit)
        *Hit = true;
      return It->second.Plan;
    }
    ++Stats.Misses;
    obs::Tracer::global().add(obs::Counter::ServeCacheMisses, 1);
  }

  // Compile outside the lock: a slow compile must not block hits.
  support::Expected<CompiledPlanPtr> Compiled = compile(Spec);
  if (!Compiled || Spec.Bypass)
    return Compiled;

  Key K = keyOf(Spec);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(K);
  if (It != Entries.end())
    return It->second.Plan; // A racing miss inserted first; keep its entry.
  while (Entries.size() >= Capacity) {
    Entries.erase(Order.back());
    Order.pop_back();
    ++Stats.Evictions;
    obs::Tracer::global().add(obs::Counter::ServeEvictions, 1);
  }
  Order.push_front(K);
  Entries.emplace(K, Entry{*Compiled, Order.begin()});
  return Compiled;
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Stats;
  S.Entries = static_cast<std::int64_t>(Entries.size());
  return S;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  Order.clear();
}
