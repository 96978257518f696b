//===- tests/jit/JitEngineTest.cpp ----------------------------------------===//
//
// The host-compiler kernel backend. Compiled segment kernels must be
// bitwise interchangeable with KernelExpr::eval, the two-level cache must
// serve repeats without recompiling (and recover from a corrupted object
// by rebuilding it), and every failure mode — dead compiler, disabled
// engine — must surface as E017 and descend the recovery ladder with
// L008 while staying bit-identical to the interpreted run.
//
// Every compiling test skips cleanly on a machine without a working host
// compiler; the failure-path tests run everywhere.
//
//===----------------------------------------------------------------------===//

#include "jit/JitEngine.h"

#include "codegen/KernelExpr.h"
#include "exec/Recovery.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::jit;

namespace fs = std::filesystem;

namespace {

/// A fresh cache directory per test, rooted under gtest's temp dir so
/// parallel test binaries never share state, and removed with everything
/// in it when the guard leaves scope. Declare it before the engines that
/// use it so they are destroyed first.
class ScopedCacheDir {
public:
  explicit ScopedCacheDir(const std::string &Name)
      : Dir(::testing::TempDir() + "lcdfg-jit-test-" + Name + "-" +
            std::to_string(::getpid())) {
    fs::remove_all(Dir);
  }
  ~ScopedCacheDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  ScopedCacheDir(const ScopedCacheDir &) = delete;
  ScopedCacheDir &operator=(const ScopedCacheDir &) = delete;

  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

EngineOptions optsFor(const std::string &Dir) {
  EngineOptions O;
  O.CacheDir = Dir;
  return O;
}

/// The reference stencil used across the cache tests:
///   W[i] = W[i] + 0.5 * (R1[2i] - R0[i])
codegen::KernelExpr stencilExpr() {
  using codegen::current;
  using codegen::lit;
  using codegen::read;
  return current() + lit(0.5) * (read(1) - read(0));
}

codegen::SegmentKernelSig stencilSig() {
  codegen::SegmentKernelSig Sig;
  Sig.WriteStride = 1;
  Sig.ReadStrides = {1, 2};
  Sig.ReadAliasesWrite = {false, false};
  return Sig;
}

/// Runs \p K over N points and bit-compares against KernelExpr::eval on
/// the same inputs.
void expectKernelMatchesEval(codegen::BatchedKernel K,
                             const codegen::KernelExpr &E,
                             const codegen::SegmentKernelSig &Sig,
                             std::int64_t N) {
  std::vector<double> W(static_cast<std::size_t>(N * Sig.WriteStride), 0.0);
  std::vector<std::vector<double>> Reads;
  for (std::size_t J = 0; J < Sig.ReadStrides.size(); ++J) {
    std::vector<double> R(static_cast<std::size_t>(N * Sig.ReadStrides[J]));
    for (std::size_t I = 0; I < R.size(); ++I)
      R[I] = 0.25 + 0.001 * static_cast<double>((J + 2) * (I + 1));
    Reads.push_back(std::move(R));
  }
  for (std::size_t I = 0; I < W.size(); ++I)
    W[I] = 1.0 + 0.01 * static_cast<double>(I);

  std::vector<double> Expected = W;
  for (std::int64_t I = 0; I < N; ++I) {
    std::vector<double> Vals;
    for (std::size_t J = 0; J < Reads.size(); ++J)
      Vals.push_back(Reads[J][static_cast<std::size_t>(I * Sig.ReadStrides[J])]);
    std::size_t WI = static_cast<std::size_t>(I * Sig.WriteStride);
    Expected[WI] = E.eval(Vals, Expected[WI]);
  }

  std::vector<const double *> Ptrs;
  for (const std::vector<double> &R : Reads)
    Ptrs.push_back(R.data());
  K(W.data(), Ptrs.data(), Sig.ReadStrides.data(), Sig.WriteStride, N);

  ASSERT_EQ(Expected.size(), W.size());
  for (std::size_t I = 0; I < W.size(); ++I)
    EXPECT_EQ(Expected[I], W[I]) << "flat index " << I;
}

/// Locates the single cached object file for a one-kernel engine run.
std::string onlyObjectIn(const std::string &Dir) {
  std::string Found;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".so")
      continue;
    EXPECT_TRUE(Found.empty()) << "more than one cached object in " << Dir;
    Found = E.path().string();
  }
  EXPECT_FALSE(Found.empty()) << "no cached object in " << Dir;
  return Found;
}

} // namespace

TEST(JitEngine, CompiledKernelIsBitIdenticalToEval) {
  ScopedCacheDir Tmp("eval");
  Engine Eng(optsFor(Tmp.path()));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  codegen::KernelExpr E = stencilExpr();
  codegen::SegmentKernelSig Sig = stencilSig();
  auto K = Eng.kernel(E, Sig);
  ASSERT_TRUE(K) << K.error().toString();
  expectKernelMatchesEval(*K, E, Sig, 33);
  EXPECT_EQ(1, Eng.stats().Compiled);
  EXPECT_EQ(0, Eng.stats().Failures);
}

TEST(JitEngine, AliasedReadStreamStillExact) {
  // A read stream that aliases the write drops restrict and the simd
  // pragma — the ascending-order contract must still hold bitwise.
  ScopedCacheDir Tmp("alias");
  Engine Eng(optsFor(Tmp.path()));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  using codegen::current;
  using codegen::lit;
  using codegen::read;
  codegen::KernelExpr E = current() + lit(0.5) * (read(1) - read(0));
  codegen::SegmentKernelSig Sig;
  Sig.WriteStride = 1;
  Sig.ReadStrides = {1, 1};
  Sig.ReadAliasesWrite = {true, false};
  auto K = Eng.kernel(E, Sig);
  ASSERT_TRUE(K) << K.error().toString();

  // The aliased read trails the write cursor by one element inside the
  // same buffer (the self-referencing stencil shape RowPlan produces):
  // with the ABI's ascending-order contract, lane I reads the value lane
  // I-1 just wrote, so any illegal vectorization shows up bitwise.
  const std::int64_t N = 24;
  std::vector<double> Buf(static_cast<std::size_t>(N) + 1);
  std::vector<double> R1(static_cast<std::size_t>(N));
  for (std::size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = 1.0 + 0.01 * static_cast<double>(I);
  for (std::size_t I = 0; I < R1.size(); ++I)
    R1[I] = 0.25 + 0.002 * static_cast<double>(I);

  std::vector<double> Expected = Buf;
  for (std::int64_t I = 0; I < N; ++I) {
    std::size_t S = static_cast<std::size_t>(I) + 1;
    Expected[S] =
        E.eval({Expected[S - 1], R1[static_cast<std::size_t>(I)]}, Expected[S]);
  }

  std::vector<const double *> Ptrs = {Buf.data(), R1.data()};
  std::vector<std::int64_t> Strides = {1, 1};
  (*K)(Buf.data() + 1, Ptrs.data(), Strides.data(), 1, N);
  for (std::size_t I = 0; I < Buf.size(); ++I)
    EXPECT_EQ(Expected[I], Buf[I]) << "flat index " << I;
}

TEST(JitEngine, FusedRowWalkerMatchesEvalAndCountsChunks) {
  // The fused row kernel is the segment walker with constants baked in:
  // over a modulo read window it must chunk at wrap boundaries (and at
  // MaxSegment), produce values bit-identical to the scalar eval order,
  // and report the same segment/wrap tallies the interpreter would.
  ScopedCacheDir Tmp("row");
  Engine Eng(optsFor(Tmp.path()));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  using codegen::current;
  using codegen::read;
  codegen::KernelExpr E = current() + read(0);

  // One statement over x = 0..9: W[x] += Win[(2 + x) mod 4].
  codegen::RowKernelDesc Desc;
  codegen::RowKernelDesc::Stmt St;
  St.Body = &E;
  St.Lo = 0;
  St.Hi = 9;
  St.Write = {/*Space=*/0, /*Modulo=*/false, /*ModSize=*/1,
              /*InnerStride=*/1, /*Flat=*/0, /*AliasesWrite=*/false};
  St.Reads = {{/*Space=*/1, /*Modulo=*/true, /*ModSize=*/4,
               /*InnerStride=*/1, /*Flat=*/1, /*AliasesWrite=*/false}};
  Desc.Stmts.push_back(St);

  auto RK = Eng.rowKernel(Desc);
  ASSERT_TRUE(RK) << RK.error().toString();

  std::vector<double> Out(10), Win = {10.0, 20.0, 30.0, 40.0};
  for (std::size_t I = 0; I < Out.size(); ++I)
    Out[I] = 0.125 * static_cast<double>(I);
  std::vector<double> Expected = Out;
  for (std::size_t X = 0; X < Expected.size(); ++X)
    Expected[X] = E.eval({Win[(2 + X) % 4]}, Expected[X]);

  double *Spaces[2] = {Out.data(), Win.data()};
  std::int64_t Base[2] = {0, 2}; // Pre-wrap bases: write at 0, read at 2.
  std::int64_t Ctrs[2] = {0, 0};
  (*RK)(Spaces, Base, /*Admit=*/1, /*RowLo=*/0, /*RowHi=*/9, Ctrs);
  for (std::size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Expected[I], Out[I]) << "flat index " << I;
  // Wrap countdown from phase 2 of a size-4 window: chunks 2, 4, 4 —
  // each ending exactly on a wrap boundary.
  EXPECT_EQ(3, Ctrs[0]);
  EXPECT_EQ(3, Ctrs[1]);

  // The same row under a conflict cap of 3 splits into more chunks but
  // must not change a single bit. A distinct desc compiles separately.
  Desc.MaxSegment = 3;
  auto Capped = Eng.rowKernel(Desc);
  ASSERT_TRUE(Capped) << Capped.error().toString();
  EXPECT_NE(*RK, *Capped);
  std::vector<double> Out2(10);
  for (std::size_t I = 0; I < Out2.size(); ++I)
    Out2[I] = 0.125 * static_cast<double>(I);
  Spaces[0] = Out2.data();
  std::int64_t Ctrs2[2] = {0, 0};
  (*Capped)(Spaces, Base, 1, 0, 9, Ctrs2);
  for (std::size_t I = 0; I < Out2.size(); ++I)
    EXPECT_EQ(Expected[I], Out2[I]) << "flat index " << I;
  EXPECT_GT(Ctrs2[0], Ctrs[0]);
  EXPECT_EQ(3, Ctrs2[1]);

  // An unadmitted statement must leave memory and counters untouched.
  std::vector<double> Out3(10, 7.0);
  Spaces[0] = Out3.data();
  std::int64_t Ctrs3[2] = {0, 0};
  (*RK)(Spaces, Base, /*Admit=*/0, 0, 9, Ctrs3);
  for (std::size_t I = 0; I < Out3.size(); ++I)
    EXPECT_EQ(7.0, Out3[I]);
  EXPECT_EQ(0, Ctrs3[0]);
  EXPECT_EQ(0, Ctrs3[1]);
}

TEST(JitEngine, SecondRequestHitsInMemoryCache) {
  ScopedCacheDir Tmp("mem");
  Engine Eng(optsFor(Tmp.path()));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  codegen::KernelExpr E = stencilExpr();
  codegen::SegmentKernelSig Sig = stencilSig();
  auto K1 = Eng.kernel(E, Sig);
  ASSERT_TRUE(K1) << K1.error().toString();
  auto K2 = Eng.kernel(E, Sig);
  ASSERT_TRUE(K2) << K2.error().toString();
  EXPECT_EQ(*K1, *K2);
  EXPECT_EQ(1, Eng.stats().Compiled);
  EXPECT_EQ(1, Eng.stats().CacheHits);
}

TEST(JitEngine, DiskCacheServesSecondEngineWithoutCompiling) {
  ScopedCacheDir Tmp("disk");
  const std::string Dir = Tmp.path();
  codegen::KernelExpr E = stencilExpr();
  codegen::SegmentKernelSig Sig = stencilSig();
  {
    Engine A(optsFor(Dir));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.kernel(E, Sig);
    ASSERT_TRUE(K) << K.error().toString();
    EXPECT_EQ(1, A.stats().Compiled);
  }
  Engine B(optsFor(Dir));
  auto K = B.kernel(E, Sig);
  ASSERT_TRUE(K) << K.error().toString();
  EXPECT_EQ(0, B.stats().Compiled);
  EXPECT_EQ(1, B.stats().CacheHits);
  expectKernelMatchesEval(*K, E, Sig, 19);
}

TEST(JitEngine, FlagChangeInvalidatesCacheKey) {
  ScopedCacheDir Tmp("flags");
  const std::string Dir = Tmp.path();
  codegen::KernelExpr E = stencilExpr();
  codegen::SegmentKernelSig Sig = stencilSig();
  {
    Engine A(optsFor(Dir));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.kernel(E, Sig);
    ASSERT_TRUE(K) << K.error().toString();
  }
  EngineOptions O = optsFor(Dir);
  O.ExtraFlags = "-DLCDFG_JIT_TEST_STALE";
  Engine B(std::move(O));
  ASSERT_TRUE(B.available()) << B.unavailableReason();
  auto K = B.kernel(E, Sig);
  ASSERT_TRUE(K) << K.error().toString();
  // Different flags, different key: the old object must not be reused.
  EXPECT_EQ(1, B.stats().Compiled);
  EXPECT_EQ(0, B.stats().CacheHits);
}

TEST(JitEngine, CorruptCachedObjectIsRebuilt) {
  // Mutation test: a cache dir seeded with a corrupt object under the
  // right key must be rebuilt transparently, not surfaced as an error.
  // The corrupt file goes into a *second* cache dir under the basename
  // engine A produced (the key covers compiler + flags + source, not the
  // directory), because dlopen dedups by path within one process — the
  // path engine B opens must be one this process never loaded.
  ScopedCacheDir TmpA("corrupt-a");
  const std::string DirA = TmpA.path();
  ScopedCacheDir TmpB("corrupt-b");
  const std::string DirB = TmpB.path();
  codegen::KernelExpr E = stencilExpr();
  codegen::SegmentKernelSig Sig = stencilSig();
  {
    Engine A(optsFor(DirA));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.kernel(E, Sig);
    ASSERT_TRUE(K) << K.error().toString();
  }
  const fs::path SoA = onlyObjectIn(DirA);
  fs::create_directories(DirB);
  const std::string SoB = (fs::path(DirB) / SoA.filename()).string();
  {
    std::ofstream Out(SoB, std::ios::trunc);
    Out << "not an elf object";
  }
  Engine B(optsFor(DirB));
  auto K = B.kernel(E, Sig);
  ASSERT_TRUE(K) << K.error().toString();
  EXPECT_EQ(1, B.stats().Compiled) << "corrupt object must be rebuilt";
  EXPECT_EQ(0, B.stats().Failures);
  expectKernelMatchesEval(*K, E, Sig, 19);
}

TEST(JitEngine, DeadCompilerIsUnavailableNotFatal) {
  ScopedCacheDir Tmp("dead");
  EngineOptions O = optsFor(Tmp.path());
  O.Compiler = "/bin/false";
  Engine Eng(std::move(O));
  EXPECT_FALSE(Eng.available());
  EXPECT_FALSE(Eng.unavailableReason().empty());
  auto K = Eng.kernel(stencilExpr(), stencilSig());
  ASSERT_FALSE(K);
  EXPECT_EQ(support::ErrorCode::JitUnavailable, K.error().code());
  EXPECT_GE(Eng.stats().Failures, 1);
  EXPECT_EQ(0, Eng.stats().Compiled);
}

TEST(JitEngine, DisabledEngineRefusesWithE017) {
  ScopedCacheDir Tmp("disabled");
  EngineOptions O = optsFor(Tmp.path());
  O.Enabled = false;
  Engine Eng(std::move(O));
  EXPECT_FALSE(Eng.available());
  auto K = Eng.kernel(stencilExpr(), stencilSig());
  ASSERT_FALSE(K);
  EXPECT_EQ(support::ErrorCode::JitUnavailable, K.error().code());
}

//===----------------------------------------------------------------------===//
// End-to-end: the recovery ladder around a real plan.
//===----------------------------------------------------------------------===//

namespace {

/// MiniFluxDiv harness, mirroring the Recovery suite: deterministic seeded
/// inputs, persistent outputs in extent order for bit-comparison.
struct Harness {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  graph::Graph G;
  storage::StoragePlan Plan;
  exec::ParamEnv Env;

  explicit Harness(std::int64_t N)
      : Chain(mfd::buildChain2D()), G(graph::buildGraph(Chain)),
        Plan(storage::StoragePlan::build(G, /*UseAllocation=*/false)),
        Env{{"N", N}} {
    mfd::registerKernels(Chain, Kernels);
  }

  storage::ConcreteStorage freshStore() {
    storage::ConcreteStorage Store(Plan, Env);
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentInput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            double V = 1.0;
            for (std::size_t D = 0; D < P.size(); ++D)
              V += 0.001 * static_cast<double>((D + 3) * P[D]);
            Store.at(Name, P) = V;
          });
    }
    return Store;
  }

  std::vector<double> outputs(storage::ConcreteStorage &Store) {
    std::vector<double> Out;
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentOutput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            Out.push_back(Store.at(Name, P));
          });
    }
    return Out;
  }

  std::vector<double> oracle() {
    storage::ConcreteStorage Store = freshStore();
    exec::ExecutionPlan P = exec::ExecutionPlan::fromChain(Chain, Store, Env);
    exec::RunOptions O;
    O.Batched = false;
    O.Threads = 1;
    exec::runPlan(P, Kernels, Store, O);
    return outputs(Store);
  }
};

} // namespace

TEST(JitRecovery, BrokenEngineDescendsL008BitIdentical) {
  // The satellite mutation test: a JIT engine that cannot deliver (dead
  // host compiler) must cost exactly one L008 descent, after which the
  // run completes on the interpreted batched bodies with outputs bitwise
  // equal to the scalar-serial oracle.
  Harness S(8);
  std::vector<double> Expected = S.oracle();

  ScopedCacheDir Tmp("l008");
  EngineOptions O = optsFor(Tmp.path());
  O.Compiler = "/bin/false";
  Engine Broken(std::move(O));

  storage::ConcreteStorage Store = S.freshStore();
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 1;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Broken;
  exec::RunReport R = exec::runWithRecovery(Plan, S.Kernels, Store, RO);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered) << R.toString();
  ASSERT_EQ(1u, R.Descents.size()) << R.toString();
  EXPECT_EQ(exec::ReasonJitUnavailable, R.Descents[0].Reason);
  EXPECT_EQ("jit-batched-serial", R.Descents[0].Rung);
  EXPECT_EQ("batched-serial", R.FinalRung);

  std::vector<double> Got = S.outputs(Store);
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

TEST(JitRecovery, WorkingEngineCompilesAndStaysBitIdentical) {
  Harness S(8);
  ScopedCacheDir Tmp("e2e");
  Engine Eng(optsFor(Tmp.path()));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 2;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Eng;
  exec::RunReport R = exec::runWithRecovery(Plan, S.Kernels, Store, RO);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_FALSE(R.Recovered) << R.toString();
  EXPECT_EQ("jit-batched-parallel", R.FinalRung);
  EXPECT_GE(Eng.stats().Compiled + Eng.stats().CacheHits, 1);

  std::vector<double> Got = S.outputs(Store);
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}
