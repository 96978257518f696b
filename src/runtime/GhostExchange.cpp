//===- runtime/GhostExchange.cpp ------------------------------------------===//

#include "runtime/GhostExchange.h"

#include "obs/Trace.h"
#include "runtime/Parallel.h"
#include "support/Errors.h"

#include <string>

using namespace lcdfg;
using namespace lcdfg::rt;
using support::ErrorCode;
using support::Status;

namespace {

/// Maps a global (per-box-relative) coordinate into (neighbor offset,
/// local coordinate).
inline void splitCoord(int Coord, int N, int &BoxOffset, int &Local) {
  if (Coord < 0) {
    BoxOffset = -1;
    Local = Coord + N;
  } else if (Coord >= N) {
    BoxOffset = 1;
    Local = Coord - N;
  } else {
    BoxOffset = 0;
    Local = Coord;
  }
}

/// Checks the exchangeGhosts preconditions (see GhostExchange.h).
Status validateGhostGrid(const std::vector<Box> &Boxes,
                         const GridLayout &Layout) {
  auto Bad = [](std::string Why) {
    return Status::error(ErrorCode::InvalidChain,
                         "ghost grid: " + std::move(Why))
        .withSubcode("ghost-grid");
  };
  if (Layout.Bz <= 0 || Layout.By <= 0 || Layout.Bx <= 0)
    return Bad("layout extents must be positive (" +
               std::to_string(Layout.Bz) + "x" + std::to_string(Layout.By) +
               "x" + std::to_string(Layout.Bx) + ")");
  if (static_cast<int>(Boxes.size()) != Layout.numBoxes())
    return Bad("box count " + std::to_string(Boxes.size()) +
               " does not match layout (" +
               std::to_string(Layout.numBoxes()) + " boxes)");
  if (Boxes.empty())
    return Status::ok();
  const int N = Boxes.front().size();
  const int G = Boxes.front().ghost();
  const int NumComp = Boxes.front().numComponents();
  for (std::size_t I = 1; I < Boxes.size(); ++I) {
    const Box &B = Boxes[I];
    if (B.size() != N || B.ghost() != G || B.numComponents() != NumComp)
      return Bad("box " + std::to_string(I) + " (" +
                 std::to_string(B.size()) + "^3, ghost " +
                 std::to_string(B.ghost()) + ", " +
                 std::to_string(B.numComponents()) +
                 " comp) differs from box 0 (" + std::to_string(N) +
                 "^3, ghost " + std::to_string(G) + ", " +
                 std::to_string(NumComp) + " comp)");
  }
  if (G > N)
    return Bad("ghost depth " + std::to_string(G) +
               " exceeds box interior extent " + std::to_string(N) +
               " (would read past the nearest neighbor)");
  return Status::ok();
}

/// Fills the ghost cells of the single box at \p Index from the interiors
/// of its periodic neighbors. Preconditions are not re-validated here.
void fillGhostsOfBox(std::vector<Box> &Boxes, const GridLayout &Layout,
                     int Index) {
  const int N = Boxes.front().size();
  const int G = Boxes.front().ghost();
  const int NumComp = Boxes.front().numComponents();
  int BZ = Index / (Layout.By * Layout.Bx);
  int BY = (Index / Layout.Bx) % Layout.By;
  int BX = Index % Layout.Bx;
  Box &Dst = Boxes[static_cast<std::size_t>(Index)];

  for (int C = 0; C < NumComp; ++C)
    for (int Z = -G; Z < N + G; ++Z)
      for (int Y = -G; Y < N + G; ++Y)
        for (int X = -G; X < N + G; ++X) {
          bool Interior =
              Z >= 0 && Z < N && Y >= 0 && Y < N && X >= 0 && X < N;
          if (Interior)
            continue;
          int DZ, DY, DX, LZ, LY, LX;
          splitCoord(Z, N, DZ, LZ);
          splitCoord(Y, N, DY, LY);
          splitCoord(X, N, DX, LX);
          const Box &Src = Boxes[static_cast<std::size_t>(Layout.index(
              GridLayout::wrap(BZ + DZ, Layout.Bz),
              GridLayout::wrap(BY + DY, Layout.By),
              GridLayout::wrap(BX + DX, Layout.Bx)))];
          Dst.at(C, Z, Y, X) = Src.at(C, LZ, LY, LX);
        }
}

} // namespace

Status rt::exchangeGhosts(std::vector<Box> &Boxes, const GridLayout &Layout,
                          int Threads) {
  if (Status S = validateGhostGrid(Boxes, Layout); !S)
    return S.withContext("exchanging ghosts");
  if (Boxes.empty())
    return Status::ok();
  const int N = Boxes.front().size();
  const int G = Boxes.front().ghost();
  const int NumComp = Boxes.front().numComponents();

  // Every non-interior cell of every box is filled once per exchange; each
  // fill reads one source cell and writes one ghost cell (16 bytes).
  obs::Tracer &Tr = obs::Tracer::global();
  if (Tr.enabled()) {
    const std::int64_t Ext = N + 2 * G;
    const std::int64_t PerBox =
        (Ext * Ext * Ext - static_cast<std::int64_t>(N) * N * N) * NumComp;
    const std::int64_t Cells = PerBox * Layout.numBoxes();
    Tr.add(obs::Counter::GhostExchanges, 1);
    Tr.add(obs::Counter::GhostCells, Cells);
    Tr.add(obs::Counter::BytesMoved, Cells * 16);
  }

  parallelFor(Layout.numBoxes(), Threads, [&](int Index) {
    fillGhostsOfBox(Boxes, Layout, Index);
  });
  return Status::ok();
}
