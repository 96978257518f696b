//===- runtime/GhostExchange.h - Inter-box ghost-cell exchange --*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark models the shared-memory portion of one time step of a
/// Chombo-style solver: "each time step involves communicating ghost cells
/// and then processing each box independently" (Section 5.6). This module
/// provides that communication step for a periodic domain decomposed into
/// a regular grid of boxes, enabling multi-step drivers on top of the
/// single-step kernels.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_RUNTIME_GHOSTEXCHANGE_H
#define LCDFG_RUNTIME_GHOSTEXCHANGE_H

#include "runtime/BoxGrid.h"
#include "support/Status.h"

#include <vector>

namespace lcdfg {
namespace rt {

/// A regular decomposition of a periodic domain into Bz x By x Bx boxes.
struct GridLayout {
  int Bz = 1;
  int By = 1;
  int Bx = 1;

  int numBoxes() const { return Bz * By * Bx; }
  int index(int Z, int Y, int X) const { return (Z * By + Y) * Bx + X; }

  /// Wraps a (possibly negative) box coordinate periodically.
  static int wrap(int Coord, int Extent) {
    int M = Coord % Extent;
    return M < 0 ? M + Extent : M;
  }
};

/// Fills every ghost cell of every box from the interior of the owning
/// neighbor under periodic boundary conditions. All boxes must share
/// size, ghost depth, and component count; Boxes.size() must equal
/// Layout.numBoxes() with boxes stored in Layout::index order. The
/// preconditions are validated — positive layout extents, matching box
/// count, uniform boxes, and a ghost depth no deeper than the interior (a
/// G > N exchange would need next-nearest neighbors, which the periodic
/// split does not model) — and violations are returned as
/// E002-invalid-chain with a "ghost-grid" subcode instead of corrupting
/// memory.
support::Status exchangeGhosts(std::vector<Box> &Boxes,
                               const GridLayout &Layout, int Threads = 1);

} // namespace rt
} // namespace lcdfg

#endif // LCDFG_RUNTIME_GHOSTEXCHANGE_H
