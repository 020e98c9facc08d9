//===- syrenn/PlaneTransform.h - exact 2-D symbolic transform --*- C++ -*-===//
///
/// \file
/// Computes LinRegions(N, P) for a convex polygon P lying in a 2-D
/// affine subspace of the input space: the partition of P into convex
/// polygons on which N is affine. This is the 2-D transform of
/// Sotoudeh & Thakur [55], used by Task 3 (ACAS-style repair) where the
/// paper repairs 2-D slices of the 5-D input region.
///
/// Supported networks: any linear layers interleaved with *elementwise*
/// PWL activations (ReLU / LeakyReLU / HardTanh) - exactly the ACAS
/// family. Each activation unit's threshold induces a line in the
/// plane; polygons are split by Sutherland-Hodgman-style clipping.
///
/// The transform runs layer by layer, and each activation layer is one
/// pass per polygon: the polygon is split by every unit and threshold
/// of the layer, and its children are mapped through the activation.
/// A polygon no threshold crosses is kept as it is (moved, not
/// copied). Region order is part of the result's bits: a split
/// replaces a polygon in place by its `>=` child and then its `<=`
/// child, units ascending and each unit's thresholds ascending, so the
/// list is the one a unit-major sweep over all polygons gives.
///
/// The transform runs on the calling thread. Slices have tens of
/// regions; fanning them out to the pool measured slower than the
/// serial pass. keyPoints runs one transform per polytope on the pool.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_SYRENN_PLANETRANSFORM_H
#define PRDNN_SYRENN_PLANETRANSFORM_H

#include "nn/Network.h"

#include <vector>

namespace prdnn {

/// One linear region of the network restricted to the input polygon.
struct PlaneRegion {
  /// Polygon vertices in input space, in boundary order.
  std::vector<Vector> InputVertices;
  /// Matching 2-D coordinates in the plane's orthonormal frame.
  std::vector<std::pair<double, double>> PlaneVertices;

  /// Average of the vertices: strictly interior for a convex polygon,
  /// hence a representative of the region's activation pattern.
  Vector centroid() const;

  /// Polygon area in the plane frame (shoelace).
  double area() const;

  /// Approximate heap footprint, for the artifact cache's byte budget.
  std::size_t approxBytes() const;
};

/// Whether \p Polygon spans a proper 2-D region: at least 3 vertices
/// of one size, distinct first two vertices, not all vertices on one
/// line, and a nonzero area once repeated consecutive vertices are
/// dropped (the transform's own tolerances). planeRegions needs it;
/// the engine checks it before a plane request runs.
bool isProperPlane(const std::vector<Vector> &Polygon);

/// LinRegions(Net, conv(PolygonVertices)). The vertices must be in
/// convex position, ordered along the boundary, and coplanar (within a
/// 2-D affine subspace), and isProperPlane(Polygon) must hold (an
/// improper polygon asserts, or yields no regions with NDEBUG). Net
/// must be PWL with elementwise activations.
std::vector<PlaneRegion> planeRegions(const Network &Net,
                                      const std::vector<Vector> &Polygon);

} // namespace prdnn

#endif // PRDNN_SYRENN_PLANETRANSFORM_H
