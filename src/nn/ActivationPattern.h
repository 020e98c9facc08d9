//===- nn/ActivationPattern.h - network activation patterns ----*- C++ -*-===//
///
/// \file
/// Discrete activation patterns of a PWL network (Definition 2.5) and
/// pattern-pinned evaluation. A pattern fixes, for every PWL activation
/// layer, which affine piece each unit uses; evaluating under a pinned
/// pattern realizes the affine function of one linear region on all of
/// input space, which is exactly what Appendix B requires for key
/// points on region boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_NN_ACTIVATIONPATTERN_H
#define PRDNN_NN_ACTIVATIONPATTERN_H

#include "nn/Network.h"

#include <vector>

namespace prdnn {

/// Per-layer discrete patterns; entry i is empty for linear layers.
struct NetworkPattern {
  std::vector<std::vector<int>> Patterns;

  bool operator==(const NetworkPattern &Other) const = default;
};

/// The activation pattern induced by input \p X (network must be PWL).
NetworkPattern computePattern(const Network &Net, const Vector &X);

/// Batched computePattern: result[p] is the pattern of row p of \p Xs.
/// Linear layers run batched; per-row pattern capture is parallelized
/// on the global thread pool.
std::vector<NetworkPattern> computePatternBatch(const Network &Net,
                                                const Matrix &Xs);

/// Convenience overload for callers holding their points in a vector
/// (the key-point pipeline): result[p] == computePattern(Net, Xs[p]),
/// bit-for-bit.
std::vector<NetworkPattern>
computePatternBatch(const Network &Net, const std::vector<Vector> &Xs);

/// Evaluates \p Net at \p X with every PWL activation pinned to
/// \p Pattern instead of its input-derived region. For X inside the
/// pattern's linear region this equals evaluate(X); elsewhere it
/// extends that region's affine function.
Vector evaluateWithPattern(const Network &Net, const Vector &X,
                           const NetworkPattern &Pattern);

/// Inputs to every layer plus the final output under a pinned pattern
/// (mirrors Network::intermediates).
std::vector<Vector> intermediatesWithPattern(const Network &Net,
                                             const Vector &X,
                                             const NetworkPattern &Pattern);

} // namespace prdnn

#endif // PRDNN_NN_ACTIVATIONPATTERN_H
