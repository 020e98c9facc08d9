//===- lp/NormObjective.h - minimal-norm delta LPs -------------*- C++ -*-===//
///
/// \file
/// Builds LPs whose decision variables encode a parameter-change vector
/// Delta with an l1, l-infinity, or combined norm objective, as used by
/// the repair algorithms (Definition 5.3's "user-defined measure of
/// size"). The l1 norm is encoded row-free by the classic split
/// Delta_j = P_j - Q_j with P, Q >= 0 and unit costs; the l-infinity
/// norm adds a bound variable T with coupling rows |Delta_j| <= T.
///
/// A constraint over Delta is written straight into the problem's row
/// store (lp/LinearProgram.h) in one pass: entry 0.0 + C_j / S for each
/// coefficient, S the largest |C_j|, one division per nonzero C_j and
/// +0.0 for every zero. Under the l1 split the Q column holds the exact
/// negation of the P column's entry (+0.0 stays +0.0), so each row is
/// stored 2 numDelta() wide, equilibrated, and never copied again.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LP_NORMOBJECTIVE_H
#define PRDNN_LP_NORMOBJECTIVE_H

#include "lp/LinearProgram.h"
#include "lp/Simplex.h"

#include <vector>

namespace prdnn {
namespace lp {

/// Which norm of Delta the LP minimizes (Definition 5.3).
enum class Norm {
  L1,
  LInf,
  /// Sum of the l1 norm and a weighted l-infinity term; reduces the
  /// number of touched weights while also capping the largest change.
  L1PlusLInf,
};

const char *toString(Norm N);

/// An LP over an N-dimensional change vector Delta with a norm
/// objective. Constraints are stated directly over Delta; the encoding
/// into LP variables (variable splitting for l1, coupling rows for
/// l-infinity) is internal.
class DeltaLp {
public:
  /// \param NumDelta dimension of Delta.
  /// \param Objective which norm to minimize.
  /// \param Bound box constraint |Delta_j| <= Bound (kInfinity for
  ///        unbounded).
  /// \param LInfWeight weight of the l-infinity term for L1PlusLInf.
  DeltaLp(int NumDelta, Norm Objective, double Bound = kInfinity,
          double LInfWeight = 1.0);

  int numDelta() const { return NumDelta; }

  /// Adds the constraint Lo <= Coef . Delta <= Hi. \p Coef is dense of
  /// dimension numDelta().
  void addConstraint(const std::vector<double> &Coef, double Lo, double Hi);

  /// Appends \p Count constraints whose coefficients and bounds
  /// setConstraint fills in later; returns the first one's row index in
  /// problem(). Every one must be set before the problem is solved or
  /// copied.
  int appendConstraints(int Count);

  /// Sets the constraint at row \p Row (from appendConstraints) to
  /// Lo <= Coef . Delta <= Hi, \p Coef pointing at numDelta()
  /// coefficients. Distinct rows may be set concurrently.
  void setConstraint(int Row, const double *Coef, double Lo, double Hi);

  const LinearProgram &problem() const { return Problem; }

  /// Recovers Delta from a solver solution over problem()'s variables.
  std::vector<double> extractDelta(const std::vector<double> &X) const;

  /// Norm value of the extracted Delta under this objective.
  double objectiveValue(const std::vector<double> &Delta) const;

private:
  int NumDelta;
  Norm Objective;
  double LInfWeight;
  LinearProgram Problem;
  // L1 / L1PlusLInf: PosBase..PosBase+N and NegBase.. are the split
  // variables. LInf: DeltaBase.. are the raw variables. TVar is the
  // l-infinity bound variable when present.
  int PosBase = -1, NegBase = -1, DeltaBase = -1, TVar = -1;
};

} // namespace lp
} // namespace prdnn

#endif // PRDNN_LP_NORMOBJECTIVE_H
