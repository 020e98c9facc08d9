//===- lp/NormObjective.cpp ------------------------------------------------===//

#include "lp/NormObjective.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prdnn;
using namespace prdnn::lp;

const char *prdnn::lp::toString(Norm N) {
  switch (N) {
  case Norm::L1:
    return "l1";
  case Norm::LInf:
    return "linf";
  case Norm::L1PlusLInf:
    return "l1+linf";
  }
  PRDNN_UNREACHABLE("bad Norm");
}

DeltaLp::DeltaLp(int NumDelta, Norm Objective, double Bound,
                 double LInfWeight)
    : NumDelta(NumDelta), Objective(Objective), LInfWeight(LInfWeight) {
  assert(NumDelta >= 0 && "negative delta dimension");
  assert(Bound > 0.0 && "delta box bound must be positive");

  switch (Objective) {
  case Norm::L1:
  case Norm::L1PlusLInf: {
    // Delta_j = P_j - Q_j with P_j, Q_j in [0, Bound]; minimizing
    // sum(P+Q) makes min(P_j, Q_j) = 0 at any optimum, so the objective
    // equals |Delta|_1. No extra rows are needed, which matters because
    // simplex cost scales with the square of the row count.
    PosBase = Problem.numVariables();
    for (int J = 0; J < NumDelta; ++J)
      Problem.addVariable(0.0, Bound, 1.0);
    NegBase = Problem.numVariables();
    for (int J = 0; J < NumDelta; ++J)
      Problem.addVariable(0.0, Bound, 1.0);
    if (Objective == Norm::L1PlusLInf) {
      TVar = Problem.addVariable(0.0, Bound, LInfWeight);
      // P_j + Q_j - T <= 0 encodes |Delta_j| <= T given split
      // optimality.
      for (int J = 0; J < NumDelta; ++J)
        Problem.addRowLe({PosBase + J, NegBase + J, TVar},
                         {1.0, 1.0, -1.0}, 0.0);
    }
    break;
  }
  case Norm::LInf: {
    DeltaBase = Problem.numVariables();
    for (int J = 0; J < NumDelta; ++J)
      Problem.addVariable(-Bound, Bound, 0.0);
    TVar = Problem.addVariable(0.0, Bound, 1.0);
    for (int J = 0; J < NumDelta; ++J) {
      Problem.addRowLe({DeltaBase + J, TVar}, {1.0, -1.0}, 0.0);
      Problem.addRowLe({DeltaBase + J, TVar}, {-1.0, -1.0}, 0.0);
    }
    break;
  }
  }
}

void DeltaLp::addConstraint(const std::vector<double> &Coef, double Lo,
                            double Hi) {
  assert(static_cast<int>(Coef.size()) == NumDelta &&
         "constraint dimension mismatch");
  setConstraint(appendConstraints(1), Coef.data(), Lo, Hi);
}

int DeltaLp::appendConstraints(int Count) {
  return Problem.appendRows(Count);
}

void DeltaLp::setConstraint(int Row, const double *Coef, double Lo,
                            double Hi) {
  // The row's largest magnitude, which it is equilibrated by (a row of
  // zeros keeps scale 1 and is dropped by the solver's presolve).
  double MaxAbs = 0.0;
  bool Empty = true;
  for (int J = 0; J < NumDelta; ++J) {
    double C = Coef[J];
    MaxAbs = std::max(MaxAbs, std::fabs(C));
    if (C != 0.0)
      Empty = false;
  }
  double Scale = MaxAbs > 0.0 ? MaxAbs : 1.0;
  double *Dst = Problem.setRow(Row, Scale, Empty, Lo, Hi);
  // A nonzero C is stored as 0.0 + C / Scale, one division, and a zero
  // of either sign as +0.0, so a quotient that underflows is +0.0 too;
  // the Q column's 0.0 - P is exactly 0.0 + (-C) / Scale.
  auto Scaled = [&](int J) {
    double C = Coef[J];
    return C != 0.0 ? 0.0 + C / Scale : 0.0;
  };
  if (DeltaBase >= 0) {
    for (int J = 0; J < NumDelta; ++J)
      Dst[DeltaBase + J] = Scaled(J);
  } else {
    for (int J = 0; J < NumDelta; ++J) {
      double P = Scaled(J);
      Dst[PosBase + J] = P;
      Dst[NegBase + J] = 0.0 - P;
    }
  }
  if (TVar >= 0)
    Dst[TVar] = 0.0;
}

std::vector<double> DeltaLp::extractDelta(const std::vector<double> &X) const {
  assert(static_cast<int>(X.size()) == Problem.numVariables() &&
         "solution dimension mismatch");
  std::vector<double> Delta(static_cast<size_t>(NumDelta));
  for (int J = 0; J < NumDelta; ++J) {
    if (DeltaBase >= 0)
      Delta[J] = X[static_cast<size_t>(DeltaBase + J)];
    else
      Delta[J] = X[static_cast<size_t>(PosBase + J)] -
                 X[static_cast<size_t>(NegBase + J)];
  }
  return Delta;
}

double DeltaLp::objectiveValue(const std::vector<double> &Delta) const {
  double L1 = 0.0, LInf = 0.0;
  for (double D : Delta) {
    L1 += std::fabs(D);
    LInf = std::max(LInf, std::fabs(D));
  }
  switch (Objective) {
  case Norm::L1:
    return L1;
  case Norm::LInf:
    return LInf;
  case Norm::L1PlusLInf:
    return L1 + LInfWeight * LInf;
  }
  PRDNN_UNREACHABLE("bad Norm");
}
