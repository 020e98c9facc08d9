//===- tests/SpecRowsChecks.h - checks of the lazy LP rows ---*- C++ -*-===//
///
/// \file
/// What every row of core/SpecRows must satisfy, over the ReLU and conv
/// nets of repair_test and the Tanh and Sigmoid nets of
/// smooth_repair_test: hi() is bit for bit b_k - A_k N(x) - Margin, and
/// coefs() is A_k J_x over the effective parameters to within 1e-12 of
/// the row's max-abs, with N and J_x from a per-point paramJacobian. A
/// row's coefficient bits depend on the row alone: asked by itself, in a
/// shuffled full set (spanning chunks once numRows() > chunkRows()), at
/// 1 and at 4 threads. And scan(Delta) is the repaired DDNN, bit for
/// bit.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_TESTS_SPECROWSCHECKS_H
#define PRDNN_TESTS_SPECROWSCHECKS_H

#include "core/DecoupledNetwork.h"
#include "core/SpecRows.h"

#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace prdnn::test {

/// The Delta = 0 forward state of \p Spec for repairs of \p Candidates,
/// computed chunk by chunk, as the engine's Jacobian phase does.
inline detail::SpecState computedState(const Network &Net,
                                       const PointSpec &Spec,
                                       const std::vector<int> &Candidates) {
  detail::SpecState State(Net, Spec, Candidates);
  for (int Base = 0; Base < State.numPoints();
       Base += detail::SpecState::chunkPoints())
    State.compute(Base, std::min(State.numPoints(),
                                 Base + detail::SpecState::chunkPoints()));
  return State;
}

/// \p Rows.coefs(Ask) collected into one vector per asked row, in
/// \p Ask's order.
inline bool collectCoefs(const detail::SpecRows &Rows,
                         const std::vector<int> &Ask,
                         std::vector<std::vector<double>> &Out,
                         const std::function<bool()> &Cancel = nullptr) {
  Out.assign(Ask.size(), {});
  return Rows.coefs(
      Ask,
      [&](int Position, const double *Coef) {
        Out[static_cast<size_t>(Position)].assign(
            Coef, Coef + Rows.numEffective());
      },
      Cancel);
}

/// Checks the file comment's properties for every row of \p Spec at
/// layer \p Layer; \p R shuffles the full set.
inline void expectRowsAreSeededJacobianRows(const Network &Net, int Layer,
                                            const PointSpec &Spec,
                                            const std::vector<int> &Effective,
                                            double Margin, Rng &R) {
  std::vector<std::vector<double>> WantCoef;
  std::vector<double> WantHi;
  for (const SpecPoint &P : Spec) {
    JacobianResult Jr =
        paramJacobian(Net, Layer, P.X, P.Pattern ? &*P.Pattern : nullptr);
    const OutputConstraint &C = P.Constraint;
    for (int K = 0; K < C.numRows(); ++K) {
      std::vector<double> Row(Effective.size(), 0.0);
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo == 0.0)
          continue;
        Activity += AKo * Jr.Output[O];
        for (size_t E = 0; E < Effective.size(); ++E)
          Row[E] += AKo * Jr.J(O, Effective[E]);
      }
      WantCoef.push_back(std::move(Row));
      WantHi.push_back(C.B[K] - Activity - Margin);
    }
  }

  // Row J's bits when asked for alone at one thread: the reference
  // every other ask must reproduce exactly.
  std::vector<std::vector<double>> Alone;
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    detail::SpecState State = computedState(Net, Spec, {Layer});
    detail::SpecRows Rows(State, Layer, Effective, Margin);
    ASSERT_EQ(Rows.numRows(), static_cast<int>(WantHi.size()));
    for (int Row = 0; Row < Rows.numRows(); ++Row)
      EXPECT_EQ(Rows.hi(Row), WantHi[static_cast<size_t>(Row)])
          << "row " << Row;

    if (Alone.empty()) {
      for (int Row = 0; Row < Rows.numRows(); ++Row) {
        std::vector<std::vector<double>> One;
        ASSERT_TRUE(collectCoefs(Rows, {Row}, One));
        ASSERT_EQ(One.size(), 1u);
        const std::vector<double> &Want = WantCoef[static_cast<size_t>(Row)];
        ASSERT_EQ(One[0].size(), Want.size());
        double MaxAbs = 0.0, MaxDiff = 0.0;
        for (size_t E = 0; E < Want.size(); ++E) {
          MaxAbs = std::max(MaxAbs, std::fabs(Want[E]));
          MaxDiff = std::max(MaxDiff, std::fabs(One[0][E] - Want[E]));
        }
        EXPECT_LE(MaxDiff, 1e-12 * MaxAbs) << "row " << Row;
        Alone.push_back(std::move(One[0]));
      }
    }

    std::vector<int> All(static_cast<size_t>(Rows.numRows()));
    std::iota(All.begin(), All.end(), 0);
    R.shuffle(All);
    std::vector<int> Few(All.begin(),
                         All.begin() + std::min<size_t>(7, All.size()));
    for (const std::vector<int> &Ask : {All, Few}) {
      std::vector<std::vector<double>> Got;
      ASSERT_TRUE(collectCoefs(Rows, Ask, Got));
      ASSERT_EQ(Got.size(), Ask.size());
      for (size_t J = 0; J < Ask.size(); ++J)
        EXPECT_EQ(Got[J], Alone[static_cast<size_t>(Ask[J])])
            << "row " << Ask[J] << " at position " << J << ", threads "
            << Threads;
    }
  }
  setGlobalThreadCount(1);
}

/// Each row of scan(Delta) is the spec row on the repaired DDNN - its
/// value channel moved by Delta at the layer - evaluated point by point
/// with DecoupledNetwork::evaluate (evaluateWithPattern for a pinned
/// point), bit for bit, at 1 and at 4 threads. The state is shared by
/// every parameterized layer, as in an auto-layer sweep; Delta is random
/// over all of a layer's parameters.
inline void expectScanIsTheRepairedDdnn(const Network &Net,
                                        const PointSpec &Spec, Rng &R) {
  std::vector<int> Layers = Net.parameterizedLayerIndices();
  for (int Threads : {1, 4}) {
    setGlobalThreadCount(Threads);
    detail::SpecState State = computedState(Net, Spec, Layers);
    for (int Layer : Layers) {
      SCOPED_TRACE(Layer);
      int NumParams = cast<LinearLayer>(Net.layer(Layer)).numParams();
      std::vector<int> Effective(static_cast<size_t>(NumParams));
      std::iota(Effective.begin(), Effective.end(), 0);
      std::vector<double> Delta(static_cast<size_t>(NumParams));
      for (double &D : Delta)
        D = 0.2 * R.normal();
      detail::SpecRows Rows(State, Layer, Effective, 1e-6);
      std::vector<double> S = Rows.scan(Delta);
      ASSERT_EQ(static_cast<int>(S.size()), Rows.numRows());

      DecoupledNetwork Repaired = DecoupledNetwork::fromNetwork(Net);
      cast<LinearLayer>(Repaired.valueChannel().layer(Layer))
          .addToParams(Delta);
      size_t Row = 0;
      for (const SpecPoint &Point : Spec) {
        Vector Y = Point.Pattern
                       ? Repaired.evaluateWithPattern(Point.X, *Point.Pattern)
                       : Repaired.evaluate(Point.X);
        const OutputConstraint &C = Point.Constraint;
        for (int K = 0; K < C.numRows(); ++K, ++Row) {
          double Activity = 0.0;
          for (int O = 0; O < C.A.cols(); ++O)
            Activity += C.A(K, O) * Y[O];
          EXPECT_EQ(S[Row], Activity - C.B[K])
              << "row " << Row << (Point.Pattern ? " (pinned)" : "")
              << ", threads " << Threads;
        }
      }
    }
  }
  setGlobalThreadCount(1);
}

} // namespace prdnn::test

#endif // PRDNN_TESTS_SPECROWSCHECKS_H
