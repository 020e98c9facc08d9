//===- bench/bench_micro_lp.cpp - LP solver microbenchmarks -------------------===//
//
// RQ4 support: simplex scaling with problem size, and the cost of the
// two norm encodings (l1 via split variables adds columns; l-infinity
// adds coupling rows), and the tall, few-tight-rows shape of the repair
// LPs, whose cost the structural-core basis factor keeps near
// O(k * rows) per iteration.
//
//===----------------------------------------------------------------------===//

#include "lp/NormObjective.h"
#include "lp/Simplex.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace prdnn;
using namespace prdnn::lp;

namespace {

LinearProgram makeRandomLp(int Vars, int Rows, uint64_t Seed) {
  Rng R(Seed);
  LinearProgram P;
  std::vector<double> Witness(static_cast<size_t>(Vars));
  for (int J = 0; J < Vars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[J] = R.uniform(-5.0, 5.0);
  }
  for (int I = 0; I < Rows; ++I) {
    std::vector<int> Index;
    std::vector<double> Value;
    double Activity = 0.0;
    for (int J = 0; J < Vars; ++J) {
      double C = R.normal();
      Index.push_back(J);
      Value.push_back(C);
      Activity += C * Witness[J];
    }
    P.addRowLe(std::move(Index), std::move(Value),
               Activity + R.uniform(0.1, 2.0));
  }
  return P;
}

void BM_SimplexDense(benchmark::State &State) {
  int Vars = static_cast<int>(State.range(0));
  int Rows = 2 * Vars;
  LinearProgram P = makeRandomLp(Vars, Rows, 42);
  for (auto _ : State) {
    LpSolution S = solveLp(P);
    benchmark::DoNotOptimize(S.Objective);
    if (S.Status != SolveStatus::Optimal)
      State.SkipWithError("solve failed");
  }
  State.SetLabel(std::to_string(Rows) + " rows x " + std::to_string(Vars) +
                 " vars");
}

void BM_DeltaLpNorm(benchmark::State &State) {
  Norm Objective = State.range(0) == 0 ? Norm::L1 : Norm::LInf;
  const int N = 64, Rows = 96;
  Rng R(7);
  DeltaLp D(N, Objective, 100.0);
  std::vector<double> Witness(N);
  for (int J = 0; J < N; ++J)
    Witness[J] = R.uniform(-1.0, 1.0);
  for (int I = 0; I < Rows; ++I) {
    std::vector<double> Coef(N);
    double Activity = 0.0;
    for (int J = 0; J < N; ++J) {
      Coef[J] = R.normal();
      Activity += Coef[J] * Witness[J];
    }
    D.addConstraint(Coef, Activity - 0.5, Activity + 0.5);
  }
  for (auto _ : State) {
    LpSolution S = solveLp(D.problem());
    benchmark::DoNotOptimize(S.Objective);
    if (S.Status != SolveStatus::Optimal)
      State.SkipWithError("solve failed");
  }
  State.SetLabel(Objective == Norm::L1 ? "l1 (split vars)"
                                       : "linf (coupling rows)");
}

/// The repair LP's shape (fog-lines, output layer): an l1 DeltaLp with
/// many rows and few tight ones - 1,000 rows over 330 deltas, one row in
/// twelve tight near a witness, the rest holding with room to spare.
/// Few structurals are basic at the optimum, unlike the square-ish
/// random LPs above.
void BM_DeltaLpRepairShape(benchmark::State &State) {
  const int N = 330, Rows = 1000;
  Rng R(11);
  DeltaLp D(N, Norm::L1, 10.0);
  std::vector<double> Witness(N);
  for (int J = 0; J < N; ++J)
    Witness[J] = R.uniform(-0.1, 0.1);
  for (int I = 0; I < Rows; ++I) {
    std::vector<double> Coef(N);
    double Activity = 0.0;
    for (int J = 0; J < N; ++J) {
      Coef[J] = R.normal();
      Activity += Coef[J] * Witness[J];
    }
    double Hi = R.bernoulli(1.0 / 12)
                    ? Activity + R.uniform(0.0, 0.05)
                    : std::max(Activity, 0.0) + R.uniform(0.5, 2.0);
    D.addConstraint(Coef, -kInfinity, Hi);
  }
  for (auto _ : State) {
    LpSolution S = solveLp(D.problem());
    benchmark::DoNotOptimize(S.Objective);
    if (S.Status != SolveStatus::Optimal)
      State.SkipWithError("solve failed");
  }
  State.SetLabel(std::to_string(Rows) + " rows x " + std::to_string(N) +
                 " deltas (l1)");
}

} // namespace

BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaLpNorm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaLpRepairShape)->Unit(benchmark::kMillisecond);
