//===- bench/bench_micro_lp.cpp - LP solver microbenchmarks -------------------===//
//
// RQ4 support: simplex scaling with problem size, and the cost of the
// two norm encodings (l1 via split variables adds columns; l-infinity
// adds coupling rows), and the tall, few-tight-rows shape of the repair
// LPs, whose cost the structural-core basis factor keeps near
// O(k * rows) per iteration, and the constraint-generation rounds of a
// repair, rows and solves together.
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

/// Constraint generation at fog-lines' layer-2 shape: an l1 DeltaLp over
/// the 1,056 parameters of a 32 x 32 layer (weights and biases), through
/// one SimplexSolver. Round 1 takes 200 rows that Delta = 0 violates and
/// solves cold; rounds 2 and 3 each append 300 more rows and re-optimize
/// warm. A timed iteration covers every round's addConstraint and
/// solve(), so the row path (building, storing and taking in rows) shows
/// here, not only the simplex. Each row is shaped like a Jacobian row of
/// a linear layer, g (x, 1) for a point's layer input x (about half
/// zeros, as behind a ReLU) and an output gradient g near one of ten
/// per-class directions; all rows hold at a small witness Delta.
void BM_DeltaLpRepairRounds(benchmark::State &State) {
  const int In = 32, Out = 32, N = Out * (In + 1), Classes = 10;
  const int RoundPoints[] = {20, 30, 30};
  Rng R(13);
  // A sparse witness, as repairs touch few parameters.
  std::vector<double> Witness(N, 0.0);
  for (int K = 0; K < 16; ++K)
    Witness[static_cast<size_t>(R.uniformInt(0, N - 1))] = R.uniform(-0.5, 0.5);
  std::vector<std::vector<double>> ClassGrad(Classes, std::vector<double>(Out));
  for (std::vector<double> &G : ClassGrad)
    for (double &V : G)
      V = R.normal();
  struct Constraint {
    std::vector<double> Coef;
    double Hi;
  };
  std::vector<std::vector<Constraint>> Rounds;
  for (int Round = 0; Round < 3; ++Round) {
    std::vector<Constraint> Rows;
    // The round's points lie on a segment, as the key points of a line
    // do.
    std::vector<double> Start(In), End(In);
    for (int I = 0; I < In; ++I) {
      Start[I] = R.normal();
      End[I] = R.normal();
    }
    for (int Point = 0; Point < RoundPoints[Round]; ++Point) {
      double T = static_cast<double>(Point) / RoundPoints[Round];
      std::vector<double> X(In);
      for (int I = 0; I < In; ++I)
        X[I] = std::max(0.0, Start[I] + T * (End[I] - Start[I]));
      for (int K = 0; K < Classes; ++K) {
        Constraint C{std::vector<double>(N), 0.0};
        double Activity = 0.0;
        for (int O = 0; O < Out; ++O) {
          double G = ClassGrad[K][O] + 0.05 * R.normal();
          for (int I = 0; I <= In; ++I) {
            int J = O * (In + 1) + I;
            C.Coef[J] = I < In ? G * X[I] : G;
            Activity += C.Coef[J] * Witness[J];
          }
        }
        if (Round == 0) {
          // Violated at Delta = 0 (Hi < 0), held at the witness.
          if (Activity > 0.0) {
            for (double &V : C.Coef)
              V = 0.0 - V;
            Activity = -Activity;
          }
          C.Hi = Activity * R.uniform(0.1, 0.9);
        } else {
          C.Hi = Activity + R.uniform(0.0, 0.05);
        }
        Rows.push_back(std::move(C));
      }
    }
    Rounds.push_back(std::move(Rows));
  }
  int Iterations = 0;
  for (auto _ : State) {
    DeltaLp D(N, Norm::L1, 10.0);
    SimplexSolver Solver(D.problem());
    Iterations = 0;
    for (const std::vector<Constraint> &Rows : Rounds) {
      for (const Constraint &C : Rows)
        D.addConstraint(C.Coef, -kInfinity, C.Hi);
      LpSolution S = Solver.solve();
      Iterations += S.Iterations;
      if (S.Status != SolveStatus::Optimal) {
        State.SkipWithError("solve failed");
        break;
      }
    }
    benchmark::DoNotOptimize(Iterations);
  }
  State.counters["lp_iterations"] = Iterations;
  State.SetLabel("200 + 300 + 300 rows x 1056 deltas (l1)");
}

} // namespace

BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaLpNorm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaLpRepairShape)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaLpRepairRounds)->Unit(benchmark::kMillisecond);
