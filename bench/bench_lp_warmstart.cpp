//===- bench/bench_lp_warmstart.cpp - warm bases + sharded sweeps ------------===//
//
// The two LP-phase optimizations of the warm-start PR, measured and
// self-checked:
//
//  1. Basis replay: a cold solve exports its terminal basis
//     (SimplexOptions::ExportBasis); re-solving the identical LP from
//     that basis (SimplexOptions::WarmBasis) must terminate at zero
//     pivots with the bit-identical solution. Reported as cold vs warm
//     seconds and pivots/sec, per LP size.
//
//  2. Engine-level warm resubmission and sharded sweeps: an auto-layer
//     sweep runs cold, then resubmits on the same engine (every LP now
//     replays its cached basis: BasisHits > 0, zero simplex
//     iterations), and the cold sweep is re-run at 1/4/8 pool threads,
//     the engine fanning the per-layer attempts across
//     min(candidates, pool size) LpScheduler shards. Reported as sweep
//     wall-clock per thread count.
//
// Self-checking: exits non-zero if any warm, resubmitted, or sharded
// run diverges by a single bit from its cold/serial baseline (status,
// X, duals, objective, Delta), if a replay pivots, or if a
// resubmission misses the basis cache. Run with --smoke (CI) for
// reduced sizes and repeats.
//
// Sweep speedups track core count (every record stamps the host's
// hardware_concurrency): on a 1-core container shard threads
// time-slice one core, so the 4/8-thread rows hover at ~1x and only
// become meaningful on CI-class multicore hosts. The replay and
// resubmission speedups are core-count independent (they eliminate
// pivots, not serialize them).
//
// Emits BENCH_lp_warmstart.json, one record per measured
// configuration ("phase": "replay" | "resubmit" | "sweep").
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "api/RepairEngine.h"
#include "lp/Simplex.h"
#include "nn/ActivationLayers.h"
#include "nn/LinearLayers.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace prdnn;
using namespace prdnn::lp;
using namespace prdnn::bench;

namespace {

/// Dense feasible LP with M rows and M/2 bounded variables: mixed
/// <= / >= / two-sided rows around a witness point keep both phases
/// pivoting.
LinearProgram makeDenseLp(int M, uint64_t Seed) {
  int Vars = M / 2;
  Rng R(Seed);
  LinearProgram P;
  std::vector<double> Witness(static_cast<size_t>(Vars));
  for (int J = 0; J < Vars; ++J) {
    P.addVariable(-10.0, 10.0, R.normal());
    Witness[static_cast<size_t>(J)] = R.uniform(-5.0, 5.0);
  }
  for (int I = 0; I < M; ++I) {
    std::vector<int> Index(static_cast<size_t>(Vars));
    std::vector<double> Value(static_cast<size_t>(Vars));
    double Activity = 0.0;
    for (int J = 0; J < Vars; ++J) {
      Index[static_cast<size_t>(J)] = J;
      double C = R.normal();
      Value[static_cast<size_t>(J)] = C;
      Activity += C * Witness[static_cast<size_t>(J)];
    }
    double Slack = R.uniform(0.1, 1.5);
    if (I % 3 == 0)
      P.addRow(std::move(Index), std::move(Value), Activity - Slack,
               Activity + Slack);
    else if (I % 3 == 1)
      P.addRowLe(std::move(Index), std::move(Value), Activity + Slack);
    else
      P.addRowGe(std::move(Index), std::move(Value), Activity - Slack);
  }
  return P;
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Bitwise LpSolution agreement (status, X, duals, objective).
bool sameSolution(const LpSolution &A, const LpSolution &B) {
  return A.Status == B.Status && sameBits(A.X, B.X) &&
         sameBits(A.RowDuals, B.RowDuals) &&
         sameBits(A.Objective, B.Objective);
}

/// Bitwise RepairResult agreement (status, Delta, norms).
bool sameResult(const RepairResult &A, const RepairResult &B) {
  return A.Status == B.Status && sameBits(A.Delta, B.Delta) &&
         sameBits(A.DeltaL1, B.DeltaL1) && sameBits(A.DeltaLInf, B.DeltaLInf);
}

Vector randomVector(Rng &R, int Size, double Scale = 1.0) {
  Vector V(Size);
  for (int I = 0; I < Size; ++I)
    V[I] = Scale * R.normal();
  return V;
}

Matrix randomMatrix(Rng &R, int Rows, int Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (int I = 0; I < Rows; ++I)
    for (int J = 0; J < Cols; ++J)
      M(I, J) = Scale * R.normal();
  return M;
}

/// 16 -> 32 x4 -> 8 ReLU classifier: five parameterized layers, so an
/// auto-layer sweep has five independent attempts to shard.
Network makeSweepNet(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 32, 16, 0.7), randomVector(R, 32, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(32));
  for (int I = 0; I < 3; ++I) {
    Net.addLayer(std::make_unique<FullyConnectedLayer>(
        randomMatrix(R, 32, 32, 0.6), randomVector(R, 32, 0.3)));
    Net.addLayer(std::make_unique<ReLULayer>(32));
  }
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 8, 32, 0.7), randomVector(R, 8, 0.3)));
  return Net;
}

PointSpec makeFlipSpec(const Network &Net, Rng &R, int Count) {
  PointSpec Spec;
  for (int I = 0; I < Count; ++I) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    int Top = Y.argmax();
    int Target = Top;
    if (I % 3 == 0) {
      double Best = -1e300;
      for (int C = 0; C < Y.size(); ++C)
        if (C != Top && Y[C] > Best) {
          Best = Y[C];
          Target = C;
        }
    }
    Spec.push_back({std::move(X),
                    classificationConstraint(Net.outputSize(), Target, 1e-3),
                    std::nullopt});
  }
  return Spec;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    Smoke = Smoke || std::strcmp(argv[I], "--smoke") == 0;
  const int Repeats = Smoke ? 1 : 3;
  int SavedThreads = globalThreadCount();

  std::printf("=== Warm-start basis replay + sharded sweeps%s ===\n\n",
              Smoke ? " (smoke)" : "");

  BenchJson Json("lp_warmstart");
  bool Ok = true;
  auto Check = [&Ok](bool Cond, const char *What) {
    if (!Cond) {
      std::printf("DETERMINISM CHECK FAILED: %s\n", What);
      Ok = false;
    }
  };

  // --- 1. LP-level exact basis replay ---------------------------------------
  {
    TablePrinter Table({"M", "cold(s)", "warm(s)", "speedup", "cold pivots",
                        "warm pivots", "cold pivots/s"});
    std::vector<int> Sizes =
        Smoke ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024};
    for (int M : Sizes) {
      LinearProgram P = makeDenseLp(M, 52000 + static_cast<uint64_t>(M));

      SimplexOptions ColdOpts;
      ColdOpts.ExportBasis = true;
      LpSolution Cold;
      double ColdSeconds = 1e300;
      for (int Rep = 0; Rep < Repeats; ++Rep) {
        WallTimer Timer;
        Cold = solveLp(P, ColdOpts);
        ColdSeconds = std::min(ColdSeconds, Timer.seconds());
      }
      Check(Cold.Status == SolveStatus::Optimal, "cold workload not Optimal");
      if (Cold.Status != SolveStatus::Optimal)
        break;

      SimplexOptions WarmOpts;
      WarmOpts.WarmBasis = Cold.OptimalBasis.get();
      LpSolution Warm;
      double WarmSeconds = 1e300;
      for (int Rep = 0; Rep < Repeats; ++Rep) {
        WallTimer Timer;
        Warm = solveLp(P, WarmOpts);
        WarmSeconds = std::min(WarmSeconds, Timer.seconds());
      }
      Check(Warm.WarmStarted, "replay did not warm-start");
      Check(Warm.Stats.Pivots == 0, "replay pivoted");
      Check(sameSolution(Warm, Cold), "replay diverged from cold bits");

      Json.beginRecord();
      Json.add("phase", std::string("replay"));
      Json.add("m", M);
      Json.add("smoke", Smoke ? 1 : 0);
      Json.add("cold_seconds", ColdSeconds);
      Json.add("warm_seconds", WarmSeconds);
      Json.add("replay_speedup", ratio(ColdSeconds, WarmSeconds));
      Json.add("cold_pivots", Cold.Stats.Pivots);
      Json.add("warm_pivots", Warm.Stats.Pivots);
      Json.add("cold_pivots_per_sec",
               ratio(Cold.Stats.Pivots, ColdSeconds));
      Json.add("bit_identical", sameSolution(Warm, Cold) ? 1 : 0);
      Table.addRow({std::to_string(M), formatDouble(ColdSeconds, 4),
                    formatDouble(WarmSeconds, 4),
                    formatDouble(ratio(ColdSeconds, WarmSeconds), 2),
                    std::to_string(Cold.Stats.Pivots),
                    std::to_string(Warm.Stats.Pivots),
                    formatDouble(ratio(Cold.Stats.Pivots, ColdSeconds), 1)});
    }
    std::printf("-- exact basis replay (cold export -> warm re-solve) --\n");
    Table.print(std::cout);
  }

  // --- 2. Engine warm resubmission + sharded sweep wall-clock ---------------
  Rng R(77001);
  auto Net = std::make_shared<Network>(makeSweepNet(R));
  PointSpec Spec = makeFlipSpec(*Net, R, Smoke ? 12 : 24);
  RepairRequest Request;
  Request.Net = Net;
  Request.Spec = Spec;
  Request.LayerIndex = kAutoLayer;

  // Serial cold baseline (1 thread, so one shard) - also the
  // bit-identity reference for every other configuration.
  setGlobalThreadCount(1);
  double SerialSeconds = 1e300;
  RepairReport Baseline;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    RepairEngine Engine; // fresh engine: cold cache
    WallTimer Timer;
    Baseline = Engine.run(Request);
    SerialSeconds = std::min(SerialSeconds, Timer.seconds());
  }
  Check(Baseline.succeeded(), "serial sweep baseline failed");

  // Warm resubmission: second run on one engine replays every basis.
  {
    RepairEngine Engine;
    RepairReport ColdRun = Engine.run(Request);
    WallTimer Timer;
    RepairReport WarmRun = Engine.run(Request);
    double WarmSeconds = Timer.seconds();
    Check(sameResult(WarmRun.Result, ColdRun.Result),
          "warm resubmission diverged from cold bits");
    Check(WarmRun.Result.Stats.BasisHits > 0, "resubmission had no basis hits");
    Check(WarmRun.Result.Stats.BasisMisses == 0,
          "resubmission missed the basis cache");
    Check(WarmRun.Result.Stats.LpIterations <
              ColdRun.Result.Stats.LpIterations,
          "resubmission did not reduce simplex iterations");

    std::printf("\n-- warm resubmission (one engine, same request twice) --\n");
    std::printf("cold: %d simplex iterations; warm: %d iterations, "
                "%d basis hits, %.4fs (%.2fx vs serial cold)\n",
                ColdRun.Result.Stats.LpIterations,
                WarmRun.Result.Stats.LpIterations,
                WarmRun.Result.Stats.BasisHits, WarmSeconds,
                ratio(SerialSeconds, WarmSeconds));

    Json.beginRecord();
    Json.add("phase", std::string("resubmit"));
    Json.add("smoke", Smoke ? 1 : 0);
    Json.add("cold_seconds", SerialSeconds);
    Json.add("warm_seconds", WarmSeconds);
    Json.add("warm_speedup", ratio(SerialSeconds, WarmSeconds));
    Json.add("cold_lp_iterations", ColdRun.Result.Stats.LpIterations);
    Json.add("warm_lp_iterations", WarmRun.Result.Stats.LpIterations);
    Json.add("basis_hits", WarmRun.Result.Stats.BasisHits);
    Json.add("basis_misses", WarmRun.Result.Stats.BasisMisses);
    Json.add("bit_identical",
             sameResult(WarmRun.Result, ColdRun.Result) ? 1 : 0);
  }

  // Sharded cold sweeps at 1/4/8 pool threads.
  {
    TablePrinter Table({"threads", "shards", "seconds", "speedup",
                        "attempts", "identical"});
    std::printf("\n-- sharded auto-layer sweep (cold cache per run) --\n");
    for (int Threads : {1, 4, 8}) {
      setGlobalThreadCount(Threads);
      double Seconds = 1e300;
      RepairReport Report;
      for (int Rep = 0; Rep < Repeats; ++Rep) {
        RepairEngine Engine; // fresh engine: cold cache
        WallTimer Timer;
        Report = Engine.run(Request);
        Seconds = std::min(Seconds, Timer.seconds());
      }
      bool Identical = sameResult(Report.Result, Baseline.Result) &&
                       Report.RepairedLayer == Baseline.RepairedLayer &&
                       Report.Sweep.size() == Baseline.Sweep.size();
      for (size_t C = 0; Identical && C < Baseline.Sweep.size(); ++C)
        Identical = Report.Sweep[C].LayerIndex == Baseline.Sweep[C].LayerIndex &&
                    Report.Sweep[C].Status == Baseline.Sweep[C].Status &&
                    sameBits(Report.Sweep[C].DeltaL1,
                             Baseline.Sweep[C].DeltaL1) &&
                    sameBits(Report.Sweep[C].DeltaLInf,
                             Baseline.Sweep[C].DeltaLInf);
      Check(Identical, "sharded sweep diverged from the serial baseline");
      // The engine's derived shard count: one per pool thread, up to
      // one per candidate.
      int Shards = std::min(Threads, static_cast<int>(Report.Sweep.size()));

      Json.beginRecord();
      Json.add("phase", std::string("sweep"));
      Json.add("threads", Threads);
      Json.add("shards", Shards);
      Json.add("smoke", Smoke ? 1 : 0);
      Json.add("serial_seconds", SerialSeconds);
      Json.add("sweep_seconds", Seconds);
      Json.add("sweep_speedup", ratio(SerialSeconds, Seconds));
      Json.add("attempts", static_cast<int>(Report.Sweep.size()));
      Json.add("bit_identical", Identical ? 1 : 0);
      Table.addRow({std::to_string(Threads), std::to_string(Shards),
                    formatDouble(Seconds, 4),
                    formatDouble(ratio(SerialSeconds, Seconds), 2),
                    std::to_string(static_cast<int>(Report.Sweep.size())),
                    Identical ? "yes" : "NO"});
    }
    Table.print(std::cout);
  }
  setGlobalThreadCount(SavedThreads);

  std::string JsonFile = Json.write();
  if (!JsonFile.empty())
    std::printf("\nwrote %s\n", JsonFile.c_str());

  std::printf("%s\n",
              Ok ? "bench_lp_warmstart: warm replays, resubmissions, and "
                   "sharded sweeps bit-identical to the cold serial baseline"
                 : "bench_lp_warmstart: DETERMINISM CHECK FAILED");
  return Ok ? 0 : 1;
}
