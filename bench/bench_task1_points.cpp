//===- bench/bench_task1_points.cpp - Tables 1 and 4, Figure 7 ---------------===//
//
// Task 1 (§7.1): pointwise repair of a convolutional image classifier
// on natural-adversarial-style points. Regenerates Table 1 (summary:
// best-drawdown PR vs FT[1]/FT[2] vs best-drawdown MFT[1]/MFT[2]) and
// Table 4 (extended per-layer results), and prints each size's per-layer
// repairs as Figures 7(a) and 7(b): drawdown and the Jacobian / LP /
// other time split by repaired layer. Our substrate is ShapeWorld
// (DESIGN.md §3); absolute numbers differ from the paper, the shape -
// PR reaching 100% efficacy with the smallest drawdown, FT slower with
// worse drawdown, MFT fast/low-drawdown but low-efficacy - is the
// reproduction target.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "api/RepairEngine.h"
#include "nn/LinearLayers.h"
#include "support/Casting.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

using namespace prdnn;
using namespace prdnn::bench;

namespace {

struct PrRow {
  int Feasible = 0, Total = 0;
  double BestDrawdown = 1e9, WorstDrawdown = -1e9;
  double BestTime = 0.0, FastestTime = 1e9, SlowestTime = 0.0;
};

} // namespace

int main() {
  // The paper uses 100/200/400/752 points on a 727k-parameter network;
  // our substrate is ~100x smaller, so the sweep is scaled to
  // 50/100/200 (documented in EXPERIMENTS.md).
  const int Sizes[] = {50, 100, 200};
  std::printf("=== Task 1: Pointwise repair of a conv image classifier "
              "(Tables 1 and 4, Figure 7) ===\n");
  Task1Workload W = makeTask1Workload(200);
  std::printf("buggy network: %.1f%% validation accuracy, %.1f%% on %d "
              "adversarial images\n",
              100 * W.ValidationAccuracy, 100 * W.AdversarialAccuracy,
              W.Adversarials.size());
  std::vector<int> Layers = W.Net.parameterizedLayerIndices();
  std::printf("repairable layers:");
  for (int L : Layers)
    std::printf(" %d (%s)", L, W.Net.layer(L).describe().c_str());
  std::printf("\n\n");

  RepairEngine Engine;
  auto RunRepair = [&](int LayerIdx, const PointSpec &Spec) {
    return Engine
        .run(RepairRequest::points(RepairRequest::borrow(W.Net), LayerIdx,
                                   Spec))
        .Result;
  };

  TablePrinter Table1({"Points", "PR(BD) D", "T", "FT[1] D", "T",
                       "FT[2] D", "T", "MFT[1] E", "D", "T", "MFT[2] E",
                       "D", "T"});
  TablePrinter Table4({"Points", "Efficacy", "D best", "D worst",
                       "T fastest", "T slowest", "T bestD"});
  TablePrinter Figure7({"Points", "Layer", "Kind", "Params", "Drawdown(%)",
                        "T total", "T jacobian", "T lp", "T other",
                        "LP rows used", "CG rounds"});

  const int AnchorCount = 40;
  for (int Size : Sizes) {
    PointSpec Spec = task1Spec(W, Size, AnchorCount);

    // FT/MFT train on the same repair set, incl. the non-buggy anchors
    // ("In all cases PR, FT, and MFT were given the same repair set").
    Dataset RepairSet;
    for (int I = 0; I < Size; ++I)
      RepairSet.push(W.Adversarials.Inputs[I], W.Adversarials.Labels[I]);
    for (int I = 0; I < AnchorCount; ++I)
      RepairSet.push(W.Anchors.Inputs[I], W.Anchors.Labels[I]);

    // --- PR on every repairable layer --------------------------------------
    PrRow Pr;
    Pr.Total = static_cast<int>(Layers.size());
    for (int LayerIdx : Layers) {
      RepairResult Result = RunRepair(LayerIdx, Spec);
      std::string DrawdownCell = "infeasible";
      if (Result.Status == RepairStatus::Success) {
        ++Pr.Feasible;
        double Drawdown =
            100 * (W.ValidationAccuracy -
                   Result.Repaired->accuracy(W.Validation.Inputs,
                                             W.Validation.Labels));
        double T = Result.Stats.TotalSeconds;
        Pr.FastestTime = std::min(Pr.FastestTime, T);
        Pr.SlowestTime = std::max(Pr.SlowestTime, T);
        Pr.WorstDrawdown = std::max(Pr.WorstDrawdown, Drawdown);
        if (Drawdown < Pr.BestDrawdown) {
          Pr.BestDrawdown = Drawdown;
          Pr.BestTime = T;
        }
        DrawdownCell = formatDouble(Drawdown, 1);
      }
      Figure7.addRow(
          {std::to_string(Size), std::to_string(LayerIdx),
           W.Net.layer(LayerIdx).describe(),
           std::to_string(cast<LinearLayer>(W.Net.layer(LayerIdx)).numParams()),
           DrawdownCell, formatDuration(Result.Stats.TotalSeconds),
           formatDuration(Result.Stats.JacobianSeconds),
           formatDuration(Result.Stats.LpSeconds),
           formatDuration(Result.Stats.OtherSeconds),
           std::to_string(Result.Stats.LpRowsUsed),
           std::to_string(Result.Stats.CgRounds)});
    }

    // --- FT[1] / FT[2] -------------------------------------------------------
    FineTuneOptions Ft1;
    Ft1.LearningRate = 0.003;
    Ft1.BatchSize = 2;
    Ft1.MaxEpochs = 100;
    Ft1.TimeoutSeconds = 60.0;
    FineTuneOptions Ft2 = Ft1;
    Ft2.BatchSize = 16;
    Rng FtR1(4001), FtR2(4002);
    FineTuneResult FtA = fineTune(W.Net, RepairSet, Ft1, FtR1);
    FineTuneResult FtB = fineTune(W.Net, RepairSet, Ft2, FtR2);
    double FtAD = 100 * (W.ValidationAccuracy -
                         accuracy(FtA.Tuned, W.Validation.Inputs,
                                  W.Validation.Labels));
    double FtBD = 100 * (W.ValidationAccuracy -
                         accuracy(FtB.Tuned, W.Validation.Inputs,
                                  W.Validation.Labels));

    // --- MFT[1]/MFT[2]: best-drawdown layer ----------------------------------
    auto RunMft = [&](int BatchSize, uint64_t Seed) {
      double BestD = 1e9, BestE = 0.0, BestT = 0.0;
      for (int LayerIdx : Layers) {
        ModifiedFineTuneOptions Options;
        Options.LearningRate = 0.003;
        Options.BatchSize = BatchSize;
        Options.LayerIndex = LayerIdx;
        Options.MaxEpochs = 25;
        Rng R(Seed + LayerIdx);
        WallTimer Timer;
        ModifiedFineTuneResult Result =
            modifiedFineTune(W.Net, RepairSet, Options, R);
        double D = 100 * (W.ValidationAccuracy -
                          accuracy(Result.Tuned, W.Validation.Inputs,
                                   W.Validation.Labels));
        if (D < BestD) {
          BestD = D;
          BestE = 100 * Result.RepairAccuracy;
          BestT = Timer.seconds();
        }
      }
      return std::tuple<double, double, double>(BestE, BestD, BestT);
    };
    auto [MftAE, MftAD, MftAT] = RunMft(2, 4101);
    auto [MftBE, MftBD, MftBT] = RunMft(16, 4201);

    Table1.addRow({std::to_string(Size), formatDouble(Pr.BestDrawdown, 1),
                   formatDuration(Pr.BestTime), formatDouble(FtAD, 1),
                   formatDuration(FtA.Seconds), formatDouble(FtBD, 1),
                   formatDuration(FtB.Seconds), formatDouble(MftAE, 1),
                   formatDouble(MftAD, 1), formatDuration(MftAT),
                   formatDouble(MftBE, 1), formatDouble(MftBD, 1),
                   formatDuration(MftBT)});
    Table4.addRow({std::to_string(Size),
                   std::to_string(Pr.Feasible) + " / " +
                       std::to_string(Pr.Total),
                   formatDouble(Pr.BestDrawdown, 1),
                   formatDouble(Pr.WorstDrawdown, 1),
                   formatDuration(Pr.FastestTime),
                   formatDuration(Pr.SlowestTime),
                   formatDuration(Pr.BestTime)});
  }

  std::printf("Table 1 (D: drawdown %%, T: time; PR/FT efficacy is 100%%, "
              "E: MFT efficacy %%):\n");
  Table1.print(std::cout);
  std::printf("\nTable 4 (extended per-layer PR results):\n");
  Table4.print(std::cout);
  std::printf("\nFigures 7(a) and 7(b) (per-layer PR; 7a: the Drawdown "
              "column, 7b: the T jacobian / T lp / T other columns):\n");
  Figure7.print(std::cout);
  return 0;
}
