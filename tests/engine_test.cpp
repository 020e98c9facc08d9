//===- tests/engine_test.cpp - RepairEngine request/job API tests ------------===//
//
// Covers the engine contract: run()/the repairPoints wrappers/submit()
// all produce bit-identical results; N concurrent jobs over the shared
// pool match serial runs exactly; cooperative cancellation before the
// job runs, mid-Jacobian, and in the LP phase (deterministically, via
// checkpoint hooks) resolves with RepairStatus::Cancelled and stamped
// timing stats; the kAutoLayer sweep picks the minimal-norm success
// deterministically; queue backpressure and engine destruction with
// queued jobs behave.
//
//===----------------------------------------------------------------------===//

#include "api/RepairEngine.h"

#include "core/PolytopeRepair.h"
#include "lp/NormObjective.h"
#include "nn/ActivationLayers.h"
#include "nn/Jacobian.h"
#include "nn/LinearLayers.h"
#include "nn/PoolLayers.h"
#include "support/Casting.h"
#include "support/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace {

using namespace prdnn;

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

/// 6 -> 16 -> 16 -> 4 ReLU classifier; parameterized layers 0, 2, 4.
Network makeClassifier(Rng &R) {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 6, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 16, 16, 0.9), randomVector(R, 16, 0.3)));
  Net.addLayer(std::make_unique<ReLULayer>(16));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 4, 16, 0.9), randomVector(R, 4, 0.3)));
  return Net;
}

/// Point spec that needs actual repair work: every third point must
/// flip to its runner-up class; the rest anchor their current class.
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

Network makeFigure3Network() {
  Network Net;
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0}, {1.0}, {1.0}}), Vector{0.0, 0.0, -1.0}));
  Net.addLayer(std::make_unique<ReLULayer>(3));
  Net.addLayer(std::make_unique<FullyConnectedLayer>(
      Matrix::fromRows({{-1.0, -1.0, 1.0}}), Vector{0.0}));
  return Net;
}

PolytopeSpec makeFigure3PolySpec(double Lo, double Hi) {
  PolytopeSpec Spec;
  Spec.push_back(SpecPolytope{SegmentPolytope{Vector{0.5}, Vector{1.5}},
                              boxConstraint(Vector{Lo}, Vector{Hi})});
  return Spec;
}

void expectBitIdentical(const RepairResult &A, const RepairResult &B) {
  ASSERT_EQ(A.Status, B.Status);
  ASSERT_EQ(A.Delta.size(), B.Delta.size());
  for (size_t I = 0; I < A.Delta.size(); ++I)
    EXPECT_EQ(A.Delta[I], B.Delta[I]) << "Delta[" << I << "]";
  EXPECT_EQ(A.DeltaL1, B.DeltaL1);
  EXPECT_EQ(A.DeltaLInf, B.DeltaLInf);
  EXPECT_EQ(A.Stats.SpecRows, B.Stats.SpecRows);
  EXPECT_EQ(A.Stats.LpRowsUsed, B.Stats.LpRowsUsed);
}

/// Checkpoint-hook state that cancels its job at the Nth checkpoint of
/// \p Phase. The gate makes the hook wait until the JobHandle exists,
/// so hook-driven cancellation is deterministic even if the worker
/// starts the job before submit() returns to the test.
struct CancelAt {
  RepairPhase Phase;
  int N;
  std::atomic<int> Seen{0};
  JobHandle Handle;
  std::promise<void> HandleReady;
  std::shared_future<void> Ready{HandleReady.get_future().share()};
  std::vector<RepairPhase> Trace; // job-thread only; read after report()

  std::function<void(RepairPhase)> hook(std::shared_ptr<CancelAt> Self) {
    return [Self](RepairPhase P) {
      Self->Ready.wait();
      Self->Trace.push_back(P);
      if (P == Self->Phase &&
          Self->Seen.fetch_add(1, std::memory_order_relaxed) + 1 ==
              Self->N)
        Self->Handle.cancel();
    };
  }
};

TEST(RepairEngine, StatusAndPhaseToString) {
  EXPECT_STREQ(toString(RepairStatus::Cancelled), "Cancelled");
  EXPECT_STREQ(toString(RepairStatus::Success), "Success");
  EXPECT_STREQ(toString(RepairStatus::Infeasible), "Infeasible");
  EXPECT_STREQ(toString(RepairStatus::SolverFailure), "SolverFailure");
  EXPECT_STREQ(lp::toString(lp::SolveStatus::Cancelled), "Cancelled");
  EXPECT_STREQ(toString(RepairPhase::Queued), "Queued");
  EXPECT_STREQ(toString(RepairPhase::LinRegions), "LinRegions");
  EXPECT_STREQ(toString(RepairPhase::Jacobian), "Jacobian");
  EXPECT_STREQ(toString(RepairPhase::Lp), "Lp");
  EXPECT_STREQ(toString(RepairPhase::Verify), "Verify");
  EXPECT_STREQ(toString(RepairPhase::Done), "Done");
}

TEST(RepairEngine, SimplexHonorsPreRaisedCancelFlag) {
  // The solver must notice a raised flag before doing any pivots.
  lp::DeltaLp Lp(4, lp::Norm::L1);
  Lp.addConstraint({1.0, 1.0, 0.0, 0.0}, 1.0, lp::kInfinity);
  Lp.addConstraint({0.0, 1.0, 1.0, -1.0}, -lp::kInfinity, -2.0);
  std::atomic<bool> Flag{true};
  lp::SimplexOptions Options;
  Options.CancelFlag = &Flag;
  lp::LpSolution Sol = lp::solveLp(Lp.problem(), Options);
  EXPECT_EQ(Sol.Status, lp::SolveStatus::Cancelled);
  EXPECT_TRUE(Sol.X.empty());
  Flag.store(false);
  EXPECT_EQ(lp::solveLp(Lp.problem(), Options).Status,
            lp::SolveStatus::Optimal);
}

TEST(RepairEngine, RunMatchesWrapperBitForBit) {
  Rng R(91001);
  Network Net = makeClassifier(R);
  PointSpec Spec = makeFlipSpec(Net, R, 30);

  RepairResult Direct = repairPoints(Net, 4, Spec);
  RepairEngine Engine;
  RepairReport Report = Engine.run(
      RepairRequest::points(RepairRequest::borrow(Net), 4, Spec));
  ASSERT_EQ(Report.Status, Direct.Status);
  EXPECT_EQ(Report.RepairedLayer, 4);
  ASSERT_EQ(Report.Sweep.size(), 1u);
  EXPECT_EQ(Report.Sweep[0].LayerIndex, 4);
  expectBitIdentical(Report.Result, Direct);
}

TEST(RepairEngine, RunPolytopeMatchesWrapperBitForBit) {
  Network Net = makeFigure3Network();
  PolytopeSpec Spec = makeFigure3PolySpec(-0.8, -0.4);
  RepairOptions Options;
  Options.RowMargin = 0.0;

  RepairResult Direct = repairPolytopes(Net, 0, Spec, Options);
  RepairEngine Engine;
  RepairReport Report = Engine.run(RepairRequest::polytopes(
      RepairRequest::borrow(Net), 0, Spec, Options));
  ASSERT_EQ(Report.Status, Direct.Status);
  expectBitIdentical(Report.Result, Direct);
  EXPECT_EQ(Report.Result.Stats.KeyPoints, Direct.Stats.KeyPoints);
  EXPECT_EQ(Report.Result.Stats.LinearRegions, Direct.Stats.LinearRegions);
}

TEST(RepairEngine, ConcurrentSubmitsBitIdenticalToSerialRuns) {
  Rng R(91002);
  auto Classifier = std::make_shared<Network>(makeClassifier(R));
  auto Figure3 = std::make_shared<Network>(makeFigure3Network());

  // Ten jobs over two shared networks: three layers x two specs on
  // the classifier, two polytope jobs on Figure 3, and a kAutoLayer
  // sweep on each network, so sweeps run their attempts on the pool
  // next to other jobs' loops.
  std::vector<RepairRequest> Requests;
  std::vector<PointSpec> Specs;
  Specs.push_back(makeFlipSpec(*Classifier, R, 24));
  Specs.push_back(makeFlipSpec(*Classifier, R, 36));
  for (int Layer : {0, 2, 4})
    for (const PointSpec &Spec : Specs)
      Requests.push_back(RepairRequest::points(Classifier, Layer, Spec));
  RepairOptions PolyOptions;
  PolyOptions.RowMargin = 0.0;
  for (double Hi : {-0.4, -0.5})
    Requests.push_back(RepairRequest::polytopes(
        Figure3, 0, makeFigure3PolySpec(-0.8, Hi), PolyOptions));
  Requests.push_back(RepairRequest::points(Classifier, kAutoLayer, Specs[1]));
  Requests.push_back(RepairRequest::polytopes(
      Figure3, kAutoLayer, makeFigure3PolySpec(-0.8, -0.4), PolyOptions));

  EngineOptions SerialOptions;
  SerialOptions.EnableCache = false;
  RepairEngine SerialEngine(SerialOptions);
  std::vector<RepairReport> Serial;
  for (const RepairRequest &Request : Requests)
    Serial.push_back(SerialEngine.run(Request));
  for (size_t I = Requests.size() - 2; I < Requests.size(); ++I) {
    ASSERT_EQ(Serial[I].Status, RepairStatus::Success);
    ASSERT_GT(Serial[I].Sweep.size(), 1u);
  }

  EngineOptions Options;
  Options.NumWorkers = 4;
  RepairEngine Engine(Options);
  std::vector<JobHandle> Handles;
  for (const RepairRequest &Request : Requests)
    Handles.push_back(Engine.submit(Request));
  ASSERT_EQ(Handles.size(), 10u);

  for (size_t I = 0; I < Requests.size(); ++I) {
    const RepairReport &Report = Handles[I].report();
    EXPECT_GT(Report.JobId, 0u);
    expectBitIdentical(Report.Result, Serial[I].Result);
    EXPECT_EQ(Report.RepairedLayer, Serial[I].RepairedLayer);
    EXPECT_EQ(Handles[I].progress().Phase, RepairPhase::Done);
  }
  EXPECT_EQ(Engine.pendingJobs(), 0);
}

TEST(RepairEngine, CancelWhileQueuedResolvesWithoutRunning) {
  Rng R(91003);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);

  EngineOptions Options;
  Options.NumWorkers = 1;
  RepairEngine Engine(Options);

  // Blocker job: its hook parks the single worker until released.
  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Engine.submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  JobHandle Victim = Engine.submit(RepairRequest::points(Net, 2, Spec));
  EXPECT_FALSE(Victim.done());
  Victim.cancel();
  Release.set_value();

  const RepairReport &VictimReport = Victim.report();
  EXPECT_EQ(VictimReport.Status, RepairStatus::Cancelled);
  // Cancelled before any phase did real work, but the stats are still
  // stamped (the TotalSeconds exit-path contract).
  EXPECT_GE(VictimReport.Result.Stats.TotalSeconds, 0.0);
  EXPECT_EQ(VictimReport.Result.Stats.SpecRows, 0);
  EXPECT_TRUE(Victim.progress().CancelRequested);
  EXPECT_EQ(Blocker.report().Status, RepairStatus::Success);
}

TEST(RepairEngine, CancelMidJacobianPhase) {
  Rng R(91004);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  // 600 points -> three 256-point Jacobian chunks on a net this small,
  // so the 2nd Jacobian checkpoint is a genuine mid-phase boundary.
  PointSpec Spec = makeFlipSpec(*Net, R, 600);

  RepairEngine Engine;
  auto State = std::make_shared<CancelAt>();
  State->Phase = RepairPhase::Jacobian;
  State->N = 2;
  JobHandle Handle =
      Engine.submit(RepairRequest::points(Net, 4, Spec),
                    State->hook(State));
  State->Handle = Handle;
  State->HandleReady.set_value();

  const RepairReport &Report = Handle.report();
  EXPECT_EQ(Report.Status, RepairStatus::Cancelled);
  EXPECT_EQ(Report.Result.Status, RepairStatus::Cancelled);
  // One chunk of Jacobians ran; the timing contract still holds.
  EXPECT_GT(Report.Result.Stats.TotalSeconds, 0.0);
  EXPECT_GT(Report.Result.Stats.JacobianSeconds, 0.0);
  EXPECT_EQ(Report.Result.Stats.LpRowsUsed, 0);
  ASSERT_EQ(Report.Sweep.size(), 1u);
  EXPECT_EQ(Report.Sweep[0].Status, RepairStatus::Cancelled);
  // The hook saw exactly two Jacobian checkpoints and nothing later.
  EXPECT_EQ(State->Seen.load(), 2);
  for (RepairPhase P : State->Trace)
    EXPECT_EQ(P, RepairPhase::Jacobian);
}

TEST(RepairEngine, CancelInLpPhase) {
  Rng R(91005);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 60);

  RepairEngine Engine;
  auto State = std::make_shared<CancelAt>();
  State->Phase = RepairPhase::Lp;
  State->N = 2; // phase entry, then the first CG round's checkpoint
  JobHandle Handle =
      Engine.submit(RepairRequest::points(Net, 4, Spec),
                    State->hook(State));
  State->Handle = Handle;
  State->HandleReady.set_value();

  const RepairReport &Report = Handle.report();
  EXPECT_EQ(Report.Status, RepairStatus::Cancelled);
  // The whole Jacobian phase completed; rows exist, the LP stopped.
  EXPECT_GT(Report.Result.Stats.JacobianSeconds, 0.0);
  EXPECT_GT(Report.Result.Stats.SpecRows, 0);
  EXPECT_GT(Report.Result.Stats.TotalSeconds, 0.0);
  EXPECT_FALSE(Report.Result.Repaired.has_value());
}

TEST(RepairEngine, HookSeesPhasesInPipelineOrder) {
  Network Net = makeFigure3Network();
  RepairOptions Options;
  Options.RowMargin = 0.0;
  RepairEngine Engine;
  auto State = std::make_shared<CancelAt>();
  State->Phase = RepairPhase::Done; // never fires: trace only
  State->N = 1;
  JobHandle Handle = Engine.submit(
      RepairRequest::polytopes(RepairRequest::borrow(Net), 0,
                               makeFigure3PolySpec(-0.8, -0.4), Options),
      State->hook(State));
  State->Handle = Handle;
  State->HandleReady.set_value();
  ASSERT_EQ(Handle.report().Status, RepairStatus::Success);

  auto Rank = [](RepairPhase P) { return static_cast<int>(P); };
  ASSERT_FALSE(State->Trace.empty());
  EXPECT_EQ(State->Trace.front(), RepairPhase::LinRegions);
  for (size_t I = 1; I < State->Trace.size(); ++I)
    EXPECT_LE(Rank(State->Trace[I - 1]), Rank(State->Trace[I]));
}

TEST(RepairEngine, AutoLayerSweepPicksMinimalNormDeterministically) {
  Rng R(91006);
  Network Net = makeClassifier(R);
  PointSpec Spec = makeFlipSpec(Net, R, 24);

  // Serial per-layer baseline; the sweep must match its minimum.
  std::vector<int> Layers = Net.parameterizedLayerIndices();
  ASSERT_EQ(Layers.size(), 3u);
  std::vector<RepairResult> Serial;
  for (int Layer : Layers)
    Serial.push_back(repairPoints(Net, Layer, Spec));
  int ExpectLayer = -1;
  double ExpectNorm = 1e300;
  for (size_t I = 0; I < Layers.size(); ++I)
    if (Serial[I].Status == RepairStatus::Success &&
        Serial[I].DeltaL1 < ExpectNorm) {
      ExpectNorm = Serial[I].DeltaL1;
      ExpectLayer = Layers[I];
    }
  ASSERT_GE(ExpectLayer, 0) << "fixture: no layer repaired the spec";

  RepairEngine Engine;
  RepairRequest Request;
  Request.Net = RepairRequest::borrow(Net);
  Request.Spec = Spec;
  Request.LayerIndex = kAutoLayer;
  RepairReport Report = Engine.run(Request);

  ASSERT_EQ(Report.Status, RepairStatus::Success);
  EXPECT_EQ(Report.RepairedLayer, ExpectLayer);
  ASSERT_EQ(Report.Sweep.size(), Layers.size());
  for (size_t I = 0; I < Layers.size(); ++I) {
    EXPECT_EQ(Report.Sweep[I].LayerIndex, Layers[I]);
    EXPECT_EQ(Report.Sweep[I].Status, Serial[I].Status);
    EXPECT_EQ(Report.Sweep[I].DeltaL1, Serial[I].DeltaL1);
  }
  size_t WinnerIdx = 0;
  while (Layers[WinnerIdx] != ExpectLayer)
    ++WinnerIdx;
  expectBitIdentical(Report.Result, Serial[WinnerIdx]);

  // Restricted candidate lists are honored (and keep determinism).
  Request.SweepLayers = {4, 2};
  RepairReport Restricted = Engine.run(Request);
  ASSERT_EQ(Restricted.Sweep.size(), 2u);
  EXPECT_EQ(Restricted.Sweep[0].LayerIndex, 4);
  EXPECT_EQ(Restricted.Sweep[1].LayerIndex, 2);
}

TEST(RepairEngine, PolytopeSweepSharesKeyPointsAndMatchesSerial) {
  // A polytope kAutoLayer sweep computes the layer-independent SyReNN
  // transform once and must still match per-layer serial
  // repairPolytopes bit-for-bit, winner included.
  Network Net = makeFigure3Network();
  PolytopeSpec Spec = makeFigure3PolySpec(-0.8, -0.4);
  RepairOptions Options;
  Options.RowMargin = 0.0;

  std::vector<int> Layers = Net.parameterizedLayerIndices();
  ASSERT_EQ(Layers.size(), 2u);
  std::vector<RepairResult> Serial;
  for (int Layer : Layers)
    Serial.push_back(repairPolytopes(Net, Layer, Spec, Options));
  int ExpectLayer = -1;
  double ExpectNorm = 1e300;
  size_t WinnerIdx = 0;
  for (size_t I = 0; I < Layers.size(); ++I)
    if (Serial[I].Status == RepairStatus::Success &&
        Serial[I].DeltaL1 < ExpectNorm) {
      ExpectNorm = Serial[I].DeltaL1;
      ExpectLayer = Layers[I];
      WinnerIdx = I;
    }
  ASSERT_GE(ExpectLayer, 0);

  RepairEngine Engine;
  RepairRequest Request;
  Request.Net = RepairRequest::borrow(Net);
  Request.Spec = Spec;
  Request.LayerIndex = kAutoLayer;
  Request.Options = Options;
  RepairReport Report = Engine.run(Request);

  ASSERT_EQ(Report.Status, RepairStatus::Success);
  EXPECT_EQ(Report.RepairedLayer, ExpectLayer);
  ASSERT_EQ(Report.Sweep.size(), Layers.size());
  for (size_t I = 0; I < Layers.size(); ++I) {
    EXPECT_EQ(Report.Sweep[I].Status, Serial[I].Status);
    EXPECT_EQ(Report.Sweep[I].DeltaL1, Serial[I].DeltaL1);
  }
  expectBitIdentical(Report.Result, Serial[WinnerIdx]);
  EXPECT_EQ(Report.Result.Stats.KeyPoints,
            Serial[WinnerIdx].Stats.KeyPoints);
  EXPECT_EQ(Report.Result.Stats.LinearRegions,
            Serial[WinnerIdx].Stats.LinearRegions);
}

TEST(RepairEngine, HighPriorityOvertakesQueuedNeutralJobs) {
  Rng R(91010);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);

  EngineOptions Options;
  Options.NumWorkers = 1; // strictly serial execution order
  RepairEngine Engine(Options);

  // Blocker job parks the single worker so subsequent submissions pile
  // up in the queue before anything else can start.
  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Engine.submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  // Execution order, recorded at each job's first checkpoint (single
  // worker, so the order is deterministic).
  std::mutex OrderMutex;
  std::vector<std::string> Order;
  auto Tracking = [&](std::string Tag) {
    auto First = std::make_shared<std::atomic<bool>>(false);
    return [&, Tag, First](RepairPhase) {
      if (!First->exchange(true)) {
        std::lock_guard<std::mutex> Lock(OrderMutex);
        Order.push_back(Tag);
      }
    };
  };

  RepairRequest Low = RepairRequest::points(Net, 0, Spec);
  Low.JobPriority = RepairRequest::Priority::Low;
  RepairRequest High = RepairRequest::points(Net, 4, Spec);
  High.JobPriority = RepairRequest::Priority::High;

  // Queue order: low, neutral A, neutral B, then high - which must be
  // served high, A, B, low (strict classes, FIFO inside each).
  JobHandle LowJob = Engine.submit(Low, Tracking("low"));
  JobHandle NeutralA =
      Engine.submit(RepairRequest::points(Net, 2, Spec), Tracking("A"));
  JobHandle NeutralB =
      Engine.submit(RepairRequest::points(Net, 2, Spec), Tracking("B"));
  JobHandle HighJob = Engine.submit(High, Tracking("high"));
  Release.set_value();

  for (JobHandle *Handle : {&Blocker, &LowJob, &NeutralA, &NeutralB,
                            &HighJob})
    Handle->wait();
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], "high");
  EXPECT_EQ(Order[1], "A");
  EXPECT_EQ(Order[2], "B");
  EXPECT_EQ(Order[3], "low");
  EXPECT_EQ(HighJob.report().Status, RepairStatus::Success);
}

TEST(RepairEngine, QueueAgingPromotesStarvedLowJob) {
  Rng R(91015);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);

  EngineOptions Options;
  Options.NumWorkers = 1;      // strictly serial execution order
  Options.AgingSeconds = 0.05; // one class promotion per 50ms waited
  RepairEngine Engine(Options);

  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Engine.submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();

  std::mutex OrderMutex;
  std::vector<std::string> Order;
  auto Tracking = [&](std::string Tag) {
    auto First = std::make_shared<std::atomic<bool>>(false);
    return [&, Tag, First](RepairPhase) {
      if (!First->exchange(true)) {
        std::lock_guard<std::mutex> Lock(OrderMutex);
        Order.push_back(Tag);
      }
    };
  };

  // A Low job queues first, then waits out at least one aging period
  // while a stream of fresh Neutral submissions piles up behind the
  // blocker. Under strict classes the Low job would run dead last
  // (HighPriorityOvertakesQueuedNeutralJobs pins that); with aging its
  // effective class reaches Neutral (and later High), and the
  // earliest-submission tie-break puts it ahead of every fresher
  // Neutral - the starvation bound this option exists for.
  RepairRequest Low = RepairRequest::points(Net, 0, Spec);
  Low.JobPriority = RepairRequest::Priority::Low;
  JobHandle LowJob = Engine.submit(Low, Tracking("low"));
  JobHandle NeutralA =
      Engine.submit(RepairRequest::points(Net, 2, Spec), Tracking("A"));
  JobHandle NeutralB =
      Engine.submit(RepairRequest::points(Net, 2, Spec), Tracking("B"));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  JobHandle NeutralC =
      Engine.submit(RepairRequest::points(Net, 2, Spec), Tracking("C"));
  Release.set_value();

  for (JobHandle *Handle : {&Blocker, &LowJob, &NeutralA, &NeutralB,
                            &NeutralC})
    Handle->wait();
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], "low") << "aged Low job did not overtake";
  EXPECT_EQ(Order[1], "A");
  EXPECT_EQ(Order[2], "B");
  EXPECT_EQ(Order[3], "C");
  EXPECT_EQ(LowJob.report().Status, RepairStatus::Success);
}

TEST(RepairEngine, SweepAttemptsCarryPhaseTimingsOnAllExitPaths) {
  Rng R(91011);
  Network Net = makeClassifier(R);

  // Contradictory box (Lo > Hi): every layer attempt exits early as
  // Infeasible, which must still stamp the per-attempt phase timings.
  PointSpec Impossible;
  Vector X = randomVector(R, Net.inputSize());
  Vector Lo = Vector::constant(Net.outputSize(), 1.0);
  Vector Hi = Vector::constant(Net.outputSize(), -1.0);
  Impossible.push_back({X, boxConstraint(Lo, Hi), std::nullopt});

  RepairEngine Engine;
  RepairRequest Request;
  Request.Net = RepairRequest::borrow(Net);
  Request.Spec = Impossible;
  Request.LayerIndex = kAutoLayer;
  RepairReport Report = Engine.run(Request);

  ASSERT_EQ(Report.Status, RepairStatus::Infeasible);
  ASSERT_EQ(Report.Sweep.size(), 3u);
  for (const SweepAttempt &Attempt : Report.Sweep) {
    EXPECT_EQ(Attempt.Status, RepairStatus::Infeasible);
    // Jacobians were assembled before the LP proved infeasibility, and
    // the early exit stamped both phase timers.
    EXPECT_GT(Attempt.JacobianSeconds, 0.0);
    EXPECT_GT(Attempt.LpSeconds, 0.0);
    EXPECT_GT(Attempt.Seconds, 0.0);
    EXPECT_GE(Attempt.Seconds,
              Attempt.JacobianSeconds + Attempt.LpSeconds);
  }

  // Successful sweeps carry them too, consistent with the winner's
  // RepairStats.
  PointSpec Flips = makeFlipSpec(Net, R, 18);
  Request.Spec = Flips;
  RepairReport Success = Engine.run(Request);
  ASSERT_EQ(Success.Status, RepairStatus::Success);
  for (const SweepAttempt &Attempt : Success.Sweep) {
    EXPECT_GT(Attempt.JacobianSeconds, 0.0);
    EXPECT_GT(Attempt.LpSeconds, 0.0);
    // One LP-solution lookup per attempt (Jacobian rows are never
    // cached).
    EXPECT_EQ(Attempt.CacheHits + Attempt.CacheMisses, 1);
  }
}

TEST(RepairEngine, SweepBitIdenticalAcrossPoolSizes) {
  // A sweep runs its independent layer attempts as one pool loop. The
  // contract: any pool size produces the same sweep log and a
  // bit-identical winner.
  const int SavedThreads = globalThreadCount();
  Rng R(91020);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 16);
  RepairRequest Request;
  Request.Net = Net;
  Request.Spec = Spec;
  Request.LayerIndex = kAutoLayer;

  setGlobalThreadCount(1);
  RepairReport Baseline = RepairEngine().run(Request);
  ASSERT_EQ(Baseline.Status, RepairStatus::Success);
  ASSERT_GT(Baseline.Sweep.size(), 1u);

  for (int Pool : {2, 4, 8}) {
    setGlobalThreadCount(Pool);
    RepairReport Pooled = RepairEngine().run(Request);
    std::string What = "pool=" + std::to_string(Pool);
    ASSERT_EQ(Pooled.Status, Baseline.Status) << What;
    EXPECT_EQ(Pooled.RepairedLayer, Baseline.RepairedLayer) << What;
    ASSERT_EQ(Pooled.Sweep.size(), Baseline.Sweep.size()) << What;
    for (size_t C = 0; C < Baseline.Sweep.size(); ++C) {
      EXPECT_EQ(Pooled.Sweep[C].LayerIndex, Baseline.Sweep[C].LayerIndex)
          << What;
      EXPECT_EQ(Pooled.Sweep[C].Status, Baseline.Sweep[C].Status) << What;
      EXPECT_EQ(Pooled.Sweep[C].DeltaL1, Baseline.Sweep[C].DeltaL1) << What;
      EXPECT_EQ(Pooled.Sweep[C].DeltaLInf, Baseline.Sweep[C].DeltaLInf)
          << What;
    }
    expectBitIdentical(Pooled.Result, Baseline.Result);
  }
  setGlobalThreadCount(SavedThreads);
}

TEST(RepairEngine, HookedSweepRunsOnTheJobThread) {
  // A checkpoint hook is invoked on the job thread, so a hooked sweep
  // runs its attempts in a plain loop there, however large the pool:
  // every hook call lands on one thread.
  const int SavedThreads = globalThreadCount();
  setGlobalThreadCount(4);
  Rng R(91021);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 16);
  RepairRequest Request;
  Request.Net = Net;
  Request.Spec = Spec;
  Request.LayerIndex = kAutoLayer;

  RepairEngine Engine;
  // Both written on the job's worker thread, read after report().
  std::vector<std::thread::id> HookThreads;
  std::thread::id JobThread;
  JobHandle Handle = Engine.submit(
      Request,
      [&](RepairPhase) { HookThreads.push_back(std::this_thread::get_id()); },
      // The completion hook runs on the worker thread that executed
      // the job: the job thread the checkpoint hook must run on.
      [&](const RepairReport &) { JobThread = std::this_thread::get_id(); });
  const RepairReport &Report = Handle.report();
  ASSERT_EQ(Report.Status, RepairStatus::Success);
  ASSERT_EQ(Report.Sweep.size(), Net->parameterizedLayerIndices().size());
  ASSERT_FALSE(HookThreads.empty());
  EXPECT_NE(JobThread, std::thread::id());
  for (std::thread::id Id : HookThreads)
    EXPECT_EQ(Id, JobThread);
  // The hooked sweep is the unhooked one, bit for bit.
  expectBitIdentical(Report.Result, Engine.run(Request).Result);
  setGlobalThreadCount(SavedThreads);
}

TEST(RepairEngine, BoundedQueueBackpressure) {
  Rng R(91007);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);
  RepairResult Serial = repairPoints(*Net, 4, Spec);

  EngineOptions Options;
  Options.NumWorkers = 2;
  Options.QueueCapacity = 2; // submit() must block-and-drain, not fail
  RepairEngine Engine(Options);
  std::vector<JobHandle> Handles;
  for (int I = 0; I < 10; ++I)
    Handles.push_back(Engine.submit(RepairRequest::points(Net, 4, Spec)));
  for (JobHandle &H : Handles)
    expectBitIdentical(H.report().Result, Serial);
}

TEST(RepairEngine, ResolvedJobReleasesSelfCapturingHooks) {
  // A hook that holds its own job's handle, as CancelAt does, forms a
  // cycle job -> hook -> handle -> job that only resolving the job can
  // break. Once the job resolves and the caller drops its handle, both
  // hooks' state must be gone.
  Rng R(91030);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);
  struct SelfRef {
    JobHandle Handle;
  };

  RepairEngine Engine;
  std::weak_ptr<CancelAt> CheckpointState;
  std::weak_ptr<SelfRef> CompletionState;
  {
    auto State = std::make_shared<CancelAt>();
    State->Phase = RepairPhase::Verify;
    State->N = 1 << 30; // never cancels
    auto Completion = std::make_shared<SelfRef>();
    JobHandle Handle = Engine.submit(
        RepairRequest::points(Net, 4, Spec), State->hook(State),
        [Completion](const RepairReport &) {});
    State->Handle = Handle;
    Completion->Handle = Handle;
    State->HandleReady.set_value();
    EXPECT_EQ(Handle.report().Status, RepairStatus::Success);
    EXPECT_FALSE(State->Trace.empty());
    CheckpointState = State;
    CompletionState = Completion;
  }
  EXPECT_TRUE(CheckpointState.expired());
  EXPECT_TRUE(CompletionState.expired());
}

// --- Constraint generation on one warm solver -------------------------------
//
// Round 1 of a repair is a cold solve; later rounds re-optimize the
// same solver with the dual simplex (lp/Simplex.h, SimplexSolver).

TEST(RepairEngine, RoundOneRepairMatchesStandaloneSolve) {
  // Every constraint row is violated at Delta = 0 (each output must
  // drop by 0.25), so round 1 holds every row and converges. Its solve
  // must be exactly solveLp of those rows: same pivot path, same Delta.
  Rng R(91040);
  Network Net = makeClassifier(R);
  const int Layer = 4;
  PointSpec Spec;
  for (int P = 0; P < 3; ++P) {
    Vector X = randomVector(R, Net.inputSize());
    Vector Y = Net.evaluate(X);
    Vector B(Y.size());
    for (int O = 0; O < Y.size(); ++O)
      B[O] = Y[O] - 0.25;
    Spec.push_back({X, OutputConstraint{Matrix::identity(Y.size()), B},
                    std::nullopt});
  }
  RepairOptions Options;
  RepairResult Result = repairPoints(Net, Layer, Spec, Options);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  ASSERT_EQ(Result.Stats.CgRounds, 1);

  // The rows as the repair assembles them (no parameter mask).
  int NumParams = static_cast<int>(Result.Delta.size());
  lp::DeltaLp Lp(NumParams, Options.Objective, Options.DeltaBound);
  for (const SpecPoint &Point : Spec) {
    JacobianResult Jr = paramJacobian(Net, Layer, Point.X);
    const OutputConstraint &C = Point.Constraint;
    for (int K = 0; K < C.numRows(); ++K) {
      std::vector<double> Coef(static_cast<size_t>(NumParams), 0.0);
      double Activity = 0.0;
      for (int O = 0; O < C.A.cols(); ++O) {
        double AKo = C.A(K, O);
        if (AKo == 0.0)
          continue;
        Activity += AKo * Jr.Output[O];
        for (int E = 0; E < NumParams; ++E)
          Coef[static_cast<size_t>(E)] += AKo * Jr.J(O, E);
      }
      double Hi = C.B[K] - Activity - Options.RowMargin;
      ASSERT_LT(Hi, 0.0);
      Lp.addConstraint(Coef, -lp::kInfinity, Hi);
    }
  }
  lp::LpSolution Sol = lp::solveLp(Lp.problem(), Options.Lp);
  ASSERT_EQ(Sol.Status, lp::SolveStatus::Optimal);
  lp::SimplexStats Folded;
  Folded.accumulate(Sol.Stats);
  EXPECT_EQ(Result.Stats.LpKernels.PivotHash, Folded.PivotHash);
  EXPECT_EQ(Result.Stats.LpIterations, Sol.Iterations);
  std::vector<double> Delta = Lp.extractDelta(Sol.X);
  ASSERT_EQ(Delta.size(), Result.Delta.size());
  for (size_t I = 0; I < Delta.size(); ++I)
    EXPECT_EQ(Delta[I], Result.Delta[I]) << "Delta[" << I << "]";
}

TEST(RepairEngine, CgRoundBudgetFallbackReturnsFullLpOptimum) {
  // One round with a tiny batch cannot converge; the fallback appends
  // every remaining row to the warm solver, which must then land on
  // the full LP's optimum.
  Rng R(91041);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 30);
  RepairOptions Full;
  Full.MaxCgRounds = 0;
  RepairResult Reference = repairPoints(*Net, 2, Spec, Full);
  ASSERT_EQ(Reference.Status, RepairStatus::Success);

  RepairOptions Budget;
  Budget.MaxCgRounds = 1;
  Budget.CgBatch = 2;
  RepairResult Result = repairPoints(*Net, 2, Spec, Budget);
  ASSERT_EQ(Result.Status, RepairStatus::Success);
  EXPECT_EQ(Result.Stats.CgRounds, 1);
  EXPECT_EQ(Result.Stats.LpRowsUsed, Result.Stats.SpecRows);
  EXPECT_NEAR(Result.DeltaL1, Reference.DeltaL1,
              1e-9 * std::max(1.0, Reference.DeltaL1));
}

TEST(RepairEngine, MultiRoundRepairIsDeterministic) {
  // A many-round repair (tiny CG batch): same status and objective as
  // the full LP, and bit-identical across thread counts and with the
  // cache and store on or off - a Delta served from cache must be the
  // one the rounds would have solved.
  Rng R(91042);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 24);
  RepairOptions Options;
  Options.CgBatch = 3;
  RepairRequest Request = RepairRequest::points(Net, 2, Spec, Options);

  EngineOptions Off;
  Off.EnableCache = false;
  RepairReport Baseline = RepairEngine(Off).run(Request);
  ASSERT_EQ(Baseline.Status, RepairStatus::Success);
  ASSERT_GE(Baseline.Result.Stats.CgRounds, 3);

  RepairOptions Full;
  Full.MaxCgRounds = 0;
  RepairResult Reference = repairPoints(*Net, 2, Spec, Full);
  ASSERT_EQ(Reference.Status, RepairStatus::Success);
  EXPECT_NEAR(Baseline.Result.DeltaL1, Reference.DeltaL1,
              1e-9 * std::max(1.0, Reference.DeltaL1));

  int SavedThreads = globalThreadCount();
  for (int Threads : {1, 4, 8}) {
    setGlobalThreadCount(Threads);
    expectBitIdentical(RepairEngine(Off).run(Request).Result,
                       Baseline.Result);
  }
  setGlobalThreadCount(SavedThreads);

  // Cache on: the cold run publishes the repair's Delta once, the warm
  // run takes it in one lookup (no pivots) and must still agree bit for
  // bit, round count included.
  RepairEngine Cached;
  RepairReport Cold = Cached.run(Request);
  RepairReport Warm = Cached.run(Request);
  expectBitIdentical(Cold.Result, Baseline.Result);
  expectBitIdentical(Warm.Result, Baseline.Result);
  EXPECT_EQ(Cold.Result.Stats.BasisHits, 0);
  EXPECT_EQ(Cold.Result.Stats.BasisMisses, 1);
  EXPECT_EQ(Warm.Result.Stats.BasisHits, 1);
  EXPECT_EQ(Warm.Result.Stats.CgRounds, Baseline.Result.Stats.CgRounds);
  EXPECT_EQ(Warm.Result.Stats.LpIterations, 0);

  // Store on: a fresh engine over the flushed store replays from disk.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("prdnn-engine-cg-" +
                  std::to_string(std::chrono::steady_clock::now()
                                     .time_since_epoch()
                                     .count()));
  EngineOptions WithStore;
  WithStore.StoreDirectory = Dir.string();
  {
    RepairEngine First(WithStore);
    expectBitIdentical(First.run(Request).Result, Baseline.Result);
    First.flushStore();
  }
  {
    RepairEngine Restarted(WithStore);
    RepairReport FromStore = Restarted.run(Request);
    expectBitIdentical(FromStore.Result, Baseline.Result);
    EXPECT_EQ(FromStore.Result.Stats.BasisStoreHits, 1);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

TEST(RepairEngine, InvalidOptionsFailBeforeAnyPhase) {
  // Options the pipeline cannot run, and requests that do not fit their
  // network, fail as SolverFailure before any phase, through run() and
  // submit() alike. A CgBatch of -1 used to reach the round's row
  // selection and read out of bounds; the request shapes below used to
  // crash, abort on an assert, or report a result for a different LP.
  Rng R(91043);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);
  std::vector<std::pair<std::string, RepairRequest>> Cases;
  auto WithOptions = [&](const std::string &Name, auto Break) {
    RepairOptions Options;
    Break(Options);
    EXPECT_FALSE(validRepairOptions(Options)) << Name;
    Cases.emplace_back(Name, RepairRequest::points(Net, 2, Spec, Options));
  };
  WithOptions("CgBatch=-1", [](RepairOptions &O) { O.CgBatch = -1; });
  WithOptions("CgBatch=0", [](RepairOptions &O) { O.CgBatch = 0; });
  WithOptions("MaxCgRounds=-1", [](RepairOptions &O) { O.MaxCgRounds = -1; });
  WithOptions("DeltaBound=0", [](RepairOptions &O) { O.DeltaBound = 0.0; });
  WithOptions("DeltaBound=-1", [](RepairOptions &O) { O.DeltaBound = -1.0; });

  auto WithPoints = [&](const std::string &Name, int Layer, auto Break) {
    RepairRequest Request = RepairRequest::points(Net, Layer, Spec);
    Break(Request, std::get<PointSpec>(Request.Spec)[0]);
    Cases.emplace_back(Name, std::move(Request));
  };
  WithPoints("LayerIndex=99", 99, [](RepairRequest &, SpecPoint &) {});
  WithPoints("LayerIndex=ReLU", 1, [](RepairRequest &, SpecPoint &) {});
  WithPoints("SweepLayers={1}", kAutoLayer,
             [](RepairRequest &Q, SpecPoint &) { Q.SweepLayers = {1}; });
  WithPoints("ParamMask size 3", 2, [](RepairRequest &Q, SpecPoint &) {
    Q.Options.ParamMask = std::vector<bool>(3, true);
  });
  WithPoints("ParamMask all false", 2, [&](RepairRequest &Q, SpecPoint &) {
    Q.Options.ParamMask = std::vector<bool>(
        static_cast<size_t>(cast<LinearLayer>(Net->layer(2)).numParams()),
        false);
  });
  WithPoints("X size 3", 2, [](RepairRequest &, SpecPoint &P) {
    P.X = Vector(3);
  });
  WithPoints("A with 2 columns", 2, [](RepairRequest &, SpecPoint &P) {
    P.Constraint = classificationConstraint(2, 0, 1e-3);
  });
  WithPoints("b shorter than A", 2, [](RepairRequest &, SpecPoint &P) {
    P.Constraint.B = Vector(1);
  });
  WithPoints("pattern with no layers", 2, [](RepairRequest &, SpecPoint &P) {
    P.Pattern = NetworkPattern();
  });
  WithPoints("pattern entry too short", 2, [&](RepairRequest &, SpecPoint &P) {
    P.Pattern = computePattern(*Net, P.X);
    P.Pattern->Patterns[3].pop_back();
  });

  auto Figure3 = std::make_shared<Network>(makeFigure3Network());
  RepairRequest LongSegment = RepairRequest::polytopes(
      Figure3, 0, makeFigure3PolySpec(-0.8, -0.4));
  std::get<SegmentPolytope>(
      std::get<PolytopeSpec>(LongSegment.Spec)[0].Shape)
      .A = Vector(3);
  Cases.emplace_back("segment of size 3", std::move(LongSegment));
  PolytopeSpec TwoVertexPlane;
  TwoVertexPlane.push_back(SpecPolytope{
      PlanePolytope{{randomVector(R, 6), randomVector(R, 6)}},
      classificationConstraint(4, 0)});
  Cases.emplace_back("plane with 2 vertices",
                     RepairRequest::polytopes(Net, 2, TwoVertexPlane));
  // Both used to crash the transform: a zero first edge divides by a
  // zero norm, and collinear vertices leave the plane frame unset.
  Vector P0 = randomVector(R, 6), Step = randomVector(R, 6);
  for (const auto &[Name, Vertices] :
       {std::pair<std::string, std::vector<Vector>>{
            "collinear plane", {P0, P0 + Step, P0 + Step * 2.0}},
        {"plane with a repeated first vertex", {P0, P0, P0 + Step}}}) {
    PolytopeSpec Degenerate;
    Degenerate.push_back(SpecPolytope{PlanePolytope{Vertices},
                                      classificationConstraint(4, 0)});
    Cases.emplace_back(Name, RepairRequest::polytopes(Net, 2, Degenerate));
  }
  // The plane transform has no max-pool split; this one crashed too.
  Network Pooled;
  Pooled.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 4, 2),
                                                        randomVector(R, 4)));
  Pooled.addLayer(std::make_unique<MaxPool2DLayer>(1, 2, 2, 2, 2, 2));
  Pooled.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 2, 1),
                                                        randomVector(R, 2)));
  PolytopeSpec Triangle;
  Triangle.push_back(SpecPolytope{
      PlanePolytope{{Vector{-1.0, -1.0}, Vector{1.0, -1.0}, Vector{0.0, 1.0}}},
      classificationConstraint(2, 0)});
  Cases.emplace_back(
      "plane on a max-pool network",
      RepairRequest::polytopes(std::make_shared<Network>(std::move(Pooled)), 0,
                               Triangle));
  Network Smooth;
  Smooth.addLayer(std::make_unique<FullyConnectedLayer>(
      randomMatrix(R, 3, 1), randomVector(R, 3)));
  Smooth.addLayer(std::make_unique<TanhLayer>(3));
  Smooth.addLayer(std::make_unique<FullyConnectedLayer>(randomMatrix(R, 1, 3),
                                                        randomVector(R, 1)));
  Cases.emplace_back(
      "polytopes on a tanh network",
      RepairRequest::polytopes(std::make_shared<Network>(std::move(Smooth)), 0,
                               makeFigure3PolySpec(-0.8, -0.4)));
  Network ReluOnly;
  ReluOnly.addLayer(std::make_unique<ReLULayer>(4));
  PointSpec ReluSpec = {{Vector(4), classificationConstraint(4, 0), {}}};
  Cases.emplace_back(
      "sweep with no parameterized layer",
      RepairRequest::points(std::make_shared<Network>(std::move(ReluOnly)),
                            kAutoLayer, ReluSpec));

  RepairEngine Engine;
  for (const auto &[Name, Request] : Cases) {
    RepairReport Ran = Engine.run(Request);
    RepairReport Submitted = Engine.submit(Request).report();
    for (const RepairReport *Report : {&Ran, &Submitted}) {
      EXPECT_EQ(Report->Status, RepairStatus::SolverFailure) << Name;
      EXPECT_EQ(Report->Result.Status, RepairStatus::SolverFailure) << Name;
      EXPECT_TRUE(Report->Sweep.empty()) << Name;
      EXPECT_EQ(Report->Result.Stats.SpecRows, 0) << Name;
      EXPECT_EQ(Report->Result.Stats.CgRounds, 0) << Name;
      EXPECT_EQ(Report->Result.Stats.LpIterations, 0) << Name;
    }
  }
  EXPECT_TRUE(validRepairOptions(RepairOptions()));
}

TEST(RepairEngine, DestructorCancelsQueuedJobs) {
  Rng R(91008);
  auto Net = std::make_shared<Network>(makeClassifier(R));
  PointSpec Spec = makeFlipSpec(*Net, R, 12);

  EngineOptions Options;
  Options.NumWorkers = 1;
  auto Engine = std::make_unique<RepairEngine>(Options);

  std::promise<void> Entered, Release;
  std::shared_future<void> ReleaseF = Release.get_future().share();
  std::atomic<bool> EnteredOnce{false};
  JobHandle Blocker = Engine->submit(
      RepairRequest::points(Net, 4, Spec), [&](RepairPhase) {
        if (!EnteredOnce.exchange(true)) {
          Entered.set_value();
          ReleaseF.wait();
        }
      });
  Entered.get_future().wait();
  JobHandle QueuedA = Engine->submit(RepairRequest::points(Net, 2, Spec));
  JobHandle QueuedB = Engine->submit(RepairRequest::points(Net, 0, Spec));

  // Destroy the engine while the worker is parked: queued jobs must
  // resolve as Cancelled (without running), the blocker must finish.
  std::thread Destroyer([&] { Engine.reset(); });
  EXPECT_EQ(QueuedA.report().Status, RepairStatus::Cancelled);
  EXPECT_EQ(QueuedB.report().Status, RepairStatus::Cancelled);
  Release.set_value();
  Destroyer.join();
  EXPECT_EQ(Blocker.report().Status, RepairStatus::Success);
}

} // namespace
