//===- lp/LinearProgram.cpp ------------------------------------------------===//

#include "lp/LinearProgram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace prdnn;
using namespace prdnn::lp;

namespace {

/// Doubles in a pooled row block: 256 KiB.
constexpr size_t kBlockDoubles = size_t{1} << 15;
/// Spare blocks the pool keeps at most: 32 MiB. A block is only spare
/// while no problem holds it, so the pool never raises the high-water
/// mark of row storage; it keeps that much resident between problems.
constexpr size_t kMaxSpareBlocks = 128;

struct SparePool {
  std::mutex Mutex;
  std::vector<double *> Blocks;
};

/// Never destroyed, so problems destroyed during static destruction can
/// still return their blocks.
SparePool &sparePool() {
  static SparePool *Pool = new SparePool;
  return *Pool;
}

} // namespace

void LinearProgram::BlockDeleter::operator()(double *Data) const {
  if (Doubles == kBlockDoubles) {
    SparePool &Pool = sparePool();
    std::lock_guard<std::mutex> Lock(Pool.Mutex);
    if (Pool.Blocks.size() < kMaxSpareBlocks) {
      // Poisoned while spare, so AddressSanitizer still reports a read
      // through a row address that outlived its problem.
      ASAN_POISON_MEMORY_REGION(Data, kBlockDoubles * sizeof(double));
      Pool.Blocks.push_back(Data);
      return;
    }
  }
  delete[] Data;
}

LinearProgram::LinearProgram(const LinearProgram &Other)
    : VarLo(Other.VarLo), VarHi(Other.VarHi), Objective(Other.Objective),
      RowData(Other.RowData.size()), RowScale(Other.RowScale),
      RowLo(Other.RowLo), RowHi(Other.RowHi), RowEmpty(Other.RowEmpty) {
  for (size_t R = 0; R < RowData.size(); ++R) {
    RowData[R] = placeRow(R);
    std::copy(Other.RowData[R], Other.RowData[R] + numVariables(),
              RowData[R]);
  }
}

LinearProgram &LinearProgram::operator=(const LinearProgram &Other) {
  if (this != &Other)
    *this = LinearProgram(Other);
  return *this;
}

double *LinearProgram::placeRow(size_t Row) {
  size_t Width = static_cast<size_t>(numVariables());
  size_t PerBlock =
      std::max<size_t>(1, kBlockDoubles / std::max<size_t>(Width, 1));
  size_t B = Row / PerBlock;
  if (B == Blocks.size()) {
    size_t Doubles = std::max(kBlockDoubles, Width);
    double *Data = nullptr;
    if (Doubles == kBlockDoubles) {
      SparePool &Pool = sparePool();
      std::lock_guard<std::mutex> Lock(Pool.Mutex);
      if (!Pool.Blocks.empty()) {
        Data = Pool.Blocks.back();
        Pool.Blocks.pop_back();
        ASAN_UNPOISON_MEMORY_REGION(Data, kBlockDoubles * sizeof(double));
      }
    }
    if (!Data)
      Data = new double[Doubles];
    Blocks.push_back(Block(Data, BlockDeleter{Doubles}));
  }
  assert(B < Blocks.size() && "rows placed out of order");
  return Blocks[B].get() + (Row % PerBlock) * Width;
}

int LinearProgram::addVariable(double Lo, double Hi, double ObjectiveCoef) {
  assert(Lo <= Hi && "variable with empty bound interval");
  VarLo.push_back(Lo);
  VarHi.push_back(Hi);
  Objective.push_back(ObjectiveCoef);
  if (!RowData.empty()) {
    // Lay the stored rows out again one entry wider, +0.0 in the new
    // column; no solver may hold their addresses across this.
    int Width = numVariables();
    std::vector<Block> Old = std::move(Blocks);
    Blocks.clear();
    for (size_t R = 0; R < RowData.size(); ++R) {
      double *Wider = placeRow(R);
      std::copy(RowData[R], RowData[R] + Width - 1, Wider);
      Wider[Width - 1] = 0.0;
      RowData[R] = Wider;
    }
  }
  return numVariables() - 1;
}

void LinearProgram::setObjectiveCoef(int Var, double Coef) {
  assert(Var >= 0 && Var < numVariables() && "bad variable index");
  Objective[static_cast<size_t>(Var)] = Coef;
}

int LinearProgram::appendRows(int Count) {
  int First = numRows();
  for (int K = 0; K < Count; ++K)
    RowData.push_back(placeRow(RowData.size()));
  size_t Rows = RowData.size();
  RowScale.resize(Rows);
  RowLo.resize(Rows);
  RowHi.resize(Rows);
  RowEmpty.resize(Rows);
  return First;
}

double *LinearProgram::setRow(int Row, double Scale, bool Empty, double Lo,
                              double Hi) {
  assert(Lo <= Hi && "row with empty bound interval");
  size_t R = static_cast<size_t>(Row);
  RowScale[R] = Scale;
  RowEmpty[R] = Empty;
  RowLo[R] = Lo;
  RowHi[R] = Hi;
  return RowData[R];
}

int LinearProgram::addRow(const std::vector<int> &Index,
                          const std::vector<double> &Value, double Lo,
                          double Hi) {
  assert(Index.size() == Value.size() && "row index/value length mismatch");
#ifndef NDEBUG
  for (int I : Index)
    assert(I >= 0 && I < numVariables() && "row references unknown variable");
#endif
  // Row equilibration: divide the row (the solver divides its bounds) by
  // its largest coefficient magnitude, so feasibility tolerances mean the
  // same on every row.
  double MaxAbs = 0.0;
  bool Empty = true;
  for (double V : Value) {
    MaxAbs = std::max(MaxAbs, std::fabs(V));
    if (V != 0.0)
      Empty = false;
  }
  double Scale = MaxAbs > 0.0 ? MaxAbs : 1.0;
  int Row = appendRows(1);
  double *Dst = setRow(Row, Scale, Empty, Lo, Hi);
  std::fill(Dst, Dst + numVariables(), 0.0);
  for (size_t K = 0; K < Index.size(); ++K)
    Dst[Index[K]] = 0.0 + Value[K] / Scale;
  return Row;
}

double LinearProgram::rowActivity(int Row, const std::vector<double> &X) const {
  const double *A = RowData[static_cast<size_t>(Row)];
  double Sum = 0.0;
  for (int J = 0; J < numVariables(); ++J)
    Sum += A[J] * X[static_cast<size_t>(J)];
  return RowScale[static_cast<size_t>(Row)] * Sum;
}

double LinearProgram::objectiveValue(const std::vector<double> &X) const {
  double Sum = 0.0;
  for (int J = 0; J < numVariables(); ++J)
    Sum += Objective[static_cast<size_t>(J)] * X[static_cast<size_t>(J)];
  return Sum;
}

double LinearProgram::maxViolation(const std::vector<double> &X) const {
  double Worst = 0.0;
  for (int J = 0; J < numVariables(); ++J) {
    Worst = std::max(Worst, VarLo[J] - X[static_cast<size_t>(J)]);
    Worst = std::max(Worst, X[static_cast<size_t>(J)] - VarHi[J]);
  }
  for (int I = 0; I < numRows(); ++I) {
    double Activity = rowActivity(I, X);
    Worst = std::max(Worst, RowLo[I] - Activity);
    Worst = std::max(Worst, Activity - RowHi[I]);
  }
  return std::max(Worst, 0.0);
}
