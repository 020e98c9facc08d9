//===- lp/LinearProgram.h - LP problem container ---------------*- C++ -*-===//
///
/// \file
/// Container for linear programs in general bounded form:
///
///   minimize    c . x
///   subject to  RowLo_i <= a_i . x <= RowHi_i   for every row i
///               VarLo_j <= x_j     <= VarHi_j   for every variable j
///
/// with +/- infinity allowed on any bound. This is the problem class the
/// paper hands to Gurobi (Definition 2.6 plus the standard two-sided
/// extension); lp/Simplex.h provides the solver.
///
/// The container is the LP's one row store. Each row is kept once, dense
/// over the variables and already equilibrated: entry j is
/// 0.0 + a_ij / S_i, with S_i the row's largest |a_ij| (1 for a row of
/// zeros), so zero coefficients are stored as +0.0 and the largest one
/// as +/-1. The scale S_i and the row's unscaled bounds sit beside it.
/// The simplex reads the rows where they are stored: a stored row never
/// moves when rows are appended, so a solver's row addresses stay valid
/// across the appends of constraint generation.
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_LP_LINEARPROGRAM_H
#define PRDNN_LP_LINEARPROGRAM_H

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

namespace prdnn {
namespace lp {

/// Infinity marker for unbounded variable/row bounds.
constexpr double kInfinity = std::numeric_limits<double>::infinity();

class DeltaLp;

/// General-form LP container; see file comment for the problem shape.
class LinearProgram {
public:
  LinearProgram() = default;
  LinearProgram(const LinearProgram &Other);
  LinearProgram &operator=(const LinearProgram &Other);
  LinearProgram(LinearProgram &&) noexcept = default;
  LinearProgram &operator=(LinearProgram &&) noexcept = default;
  ~LinearProgram() = default;

  /// Adds a variable with the given bounds and objective coefficient;
  /// returns its index. Rows stored before it read 0 in its column; they
  /// are laid out again one entry wider, so add variables before rows.
  int addVariable(double Lo, double Hi, double ObjectiveCoef = 0.0);

  /// Adds a free (unbounded) variable; returns its index.
  int addFreeVariable(double ObjectiveCoef = 0.0) {
    return addVariable(-kInfinity, kInfinity, ObjectiveCoef);
  }

  void setObjectiveCoef(int Var, double Coef);

  /// Adds the two-sided row Lo <= sum Value[k]*x[Index[k]] <= Hi;
  /// returns the row index. Duplicate indices within a row are not
  /// allowed.
  int addRow(const std::vector<int> &Index, const std::vector<double> &Value,
             double Lo, double Hi);

  /// Convenience: sum coef*x <= Hi.
  int addRowLe(const std::vector<int> &Index, const std::vector<double> &Value,
               double Hi) {
    return addRow(Index, Value, -kInfinity, Hi);
  }

  /// Convenience: sum coef*x >= Lo.
  int addRowGe(const std::vector<int> &Index, const std::vector<double> &Value,
               double Lo) {
    return addRow(Index, Value, Lo, kInfinity);
  }

  /// Convenience: sum coef*x == Value.
  int addRowEq(const std::vector<int> &Index, const std::vector<double> &Value,
               double Rhs) {
    return addRow(Index, Value, Rhs, Rhs);
  }

  int numVariables() const { return static_cast<int>(VarLo.size()); }
  int numRows() const { return static_cast<int>(RowData.size()); }

  double variableLo(int Var) const { return VarLo[Var]; }
  double variableHi(int Var) const { return VarHi[Var]; }
  double objectiveCoef(int Var) const { return Objective[Var]; }

  /// Row \p Row's equilibrated coefficients, numVariables() of them (see
  /// the file comment); the address holds until the next addVariable.
  const double *rowData(int Row) const { return RowData[Row]; }
  /// The largest |coefficient| row \p Row was divided by (1 for a row
  /// with no nonzero coefficient).
  double rowScale(int Row) const { return RowScale[Row]; }
  /// Row \p Row's unscaled bounds.
  double rowLo(int Row) const { return RowLo[Row]; }
  double rowHi(int Row) const { return RowHi[Row]; }
  /// Whether row \p Row has no nonzero coefficient.
  bool rowEmpty(int Row) const { return RowEmpty[Row] != 0; }

  /// Value of row \p Row's (unscaled) linear form at \p X.
  double rowActivity(int Row, const std::vector<double> &X) const;

  /// Objective value c . x.
  double objectiveValue(const std::vector<double> &X) const;

  /// Largest bound violation (rows and variables) of \p X; 0 when
  /// feasible.
  double maxViolation(const std::vector<double> &X) const;

private:
  // DeltaLp writes its rows' equilibrated entries itself (appendRows,
  // setRow), in one pass over its dense coefficients.
  friend class DeltaLp;

  /// Appends \p Count rows whose entries and bounds are not yet set;
  /// returns the first one's index. Every one must be set by setRow
  /// before the rows are read or copied.
  int appendRows(int Count);
  /// Sets row \p Row's scale, emptiness and unscaled bounds, and returns
  /// its numVariables() entries for the caller to write, each
  /// 0.0 + a_j / Scale. Rows may be set concurrently, each by one thread.
  double *setRow(int Row, double Scale, bool Empty, double Lo, double Hi);

  /// Storage for row \p Row, numVariables() entries, uninitialized; rows
  /// are placed in order, so every earlier row already has its storage.
  double *placeRow(size_t Row);

  std::vector<double> VarLo, VarHi, Objective;

  /// Rows live in blocks that are never reallocated, so a row's address
  /// is fixed from its append on: row r sits in block r / R at slot
  /// r % R, for the R rows that fit in a 256 KiB block (a wider row gets
  /// a block of its own). A 256 KiB block goes back to a process-wide
  /// pool of spare blocks when the problem lets it go, and the next
  /// problem's rows reuse it instead of faulting in fresh pages.
  struct BlockDeleter {
    size_t Doubles = 0;
    void operator()(double *Data) const;
  };
  using Block = std::unique_ptr<double[], BlockDeleter>;
  std::vector<Block> Blocks;
  std::vector<double *> RowData;
  std::vector<double> RowScale, RowLo, RowHi;
  std::vector<char> RowEmpty;
};

} // namespace lp
} // namespace prdnn

#endif // PRDNN_LP_LINEARPROGRAM_H
