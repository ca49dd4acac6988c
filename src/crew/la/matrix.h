#ifndef CREW_LA_MATRIX_H_
#define CREW_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "crew/common/dcheck.h"
#include "crew/la/vector_ops.h"

namespace crew::la {

/// Dense row-major matrix of doubles.
///
/// Deliberately minimal: the library needs matrix-vector products, Gram
/// matrices and factorizations for ridge regression; it is not a
/// general-purpose BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& At(int r, int c) {
    CREW_DCHECK_BOUNDS(r, rows_);
    CREW_DCHECK_BOUNDS(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    CREW_DCHECK_BOUNDS(r, rows_);
    CREW_DCHECK_BOUNDS(c, cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row `r` (contiguous, `cols()` entries).
  double* Row(int r) {
    CREW_DCHECK_BOUNDS(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* Row(int r) const {
    CREW_DCHECK_BOUNDS(r, rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row `r` into a Vec.
  Vec RowVec(int r) const;

  /// Sets row `r` from `v` (size must equal cols()).
  void SetRow(int r, const Vec& v);

  /// this * x  (x.size() == cols()).
  Vec MatVec(const Vec& x) const;

  /// this^T * x  (x.size() == rows()).
  Vec MatTVec(const Vec& x) const;

  /// Matrix product this * other.
  Matrix MatMul(const Matrix& other) const;

  /// this^T * this, a cols() x cols() Gram matrix.
  Matrix Gram() const;

  Matrix Transposed() const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Solves the symmetric positive-definite system A x = b via Cholesky.
/// Returns false if A is not (numerically) positive definite.
bool CholeskySolve(const Matrix& a, const Vec& b, Vec* x);

}  // namespace crew::la

#endif  // CREW_LA_MATRIX_H_
