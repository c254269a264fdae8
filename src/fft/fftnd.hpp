// Multi-dimensional complex FFT via the row-column method, parallelized over
// rows with the thread pool. Handles any rank >= 1 and any per-axis length
// (power-of-two lengths take the Stockham path, others Bluestein).
//
// Data layout is row-major: dims = {n0, n1, ..., nd-1} with the last axis
// contiguous, matching the NUFFT grid layout (z fastest).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "fft/fft1d.hpp"
#include "parallel/thread_pool.hpp"

namespace nufft::fft {

template <class T>
class FftNd {
 public:
  FftNd(std::vector<std::size_t> dims, Direction dir);

  const std::vector<std::size_t>& dims() const { return dims_; }
  Direction direction() const { return dir_; }

  /// Total number of elements.
  std::size_t total() const { return total_; }

  /// In-place unnormalized transform of `data` (total() elements).
  void transform(std::complex<T>* data, ThreadPool& pool) const;

  /// Single-threaded convenience overload.
  void transform(std::complex<T>* data) const;

 private:
  void transform_axis(std::complex<T>* data, std::size_t axis, ThreadPool& pool) const;

  std::vector<std::size_t> dims_;
  Direction dir_;
  std::size_t total_;
  std::vector<Fft1d<T>> plans_;  // one per axis (axes with equal lengths share work pattern but keep their own plan for simplicity)
};

}  // namespace nufft::fft
