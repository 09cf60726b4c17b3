#include "sv/state_vector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

namespace hisim::sv {
namespace {

/// Fills [0, n) of raw storage in parallel over the block grid — the first
/// touch of every page happens on the worker that owns its block.
void parallel_fill(cplx* a, Index n, const cplx* src) {
  const parallel::BlockGrid grid = parallel::block_grid(n);
  parallel::for_range(
      0, grid.blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b) {
          const Index begin = b * grid.per;
          const Index end = std::min(n, begin + grid.per);
          if (src != nullptr)
            std::memcpy(static_cast<void*>(a + begin), src + begin,
                        (end - begin) * kAmpBytes);
          else
            std::uninitialized_fill(a + begin, a + end, cplx{});
        }
      },
      /*grain=*/1);
}

}  // namespace

void AmpFree::operator()(cplx* p) const { ::operator delete[](p); }

AmpBuffer allocate_amps(Index n) {
  // operator new implicitly creates the (implicit-lifetime) cplx objects.
  return AmpBuffer(
      static_cast<cplx*>(::operator new[](n * kAmpBytes)));
}

StateVector::StateVector(unsigned num_qubits) : num_qubits_(num_qubits) {
  // Validate before allocating (2^35 amplitudes = 512 GiB).
  HISIM_CHECK_MSG(num_qubits <= 34, "state vector would exceed 256 GiB");
  size_ = dim(num_qubits);
  amps_ = allocate_amps(size_);
  parallel_fill(amps_.get(), size_, nullptr);
  amps_[0] = 1.0;
}

StateVector::StateVector(const StateVector& other)
    : num_qubits_(other.num_qubits_), size_(other.size_) {
  if (other.amps_) {
    amps_ = allocate_amps(size_);
    parallel_fill(amps_.get(), size_, other.amps_.get());
  }
}

StateVector& StateVector::operator=(const StateVector& other) {
  if (this != &other) *this = StateVector(other);
  return *this;
}

StateVector::StateVector(StateVector&& other) noexcept
    : num_qubits_(std::exchange(other.num_qubits_, 0)),
      size_(std::exchange(other.size_, 0)),
      amps_(std::move(other.amps_)) {}

StateVector& StateVector::operator=(StateVector&& other) noexcept {
  num_qubits_ = std::exchange(other.num_qubits_, 0);
  size_ = std::exchange(other.size_, 0);
  amps_ = std::move(other.amps_);
  return *this;
}

double StateVector::norm() const {
  const cplx* a = data();
  return parallel::reduce_sum(size(), [a](Index lo, Index hi) {
    double n = 0.0;
    for (Index i = lo; i < hi; ++i) n += std::norm(a[i]);
    return n;
  });
}

double StateVector::prob_one(Qubit q) const {
  HISIM_CHECK(q < num_qubits_);
  double p = 0.0;
  for (Index i = 0; i < size(); ++i)
    if (bits::test(i, q)) p += std::norm(amps_[i]);
  return p;
}

double StateVector::max_abs_diff(const StateVector& other) const {
  HISIM_CHECK(size() == other.size());
  double m = 0.0;
  for (Index i = 0; i < size(); ++i)
    m = std::max(m, std::abs(amps_[i] - other.amps_[i]));
  return m;
}

double StateVector::fidelity(const StateVector& other) const {
  HISIM_CHECK(size() == other.size());
  cplx ip = 0.0;
  for (Index i = 0; i < size(); ++i) ip += std::conj(amps_[i]) * other.amps_[i];
  return std::norm(ip);
}

void StateVector::reset() {
  parallel_fill(amps_.get(), size_, nullptr);
  amps_[0] = 1.0;
}

void validate_norm_preserved(double expected, double actual,
                             const char* where) {
  // A unitary gate accumulates O(eps) relative norm drift per application;
  // 1e-9 absolute headroom covers tens of thousands of gates at double
  // precision while still catching any real loss (a dropped amplitude
  // pair changes the norm by its probability mass, orders of magnitude
  // above rounding).
  const double tol = 1e-9 * std::max(1.0, expected);
  HISIM_INVARIANT(std::abs(actual - expected) <= tol,
                  "state norm not preserved across unitary segment ["
                      << where << "]: expected " << expected << ", got "
                      << actual);
}

}  // namespace hisim::sv
