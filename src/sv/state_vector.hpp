#pragma once

#include <memory>

#include "common/check.hpp"
#include "common/types.hpp"

namespace hisim::sv {

/// Frees amplitude storage obtained from allocate_amps.
struct AmpFree {
  void operator()(cplx* p) const;
};
using AmpBuffer = std::unique_ptr<cplx[], AmpFree>;

/// Uninitialized storage for `n` amplitudes (malloc alignment: the vector
/// kernels use unaligned loads, and an over-aligned request fragments the
/// allocator's arenas enough to triple a sweep's peak RSS). The first
/// write is the first touch, so callers place pages by who writes first
/// (StateVector zeroes in parallel; a hierarchical worker's inner buffer
/// is first written by that worker's gather).
AmpBuffer allocate_amps(Index n);

/// Dense state vector of an n-qubit register (2^n complex amplitudes,
/// little-endian: bit q of an index is qubit q). Initialized to |0...0>.
///
/// The amplitudes are zeroed by a parallel first touch over a fixed block
/// grid, so on a multi-socket host each page lands on the node of the
/// worker that later sweeps it, and a 2^24-amplitude state is not
/// initialized by one thread.
class StateVector {
 public:
  StateVector() = default;
  explicit StateVector(unsigned num_qubits);
  StateVector(const StateVector& other);
  StateVector& operator=(const StateVector& other);
  /// A moved-from vector is empty (0 amplitudes), as with std::vector.
  StateVector(StateVector&& other) noexcept;
  StateVector& operator=(StateVector&& other) noexcept;

  unsigned num_qubits() const { return num_qubits_; }
  Index size() const { return size_; }
  Index bytes() const { return size() * kAmpBytes; }

  cplx& operator[](Index i) { return amps_[i]; }
  const cplx& operator[](Index i) const { return amps_[i]; }

  cplx* data() { return amps_.get(); }
  const cplx* data() const { return amps_.get(); }

  /// Sum of |a_i|^2 (1.0 for a normalized state). Parallel over a fixed
  /// block grid with a serial merge, so the value does not depend on the
  /// worker count.
  double norm() const;

  /// Probability of measuring qubit q as 1.
  double prob_one(Qubit q) const;

  /// Largest |a_i - b_i| between two states of equal size.
  double max_abs_diff(const StateVector& other) const;

  /// |<this|other>|^2 (1.0 iff identical up to global phase).
  double fidelity(const StateVector& other) const;

  /// Resets to |0...0>.
  void reset();

 private:
  unsigned num_qubits_ = 0;
  Index size_ = 0;
  // Raw storage rather than a std::vector: a vector (or new cplx[])
  // value-initializes every amplitude on the constructing thread, which
  // defeats the parallel first touch.
  AmpBuffer amps_;
};

/// Non-owning view of a contiguous 2^n-amplitude register: what the apply
/// kernels operate on. A StateVector converts implicitly; the hierarchical
/// executor also builds views of contiguous blocks inside a larger state
/// (a part whose qubits are the low bits runs in place, block by block).
struct StateView {
  cplx* amps = nullptr;
  unsigned qubits = 0;

  StateView(cplx* a, unsigned num_qubits) : amps(a), qubits(num_qubits) {}
  StateView(StateVector& s)  // NOLINT(google-explicit-constructor)
      : amps(s.data()), qubits(s.num_qubits()) {}

  unsigned num_qubits() const { return qubits; }
  Index size() const { return dim(qubits); }
  cplx* data() const { return amps; }
};

/// Deep validator (see common/check.hpp): aborts unless `actual` matches
/// `expected` within the accumulated-rounding tolerance a unitary gate
/// sequence may introduce. `where` names the seam for the failure message.
/// Called by the execute paths of checked builds after every unitary
/// segment; callable directly by tests (death tests corrupt a norm and
/// assert the abort).
void validate_norm_preserved(double expected, double actual,
                             const char* where);

}  // namespace hisim::sv
