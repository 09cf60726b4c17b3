#include "sv/kernels.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"

namespace hisim::sv {
namespace {

/// Spread compact index m over the complement of `sorted_bits` (ascending
/// zero-insertion) — enumerates only the touched subset of bases.
Index spread(Index m, std::span<const Qubit> sorted_bits) {
  for (Qubit b : sorted_bits) m = bits::insert_zero(m, b);
  return m;
}

// ---- permutation kernels ---------------------------------------------------
// Pure index moves: no arithmetic, so no per-tier variants — every tier is
// bit-identical here by construction. All enumerate only the touched
// subset via compact spread().

/// X on q: swap the halves of each pair (size/2 swaps).
void perm_x(StateView s, Qubit q) {
  const Index qb = Index{1} << q;
  cplx* a = s.data();
  parallel::for_range(0, s.size() >> 1, [&](Index lo, Index hi) {
    for (Index m = lo; m < hi; ++m) {
      const Index i0 = bits::insert_zero(m, q);
      std::swap(a[i0], a[i0 | qb]);
    }
  });
}

/// CX/CCX/MCX: swap target halves where all controls are set —
/// size >> (nc+1) swaps, control-satisfied bases enumerated directly.
void perm_ctrl_x(StateView s, std::span<const Qubit> sorted_bits,
                 Index cmask, Qubit target) {
  const Index count = s.size() >> sorted_bits.size();
  const Index tb = Index{1} << target;
  cplx* a = s.data();
  parallel::for_range(0, count, [&](Index lo, Index hi) {
    for (Index m = lo; m < hi; ++m) {
      const Index i0 = spread(m, sorted_bits) | cmask;
      std::swap(a[i0], a[i0 | tb]);
    }
  });
}

/// SWAP(qa, qb): exchange the (1,0)/(0,1) amplitudes of each 4-block —
/// size/4 swaps instead of scanning all amplitudes and testing bits.
void perm_swap(StateView s, Qubit qa, Qubit qb) {
  if (qa == qb) return;
  const Index ba = Index{1} << qa, bb = Index{1} << qb;
  const std::array<Qubit, 2> sorted = {std::min(qa, qb), std::max(qa, qb)};
  cplx* a = s.data();
  parallel::for_range(0, s.size() >> 2, [&](Index lo, Index hi) {
    for (Index m = lo; m < hi; ++m) {
      const Index base = spread(m, sorted);
      std::swap(a[base | ba], a[base | bb]);
    }
  });
}

/// CSWAP(c, qa, qb): size/8 swaps over control-satisfied 8-blocks.
void perm_cswap(StateView s, Qubit c, Qubit qa, Qubit qb) {
  if (qa == qb) return;
  const Index cb = Index{1} << c;
  const Index ba = Index{1} << qa, bb = Index{1} << qb;
  std::array<Qubit, 3> sorted = {c, qa, qb};
  std::sort(sorted.begin(), sorted.end());
  cplx* a = s.data();
  parallel::for_range(0, s.size() >> 3, [&](Index lo, Index hi) {
    for (Index m = lo; m < hi; ++m) {
      const Index base = spread(m, sorted) | cb;
      std::swap(a[base | ba], a[base | bb]);
    }
  });
}

// ---- generic k-qubit dense kernel ------------------------------------------
// Gather/scatter through per-chunk buffers; shared by every tier (the
// k >= 3 dense case is rare: fusion caps blocks at 2 qubits).

void apply_generic(StateView s, std::span<const Qubit> qs, const cplx* u) {
  const unsigned k = static_cast<unsigned>(qs.size());
  HISIM_CHECK_MSG(k <= 16, "generic kernel limited to 16-qubit gates");
  const Index kdim = Index{1} << k;
  Index mask = 0;
  for (Qubit q : qs) mask |= Index{1} << q;
  // offset[t]: contribution of local pattern t to the global index.
  std::vector<Index> offset(kdim);
  for (Index t = 0; t < kdim; ++t) {
    Index off = 0;
    for (unsigned j = 0; j < k; ++j)
      if (bits::test(t, j)) off |= Index{1} << qs[j];
    offset[t] = off;
  }
  const Index outer = s.size() >> k;
  const Index inv = ~mask & (s.size() - 1);
  cplx* a = s.data();
  parallel::for_range(
      0, outer,
      [&](Index lo, Index hi) {
        std::vector<cplx> in(kdim), out(kdim);
        for (Index m = lo; m < hi; ++m) {
          const Index base = bits::deposit(m, inv);
          for (Index t = 0; t < kdim; ++t) in[t] = a[base | offset[t]];
          for (Index r = 0; r < kdim; ++r) {
            cplx acc = 0.0;
            for (Index t = 0; t < kdim; ++t) acc += u[r * kdim + t] * in[t];
            out[r] = acc;
          }
          for (Index t = 0; t < kdim; ++t) a[base | offset[t]] = out[t];
        }
      },
      /*grain=*/Index{1} << std::max(0, 12 - static_cast<int>(k)));
}

std::vector<cplx> diagonal_of(const Matrix& u) {
  std::vector<cplx> d(u.rows());
  for (std::size_t i = 0; i < u.rows(); ++i) d[i] = u(i, i);
  return d;
}

bool exactly_diagonal(const Matrix& u) {
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c)
      if (r != c && u(r, c) != cplx{}) return false;
  return true;
}

}  // namespace

KernelCall resolve_gate(const Gate& g, std::span<const Qubit> qs,
                        std::span<const double> bound) {
  using Kind = KernelCall::Kind;
  KernelCall call;
  // Exact identities: the id gate and an unfilled noise slot. Skipping
  // them (rather than sweeping a diagonal of ones) keeps instrumented
  // plans bit-identical to — and as fast as — their ideal circuits when
  // no trajectory operator is substituted.
  if (g.kind == GateKind::I || g.kind == GateKind::NoiseSlot) return call;
  call.qubits.assign(qs.begin(), qs.end());
  const auto controlled = [&](unsigned nc) {
    call.sorted = call.qubits;
    std::sort(call.sorted.begin(), call.sorted.end());
    for (unsigned i = 0; i < nc; ++i) call.cmask |= Index{1} << qs[i];
  };
  // Pure permutations first: they carry no matrix (and MCX skips
  // materialization entirely, so wide controls carry no 2^k cost).
  switch (g.kind) {
    case GateKind::X:
      call.kind = Kind::PermX;
      return call;
    case GateKind::CX: case GateKind::CCX: case GateKind::MCX:
      call.kind = Kind::PermCtrlX;
      controlled(g.arity() - 1);
      return call;
    case GateKind::SWAP:
      call.kind = Kind::PermSwap;
      return call;
    case GateKind::CSWAP:
      call.kind = Kind::PermCSwap;
      return call;
    default:
      break;
  }
  const unsigned nc = g.num_controls();
  if (g.is_diagonal()) {
    if (nc > 0) {  // CZ / CRZ / CP
      const Matrix t = g.target_matrix(bound);
      call.kind = Kind::CtrlDiag;
      controlled(nc);
      call.m = {t(0, 0), t(1, 1)};
    } else {  // 1q phases, RZZ
      call.kind = g.arity() == 1 ? Kind::Diag1q : Kind::Diag2q;
      call.m = diagonal_of(g.matrix(bound));
    }
    return call;
  }
  if (g.arity() == 2 && nc == 0) {  // RXX, raw 2q unitaries
    call.kind = Kind::Dense2q;
    call.m = g.matrix(bound).data();
    return call;
  }
  if (g.kind == GateKind::Unitary) {  // incl. sampled Kraus operators
    call.kind = g.arity() == 1 ? Kind::Dense1q : Kind::Generic;
    call.m = g.matrix(bound).data();
    return call;
  }
  call.m = g.target_matrix(bound).data();
  if (nc == 0) {
    call.kind = Kind::Dense1q;
  } else {
    call.kind = Kind::Ctrl1q;
    controlled(nc);
  }
  return call;
}

KernelCall resolve_block(std::span<const Qubit> support, const Matrix& u) {
  using Kind = KernelCall::Kind;
  HISIM_CHECK(u.rows() == (Index{1} << support.size()) &&
              u.cols() == u.rows());
  KernelCall call;
  call.qubits.assign(support.begin(), support.end());
  const bool diag = exactly_diagonal(u);
  switch (support.size()) {
    case 1: call.kind = diag ? Kind::Diag1q : Kind::Dense1q; break;
    case 2: call.kind = diag ? Kind::Diag2q : Kind::Dense2q; break;
    default: call.kind = Kind::Generic; break;
  }
  call.m = diag && support.size() <= 2 ? diagonal_of(u) : u.data();
  return call;
}

void apply_call(StateView state, const KernelCall& call,
                const KernelOps& ops) {
  using Kind = KernelCall::Kind;
  for (Qubit q : call.qubits) HISIM_CHECK(q < state.num_qubits());
  // Per-apply twin of the plan-level tier check (plan_validate.cpp): a
  // Simd table must never reach dispatch on a host that cannot run it.
  HISIM_DCHECK_MSG(ops.tier != KernelTier::Simd || simd_kernels_available(),
                   "simd kernel table dispatched on a host without AVX2");
  const std::vector<Qubit>& q = call.qubits;
  const cplx* m = call.m.data();
  switch (call.kind) {
    case Kind::Skip: return;
    case Kind::PermX: perm_x(state, q[0]); return;
    case Kind::PermCtrlX:
      perm_ctrl_x(state, call.sorted, call.cmask, q.back());
      return;
    case Kind::PermSwap: perm_swap(state, q[0], q[1]); return;
    case Kind::PermCSwap: perm_cswap(state, q[0], q[1], q[2]); return;
    case Kind::Diag1q: ops.apply_1q_diag(state, q[0], m[0], m[1]); return;
    case Kind::CtrlDiag:
      ops.apply_ctrl_diag(state, call.sorted, call.cmask, q.back(), m[0],
                          m[1]);
      return;
    case Kind::Diag2q: ops.apply_2q_diag(state, q[0], q[1], m); return;
    case Kind::Dense1q: ops.apply_1q(state, q[0], m); return;
    case Kind::Ctrl1q:
      ops.apply_ctrl_1q(state, call.sorted, call.cmask, q.back(), m);
      return;
    case Kind::Dense2q: ops.apply_2q(state, q[0], q[1], m); return;
    case Kind::Generic: apply_generic(state, q, m); return;
  }
}

void apply_gate(StateView state, const Gate& gate, const KernelOps& ops) {
  apply_call(state, resolve_gate(gate, gate.qubits), ops);
}

void apply_gate_remapped(StateView state, const Gate& gate,
                         std::span<const Qubit> slot_of,
                         const KernelOps& ops) {
  std::vector<Qubit> qs(gate.qubits.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    HISIM_CHECK(gate.qubits[i] < slot_of.size());
    qs[i] = slot_of[gate.qubits[i]];
  }
  apply_call(state, resolve_gate(gate, qs), ops);
}

double call_flops(const KernelCall& call, unsigned num_qubits) {
  using Kind = KernelCall::Kind;
  const double amps = static_cast<double>(dim(num_qubits));
  const double ctrl_share =
      call.kind == Kind::CtrlDiag || call.kind == Kind::Ctrl1q
          ? static_cast<double>(Index{1} << (call.qubits.size() - 1))
          : 1.0;
  switch (call.kind) {
    case Kind::Skip: case Kind::PermX: case Kind::PermCtrlX:
    case Kind::PermSwap: case Kind::PermCSwap:
      return 0.0;
    case Kind::Diag1q: case Kind::Diag2q: case Kind::CtrlDiag:
      return 6.0 * amps / ctrl_share;
    case Kind::Dense1q: case Kind::Ctrl1q:
      return 28.0 * (amps / 2.0) / ctrl_share;
    case Kind::Dense2q:
      return 120.0 * (amps / 4.0);
    case Kind::Generic: {
      const double kd = static_cast<double>(Index{1} << call.qubits.size());
      return (amps / kd) * (8.0 * kd * kd - 2.0 * kd);
    }
  }
  return 0.0;
}

double gate_flops(const Gate& gate, unsigned num_qubits) {
  return call_flops(resolve_gate(gate, gate.qubits), num_qubits);
}

}  // namespace hisim::sv
