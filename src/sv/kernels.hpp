#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/gate.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// One gate — or one fused block — resolved to a single kernel invocation:
/// the operands, the control mask and the bound matrix entries are all
/// materialized, so applying it is a switch and one call. apply_gate
/// resolves per application; the hierarchical part program resolves each
/// op once per execute and replays the calls in every outer iteration.
struct KernelCall {
  enum class Kind : std::uint8_t {
    Skip,       // identity / unfilled noise slot: applied as an exact no-op
    PermX,      // X
    PermCtrlX,  // CX / CCX / MCX
    PermSwap,   // SWAP
    PermCSwap,  // CSWAP
    Diag1q,     // m = {d0, d1}
    CtrlDiag,   // m = {d0, d1} on the target, controls in cmask
    Diag2q,     // m[bit(qubits[0]) | bit(qubits[1]) << 1]
    Dense1q,    // m = row-major 2x2
    Ctrl1q,     // m = row-major 2x2 on the target, controls in cmask
    Dense2q,    // m = row-major 4x4 (bit 0 = qubits[0])
    Generic,    // m = row-major 2^k x 2^k
  };
  Kind kind = Kind::Skip;
  std::vector<Qubit> qubits;  // operands in gate order (controls, target)
  std::vector<Qubit> sorted;  // the same, ascending (compact enumeration)
  Index cmask = 0;            // OR of the control bits
  std::vector<cplx> m;
};

/// Resolves `gate` acting on state qubits `qs` (gate order; the gate's own
/// qubits, or their slots in an inner vector) under the parameter values
/// `bound` (see Gate::matrix).
KernelCall resolve_gate(const Gate& gate, std::span<const Qubit> qs,
                        std::span<const double> bound = {});

/// Resolves a fused block: `u` is the bound product of the block's gates
/// on `support` (bit j of u's indices = support[j], at most 2 qubits). An
/// exactly diagonal product takes the diagonal kernel.
KernelCall resolve_block(std::span<const Qubit> support, const Matrix& u);

/// Applies a resolved call through the `ops` tier.
void apply_call(StateView state, const KernelCall& call,
                const KernelOps& ops);

/// Floating-point work of one application of `call` on an n-qubit state,
/// matching what the kernels execute:
///  * skips and permutations (X/CX/CCX/MCX/SWAP/CSWAP) move amplitudes
///    without arithmetic — 0 FLOPs;
///  * diagonal calls: one complex multiply (6 FLOPs) per touched
///    amplitude, controls dividing the touched count by 2^nc;
///  * dense 2x2: 28 FLOPs per enumerated pair (paper Sec. III-A), pairs
///    divided by 2^nc for controlled kinds;
///  * dense 4x4: 120 FLOPs per 4-amplitude block (16 complex multiplies
///    + 12 adds);
///  * generic k-qubit: 8*2^k*2^k - 2*2^k per block.
double call_flops(const KernelCall& call, unsigned num_qubits);

/// Applies `gate` to `state` in place. Dispatches per GateKind:
///  * X / CX / CCX / MCX / SWAP / CSWAP — pure index permutations: no
///    arithmetic at all, compact enumeration of only the touched subset
///    (size/2^(nc+1) pairs, size/4 for SWAP, size/8 for CSWAP)
///  * diagonal gates      — phase sweeps through the tier's diagonal
///    kernels (1q / controlled / 2q), exact-1.0 phases skipped
///  * single-qubit dense  — the tier's 2x2 pair kernel (Fig. 1 pattern)
///  * controlled 2x2      — compact enumeration over control-satisfied
///    pair bases only (size >> (1+nc))
///  * 2-qubit dense       — the tier's unrolled 4x4 kernel (fused blocks,
///    RXX, raw 2q unitaries)
///  * generic k-qubit     — gather 2^k amplitudes, multiply, scatter
/// `ops` selects the kernel tier (see kernel_dispatch.hpp); the default
/// resolves KernelTier::Auto once. All kernels parallelize over amplitude
/// blocks via parallel::for_range.
void apply_gate(StateView state, const Gate& gate,
                const KernelOps& ops = kernel_ops());

/// Applies `gate` with its qubit operands remapped through `slot_of`:
/// original qubit q acts on state qubit slot_of[q]. Entries for qubits the
/// gate does not touch are ignored.
void apply_gate_remapped(StateView state, const Gate& gate,
                         std::span<const Qubit> slot_of,
                         const KernelOps& ops = kernel_ops());

/// Floating-point work of one application of `gate` (concrete) on an
/// n-qubit state: call_flops of its resolved call.
double gate_flops(const Gate& gate, unsigned num_qubits);

}  // namespace hisim::sv
