#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.hpp"

namespace hisim {

/// Gate fusion: merges gates whose combined qubit support stays within
/// `max_qubits` into single dense Unitary gates. The paper positions
/// HiSVSIM as orthogonal to gate fusion (Sec. II-C); this pass lets the
/// ablation benches demonstrate that claim — fusion shrinks the gate
/// count each part executes, partitioning still decides the memory
/// movement.
///
/// The pass keeps *multiple* accumulation runs open at once, with
/// pairwise-disjoint supports; a gate joins (and may bridge-merge) the
/// runs it touches while unrelated runs stay open. The only reordering
/// this introduces is between gates on disjoint qubit sets, which
/// commute, so the result applies the same operator product — no general
/// commutation analysis is ever consulted. Runs of length one are left
/// as the original gate. With max_qubits = 2 every multi-gate run
/// becomes a 4x4 block, the shape the apply layer's dedicated two-qubit
/// kernel is built for (sv/kernel_dispatch.hpp).
///
/// Symbolic (parameterized) gates have no materializable unitary at fusion
/// time; they act as run barriers and pass through unchanged, keeping the
/// fused circuit bindable at execute (fuse-then-bind == bind-then-apply).
struct FusionOptions {
  unsigned max_qubits = 3;   // widest fused unitary (2^k x 2^k matrices)
  /// Do not fuse across gates wider than max_qubits (they pass through
  /// unchanged and break the current run).
  bool keep_wide_gates = true;
};

Circuit fuse(const Circuit& c, const FusionOptions& opt = {});

/// One fusion run: gate indices in program order and the union of their
/// qubits, ascending.
struct FusionRun {
  std::vector<std::size_t> gates;
  std::vector<Qubit> support;
};

/// The grouping rule behind fuse(), exposed for executors that fuse at
/// bind time (the hierarchical part program): partitions `gates` (indices
/// into `c`, program order) into runs of at most `max_qubits` qubits with
/// the multi-run, disjoint-support rule above. A gate wider than
/// `max_qubits`, or one `barrier` selects, flushes every open run and
/// forms a single-gate run of its own. Runs come out in the order they
/// must be applied.
std::vector<FusionRun> fusion_runs(const Circuit& c,
                                   std::span<const std::size_t> gates,
                                   unsigned max_qubits,
                                   bool (*barrier)(const Gate&));

/// Deep validator (see common/check.hpp): aborts unless the given open
/// fusion-run supports are pairwise disjoint, each non-empty, sorted,
/// duplicate-free, and within `max_qubits`. Disjointness is the entire
/// correctness argument of the fusion pass — the only reordering it may
/// introduce is between gates on disjoint qubit sets, which commute — so
/// checked builds re-assert it at every flush point; tests feed an
/// overlapping pair and assert the abort.
void validate_fusion_supports(std::span<const std::vector<Qubit>> supports,
                              unsigned max_qubits);

/// Expands `gate`'s unitary, materialized under `bound` (see
/// Gate::matrix), onto the qubit set `support` (sorted): bit j of the
/// returned matrix's indices corresponds to support[j]. Every qubit of the
/// gate must appear in `support`. Building block of fusion and of test
/// oracles.
Matrix embed_unitary(const Gate& gate, const std::vector<Qubit>& support,
                     std::span<const double> bound = {});

}  // namespace hisim
