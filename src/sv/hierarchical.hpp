#pragma once

#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/part_program.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Hierarchical simulator implementing Algorithm 1: for each part, for
/// every assignment of the qubits outside the part, gather the matching
/// amplitudes into an inner block, run the part's gates there (with
/// qubits remapped to inner slots), and scatter the results back. Each
/// call compiles a PartProgram and runs it once; plans that execute
/// repeatedly keep the program instead (hisvsim/engine.hpp).
class HierarchicalSimulator {
 public:
  /// Single-level run. `parts` must be a valid partitioning of `c`.
  /// `ops` selects the kernel tier for the inner applies (nullptr = the
  /// Auto-resolved default).
  HierarchicalStats run(const Circuit& c,
                        const partition::Partitioning& parts,
                        StateVector& state,
                        const KernelOps* ops = nullptr) const;

  /// Two-level run (Sec. IV multi-level): level-1 parts are gathered from
  /// the outer vector; each level-2 part is gathered from the level-1
  /// block into a smaller cache-resident block. `pad_to` implements the
  /// paper's padding rule: inner parts with fewer qubits than `pad_to`
  /// borrow qubits from the parent part for spatial locality (0 disables).
  HierarchicalStats run(const Circuit& c,
                        const partition::TwoLevelPartitioning& parts,
                        StateVector& state, unsigned pad_to = 0,
                        const KernelOps* ops = nullptr) const;

  StateVector simulate(const Circuit& c,
                       const partition::Partitioning& parts,
                       HierarchicalStats* stats = nullptr) const;
};

/// Executes one part against `outer`: the gather-execute-scatter cycle of
/// Algorithm 1, accumulated into `stats`. `gates` are indices into `c`;
/// `part_qubits` must be sorted and cover those gates' qubits. Exposed for
/// the distributed executor's second-level parts.
void run_part(const Circuit& c, std::span<const std::size_t> gates,
              std::span<const Qubit> part_qubits, StateVector& outer,
              HierarchicalStats& stats, const KernelOps* ops = nullptr);

}  // namespace hisim::sv
