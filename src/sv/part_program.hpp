#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Per-run accounting of the Gather-Execute-Scatter model. Byte counts
/// follow the paper's memory-traffic reasoning: every part streams the
/// vector it runs against once in and once out (a gather and a scatter,
/// or — for a part that runs in place — the first and last touch of each
/// cache-sized block), while the fused ops stay inside the part's
/// cache-sized blocks.
///
/// The phase seconds are shares of the execute wall: when a part's outer
/// iterations run in parallel, each phase is the workers' summed busy time
/// divided by the worker count, so gather + execute + scatter never
/// exceeds the wall time of the run.
struct HierarchicalStats {
  std::size_t parts = 0;
  std::size_t inner_parts = 0;      // second-level parts (two-level runs)
  double gather_seconds = 0.0;
  double execute_seconds = 0.0;
  double scatter_seconds = 0.0;
  Index outer_bytes_moved = 0;      // bytes read+written on the outer vector
  Index inner_bytes_touched = 0;    // bytes processed inside inner blocks
  double flops = 0.0;

  double total_seconds() const {
    return gather_seconds + execute_seconds + scatter_seconds;
  }
};

/// A hierarchical circuit compiled once into per-part kernel programs
/// (Algorithm 1 with cache blocking and fusion inside each part).
///
/// compile() stores structure only, for every level-1 and level-2 part:
///  * the part's qubits (bit positions in the vector it runs against),
///    their mask, and the slot each circuit qubit occupies inside the
///    part's block;
///  * the part's gates grouped into ops of at most 2 qubits by
///    fusion_runs() (circuit/fusion.hpp). Symbolic gates are op
///    members like any other; a noise slot is a barrier and an op of its
///    own, so a trajectory's sampled operator lands exactly there.
///
/// run() binds each part once — every op's member matrices are
/// materialized under the parameter values (and sampled noise operators)
/// and multiplied in program order into one resolved kernel call; an
/// exactly diagonal product takes the diagonal kernel — and then executes
/// it:
///  * in place when the part's qubits are the low bits 0..w-1: the 2^w
///    blocks are contiguous, so there is no gather, no scatter and no
///    inner buffer (w == n is a single block);
///  * otherwise gathered: each outer iteration copies its 2^w amplitudes
///    into a block buffer, runs the ops, and copies them back.
///
/// Thread model: when a part has at least as many outer iterations as the
/// calling thread has workers (parallel::region_width) and the vector is
/// large enough to be worth a pool region, the iterations are split
/// across the workers, each with its own block buffer, and the kernels
/// run inline; otherwise the iterations run in order and every
/// kernel (and gather/scatter) fans out over the workers. Iterations touch
/// disjoint amplitudes, so results are bit-identical at any worker count.
///
/// A compiled program is immutable and safe to run concurrently.
class PartProgram {
 public:
  /// Single-level program: one part per partition part, in order.
  static PartProgram compile(const Circuit& c,
                             const partition::Partitioning& parts);

  /// Two-level program (Sec. IV multi-level): each level-1 part's execute
  /// step runs its level-2 parts against the level-1 block. `pad_to`
  /// implements the paper's padding rule: level-2 parts with fewer qubits
  /// than `pad_to` borrow the lowest free level-1 slots (0 disables).
  static PartProgram compile(const Circuit& c,
                             const partition::TwoLevelPartitioning& parts,
                             unsigned pad_to = 0);

  /// One part: `gates` (indices into `c`, program order) on
  /// `part_qubits` — sorted, and a superset of the gates' qubits.
  static PartProgram compile_part(const Circuit& c,
                                  std::span<const std::size_t> gates,
                                  std::span<const Qubit> part_qubits);

  /// Binds the program against `c` — the circuit it was compiled from —
  /// under `params` (values by param id) with `noise_ops` substituted
  /// into the noise slots (empty = the slots stay identities), and runs
  /// it against `state`.
  HierarchicalStats run(const Circuit& c, StateVector& state,
                        const KernelOps& ops,
                        std::span<const double> params = {},
                        std::span<const Gate> noise_ops = {}) const;

  std::size_t num_parts() const { return parts_.size(); }
  /// Kernel ops across all parts (after fusion).
  std::size_t num_ops() const;
  /// True when level-1 part `i` runs in place (its qubits are 0..w-1).
  bool in_place(std::size_t i) const { return parts_.at(i).in_place; }

  struct Op {
    std::vector<std::size_t> members;  // gate indices into the circuit
    std::vector<Qubit> support;        // circuit qubits, ascending
  };
  struct Part {
    std::vector<Qubit> qubits;   // sorted bit positions in the vector
    Index mask = 0;              // OR of those bits
    bool in_place = false;       // qubits == {0, ..., w-1}
    std::vector<Qubit> slot_of;  // circuit qubit -> block slot
    std::vector<Op> ops;         // leaf parts
    std::vector<Part> inner;     // level-2 parts over this part's block
    unsigned width() const { return static_cast<unsigned>(qubits.size()); }
  };

 private:
  unsigned num_qubits_ = 0;
  std::size_t num_gates_ = 0;
  std::vector<Part> parts_;
};

}  // namespace hisim::sv
