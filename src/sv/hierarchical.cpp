#include "sv/hierarchical.hpp"

#include "common/check.hpp"

namespace hisim::sv {
namespace {

const KernelOps& or_default(const KernelOps* ops) {
  return ops != nullptr ? *ops : kernel_ops();
}

void accumulate(HierarchicalStats& into, const HierarchicalStats& s) {
  into.parts += s.parts;
  into.inner_parts += s.inner_parts;
  into.gather_seconds += s.gather_seconds;
  into.execute_seconds += s.execute_seconds;
  into.scatter_seconds += s.scatter_seconds;
  into.outer_bytes_moved += s.outer_bytes_moved;
  into.inner_bytes_touched += s.inner_bytes_touched;
  into.flops += s.flops;
}

}  // namespace

void run_part(const Circuit& c, std::span<const std::size_t> gates,
              std::span<const Qubit> part_qubits, StateVector& outer,
              HierarchicalStats& stats, const KernelOps* ops) {
  accumulate(stats, PartProgram::compile_part(c, gates, part_qubits)
                        .run(c, outer, or_default(ops)));
}

HierarchicalStats HierarchicalSimulator::run(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, const KernelOps* ops) const {
  HISIM_CHECK(state.num_qubits() == c.num_qubits());
  return PartProgram::compile(c, parts).run(c, state, or_default(ops));
}

HierarchicalStats HierarchicalSimulator::run(
    const Circuit& c, const partition::TwoLevelPartitioning& parts,
    StateVector& state, unsigned pad_to, const KernelOps* ops) const {
  HISIM_CHECK(state.num_qubits() == c.num_qubits());
  return PartProgram::compile(c, parts, pad_to)
      .run(c, state, or_default(ops));
}

StateVector HierarchicalSimulator::simulate(
    const Circuit& c, const partition::Partitioning& parts,
    HierarchicalStats* stats) const {
  StateVector state(c.num_qubits());
  HierarchicalStats s = run(c, parts, state);
  if (stats) *stats = s;
  return state;
}

}  // namespace hisim::sv
