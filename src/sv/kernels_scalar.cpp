// Scalar kernel tier: the reference implementations from
// kernels_scalar.inl, compiled for the baseline ISA with -ffp-contract=off
// (see CMakeLists.txt) so its operation sequence is the contract every
// other tier must reproduce.

#define HISIM_KERNEL_NS scalar_impl
#include "sv/kernels_scalar.inl"
#undef HISIM_KERNEL_NS

namespace hisim::sv {

const KernelOps& scalar_kernel_ops() {
  static const KernelOps ops = {
      KernelTier::Scalar,
      "scalar",
      &scalar_impl::apply_1q,
      &scalar_impl::apply_1q_diag,
      &scalar_impl::apply_ctrl_1q,
      &scalar_impl::apply_ctrl_diag,
      &scalar_impl::apply_2q,
      &scalar_impl::apply_2q_diag,
  };
  return ops;
}

}  // namespace hisim::sv
