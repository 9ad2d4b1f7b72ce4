// ExplicitBuffers: the Flexagon-style hierarchy — every routed operand moves
// between DRAM and a scratchpad-managed staging buffer, full footprint, every
// time.  No implicit reuse.
#pragma once

#include "sim/policies/buffer_policy.hpp"

namespace cello::sim {

class ExplicitBuffersPolicy final : public BufferPolicy {
 public:
  explicit ExplicitBuffersPolicy(const AcceleratorConfig& arch) : arch_(arch) {}

  BufferService read_tensor(const chord::TensorMeta& t) override;
  BufferService write_tensor(const chord::TensorMeta& t) override;

  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                RunMetrics& m) const override;

 private:
  AcceleratorConfig arch_;
  u64 sram_lines_ = 0;  ///< scratchpad staging accesses
};

BufferPolicyFactory explicit_buffers();

}  // namespace cello::sim
