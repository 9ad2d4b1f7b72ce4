// ChordPolicy: the CHORD hybrid buffer (PRELUDE fill + optional RIFF
// replacement) behind the BufferPolicy interface.  With RIFF disabled this is
// the paper's PRELUDE-only configuration.
#pragma once

#include "chord/chord.hpp"
#include "sim/policies/buffer_policy.hpp"

namespace cello::sim {

class ChordPolicy final : public BufferPolicy {
 public:
  ChordPolicy(const AcceleratorConfig& arch, bool enable_riff)
      : buf_(arch.sram_bytes, arch.line_bytes, enable_riff, arch.chord_entries) {}

  BufferService read_tensor(const chord::TensorMeta& t) override;
  BufferService write_tensor(const chord::TensorMeta& t) override;
  void retire(i32 base_id) override { buf_.retire(base_id); }

  std::optional<std::vector<DrainItem>> drain(const DrainContext& ctx) override;

  Bytes occupancy_bytes() const override { return buf_.occupied_bytes(); }

  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                RunMetrics& m) const override;

  const chord::ChordBuffer& buffer() const { return buf_; }

 private:
  chord::ChordBuffer buf_;
};

/// CHORD with RIFF replacement (the Cello buffer).
BufferPolicyFactory chord_buffer();
/// CHORD with PRELUDE as the only policy (Sec. VII-C3 ablation).
BufferPolicyFactory prelude_only();

}  // namespace cello::sim
