// sim::Configuration: a composable simulation configuration — one schedule
// policy paired with one buffer policy.  The seven Table IV rows are presets
// of this type (see ConfigRegistry); any other pairing (SCORE+LRU,
// FLAT+CHORD, ...) is equally expressible.  The architecture (Table V: SRAM,
// bandwidth, pipeline style, hold budget, node count, topology) is not part
// of a configuration; it lives in the AcceleratorConfig the Simulator owns.
#pragma once

#include <string>

#include "sim/config.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/policies/schedule_policy.hpp"

namespace cello::sim {

struct Configuration {
  std::string name;
  SchedulePolicy schedule = SchedulePolicy::OpByOp;
  BufferPolicyFactory buffers;  ///< required; see explicit_buffers() et al.
  std::string buffer_name;      ///< display label of the buffer policy

  /// AdjacentPipeline only: may the pipeline buffer hold a tensor for a
  /// delayed consumer (SET) or is pipelining strictly adjacent (FLAT)?
  /// SCORE always supports holds, bounded by the hold budget.
  bool allow_delayed_hold = false;

  /// "<schedule> + <buffer>" summary, e.g. "SCORE + CHORD".
  std::string describe() const;
};

/// Convenience builder for user-defined combinations.
Configuration make_configuration(std::string name, SchedulePolicy schedule,
                                 BufferPolicyFactory buffers, std::string buffer_name,
                                 bool allow_delayed_hold = false);

}  // namespace cello::sim
