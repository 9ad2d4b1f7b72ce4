// ConfigRegistry: named Configurations.  Construction pre-registers the
// seven Table IV presets (paper order) plus novel schedule x buffer
// combinations; users register their own with add().  Lookup is tolerant:
// names match exactly or after normalization (case-insensitive, punctuation
// ignored), so "cello", "Cello" and "flex+lru" all resolve.
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/configuration.hpp"

namespace cello::sim {

class ConfigRegistry {
 public:
  /// Pre-populated with the Table IV presets and the novel combinations.
  ConfigRegistry();

  /// Process-wide shared registry (thread-safe).
  static ConfigRegistry& global();

  /// Register a configuration under config.name.  Throws cello::Error on a
  /// duplicate (normalized) name or a missing buffer factory.
  void add(Configuration config);

  /// Register an alternative name for an existing configuration ("SCORE+CHORD"
  /// resolves to the Cello preset).  Aliases do not appear in names().
  void add_alias(const std::string& alias, const std::string& existing);

  /// Lookup by (normalized) name; nullptr when absent.  The pointer stays
  /// valid for the registry's lifetime.
  const Configuration* find(const std::string& name) const;
  /// Lookup that throws cello::Error, listing the registered names.
  const Configuration& at(const std::string& name) const;

  /// Registered names, registration order (presets first).
  std::vector<std::string> names() const;

  /// The seven Table IV preset names, paper order.
  static const std::vector<std::string>& table4_names();

 private:
  mutable std::mutex mu_;
  std::deque<Configuration> configs_;           ///< stable storage, registration order
  std::map<std::string, size_t> by_normalized_;
};

}  // namespace cello::sim
