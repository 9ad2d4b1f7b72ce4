#include "sim/registry.hpp"

#include <cctype>

#include "common/error.hpp"
#include "sim/policies/cache_policy.hpp"
#include "sim/policies/chord_policy.hpp"
#include "sim/policies/explicit_buffers.hpp"
#include "sim/policies/kv_cache_policy.hpp"

namespace cello::sim {

namespace {

/// Lowercased alphanumerics only: "Flex+LRU" == "flex+lru" == "flexlru".
std::string normalize(const std::string& name) {
  std::string out;
  for (char c : name)
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const std::vector<std::string>& ConfigRegistry::table4_names() {
  static const std::vector<std::string> kNames = {
      "Flexagon", "Flex+LRU", "Flex+BRRIP", "FLAT", "SET", "Prelude-only", "Cello",
  };
  return kNames;
}

ConfigRegistry::ConfigRegistry() {
  // The seven Table IV rows, paper order (table4_names()).
  add(make_configuration("Flexagon", SchedulePolicy::OpByOp, explicit_buffers(), "explicit"));
  add(make_configuration("Flex+LRU", SchedulePolicy::OpByOp, lru_cache(), "LRU"));
  add(make_configuration("Flex+BRRIP", SchedulePolicy::OpByOp, brrip_cache(), "BRRIP"));
  add(make_configuration("FLAT", SchedulePolicy::AdjacentPipeline, explicit_buffers(),
                         "explicit", /*allow_delayed_hold=*/false));
  add(make_configuration("SET", SchedulePolicy::AdjacentPipeline, explicit_buffers(),
                         "explicit", /*allow_delayed_hold=*/true));
  add(make_configuration("Prelude-only", SchedulePolicy::OpByOp, prelude_only(), "PRELUDE"));
  add(make_configuration("Cello", SchedulePolicy::Score, chord_buffer(), "CHORD",
                         /*allow_delayed_hold=*/true));
  // Novel schedule x buffer combinations beyond Table IV.
  add(make_configuration("SCORE+LRU", SchedulePolicy::Score, lru_cache(), "LRU",
                         /*allow_delayed_hold=*/true));
  add(make_configuration("SCORE+BRRIP", SchedulePolicy::Score, brrip_cache(), "BRRIP",
                         /*allow_delayed_hold=*/true));
  add(make_configuration("FLAT+CHORD", SchedulePolicy::AdjacentPipeline, chord_buffer(),
                         "CHORD", /*allow_delayed_hold=*/false));
  add(make_configuration("SET+CHORD", SchedulePolicy::AdjacentPipeline, chord_buffer(), "CHORD",
                         /*allow_delayed_hold=*/true));
  add(make_configuration("SCORE+explicit", SchedulePolicy::Score, explicit_buffers(),
                         "explicit", /*allow_delayed_hold=*/true));
  // KV-cache decode row: Flexagon-style op-by-op scheduling over the
  // append-aware KV buffer (see kv_cache_policy.hpp).
  add(make_configuration("Flex+KV", SchedulePolicy::OpByOp, kv_cache_buffer(), "KV"));
  // "Cello" spelled as its composition, for symmetry with the combos above.
  add_alias("SCORE+CHORD", "Cello");
}

ConfigRegistry& ConfigRegistry::global() {
  static ConfigRegistry registry;
  return registry;
}

void ConfigRegistry::add(Configuration config) {
  CELLO_CHECK_MSG(!config.name.empty(), "configuration needs a name");
  CELLO_CHECK_MSG(static_cast<bool>(config.buffers),
                  "configuration '" << config.name << "' has no buffer policy factory");
  const std::string key = normalize(config.name);
  std::lock_guard<std::mutex> lock(mu_);
  CELLO_CHECK_MSG(!by_normalized_.count(key),
                  "configuration '" << config.name << "' already registered");
  configs_.push_back(std::move(config));
  by_normalized_[key] = configs_.size() - 1;
}

void ConfigRegistry::add_alias(const std::string& alias, const std::string& existing) {
  const std::string key = normalize(alias);
  std::lock_guard<std::mutex> lock(mu_);
  CELLO_CHECK_MSG(!by_normalized_.count(key), "alias '" << alias << "' already registered");
  const auto it = by_normalized_.find(normalize(existing));
  CELLO_CHECK_MSG(it != by_normalized_.end(),
                  "alias '" << alias << "' targets unknown configuration '" << existing << "'");
  by_normalized_[key] = it->second;
}

const Configuration* ConfigRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_normalized_.find(normalize(name));
  return it == by_normalized_.end() ? nullptr : &configs_[it->second];
}

const Configuration& ConfigRegistry::at(const std::string& name) const {
  const Configuration* c = find(name);
  if (c != nullptr) return *c;
  std::string known;
  for (const auto& n : names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw Error("unknown configuration '" + name + "' (registered: " + known + ")");
}

std::vector<std::string> ConfigRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(configs_.size());
  for (const auto& c : configs_) out.push_back(c.name);
  return out;
}

}  // namespace cello::sim
