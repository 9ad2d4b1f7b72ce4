#include "common/failpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace cello::failpoint {

namespace {

enum class TriggerKind { Always, NthHit, KeyEquals };

struct ArmedSite {
  Action action = Action::Throw;
  TriggerKind trigger = TriggerKind::Always;
  u64 nth = 0;           ///< NthHit: 1-based hit that faults
  std::string key;       ///< KeyEquals: the key that faults
  u64 hits = 0;
};

std::mutex g_mu;
std::map<std::string, ArmedSite>& sites() {
  static std::map<std::string, ArmedSite> s;
  return s;
}
// Fast path: unarmed processes skip the lock entirely, so sweep inner loops
// pay one relaxed load per site visit.
std::atomic<int> g_armed{0};

Action parse_action(const std::string& text, const std::string& spec) {
  if (text == "throw") return Action::Throw;
  if (text == "short_write") return Action::ShortWrite;
  if (text == "torn_write") return Action::TornWrite;
  throw Error("failpoint: unknown action '" + text + "' in spec '" + spec +
              "' (expected throw|short_write|torn_write)");
}

ArmedSite parse_spec(const std::string& spec) {
  ArmedSite site;
  const size_t at = spec.find('@');
  site.action = parse_action(spec.substr(0, at), spec);
  if (at == std::string::npos) return site;
  const std::string trigger = spec.substr(at + 1);
  if (trigger == "*") return site;
  if (trigger.rfind("key=", 0) == 0) {
    site.trigger = TriggerKind::KeyEquals;
    site.key = trigger.substr(4);
    return site;
  }
  const std::optional<u64> nth = parse_decimal_u64(trigger);
  if (!nth)
    throw Error("failpoint: malformed trigger '" + trigger + "' in spec '" + spec +
                "' (expected *, a 1-based hit number, or key=<value>)");
  site.trigger = TriggerKind::NthHit;
  site.nth = *nth;
  if (site.nth == 0)
    throw Error("failpoint: hit numbers are 1-based; '" + spec + "' asks for hit 0");
  return site;
}

/// CELLO_FAILPOINTS is folded in exactly once, before the first hit() — so a
/// fail-point-armed CLI run needs no plumbing, while programmatic arm()/
/// disarm_all() calls in tests keep full control afterwards.
void ensure_env_armed() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* env = std::getenv("CELLO_FAILPOINTS")) arm_from_string(env);
  });
}

}  // namespace

void arm(const std::string& site, const std::string& spec) {
  CELLO_CHECK_MSG(!site.empty(), "failpoint: empty site name");
  ArmedSite armed = parse_spec(spec);  // validate before mutating the registry
  std::lock_guard<std::mutex> lock(g_mu);
  auto [it, inserted] = sites().insert_or_assign(site, std::move(armed));
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

void arm_from_string(const std::string& config) {
  size_t start = 0;
  while (start <= config.size()) {
    const size_t end = config.find(';', start);
    const std::string entry =
        config.substr(start, end == std::string::npos ? std::string::npos : end - start);
    if (!entry.empty()) {
      const size_t eq = entry.find('=');
      // "site=throw@key=X" splits at the FIRST '=': the site name cannot
      // contain one, the trigger may.
      if (eq == std::string::npos || eq == 0)
        throw Error("failpoint: malformed entry '" + entry + "' (expected site=spec)");
      arm(entry.substr(0, eq), entry.substr(eq + 1));
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
}

void disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (sites().erase(site) != 0) g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.fetch_sub(static_cast<int>(sites().size()), std::memory_order_relaxed);
  sites().clear();
}

u64 hit_count(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = sites().find(site);
  return it == sites().end() ? 0 : it->second.hits;
}

std::optional<Fault> hit(const std::string& site, const std::string& key) {
  ensure_env_armed();
  if (g_armed.load(std::memory_order_relaxed) == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(g_mu);
  const auto it = sites().find(site);
  if (it == sites().end()) return std::nullopt;
  ArmedSite& armed = it->second;
  ++armed.hits;
  switch (armed.trigger) {
    case TriggerKind::Always: break;
    case TriggerKind::NthHit:
      if (armed.hits != armed.nth) return std::nullopt;
      break;
    case TriggerKind::KeyEquals:
      if (key != armed.key) return std::nullopt;
      break;
  }
  return Fault{armed.action, site};
}

void maybe_throw(const std::string& site, const std::string& key) {
  if (const auto fault = hit(site, key)) {
    throw Error("injected fault at failpoint '" + site + "'" +
                (key.empty() ? std::string() : " (key '" + key + "')"));
  }
}

}  // namespace cello::failpoint
