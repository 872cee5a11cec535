// The backend registry and runtime dispatch policy (see eval_backend.h).
#include "safeopt/expr/eval_backend.h"

#include <cstdlib>
#include <utility>

#include "backend_factories.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/mutex.h"
#include "safeopt/support/strings.h"

namespace safeopt::expr {

namespace {

struct RegistryState {
  Mutex mutex;
  // Registration order. Entries are never destroyed: a replaced backend
  // moves to `retired`, so pointers handed out by find()/active() stay
  // valid for the process lifetime.
  std::vector<std::unique_ptr<EvalBackend>> backends;
  std::vector<std::unique_ptr<EvalBackend>> retired;
  std::string override_name;
  std::string env_name;

  RegistryState() {
    for (auto* make :
         {detail::make_generic_backend, detail::make_avx2_backend}) {
      if (std::unique_ptr<EvalBackend> backend = make()) {
        backends.push_back(std::move(backend));
      }
    }
    read_environment();
  }

  void read_environment() {
    const char* env = std::getenv("SAFEOPT_BACKEND");
    env_name = env != nullptr ? env : "";
  }

  [[nodiscard]] const EvalBackend* find_locked(
      std::string_view name) const noexcept {
    for (const auto& backend : backends) {
      if (backend->name() == name) return backend.get();
    }
    return nullptr;
  }

  /// The runtime-dispatch pick: highest priority among available backends
  /// (first registration wins ties). "generic" is always available, so
  /// this never returns null.
  [[nodiscard]] const EvalBackend* best_available_locked() const noexcept {
    const EvalBackend* best = nullptr;
    for (const auto& backend : backends) {
      if (!backend->available()) continue;
      if (best == nullptr || backend->priority() > best->priority()) {
        best = backend.get();
      }
    }
    return best;
  }

  [[nodiscard]] std::string names_locked() const {
    std::string names;
    for (const auto& backend : backends) {
      if (!names.empty()) names += ", ";
      names += backend->name();
    }
    return names;
  }
};

RegistryState& state() {
  static RegistryState instance;
  return instance;
}

}  // namespace

bool BackendRegistry::add(std::unique_ptr<EvalBackend> backend) {
  SAFEOPT_EXPECTS(backend != nullptr && !backend->name().empty());
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  for (auto& existing : registry.backends) {
    if (existing->name() == backend->name()) {
      registry.retired.push_back(
          std::exchange(existing, std::move(backend)));
      return false;
    }
  }
  registry.backends.push_back(std::move(backend));
  return true;
}

const EvalBackend* BackendRegistry::find(std::string_view name) {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  return registry.find_locked(name);
}

std::vector<std::string> BackendRegistry::registered() {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.backends.size());
  for (const auto& backend : registry.backends) {
    names.emplace_back(backend->name());
  }
  return names;
}

const EvalBackend& BackendRegistry::generic() {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  const EvalBackend* backend = registry.find_locked("generic");
  SAFEOPT_ASSERT(backend != nullptr);
  return *backend;
}

const EvalBackend& BackendRegistry::active() {
  return *resolve({}).backend;
}

BackendRegistry::Selection BackendRegistry::resolve(
    std::string_view requested) {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  Selection selection;
  std::string name{requested};
  std::string source = "requested backend";
  if (name.empty() && !registry.override_name.empty()) {
    name = registry.override_name;
    source = "backend override";
  }
  if (name.empty() && !registry.env_name.empty()) {
    name = registry.env_name;
    source = "SAFEOPT_BACKEND";
  }
  selection.requested = name;
  const EvalBackend* best = registry.best_available_locked();
  SAFEOPT_ASSERT(best != nullptr);
  if (name.empty()) {
    selection.backend = best;
    return selection;
  }
  const EvalBackend* found = registry.find_locked(name);
  if (found == nullptr) {
    selection.backend = best;
    selection.diagnostic =
        concat(source, " \"", name, "\" is not registered (registered: ",
               registry.names_locked(), "); using \"", best->name(), "\"");
    return selection;
  }
  if (!found->available()) {
    selection.backend = best;
    selection.diagnostic =
        concat(source, " \"", name,
               "\" is not available on this cpu; using \"", best->name(),
               "\"");
    return selection;
  }
  selection.backend = found;
  return selection;
}

void BackendRegistry::set_override(std::string name) {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  registry.override_name = std::move(name);
}

std::string BackendRegistry::override_name() {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  return registry.override_name;
}

void BackendRegistry::refresh_environment() {
  RegistryState& registry = state();
  const MutexLock lock(registry.mutex);
  registry.read_environment();
}

}  // namespace safeopt::expr
