#include "pls/wire/snapshot.hpp"

#include <exception>
#include <string_view>
#include <utility>

#include "pls/core/service.hpp"
#include "pls/core/strategy.hpp"
#include "pls/net/cluster.hpp"
#include "pls/net/failure.hpp"
#include "pls/net/network.hpp"
#include "pls/wire/wire.hpp"

namespace pls::wire {

namespace {

constexpr std::string_view kMagic = "PLSSNAP";

enum class Scope : std::uint8_t { kService = 0, kStrategy = 1 };

void write_header(Writer& w, Scope scope) {
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u8(kSnapshotVersion);
  w.u8(static_cast<std::uint8_t>(scope));
}

/// Checks magic + version + scope; returns an error string or nullopt.
std::optional<std::string> read_header(Reader& r, Scope want) {
  for (const char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c) || !r.ok()) {
      return "not a PLS snapshot (bad magic)";
    }
  }
  const std::uint8_t version = r.u8();
  if (!r.ok()) return "not a PLS snapshot (truncated header)";
  if (version != kSnapshotVersion) {
    return "snapshot format version " + std::to_string(version) +
           " is not supported; this build reads version " +
           std::to_string(kSnapshotVersion);
  }
  const std::uint8_t scope = r.u8();
  if (!r.ok() || scope > static_cast<std::uint8_t>(Scope::kStrategy)) {
    return "not a PLS snapshot (bad scope byte)";
  }
  if (scope != static_cast<std::uint8_t>(want)) {
    return scope == static_cast<std::uint8_t>(Scope::kService)
               ? "snapshot holds a multi-key service, not a standalone "
                 "strategy"
               : "snapshot holds a standalone strategy, not a multi-key "
                 "service";
  }
  return std::nullopt;
}

/// The per-key strategy fingerprint: everything a StrategyConfig
/// contributes to behaviour that the strategy state does not itself carry.
void write_strategy_fingerprint(Writer& w, const core::StrategyConfig& cfg) {
  w.u8(static_cast<std::uint8_t>(cfg.kind));
  w.varint(cfg.param);
  w.varint(cfg.probes);
  w.varint(cfg.storage_budget);
  w.u64le(cfg.seed);
}

std::optional<std::string> check_strategy_fingerprint(
    Reader& r, const core::StrategyConfig& cfg, const std::string& what) {
  const std::uint8_t kind = r.u8();
  const std::uint64_t param = r.varint();
  const std::uint64_t probes = r.varint();
  const std::uint64_t budget = r.varint();
  const std::uint64_t seed = r.u64le();
  if (!r.ok()) return "truncated snapshot (" + what + " fingerprint)";
  if (kind != static_cast<std::uint8_t>(cfg.kind) || param != cfg.param ||
      probes != cfg.probes || budget != cfg.storage_budget ||
      seed != cfg.seed) {
    return "snapshot was taken under a different configuration (" + what +
           " fingerprint mismatch)";
  }
  return std::nullopt;
}

void write_membership(Writer& w, const net::FailureState& fs) {
  w.varint(fs.size());
  for (ServerId s = 0; s < fs.size(); ++s) {
    w.u8(static_cast<std::uint8_t>(fs.state(s)));
  }
  w.varint(fs.epoch());
}

/// Reads the membership section, grows the cluster to the saved host count
/// (ids are dense and never reused, so the saved cluster has at least as
/// many slots as a freshly built one), and restores the lifecycle vector.
std::optional<std::string> restore_membership(Reader& r,
                                              net::Cluster& cluster) {
  const std::uint64_t hosts = r.varint();
  // One lifecycle byte per host.
  if (!r.ok() || hosts > r.remaining()) {
    return "truncated snapshot (membership)";
  }
  if (hosts < cluster.size()) {
    return "snapshot has fewer hosts than the cluster it is restored into";
  }
  std::vector<net::ServerState> states;
  states.reserve(static_cast<std::size_t>(hosts));
  for (std::uint64_t s = 0; s < hosts; ++s) {
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(net::ServerState::kGone)) {
      return "malformed snapshot (unknown server lifecycle state)";
    }
    states.push_back(static_cast<net::ServerState>(state));
  }
  const std::uint64_t epoch = r.varint();
  if (!r.ok()) return "truncated snapshot (membership)";
  // Join the missing hosts first (listeners see ordinary joins — with no
  // state loaded yet nothing they do survives the restore below), then
  // overwrite the lifecycle vector wholesale.
  while (cluster.size() < hosts) (void)cluster.add_host();
  cluster.failures()->restore(states, epoch);
  return std::nullopt;
}

}  // namespace

std::vector<std::uint8_t> save_service(
    const core::PartialLookupService& service) {
  Writer w;
  write_header(w, Scope::kService);
  const core::ServiceConfig& cfg = service.config();
  w.u64le(cfg.seed);
  w.varint(cfg.num_servers);
  write_strategy_fingerprint(w, cfg.default_strategy);
  write_membership(w, service.failures());
  const std::vector<Key> names = service.key_names();
  w.varint(names.size());
  for (KeyId id = 0; id < names.size(); ++id) {
    w.str(names[id]);
    const core::Strategy& strategy = service.strategy_at(id);
    write_strategy_fingerprint(w, strategy.config());
    strategy.save_state(w);
  }
  service.cluster().network().save_state(w);
  return w.take();
}

std::optional<std::string> load_service(core::PartialLookupService& service,
                                        std::span<const std::uint8_t> data) {
  Reader r(data);
  if (auto err = read_header(r, Scope::kService)) return err;
  const core::ServiceConfig& cfg = service.config();
  const std::uint64_t seed = r.u64le();
  const std::uint64_t num_servers = r.varint();
  if (!r.ok()) return "truncated snapshot (service fingerprint)";
  if (seed != cfg.seed || num_servers != cfg.num_servers) {
    return "snapshot was taken under a different configuration (service "
           "fingerprint mismatch)";
  }
  if (auto err = check_strategy_fingerprint(r, cfg.default_strategy,
                                            "default strategy")) {
    return err;
  }
  if (service.num_keys() != 0) {
    return "restore target must be a freshly built service (keys already "
           "interned)";
  }
  try {
    if (auto err = restore_membership(r, service.cluster())) return err;
    const std::uint64_t keys = r.varint();
    if (!r.ok()) return "truncated snapshot (key table)";
    for (std::uint64_t i = 0; i < keys; ++i) {
      const Key name = r.str();
      if (!r.ok()) return "truncated snapshot (key name)";
      // Re-interning in saved id order reproduces the dense id assignment;
      // a duplicate name would intern to an earlier id.
      const KeyId id = service.intern_key(name);
      if (id != i) return "malformed snapshot (duplicate key name)";
      core::Strategy& strategy = service.strategy_at(id);
      if (auto err = check_strategy_fingerprint(r, strategy.config(),
                                                "key '" + name + "'")) {
        return err;
      }
      strategy.load_state(r);
    }
    service.cluster().network().load_state(r);
  } catch (const std::exception& e) {
    return std::string("malformed snapshot: ") + e.what();
  }
  if (!r.ok()) return "truncated snapshot";
  if (!r.at_end()) return "malformed snapshot (trailing bytes)";
  return std::nullopt;
}

std::vector<std::uint8_t> save_strategy(const core::Strategy& strategy) {
  Writer w;
  write_header(w, Scope::kStrategy);
  write_strategy_fingerprint(w, strategy.config());
  write_membership(w, strategy.network().failures());
  strategy.save_state(w);
  strategy.network().save_state(w);
  return w.take();
}

std::optional<std::string> load_strategy(core::Strategy& strategy,
                                         std::span<const std::uint8_t> data) {
  Reader r(data);
  if (auto err = read_header(r, Scope::kStrategy)) return err;
  if (auto err = check_strategy_fingerprint(r, strategy.config(), "strategy")) {
    return err;
  }
  try {
    if (auto err = restore_membership(r, strategy.cluster())) return err;
    strategy.load_state(r);
    strategy.network().load_state(r);
  } catch (const std::exception& e) {
    return std::string("malformed snapshot: ") + e.what();
  }
  if (!r.ok()) return "truncated snapshot";
  if (!r.at_end()) return "malformed snapshot (trailing bytes)";
  return std::nullopt;
}

}  // namespace pls::wire
