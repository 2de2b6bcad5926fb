// Hash-y and MultiProbe store entry v on the distinct owners of its first
// y replica groups and differ only in the rule that names an owner. This
// pins their whole observable history with one digest: seeded runs of
// updates, lookups, failures, wipes, repair passes, a join, a graceful and
// a permanent leave, budgeted placements and a mixed multi-key lossy
// service, folded over every lookup answer, repair outcome, store, ledger
// and snapshot byte. Any change to a message, an Rng draw, a placement or
// the snapshot format of either family changes the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/core/service.hpp"
#include "pls/core/strategy_factory.hpp"
#include "pls/net/repair.hpp"
#include "pls/wire/snapshot.hpp"

namespace pls::core {
namespace {

/// FNV-1a over little-endian 64-bit words.
class Digest {
 public:
  void word(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ = (h_ ^ ((x >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void bytes(std::span<const std::uint8_t> data) {
    word(data.size());
    for (const std::uint8_t b : data) h_ = (h_ ^ b) * 0x100000001b3ULL;
  }
  void lookup(const LookupResult& r) {
    word(r.entries.size());
    for (const Entry v : r.entries) word(v);
    word(r.servers_contacted);
    word(r.satisfied ? 1 : 0);
    word(static_cast<std::uint64_t>(r.status));
    word(static_cast<std::uint64_t>(r.shortfall));
    word(r.attempts);
    word(r.retries);
    word(r.timeouts);
  }
  void repair(const net::RepairOutcome& o) {
    word(o.replicas_created);
    word(o.deficit_after);
    word(o.unrecoverable);
  }
  void ledger(const net::TransportStats& s) {
    for (const auto counter : net::TransportStats::kCounters) word(s.*counter);
    word(s.per_server_processed.size());
    for (const std::uint64_t p : s.per_server_processed) word(p);
  }
  void stores(const Strategy& s) {
    for (const auto& server : s.placement().servers) {
      word(server.size());
      for (const Entry v : server) word(v);
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void make_lossy(net::LinkModel& link, net::RetryPolicy& retry) {
  link.drop_probability = 0.1;
  link.duplicate_probability = 0.05;
  retry.max_attempts = 3;
}

std::vector<Entry> iota_entries(std::size_t h, Entry first = 1) {
  std::vector<Entry> out(h);
  for (std::size_t i = 0; i < h; ++i) out[i] = first + i;
  return out;
}

ServerId random_member(const net::FailureState& fs, Rng& rng) {
  return fs.member_at(rng.uniform(fs.member_count()));
}

/// 40 placed entries, then 400 seeded ops with a join at op 120, a
/// graceful leave of host 1 at op 200 and a permanent leave of the last
/// member at op 300; ends with recover_all and one repair pass.
void run_standalone(Digest& d, StrategyKind kind, std::size_t n,
                    std::size_t y, bool lossy, std::uint64_t seed) {
  StrategyConfig cfg{.kind = kind, .param = y, .probes = 7, .seed = seed};
  if (lossy) make_lossy(cfg.link, cfg.retry);
  auto s = make_strategy(cfg, n);
  std::vector<Entry> live = iota_entries(40);
  s->place(live);
  Entry next = 1000;
  Rng ops(seed * 1009 + n * 31 + y * 7 + (lossy ? 1 : 0));
  for (int op = 0; op < 400; ++op) {
    const net::FailureState& fs = s->network().failures();
    if (op == 120) {
      d.word(s->add_server());
      continue;
    }
    if (op == 200) {
      s->remove_server(1, net::Loss::kGraceful);
      continue;
    }
    if (op == 300) {
      s->remove_server(fs.member_at(fs.member_count() - 1),
                       net::Loss::kPermanent);
      continue;
    }
    switch (ops.uniform(12)) {
      case 0:
      case 1:
      case 2:
        live.push_back(next);
        s->add(next++);
        break;
      case 3:
      case 4:
        if (!live.empty()) {
          const std::size_t i = ops.uniform(live.size());
          s->erase(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
        break;
      case 5:
      case 6:
      case 7:
        d.lookup(s->partial_lookup(1 + ops.uniform(12)));
        break;
      case 8:
        s->fail_server(random_member(fs, ops));
        break;
      case 9:
        s->recover_server(random_member(fs, ops));
        break;
      case 10:
        s->wipe_server(random_member(fs, ops));
        break;
      default:
        d.repair(s->repair_once());
        break;
    }
  }
  s->recover_all();
  d.repair(s->repair_once());
  d.stores(*s);
  d.ledger(s->network().stats());
  d.ledger(s->network().repair_stats());
  d.bytes(wire::save_strategy(*s));
}

/// A budget-limited static placement: h = 20 at y = 3 on 6 hosts.
void run_budgeted(Digest& d, StrategyKind kind, std::size_t budget) {
  StrategyConfig cfg{.kind = kind,
                     .param = 3,
                     .storage_budget = budget,
                     .probes = 7,
                     .seed = 5};
  auto s = make_strategy(cfg, 6);
  s->place(iota_entries(20));
  for (std::size_t t = 1; t <= 12; t += 3) d.lookup(s->partial_lookup(t));
  s->fail_server(2);
  d.lookup(s->partial_lookup(8));
  s->wipe_server(4);
  s->recover_all();
  d.repair(s->repair_once());
  d.lookup(s->partial_lookup(12));
  d.stores(*s);
  d.ledger(s->network().stats());
  d.bytes(wire::save_strategy(*s));
}

/// Twelve keys, alternately Hash-2 and MultiProbe-2, on one lossy 7-host
/// service with a join and a graceful leave.
void run_service(Digest& d) {
  ServiceConfig cfg;
  cfg.num_servers = 7;
  cfg.default_strategy = StrategyConfig{.kind = StrategyKind::kHash,
                                        .param = 2};
  cfg.strategy_policy = [](const Key& key) -> std::optional<StrategyConfig> {
    if (key.back() % 2 == 0) return std::nullopt;
    return StrategyConfig{
        .kind = StrategyKind::kMultiProbe, .param = 2, .probes = 7};
  };
  make_lossy(cfg.link, cfg.retry);
  cfg.seed = 2026;
  PartialLookupService svc(cfg);
  std::vector<Key> keys;
  for (char c = 'a'; c < 'a' + 12; ++c) keys.push_back(std::string("key-") + c);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    svc.place(keys[k], iota_entries(15, 100 * k + 1));
  }
  Rng ops(77);
  Entry next = 5000;
  for (int op = 0; op < 300; ++op) {
    const Key& key = keys[ops.uniform(keys.size())];
    if (op == 100) d.word(svc.add_server());
    if (op == 200) svc.remove_server(2, net::Loss::kGraceful);
    switch (ops.uniform(6)) {
      case 0:
      case 1:
        svc.add(key, next++);
        break;
      case 2:
        svc.erase(key, next - 1 - ops.uniform(20));
        break;
      case 3:
        d.lookup(svc.partial_lookup(key, 1 + ops.uniform(12)));
        break;
      case 4:
        svc.fail_server(random_member(svc.failures(), ops));
        break;
      default:
        svc.recover_server(random_member(svc.failures(), ops));
        break;
    }
  }
  svc.recover_all();
  for (const Key& key : keys) {
    Strategy& s = svc.strategy(key);
    d.repair(s.repair_once());
    d.stores(s);
    d.ledger(svc.key_transport(key));
  }
  d.ledger(svc.cluster().network().stats());
  d.ledger(svc.cluster().network().repair_stats());
  d.bytes(wire::save_service(svc));
}

TEST(ReplicaGroups, HashAndMultiProbeHistoryMatchesThePinnedDigest) {
  Digest d;
  for (const StrategyKind kind :
       {StrategyKind::kHash, StrategyKind::kMultiProbe}) {
    for (const std::size_t n : {5u, 8u}) {
      for (const std::size_t y : {1u, 2u, 3u}) {
        for (const bool lossy : {false, true}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            run_standalone(d, kind, n, y, lossy, seed);
          }
        }
      }
    }
    for (const std::size_t budget : {10u, 37u, 60u}) {
      run_budgeted(d, kind, budget);
    }
  }
  run_service(d);
  // Taken from the two separate Hash-y and MultiProbe implementations that
  // ReplicaGroupStrategy replaced.
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(d.value()));
  EXPECT_EQ(d.value(), 0xe57a88723d613bd0ULL) << "digest " << hex;
}

}  // namespace
}  // namespace pls::core
