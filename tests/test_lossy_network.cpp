// Unreliable-transport tests: drop/duplicate/timeout handling at the
// transport layer, sequence-number dedup, degraded-mode lookup semantics,
// and the end-to-end acceptance bar — under 5% message loss every scheme
// keeps >= 99% lookup satisfaction with the default retry policy, and
// measurably less without retries. Everything is seeded: the numbers
// asserted here are exact replays, not statistical hopes.
#include <bit>
#include <cmath>
#include <memory>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "pls/core/strategy_factory.hpp"
#include "pls/net/failure_injector.hpp"
#include "pls/net/network.hpp"
#include "pls/workload/replay.hpp"

namespace pls::net {
namespace {

class RecordingServer final : public Server {
 public:
  using Server::Server;

  void on_message(const Message& m, Network&) override {
    received.push_back(message_name(m));
  }

  Message on_rpc(const Message&, Network&) override { return Ack{}; }

  std::vector<std::string> received;
};

void expect_conserved(const TransportStats& s) {
  EXPECT_EQ(s.sent + s.duplicated, s.processed + s.dropped);
  EXPECT_EQ(s.dropped, s.dropped_down + s.dropped_link);
}

struct LossyFixture : public ::testing::Test {
  void SetUp() override {
    failures = make_failure_state(4);
    net = std::make_unique<Network>(failures);
    for (ServerId i = 0; i < 4; ++i) {
      auto server = std::make_unique<RecordingServer>(i);
      servers.push_back(server.get());
      net->add_server(std::move(server));
    }
  }

  void set_link(double drop, double dup, std::uint64_t seed = 7) {
    LinkModel link;
    link.drop_probability = drop;
    link.duplicate_probability = dup;
    link.seed = seed;
    net->set_link_model(link);
  }

  std::shared_ptr<FailureState> failures;
  std::unique_ptr<Network> net;
  std::vector<RecordingServer*> servers;
};

TEST_F(LossyFixture, TotalLossExhaustsTheRetryAllowance) {
  set_link(1.0, 0.0);
  EXPECT_FALSE(net->client_send(1, StoreEntry{5}));
  const auto& s = net->stats();
  // Default policy: 4 attempts, all lost on the link.
  EXPECT_EQ(s.sent, 4u);
  EXPECT_EQ(s.retries, 3u);
  EXPECT_EQ(s.timeouts, 4u);
  EXPECT_EQ(s.dropped_link, 4u);
  EXPECT_EQ(s.dropped_down, 0u);
  EXPECT_EQ(s.processed, 0u);
  EXPECT_TRUE(servers[1]->received.empty());
  expect_conserved(s);
}

TEST_F(LossyFixture, DropsToDownServersAreClassifiedSeparately) {
  set_link(0.5, 0.0);
  net->fail(2);
  EXPECT_FALSE(net->client_send(2, StoreEntry{5}));
  const auto& s = net->stats();
  EXPECT_EQ(s.dropped_down, 4u);  // down dominates: no attempt reaches it
  EXPECT_EQ(s.dropped_link, 0u);
  expect_conserved(s);
}

TEST_F(LossyFixture, DuplicatedDeliveryIsProcessedButSuppressed) {
  set_link(0.0, 1.0);
  EXPECT_TRUE(net->client_send(1, StoreEntry{5}));
  const auto& s = net->stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.duplicated, 1u);
  EXPECT_EQ(s.processed, 2u);  // the duplicate is real server work
  EXPECT_EQ(s.dup_suppressed, 1u);
  // ...but the handler ran exactly once: delivery is idempotent.
  EXPECT_EQ(servers[1]->received.size(), 1u);
  EXPECT_EQ(net->server(1).duplicates_discarded(), 1u);
  expect_conserved(s);
}

TEST_F(LossyFixture, DistinctMessagesAreNotMistakenForDuplicates) {
  // Sequenced path active (lossy link), but no duplication: two sends of
  // the same payload are distinct logical messages and both get through.
  set_link(1e-12, 0.0, 11);
  net->client_send(1, StoreEntry{5});
  net->client_send(1, StoreEntry{5});
  EXPECT_EQ(servers[1]->received.size(), 2u);
  EXPECT_EQ(net->stats().dup_suppressed, 0u);
}

TEST(DedupWindow, SuppressesExactlyTheLast4096FirstSeenSequenceNumbers) {
  // The window holds the last 4,096 distinct sequence numbers in the order
  // they were first delivered, evicting the oldest; a number that has left
  // it is new again. Numeric order plays no part (deferred mode reorders).
  auto failures = make_failure_state(1);
  Network net(failures);
  auto owned = std::make_unique<RecordingServer>(0);
  RecordingServer& server = *owned;
  net.add_server(std::move(owned));
  const Message m = StoreEntry{5};
  const auto deliver = [&](SeqNo seq) { return server.handle(m, net, seq); };

  for (SeqNo s = 1; s <= 4096; ++s) ASSERT_TRUE(deliver(s)) << s;
  EXPECT_FALSE(deliver(4096));
  EXPECT_FALSE(deliver(1));
  EXPECT_TRUE(deliver(4097));  // evicts 1
  EXPECT_TRUE(deliver(1));     // evicts 2
  EXPECT_TRUE(deliver(2));     // evicts 3
  EXPECT_TRUE(deliver(3));     // evicts 4
  EXPECT_FALSE(deliver(5));
  EXPECT_TRUE(deliver(10000));
  EXPECT_TRUE(deliver(9999));
  EXPECT_FALSE(deliver(10000));
  EXPECT_FALSE(deliver(9999));
  EXPECT_TRUE(deliver(kNoSeq));  // unsequenced deliveries skip the window
  EXPECT_TRUE(deliver(kNoSeq));

  EXPECT_EQ(server.duplicates_discarded(), 5u);
  EXPECT_EQ(server.received.size(), 4096u + 4u + 2u + 2u);
}

TEST_F(LossyFixture, RetriesEventuallyGetThrough) {
  set_link(0.4, 0.1, 3);
  std::size_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    delivered += net->client_send(1, StoreEntry{static_cast<Entry>(i)});
  }
  const auto& s = net->stats();
  // P(all 4 attempts lost) = 0.4^4 ~ 2.6%: nearly everything arrives.
  EXPECT_GT(delivered, 180u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.dropped_link, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_EQ(s.dup_suppressed, s.duplicated);
  EXPECT_EQ(servers[1]->received.size(), delivered);
  expect_conserved(s);
}

TEST_F(LossyFixture, ClientCallReportsTimeoutAfterTheAttemptCap) {
  set_link(1.0, 0.0);
  const auto call = net->client_call(1, LookupRequest{3}, net->retry_policy(),
                                     /*attempt_cap=*/2);
  EXPECT_FALSE(call.reply.has_value());
  EXPECT_TRUE(call.timed_out);
  EXPECT_EQ(call.attempts, 2u);
  EXPECT_EQ(net->stats().timeouts, 2u);
}

TEST_F(LossyFixture, ClientCallSucceedsWithinTheAllowance) {
  set_link(0.5, 0.0, 5);
  std::size_t answered = 0;
  std::uint32_t attempts = 0;
  for (int i = 0; i < 100; ++i) {
    const auto call =
        net->client_call(1, LookupRequest{3}, net->retry_policy(), 4);
    answered += call.reply.has_value();
    attempts += call.attempts;
  }
  EXPECT_GT(answered, 85u);       // P(4 straight losses) ~ 6%
  EXPECT_GT(attempts, 100u);      // retries actually happened
  expect_conserved(net->stats());
}

TEST_F(LossyFixture, ServerRpcRetriesTheRequestLeg) {
  set_link(1.0, 0.0);
  EXPECT_FALSE(net->rpc(0, 3, MigrateRequest{5, 0}).has_value());
  EXPECT_EQ(net->stats().dropped_link, 4u);
  net->reset_stats();
  set_link(0.0, 0.0);  // reliable again
  EXPECT_TRUE(net->rpc(0, 3, MigrateRequest{5, 0}).has_value());
  EXPECT_EQ(net->stats().processed, 2u);  // request + reply, unchanged
}

TEST_F(LossyFixture, ReliableLinkKeepsTheLegacyCountersExactly) {
  // Default-constructed LinkModel: nothing lossy, nothing sequenced.
  net->fail(2);
  EXPECT_FALSE(net->client_send(2, StoreEntry{7}));
  EXPECT_FALSE(net->client_call(2, LookupRequest{3}, net->retry_policy(), 4)
                   .reply.has_value());
  const auto& s = net->stats();
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.dropped_down, 2u);
  EXPECT_EQ(s.dropped_link, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.duplicated, 0u);
  const auto call =
      net->client_call(2, LookupRequest{3}, net->retry_policy(), 4);
  EXPECT_EQ(call.attempts, 1u);     // down is detectable immediately
  EXPECT_FALSE(call.timed_out);
  expect_conserved(net->stats());
}

TEST_F(LossyFixture, DeferredModeDeliversRetransmissionsAfterBackoff) {
  set_link(0.4, 0.0, 9);
  sim::Simulator sim;
  net->attach_simulator(&sim, 0.0);
  for (int i = 0; i < 50; ++i) {
    net->client_send(1, StoreEntry{static_cast<Entry>(i)});
  }
  EXPECT_TRUE(servers[1]->received.empty());  // nothing delivered yet
  sim.run_all();
  const auto& s = net->stats();
  EXPECT_EQ(servers[1]->received.size(), s.processed);
  EXPECT_GT(s.retries, 0u);
  // A retransmitted message lands after its accumulated backoff, so the
  // clock advanced past at least one base timeout.
  EXPECT_GE(sim.now(), net->retry_policy().base_timeout * 0.8);
  expect_conserved(s);
}

TEST_F(LossyFixture, DeferredHotPathCapturesNeverSpillToTheEventSlab) {
  // The acceptance bar for the inline-event scheduler: nothing the default
  // configuration schedules — deferred deliveries, retransmissions,
  // failure/recovery churn — may overflow InlineEvent's 48-byte inline
  // buffer. A capture that grows past it silently costs a slab round-trip
  // per event; this pins the wheel's slab to "never touched".
  set_link(0.3, 0.2, 11);
  sim::Simulator sim;
  net->attach_simulator(&sim, 0.5);
  FailureInjector::Config churn;
  churn.mttf = 40.0;
  churn.mttr = 5.0;
  churn.seed = 3;
  FailureInjector injector(failures, churn);
  injector.arm(sim);
  for (int i = 0; i < 200; ++i) {
    net->client_send(static_cast<ServerId>(i % 4),
                     StoreEntry{static_cast<Entry>(i)});
  }
  sim.run_until(500.0);
  EXPECT_GT(sim.events_executed(), 200u);
  EXPECT_EQ(sim.queue().slab().fresh_blocks(), 0u)
      << "a hot-path capture outgrew InlineEvent::kInlineCapacity";
  EXPECT_EQ(sim.queue().slab().outstanding(), 0u);
  expect_conserved(net->stats());
}

/// FNV-1a over 64-bit words, for pinning a whole run in one number.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void fold(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((x >> (8 * byte)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void fold(const TransportStats& s, std::size_t servers) {
    for (const std::uint64_t c :
         {s.sent, s.processed, s.dropped, s.broadcasts, s.rpcs, s.dropped_down,
          s.dropped_link, s.dropped_partition, s.duplicated, s.dup_suppressed,
          s.retries, s.timeouts}) {
      fold(c);
    }
    for (std::size_t i = 0; i < servers; ++i) {
      fold(i < s.per_server_processed.size() ? s.per_server_processed[i] : 0);
    }
  }
};

/// Folds every delivery (host, kind, key, repair flag, sim time) into the
/// digest. Every third StoreEntry is forwarded one hop, and every RPC
/// callee sends one message of its own, so server fan-out draws from the
/// same link stream in the middle of the sender's own attempt.
class DigestServer final : public Server {
 public:
  DigestServer(ServerId id, Digest& digest, const sim::Simulator*& sim)
      : Server(id), digest_(digest), sim_(sim) {}

  void on_message(const Message& m, Network& net) override {
    record(m);
    const auto* store = std::get_if<StoreEntry>(&m);
    if (store != nullptr && store->entry % 3 == 0) {
      Message hop = RemoveEntry{store->entry};
      hop.key = m.key;
      hop.repair = m.repair;
      net.send(id(), static_cast<ServerId>((id() + 1) % net.size()), hop);
    }
  }

  Message on_rpc(const Message& m, Network& net) override {
    record(m);
    Message note = StoreEntry{1};
    note.key = m.key;
    note.repair = m.repair;
    net.send(id(), static_cast<ServerId>((id() + 2) % net.size()), note);
    return Ack{};
  }

 private:
  void record(const Message& m) {
    digest_.fold(id());
    digest_.fold(m.index());
    digest_.fold(m.key);
    digest_.fold(m.repair);
    digest_.fold(std::bit_cast<std::uint64_t>(sim_ != nullptr ? sim_->now()
                                                              : -1.0));
  }

  Digest& digest_;
  const sim::Simulator*& sim_;
};

TEST(TransportPin, EverySendPathMatchesThePinnedDigest) {
  // Six phases of 400 seeded ops each over every send path, on two keys,
  // with one op in five on the repair ledger. Every return value, every
  // delivery and, after each phase, all four ledgers go into one FNV
  // digest, so any change to which message is sent, dropped, duplicated,
  // charged or delivered when, or to the order of link-stream draws,
  // changes it. The phases: reliable (its second half with a server down
  // and a split installed); drop 0.3 and dup 0.2; the same under a split
  // partition; the same with two servers down; duplication only; and
  // deferred delivery with fixed and exponential latency, a server failing
  // mid-flight. The digest was taken from the transport that spelled out
  // each send path's attempt loop and ledger charges by hand.
  constexpr std::size_t kServers = 6;
  auto failures = make_failure_state(kServers);
  Network net(failures);
  Digest d;
  const sim::Simulator* clock = nullptr;
  for (ServerId i = 0; i < kServers; ++i) {
    net.add_server(std::make_unique<DigestServer>(i, d, clock));
  }
  ASSERT_EQ(net.add_channel(0xfeed), 1u);
  Rng ops(2024);

  const auto run_ops = [&](std::size_t count, bool rpc, sim::Simulator* sim) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto to = static_cast<ServerId>(ops.uniform(kServers));
      const auto from = static_cast<ServerId>(ops.uniform(kServers));
      const auto key = static_cast<KeyId>(ops.uniform(2));
      const bool repair = ops.uniform(5) == 0;
      const auto stamp = [&](Message m) {
        m.key = key;
        m.repair = repair;
        return m;
      };
      switch (ops.uniform(rpc ? 5 : 4)) {
        case 0:
          d.fold(net.client_send(to, stamp(StoreEntry{ops.uniform(1000)})));
          break;
        case 1:
          net.send(from, to, stamp(StoreEntry{ops.uniform(1000)}));
          break;
        case 2:
          net.broadcast(from, stamp(AddRequest{ops.uniform(1000)}));
          break;
        case 3: {
          const auto cap = static_cast<std::uint32_t>(1 + ops.uniform(5));
          const auto call = net.client_call(to, stamp(LookupRequest{3}),
                                            net.retry_policy(), cap);
          d.fold(call.reply.has_value());
          d.fold(call.attempts);
          d.fold(call.timed_out);
          break;
        }
        default: {
          const auto reply = net.rpc(from, to, stamp(MigrateRequest{7, 0}));
          d.fold(reply.has_value());
          if (reply.has_value()) {
            d.fold(reply->index());
            d.fold(reply->key);
            d.fold(reply->repair);
          }
          break;
        }
      }
      if (sim != nullptr) sim->run_until(sim->now() + 0.25);
    }
  };
  const auto end_phase = [&] {
    for (const TransportStats* s : {&net.stats(), &net.key_stats(0),
                                    &net.key_stats(1), &net.repair_stats()}) {
      EXPECT_TRUE(s->conservation_holds());
      d.fold(*s, kServers);
    }
  };
  const auto link = [&](double drop, double dup, std::uint64_t seed) {
    LinkModel model;
    model.drop_probability = drop;
    model.duplicate_probability = dup;
    model.seed = seed;
    return model;
  };

  run_ops(200, true, nullptr);  // 1: reliable
  net.fail(2);
  net.set_partition(split_partition(kServers, 5));
  run_ops(200, true, nullptr);
  net.recover(2);
  net.clear_partition();
  end_phase();

  net.set_link_model(link(0.3, 0.2, 11));  // 2: drop and duplication
  run_ops(400, true, nullptr);
  end_phase();

  net.set_partition(split_partition(kServers, 9));  // 3: a split
  run_ops(400, true, nullptr);
  net.clear_partition();
  end_phase();

  net.fail(1);  // 4: two servers down
  net.fail(4);
  run_ops(400, true, nullptr);
  net.recover_all();
  end_phase();

  net.set_link_model(link(0.0, 0.2, 13));  // 5: duplication only
  run_ops(400, true, nullptr);
  end_phase();

  LinkModel deferred = link(0.3, 0.2, 17);  // 6: deferred delivery
  deferred.latency_mean = 0.3;
  net.set_link_model(deferred);
  sim::Simulator sim;
  clock = &sim;
  net.attach_simulator(&sim, 0.5);
  run_ops(200, false, &sim);
  net.fail(3);
  run_ops(200, false, &sim);
  net.recover(3);
  sim.run_all();
  end_phase();

  EXPECT_EQ(d.h, 0x79017966e0ad2d62ULL);
}

TEST(RetryPolicyTest, TimeoutsBackOffExponentiallyWithJitter) {
  RetryPolicy policy;  // 1.0 x2.0, jitter 0.2
  Rng rng(42);
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const double base =
        policy.base_timeout * std::pow(policy.backoff_factor,
                                       static_cast<double>(attempt - 1));
    for (int i = 0; i < 100; ++i) {
      const double t = policy.timeout_for(attempt, rng);
      EXPECT_GE(t, base * (1.0 - policy.jitter));
      EXPECT_LE(t, base * (1.0 + policy.jitter));
    }
  }
  RetryPolicy none = RetryPolicy::none();
  EXPECT_EQ(none.max_attempts, 1u);
  EXPECT_TRUE(none.valid());
}

}  // namespace
}  // namespace pls::net

namespace pls::core {
namespace {

StrategyConfig lossy_config(StrategyKind kind, std::size_t param,
                            double drop, net::RetryPolicy retry,
                            std::uint64_t seed = 31) {
  StrategyConfig cfg;
  cfg.kind = kind;
  cfg.param = param;
  cfg.link.drop_probability = drop;
  cfg.link.seed = 99;
  cfg.retry = retry;
  cfg.seed = seed;
  return cfg;
}

TEST(LossyLookup, ShortfallDistinguishesCoverageFromFailure) {
  // Reliable link, tiny corpus: the cluster simply has too few entries.
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kFullReplication, .seed = 1}, 4);
  s->place(std::vector<Entry>{1, 2});
  const auto r = s->partial_lookup(5);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.status, LookupStatus::kDegraded);
  EXPECT_EQ(r.shortfall, LookupShortfall::kCoverage);
  EXPECT_EQ(r.entries.size(), 2u);
  EXPECT_STREQ(to_string(r.status), "degraded");
  EXPECT_STREQ(to_string(r.shortfall), "coverage");
}

TEST(LossyLookup, ShortfallReportsNoServersWhenTheClusterIsDown) {
  const auto s = make_strategy(
      StrategyConfig{.kind = StrategyKind::kHash, .param = 2, .seed = 2}, 4);
  s->place(std::vector<Entry>{1, 2, 3, 4, 5, 6});
  for (ServerId i = 0; i < 4; ++i) s->fail_server(i);
  const auto r = s->partial_lookup(3);
  EXPECT_EQ(r.status, LookupStatus::kFailed);
  EXPECT_EQ(r.shortfall, LookupShortfall::kNoServers);
  EXPECT_EQ(r.servers_contacted, 0u);
}

TEST(LossyLookup, ShortfallReportsUnreachableUnderTotalLoss) {
  const auto s = make_strategy(
      lossy_config(StrategyKind::kRandomServer, 10, 1.0, net::RetryPolicy{}),
      4);
  s->place(std::vector<Entry>{1, 2, 3, 4, 5, 6});
  const auto r = s->partial_lookup(3);
  EXPECT_EQ(r.status, LookupStatus::kFailed);
  EXPECT_EQ(r.shortfall, LookupShortfall::kUnreachable);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.servers_contacted, 0u);
}

TEST(LossyLookup, ShortfallReportsWhenTheAttemptBudgetRunsOut) {
  net::RetryPolicy retry;
  retry.attempt_budget = 2;  // two wire attempts for the whole lookup
  const auto s = make_strategy(
      lossy_config(StrategyKind::kHash, 2, 1.0, retry), 4);
  s->place(std::vector<Entry>{1, 2, 3, 4, 5, 6});
  const auto r = s->partial_lookup(3);
  EXPECT_EQ(r.status, LookupStatus::kFailed);
  EXPECT_EQ(r.shortfall, LookupShortfall::kAttemptBudget);
  EXPECT_LE(r.attempts, 2u);
}

TEST(LossyLookup, ModerateLossYieldsSatisfiedLookupsWithRetryAccounting) {
  const auto s = make_strategy(
      lossy_config(StrategyKind::kFullReplication, 1, 0.3,
                   net::RetryPolicy{}),
      4);
  std::vector<Entry> entries(20);
  for (std::size_t i = 0; i < entries.size(); ++i) entries[i] = i + 1;
  s->place(entries);
  std::size_t satisfied = 0, retries = 0;
  for (int i = 0; i < 100; ++i) {
    const auto r = s->partial_lookup(5);
    satisfied += r.satisfied;
    retries += r.retries;
    EXPECT_GE(r.attempts, r.servers_contacted);
  }
  EXPECT_GT(satisfied, 95u);  // P(4 straight losses) < 1%
  EXPECT_GT(retries, 0u);
}

TEST(LossyChurn, DuplicatedDeliveryDoesNotCorruptPlacements) {
  // With every message duplicated, the dedup window must make the final
  // placement identical to a reliable-link run of the same seeds. The
  // Round-Robin coordinator path is the sensitive one (slot assignment on
  // AddRequest); Hash exercises multi-target stores.
  for (auto kind : {StrategyKind::kRoundRobin, StrategyKind::kHash,
                    StrategyKind::kFullReplication}) {
    StrategyConfig lossy;
    lossy.kind = kind;
    lossy.param = 2;
    lossy.link.duplicate_probability = 1.0;
    lossy.link.seed = 5;
    lossy.seed = 17;
    StrategyConfig reliable = lossy;
    reliable.link = net::LinkModel{};

    workload::WorkloadConfig wc;
    wc.steady_state_entries = 40;
    wc.lifetime = "exp";
    wc.num_updates = 400;
    wc.seed = 23;
    const auto wl = workload::generate_workload(wc);

    const auto a = make_strategy(lossy, 6);
    const auto b = make_strategy(reliable, 6);
    workload::Replayer(*a, wl).run();
    workload::Replayer(*b, wl).run();
    EXPECT_EQ(a->placement().servers, b->placement().servers)
        << "duplicates corrupted " << to_string(kind);
    EXPECT_GT(a->network().stats().dup_suppressed, 0u);
    EXPECT_EQ(a->network().stats().dup_suppressed,
              a->network().stats().duplicated);
  }
}

// --- the acceptance experiment -----------------------------------------
//
// 5% message loss, dynamic churn, lookup after every update. With the
// default retry policy every scheme must keep >= 99% satisfaction; with
// retries disabled the same runs must be measurably worse.

struct LossOutcome {
  double satisfaction = 0.0;
  std::uint64_t retries = 0;
};

LossOutcome churn_satisfaction(StrategyKind kind, std::size_t param,
                               const net::RetryPolicy& retry) {
  const std::size_t n = 10, t = 5;
  auto cfg = lossy_config(kind, param, 0.05, retry);
  const auto s = make_strategy(cfg, n);

  workload::WorkloadConfig wc;
  wc.steady_state_entries = 60;
  wc.lifetime = "exp";
  wc.num_updates = 800;
  wc.seed = 71;
  const auto wl = workload::generate_workload(wc);

  std::size_t lookups = 0, satisfied = 0;
  workload::Replayer replayer(*s, wl);
  replayer.set_observer(
      [&](const workload::UpdateEvent&, std::size_t, SimTime) {
        ++lookups;
        satisfied += s->partial_lookup(t).satisfied;
      });
  replayer.run();
  return {static_cast<double>(satisfied) / static_cast<double>(lookups),
          s->network().stats().retries};
}

struct LossShape {
  StrategyKind kind;
  std::size_t param;
};

const LossShape kLossShapes[] = {
    {StrategyKind::kFullReplication, 1}, {StrategyKind::kFixed, 15},
    {StrategyKind::kRandomServer, 15},   {StrategyKind::kRoundRobin, 2},
    {StrategyKind::kHash, 2},
};

TEST(LossyChurn, AllSchemesKeepHighSatisfactionWithRetries) {
  for (const auto& shape : kLossShapes) {
    const auto out =
        churn_satisfaction(shape.kind, shape.param, net::RetryPolicy{});
    EXPECT_GE(out.satisfaction, 0.99)
        << to_string(shape.kind) << "-" << shape.param << " only reached "
        << out.satisfaction;
    EXPECT_GT(out.retries, 0u) << to_string(shape.kind);
  }
}

TEST(LossyChurn, DisablingRetriesDegradesSatisfaction) {
  double with_sum = 0.0, without_sum = 0.0;
  for (const auto& shape : kLossShapes) {
    with_sum +=
        churn_satisfaction(shape.kind, shape.param, net::RetryPolicy{})
            .satisfaction;
    without_sum +=
        churn_satisfaction(shape.kind, shape.param, net::RetryPolicy::none())
            .satisfaction;
  }
  const double with_mean = with_sum / 5.0;
  const double without_mean = without_sum / 5.0;
  EXPECT_LT(without_mean, with_mean - 0.005)
      << "retries made no measurable difference (" << without_mean << " vs "
      << with_mean << ")";
}

}  // namespace
}  // namespace pls::core
