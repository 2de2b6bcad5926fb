// Unit tests for the simulated cluster transport and its §6.4 cost model.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "pls/net/network.hpp"
#include "pls/sim/simulator.hpp"

namespace pls::net {
namespace {

/// Records everything it receives; replies to RPCs with an Ack.
class RecordingServer final : public Server {
 public:
  using Server::Server;

  void on_message(const Message& m, Network&) override {
    received.push_back(message_name(m));
  }

  Message on_rpc(const Message& m, Network&) override {
    rpcs.push_back(message_name(m));
    return Ack{};
  }

  std::vector<std::string> received;
  std::vector<std::string> rpcs;
};

struct NetworkFixture : public ::testing::Test {
  void SetUp() override {
    failures = make_failure_state(4);
    net = std::make_unique<Network>(failures);
    for (ServerId i = 0; i < 4; ++i) {
      auto server = std::make_unique<RecordingServer>(i);
      servers.push_back(server.get());
      net->add_server(std::move(server));
    }
  }

  std::shared_ptr<FailureState> failures;
  std::unique_ptr<Network> net;
  std::vector<RecordingServer*> servers;
};

TEST_F(NetworkFixture, ClientSendDeliversAndCharges) {
  EXPECT_TRUE(net->client_send(2, StoreEntry{7}));
  EXPECT_EQ(servers[2]->received.size(), 1u);
  EXPECT_EQ(net->stats().sent, 1u);
  EXPECT_EQ(net->stats().processed, 1u);
  EXPECT_EQ(net->stats().per_server_processed[2], 1u);
}

TEST_F(NetworkFixture, ClientSendToDownServerDrops) {
  net->fail(2);
  EXPECT_FALSE(net->client_send(2, StoreEntry{7}));
  EXPECT_TRUE(servers[2]->received.empty());
  EXPECT_EQ(net->stats().dropped, 1u);
  EXPECT_EQ(net->stats().processed, 0u);
}

TEST_F(NetworkFixture, BroadcastReachesAllUpServersAndCostsN) {
  net->broadcast(0, RemoveEntry{1});
  for (auto* s : servers) EXPECT_EQ(s->received.size(), 1u);
  EXPECT_EQ(net->stats().processed, 4u);  // the paper's broadcast cost n
  EXPECT_EQ(net->stats().broadcasts, 1u);
}

TEST_F(NetworkFixture, BroadcastSkipsDownServers) {
  net->fail(1);
  net->fail(3);
  net->broadcast(0, RemoveEntry{1});
  EXPECT_EQ(net->stats().processed, 2u);
  EXPECT_EQ(net->stats().dropped, 2u);
  EXPECT_TRUE(servers[1]->received.empty());
  EXPECT_TRUE(servers[3]->received.empty());
}

TEST_F(NetworkFixture, BroadcastIncludesTheSender) {
  net->broadcast(2, StoreEntry{9});
  EXPECT_EQ(servers[2]->received.size(), 1u);
}

TEST_F(NetworkFixture, ClientRpcChargesOneAndRepliesAreFree) {
  const auto reply = net->client_call(1, LookupRequest{3},
                                     net->retry_policy(), 1)
                         .reply;
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(std::holds_alternative<Ack>(*reply));
  EXPECT_EQ(net->stats().processed, 1u);
  EXPECT_EQ(net->stats().rpcs, 1u);
}

TEST_F(NetworkFixture, ClientRpcToDownServerReturnsNothing) {
  net->fail(1);
  EXPECT_FALSE(net->client_call(1, LookupRequest{3}, net->retry_policy(), 1)
                   .reply.has_value());
  EXPECT_EQ(net->stats().dropped, 1u);
}

TEST_F(NetworkFixture, ServerRpcCostsTwo) {
  const auto reply = net->rpc(0, 3, MigrateRequest{5, 0});
  ASSERT_TRUE(reply.has_value());
  // Request processed by the callee, reply processed by the caller.
  EXPECT_EQ(net->stats().processed, 2u);
  EXPECT_EQ(net->stats().per_server_processed[3], 1u);
  EXPECT_EQ(net->stats().per_server_processed[0], 1u);
}

TEST_F(NetworkFixture, ServerSendPointToPointCostsOne) {
  net->send(0, 1, StoreEntry{2});
  EXPECT_EQ(net->stats().processed, 1u);
  EXPECT_EQ(net->stats().sent, 1u);
}

TEST_F(NetworkFixture, ResetStatsClearsEverything) {
  net->broadcast(0, StoreEntry{1});
  net->reset_stats();
  EXPECT_EQ(net->stats().sent, 0u);
  EXPECT_EQ(net->stats().processed, 0u);
  EXPECT_EQ(net->stats().per_server_processed[0], 0u);
}

TEST_F(NetworkFixture, FailureStateIsSharedWithCreator) {
  failures->fail(0);
  EXPECT_FALSE(net->is_up(0));
  net->recover(0);
  EXPECT_TRUE(failures->is_up(0));
}

TEST_F(NetworkFixture, DeferredModeDeliversThroughSimulator) {
  sim::Simulator sim;
  net->attach_simulator(&sim, 0.5);
  net->client_send(1, StoreEntry{4});
  EXPECT_TRUE(servers[1]->received.empty());  // not yet delivered
  sim.run_all();
  EXPECT_EQ(servers[1]->received.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
}

TEST_F(NetworkFixture, DeferredModeDropsIfServerFailsInFlight) {
  sim::Simulator sim;
  net->attach_simulator(&sim, 1.0);
  net->client_send(1, StoreEntry{4});
  net->fail(1);  // fails after send, before delivery
  sim.run_all();
  EXPECT_TRUE(servers[1]->received.empty());
  EXPECT_EQ(net->stats().dropped, 1u);
}

TEST_F(NetworkFixture, RpcRequiresImmediateMode) {
  sim::Simulator sim;
  net->attach_simulator(&sim, 0.1);
  EXPECT_THROW(net->rpc(0, 1, Ack{}), std::logic_error);
  net->attach_simulator(nullptr);
  EXPECT_TRUE(net->rpc(0, 1, Ack{}).has_value());
}

TEST(NetworkConstruction, ServersMustBeAddedInIdOrder) {
  auto failures = make_failure_state(2);
  Network net(failures);
  EXPECT_THROW(net.add_server(std::make_unique<RecordingServer>(1)),
               std::logic_error);
  net.add_server(std::make_unique<RecordingServer>(0));
  net.add_server(std::make_unique<RecordingServer>(1));
  EXPECT_THROW(net.add_server(std::make_unique<RecordingServer>(2)),
               std::logic_error);  // exceeds the FailureState size
}

TEST(NetworkConstruction, RejectsNullState) {
  EXPECT_THROW(Network(nullptr), std::logic_error);
}

TEST(FailureStateTest, UpCountTracksTransitions) {
  FailureState f(3);
  EXPECT_EQ(f.up_count(), 3u);
  f.fail(1);
  f.fail(1);  // idempotent
  EXPECT_EQ(f.up_count(), 2u);
  EXPECT_EQ(f.up_servers(), (std::vector<ServerId>{0, 2}));
  f.recover(1);
  EXPECT_EQ(f.up_count(), 3u);
  f.fail(0);
  f.fail(2);
  f.recover_all();
  EXPECT_EQ(f.up_count(), 3u);
}

TEST(FailureStateTest, BoundsChecked) {
  FailureState f(2);
  EXPECT_THROW(f.is_up(2), std::logic_error);
  EXPECT_THROW(f.fail(5), std::logic_error);
  EXPECT_THROW(FailureState(0), std::logic_error);
}

TEST(MessageNames, AllVariantsNamed) {
  EXPECT_STREQ(message_name(PlaceRequest{}), "PlaceRequest");
  EXPECT_STREQ(message_name(AddRequest{}), "AddRequest");
  EXPECT_STREQ(message_name(DeleteRequest{}), "DeleteRequest");
  EXPECT_STREQ(message_name(StoreBatch{}), "StoreBatch");
  EXPECT_STREQ(message_name(StoreEntry{}), "StoreEntry");
  EXPECT_STREQ(message_name(StoreSlotted{}), "StoreSlotted");
  EXPECT_STREQ(message_name(RemoveEntry{}), "RemoveEntry");
  EXPECT_STREQ(message_name(ReservoirAdd{}), "ReservoirAdd");
  EXPECT_STREQ(message_name(RoundRemove{}), "RoundRemove");
  EXPECT_STREQ(message_name(MigrateRequest{}), "MigrateRequest");
  EXPECT_STREQ(message_name(MigrateReply{}), "MigrateReply");
  EXPECT_STREQ(message_name(PurgeEntry{}), "PurgeEntry");
  EXPECT_STREQ(message_name(LookupRequest{}), "LookupRequest");
  EXPECT_STREQ(message_name(LookupReply{}), "LookupReply");
  EXPECT_STREQ(message_name(Ack{}), "Ack");
}

}  // namespace
}  // namespace pls::net
