#include "host/vmpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>

namespace mdm::vmpi {
namespace {

TEST(Vmpi, RankAndSize) {
  World world(5);
  std::atomic<int> visited{0};
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 5);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 5);
    EXPECT_EQ(comm.rank(), comm.world_rank());
    ++visited;
  });
  EXPECT_EQ(visited.load(), 5);
}

TEST(Vmpi, PointToPointRoundTrip) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 7, {1.0, 2.0, 3.0});
      const auto echoed = comm.recv<double>(1, 8);
      ASSERT_EQ(echoed.size(), 3u);
      EXPECT_EQ(echoed[1], 4.0);
    } else {
      auto data = comm.recv<double>(0, 7);
      for (auto& v : data) v *= 2.0;
      comm.send(0, 8, data);
    }
  });
}

TEST(Vmpi, MessagesOrderedPerSourceAndTag) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(Vmpi, TagsAreIndependentChannels) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 111);
      comm.send_value(1, 2, 222);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(Vmpi, EmptyMessage) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 5, {});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 5).empty());
    }
  });
}

TEST(Vmpi, RecvIntoReusesTheCallersBuffer) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 20, {1.0, 2.0, 3.0, 4.0});
      comm.send<double>(1, 20, {5.0, 6.0});
      comm.send<int>(1, 21, {});
      comm.send<char>(1, 22, {'a', 'b', 'c'});
      const double window[5] = {0.0, 7.0, 8.0, 9.0, 0.0};
      comm.send(1, 23, std::span<const double>(window + 1, 3));
    } else {
      std::vector<double> buf;
      buf.reserve(8);
      const double* storage = buf.data();
      comm.recv_into(0, 20, buf);
      EXPECT_EQ(buf, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
      comm.recv_into(0, 20, buf);
      EXPECT_EQ(buf, (std::vector<double>{5.0, 6.0}));
      EXPECT_EQ(buf.data(), storage);  // no reallocation
      std::vector<int> empty{7, 8};
      comm.recv_into(0, 21, empty);
      EXPECT_TRUE(empty.empty());
      std::vector<int> ragged;
      EXPECT_THROW(comm.recv_into(0, 22, ragged), std::runtime_error);
      comm.recv_into(0, 23, buf);
      EXPECT_EQ(buf, (std::vector<double>{7.0, 8.0, 9.0}));
      EXPECT_EQ(buf.data(), storage);
    }
  });
}

TEST(Vmpi, Barrier) {
  World world(4);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  world.run([&](Communicator& comm) {
    ++phase1;
    comm.barrier();
    if (phase1.load() != 4) violated = true;
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Vmpi, Broadcast) {
  World world(6);
  world.run([](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 2) data = {10, 20, 30};
    comm.broadcast(data, 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[2], 30);
  });
}

TEST(Vmpi, AllreduceSum) {
  World world(5);
  world.run([](Communicator& comm) {
    std::vector<double> data{double(comm.rank()), 1.0};
    comm.allreduce_sum(data);
    EXPECT_DOUBLE_EQ(data[0], 0 + 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(data[1], 5.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum_value(2.0), 10.0);
  });
}

TEST(Vmpi, GatherConcatenatesInRankOrder) {
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<int> local(comm.rank() + 1, comm.rank());
    const auto all = comm.gather(local, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 1u + 2 + 3 + 4);
      EXPECT_EQ(all[0], 0);
      EXPECT_EQ(all[1], 1);
      EXPECT_EQ(all[3], 2);
      EXPECT_EQ(all[6], 3);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Vmpi, SubgroupCommunicator) {
  World world(6);
  world.run([](Communicator& comm) {
    // Odd world ranks form a group.
    if (comm.rank() % 2 == 1) {
      auto sub = comm.subgroup({1, 3, 5});
      EXPECT_EQ(sub.size(), 3);
      EXPECT_EQ(sub.world_rank(), comm.rank());
      EXPECT_EQ(sub.rank(), comm.rank() / 2);
      // Collectives within the group.
      const double total = sub.allreduce_sum_value(double(comm.rank()));
      EXPECT_DOUBLE_EQ(total, 1 + 3 + 5);
      sub.barrier();
      std::vector<int> data;
      if (sub.rank() == 1) data = {42};
      sub.broadcast(data, 1);
      EXPECT_EQ(data.at(0), 42);
    }
  });
}

TEST(Vmpi, SubgroupRejectsOutsiders) {
  World world(3);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.subgroup({1, 2}), std::invalid_argument);
      EXPECT_THROW(comm.subgroup({0, 99}), std::invalid_argument);
    }
  });
}

TEST(Vmpi, ExceptionsPropagateFromRanks) {
  World world(3);
  EXPECT_THROW(world.run([](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 failed");
  }),
               std::runtime_error);
}

TEST(Vmpi, WorldIsReusableAfterRun) {
  World world(3);
  for (int rep = 0; rep < 3; ++rep) {
    world.run([](Communicator& comm) {
      comm.barrier();
      const double total = comm.allreduce_sum_value(1.0);
      EXPECT_DOUBLE_EQ(total, 3.0);
    });
  }
}

TEST(Vmpi, ManyToOneTraffic) {
  World world(8);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      long total = 0;
      for (int r = 1; r < comm.size(); ++r) {
        const auto v = comm.recv<long>(r, 11);
        total = std::accumulate(v.begin(), v.end(), total);
      }
      EXPECT_EQ(total, 7 * 100);
    } else {
      comm.send<long>(0, 11, std::vector<long>(100, 1));
    }
  });
}

}  // namespace
}  // namespace mdm::vmpi
