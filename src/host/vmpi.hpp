#pragma once

/// \file vmpi.hpp
/// Virtual MPI: an in-process message-passing layer with MPI semantics,
/// standing in for the Myrinet/MPI fabric of the MDM host (sec. 3.3, 4).
/// Ranks are threads; messages are typed copies through per-destination
/// mailboxes keyed by (source, tag). Collectives are built on point-to-point
/// exactly as a simple MPI implementation would.
///
/// The substitution preserves what matters for the reproduction: the MD
/// program is written against communicator semantics (send/recv/bcast/
/// allreduce/barrier over process groups), so the sec. 4 software runs
/// unchanged in spirit.
///
/// Failure model (see DESIGN.md "Failure model of the virtual fabric"):
///  * a rank whose function throws poisons every mailbox and the world
///    barrier — blocked peers wake and raise PeerFailedError naming the
///    failed rank instead of hanging, and World::run rethrows the original
///    error;
///  * recvs may carry a deadline (set_recv_timeout / MDM_VMPI_TIMEOUT_MS);
///    on expiry RecvTimeoutError carries a dump of who-waits-on-whom;
///  * a FaultInjector may drop/duplicate/delay messages on the fabric;
///    sends retransmit transient drops with bounded exponential backoff and
///    receivers discard duplicates by per-channel sequence number.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mdm::vmpi {

class World;
class FaultInjector;

/// Raised on ranks blocked in recv/barrier when another rank has failed:
/// failure propagates through the fabric instead of deadlocking the world.
class PeerFailedError : public std::runtime_error {
 public:
  PeerFailedError(int failed_rank, const std::string& what)
      : std::runtime_error(what), failed_rank_(failed_rank) {}
  /// World rank whose function threw first.
  int failed_rank() const noexcept { return failed_rank_; }

 private:
  int failed_rank_;
};

/// Raised when a recv exceeds the world's deadline; what() includes a dump
/// of every rank's current wait (the who-waits-on-whom graph).
class RecvTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-rank communicator handle (analogous to MPI_COMM_WORLD viewed from
/// one rank). Cheap to copy within its rank's thread.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  /// Rank within the world (== rank() for a world communicator).
  int world_rank() const { return world_rank_; }

  /// Communicator over a subset of world ranks (like MPI_Comm_create).
  /// `world_ranks` must contain this rank's world rank; ranks in the
  /// subgroup are renumbered 0..n-1 in the given order. Collective tags are
  /// salted with a group id derived from the member list, so collectives on
  /// overlapping groups (or concurrent world point-to-point traffic reusing
  /// a collective tag) do not collide.
  Communicator subgroup(const std::vector<int>& world_ranks) const;

  /// Blocking typed send/recv of trivially copyable element arrays. The
  /// span form sends straight from the caller's memory (e.g. one plane of
  /// a larger mesh) without staging it in a vector.
  /// (Extent is deduced, so braced payloads such as send<int>(d, t, {})
  /// still pick the vector form.)
  template <typename T, std::size_t Extent>
  void send(int dest, int tag, std::span<T, Extent> data) {
    static_assert(std::is_trivially_copyable_v<std::remove_const_t<T>>);
    send_bytes(dest, tag, reinterpret_cast<const std::byte*>(data.data()),
               data.size_bytes());
  }
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send(dest, tag, std::span(data));
  }
  template <typename T>
  std::vector<T> recv(int source, int tag) {
    std::vector<T> out;
    recv_into(source, tag, out);
    return out;
  }
  /// recv into a caller-owned vector, resized to the payload; its capacity
  /// is reused, so a steady-state receive of a fixed-size message does not
  /// allocate on the receiving side.
  template <typename T>
  void recv_into(int source, int tag, std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = recv_bytes(source, tag);
    if (bytes.size() % sizeof(T) != 0)
      throw std::runtime_error("vmpi: message size not a multiple of T");
    out.resize(bytes.size() / sizeof(T));
    // Empty payloads (empty halo/migrate/k-space batches) are routine, and
    // memcpy from/to a null pointer is UB even for zero bytes.
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Scalar convenience forms.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, std::vector<T>{v});
  }
  template <typename T>
  T recv_value(int source, int tag) {
    const auto v = recv<T>(source, tag);
    if (v.size() != 1) throw std::runtime_error("vmpi: expected one value");
    return v[0];
  }

  /// Barrier over this communicator's ranks (token ring for subgroups).
  void barrier();

  /// Broadcast from root (in place).
  template <typename T>
  void broadcast(std::vector<T>& data, int root, int tag = kBcastTag) {
    const int t = collective_tag(tag);
    if (rank_ == root) {
      for (int r = 0; r < size_; ++r)
        if (r != root) send(r, t, data);
    } else {
      data = recv<T>(root, t);
    }
  }

  /// Element-wise sum-allreduce (in place, same length on every rank).
  template <typename T>
  void allreduce_sum(std::vector<T>& data, int tag = kReduceTag) {
    const int t = collective_tag(tag);
    if (rank_ == 0) {
      for (int r = 1; r < size_; ++r) {
        const auto other = recv<T>(r, t);
        if (other.size() != data.size())
          throw std::runtime_error("vmpi: allreduce length mismatch");
        for (std::size_t i = 0; i < data.size(); ++i) data[i] += other[i];
      }
    } else {
      send(0, t, data);
    }
    // broadcast salts (tag + 1) itself; salting is additive so the channel
    // is collective_tag(tag) + 1 on every member.
    broadcast(data, 0, tag + 1);
  }

  template <typename T>
  T allreduce_sum_value(T v, int tag = kReduceTag) {
    std::vector<T> data{v};
    allreduce_sum(data, tag);
    return data[0];
  }

  /// Gather variable-length arrays to root; root receives them concatenated
  /// in rank order (including its own contribution).
  template <typename T>
  std::vector<T> gather(const std::vector<T>& local, int root,
                        int tag = kGatherTag) {
    const int t = collective_tag(tag);
    if (rank_ != root) {
      send(root, t, local);
      return {};
    }
    std::vector<T> all;
    for (int r = 0; r < size_; ++r) {
      if (r == root) {
        all.insert(all.end(), local.begin(), local.end());
      } else {
        const auto part = recv<T>(r, t);
        all.insert(all.end(), part.begin(), part.end());
      }
    }
    return all;
  }

 private:
  friend class World;
  static constexpr int kBcastTag = 1 << 20;
  static constexpr int kReduceTag = 1 << 21;
  static constexpr int kGatherTag = 1 << 22;

  Communicator(World* world, int rank, int size)
      : world_(world), rank_(rank), world_rank_(rank), size_(size) {}

  static constexpr int kBarrierTag = 1 << 23;

  /// Translate a communicator-relative rank to a world rank.
  int to_world(int r) const { return group_.empty() ? r : group_[r]; }

  /// Collective tags are offset by the group salt (0 for the world). The
  /// salt is a multiple of 4 below 2^20, so distinct collective bases (2^20
  /// apart) never cross and the tag/tag+1 pairs of different groups stay
  /// disjoint.
  int collective_tag(int tag) const { return tag + collective_salt_; }

  void send_bytes(int dest, int tag, const std::byte* data,
                  std::size_t size);
  std::vector<std::byte> recv_bytes(int source, int tag);

  World* world_;
  int rank_;        ///< rank within this communicator
  int world_rank_;  ///< rank within the world
  int size_;
  int collective_salt_ = 0;
  std::vector<int> group_;  ///< world ranks (empty = world communicator)
};

/// The process group. `run` launches one thread per rank and blocks until
/// all rank functions return; the first original exception from any rank
/// propagates (secondary PeerFailedErrors are suppressed in its favour).
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Fabric fault hook (not owned; may be nullptr). Consulted on every
  /// send, including retransmission attempts.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Deadline for every recv; zero waits forever. Defaults to
  /// MDM_VMPI_TIMEOUT_MS when that environment variable is set.
  void set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_ = timeout;
  }

  /// Retransmission policy for messages the (injected) fabric drops:
  /// up to `max_retries` further attempts, exponential backoff starting at
  /// `backoff` and capped at 5 ms per attempt.
  void set_send_retry(int max_retries, std::chrono::microseconds backoff) {
    send_max_retries_ = max_retries < 0 ? 0 : max_retries;
    send_backoff_ = backoff;
  }

  /// World rank that failed first in the current/last run (-1 = none).
  int failed_rank() const {
    return failed_rank_.load(std::memory_order_acquire);
  }

  void run(const std::function<void(Communicator&)>& rank_main);

 private:
  friend class Communicator;

  struct Message {
    std::uint64_t seq = 0;
    /// Sender's ambient trace id (DESIGN.md §10): stamped on send so the
    /// receiver's flight-recorder event joins the sender's trace even
    /// across rank threads that never shared a TraceContext directly.
    std::uint64_t trace_id = 0;
    std::vector<std::byte> bytes;
  };
  /// One (source world rank, tag) stream. Sequence numbers are assigned
  /// under the destination mailbox lock and let the receiver discard
  /// duplicated deliveries (fault injection) without seeing them.
  struct Channel {
    std::uint64_t send_seq = 0;
    std::uint64_t recv_expected = 0;
    std::deque<Message> queue;
  };
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::pair<int, int>, Channel> channels;
  };
  /// What a rank currently blocks on, for the timeout diagnostic.
  /// source == kWaitBarrier marks a barrier wait.
  struct WaitState {
    static constexpr int kWaitBarrier = -2;
    std::atomic<bool> waiting{false};
    std::atomic<int> source{-1};
    std::atomic<int> tag{0};
  };

  /// Record the first failed rank and wake every blocked thread.
  void mark_failed(int world_rank);
  std::string peer_failure_message(int waiting_rank) const;
  std::string timeout_message(int waiting_rank, int source, int tag) const;
  /// Warn about (clean runs) and count undelivered messages, then clear
  /// the mailboxes for reuse.
  void drain_mailboxes(bool run_failed);

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<WaitState>> wait_states_;

  FaultInjector* injector_ = nullptr;
  std::chrono::milliseconds recv_timeout_{0};
  int send_max_retries_ = 3;
  std::chrono::microseconds send_backoff_{50};

  std::atomic<int> failed_rank_{-1};

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::size_t barrier_generation_ = 0;
};

}  // namespace mdm::vmpi
