#include "serve/fleet/shard.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <csignal>
#include <map>

#include "obs/logger.hpp"
#include "serve/fleet/wire.hpp"
#include "serve/service.hpp"

namespace mdm::serve::fleet {
namespace {

volatile std::sig_atomic_t g_drain = 0;

void on_sigterm(int) { g_drain = 1; }

/// An eventfd the service signals when a job finishes, which wakes the
/// loop's poll to report it (poll skips it if creation failed, leaving the
/// timeout); closed when the shard returns.
struct WakeFd {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ~WakeFd() { ::close(fd); }
};

struct InFlight {
  JobHandle handle;
  std::size_t cursor = 0;  ///< stream position already sent as chunks
};

}  // namespace

int shard_main(const ShardConfig& config) {
  std::signal(SIGTERM, on_sigterm);
  std::signal(SIGPIPE, SIG_IGN);
  const int fd = config.ipc_fd;

  const WakeFd wake;  // outlives the service, which signals it
  ServiceConfig sc;
  sc.workers = config.workers;
  sc.threads_per_job = config.threads_per_job;
  sc.admission.max_queue_depth = config.queue_cap;
  sc.stream_samples = true;       // every fleet job is pollable mid-run
  sc.checkpoint_on_cancel = true; // drain persists the exact cancel step
  sc.on_job_done = [&wake] { ::eventfd_write(wake.fd, 1); };
  SimService service(sc);
  service.start();

  send_frame(fd, MsgType::kHello, encode_id(kWireVersion));

  std::map<std::uint64_t, InFlight> inflight;
  std::uint64_t completed = 0;
  bool draining = false;

  // Flush progress: stream new samples as chunks, terminal jobs as done.
  auto pump = [&] {
    for (auto it = inflight.begin(); it != inflight.end();) {
      auto& rec = it->second;
      auto chunk = rec.handle.poll_samples(rec.cursor);
      if (!chunk.empty())
        send_frame(fd, MsgType::kChunk, encode_chunk(it->first, chunk));
      if (rec.handle.done()) {
        send_frame(fd, MsgType::kDone,
                   encode_done(it->first, rec.handle.wait()));
        ++completed;
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (;;) {
    if (g_drain && !draining) {
      draining = true;
      MDM_LOG_INFO("fleet shard %d: draining (%zu in-flight)",
                   config.shard_index, inflight.size());
      send_frame(fd, MsgType::kDraining, {});
      // Cooperative cancel; checkpoint_on_cancel writes each job's
      // (checkpoint, manifest) pair at its exact current step, so the
      // router resumes them elsewhere with zero recomputation.
      for (auto& [id, rec] : inflight) rec.handle.cancel();
    }
    if (draining && inflight.empty()) {
      send_frame(fd, MsgType::kDrained, encode_id(completed));
      service.stop();
      return 0;
    }

    // Wake on a router frame or a finished job; the timeout paces the
    // sample chunks of running jobs.
    struct pollfd pfd[2] = {{.fd = fd, .events = POLLIN, .revents = 0},
                            {.fd = wake.fd, .events = POLLIN, .revents = 0}};
    const int rc = ::poll(pfd, 2, 20);
    eventfd_t finished;
    if (rc > 0 && (pfd[1].revents & POLLIN) != 0)
      ::eventfd_read(wake.fd, &finished);
    if (rc > 0 && (pfd[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      auto frame = recv_frame(fd);
      if (!frame) {
        // Router died: nothing to report results to; stop and exit.
        service.stop();
        return 0;
      }
      switch (frame->type) {
        case MsgType::kSubmit: {
          std::uint64_t id = 0;
          JobSpec spec;
          decode_submit(*frame, id, spec);
          if (draining) {
            send_frame(fd, MsgType::kRejected,
                       encode_reject(id, "Overloaded: shard draining"));
            break;
          }
          JobHandle handle = service.submit(spec);
          if (handle.done() && handle.state() == JobState::kRejected) {
            send_frame(fd, MsgType::kRejected,
                       encode_reject(id, handle.wait().error));
            break;
          }
          send_frame(fd, MsgType::kAccepted, encode_id(id));
          inflight.emplace(id, InFlight{handle, 0});
          break;
        }
        case MsgType::kCancel: {
          const auto it = inflight.find(decode_id(*frame));
          if (it != inflight.end()) it->second.handle.cancel();
          break;
        }
        case MsgType::kPing: {
          ShardStats stats;
          stats.seq = decode_id(*frame);
          stats.running = service.running_jobs();
          stats.queued = static_cast<std::int32_t>(service.queue_depth());
          stats.completed = completed;
          send_frame(fd, MsgType::kPong, encode_pong(stats));
          break;
        }
        case MsgType::kDrain:
          g_drain = 1;
          break;
        case MsgType::kShutdown:
          service.stop();
          pump();  // flush the cancelled results before going away
          return 0;
        default:
          MDM_LOG_WARN("fleet shard %d: unexpected frame '%s'",
                       config.shard_index, to_string(frame->type));
          break;
      }
    }
    pump();
  }
}

}  // namespace mdm::serve::fleet
