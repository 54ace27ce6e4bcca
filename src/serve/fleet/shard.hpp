#pragma once

/// \file shard.hpp
/// One fleet shard: a full SimService wrapped in a single-threaded IPC loop
/// talking to the Router over the socketpair fd it inherited across exec
/// (DESIGN.md §13). The loop polls the socket and an eventfd, which the
/// service signals when a job finishes, with a short timeout that paces the
/// live trajectory chunks; it pumps chunks and terminal results back and answers
/// heartbeats; SIGTERM (or a kDrain frame) starts a graceful drain:
/// in-flight jobs are cooperatively cancelled with checkpoint_on_cancel —
/// persisting a (checkpoint, manifest) pair at each job's exact current
/// step — new submits are rejected with "Overloaded: shard draining", and
/// the process exits 0 once every job has been flushed.
///
/// Jobs always run with stream_samples + checkpoint_on_cancel on, so every
/// fleet job is pollable mid-run and migratable at any boundary.

#include <cstddef>

namespace mdm::serve::fleet {

struct ShardConfig {
  int ipc_fd = 3;  ///< router socketpair end, dup'ed here before exec
  int workers = 2;
  unsigned threads_per_job = 1;
  std::size_t queue_cap = 64;
  int shard_index = 0;  ///< rank label for logs/metrics/flight events
};

/// Run the shard loop until shutdown, drain completion or router EOF.
/// Returns the process exit code (0 on every graceful path).
int shard_main(const ShardConfig& config);

}  // namespace mdm::serve::fleet
