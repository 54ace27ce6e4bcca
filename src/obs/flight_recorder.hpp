#pragma once

/// \file flight_recorder.hpp
/// Crash flight recorder (DESIGN.md §10): a lock-free per-thread ring
/// buffer of recent structured events — phase transitions, vmpi sends and
/// recvs, health samples, checkpoint generations — that failure paths dump
/// as JSON, turning "rank died at step 48k" into a replayable postmortem.
///
/// Recording is a handful of relaxed atomic stores into a fixed-size ring
/// (no allocation, no locks, TSan-clean), cheap enough to leave on in
/// production; `MDM_FLIGHT=0` disables it. Each thread keeps the last
/// `kRingCapacity` events in a ring it hands back at exit; the next new
/// thread appends to that ring, so a dead thread's events survive until
/// they are overwritten. A dump collects every ring, sorts by timestamp
/// and writes JSON with the event kind, rank, trace id and two
/// kind-specific operands (step, peer, tag, generation, ...).
///
/// Dumps are triggered by:
///  * the parallel app, next to the latest checkpoint, when a run dies on
///    SimulationHealthError / PeerFailedError / any rank failure;
///  * `install_crash_handler`, a fatal-signal handler that writes the dump
///    with async-signal-safe code before re-raising (SIGSEGV, SIGABRT,
///    SIGBUS, SIGFPE, SIGILL);
///  * tests and tools via `write_json_file`.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mdm::obs {

enum class FlightKind : std::uint8_t {
  kPhase = 0,   ///< phase transition: label = phase, a = step
  kStep,        ///< step boundary: a = step
  kSend,        ///< vmpi send: a = dest world rank, b = tag
  kRecv,        ///< vmpi recv: a = source world rank, b = tag
  kHealth,      ///< health violation: label = kind, a = step, b = particle
  kCheckpoint,  ///< generation written/restored: label, a = step
  kRankFail,    ///< rank failure observed: a = step (-1 unknown), b = rank
  kNote,        ///< free-form marker: label, a/b caller-defined
};

const char* to_string(FlightKind kind) noexcept;

/// One recorded event as returned by `snapshot` (decoded from the ring).
struct FlightEventView {
  std::uint64_t ts_ns = 0;
  std::uint64_t trace_id = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  const char* label = nullptr;  ///< static string or nullptr
  FlightKind kind = FlightKind::kNote;
  int rank = -1;  ///< recording thread's rank label (-1 = host)
};

class FlightRecorder {
 public:
  /// Events kept per thread; older ones are overwritten.
  static constexpr std::size_t kRingCapacity = 512;

  /// Runtime switch; on by default, off when MDM_FLIGHT=0.
  static bool enabled() noexcept;
  static void set_enabled(bool on) noexcept;

  /// Record one event on the calling thread's ring. `label` must be a
  /// string literal (or otherwise outlive the process). Tagged with the
  /// thread's ambient TraceContext and rank label.
  static void record(FlightKind kind, const char* label = nullptr,
                     std::int64_t a = 0, std::int64_t b = 0) noexcept;

  /// As `record`, but tagged with an explicit trace id instead of the
  /// ambient one — used by vmpi recv to attribute the event to the trace
  /// carried in the message header.
  static void record_trace(FlightKind kind, std::uint64_t trace_id,
                           const char* label = nullptr, std::int64_t a = 0,
                           std::int64_t b = 0) noexcept;

  /// Label the calling thread as vmpi rank `rank` for subsequent events
  /// (-1 resets). Unlike Trace::set_thread_rank this works while disabled,
  /// so a recorder re-enabled mid-run keeps correct rank attribution.
  static void set_thread_rank(int rank) noexcept;

  /// Total events ever recorded (monotone; survives ring wrap).
  static std::uint64_t recorded_count() noexcept;

  /// Rings allocated so far. A thread's ring is recycled when it exits, so
  /// this is bounded by the peak number of concurrently recording threads.
  static std::size_t ring_count() noexcept;

  /// Copy out every ring, sorted by timestamp (oldest first). Events being
  /// overwritten concurrently may be dropped, never torn.
  static std::size_t snapshot(std::vector<FlightEventView>& out);

  /// JSON dump: {"flight": [{"ts_ns":..., "kind":"recv", "rank":..,
  /// "trace":"..", "label":"..", "a":.., "b":..}, ...]}.
  static void write_json(std::ostream& os);
  static bool write_json_file(const std::string& path);

  /// Drop all recorded events (rings stay registered).
  static void clear();

  /// Install a fatal-signal handler (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL)
  /// that writes the dump to `path` with async-signal-safe code, then
  /// restores the previous disposition and re-raises. The path is copied;
  /// later calls replace it.
  static void install_crash_handler(const std::string& path);
};

}  // namespace mdm::obs
