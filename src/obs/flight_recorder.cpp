#include "obs/flight_recorder.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <ostream>

#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace mdm::obs {
namespace {

/// One ring slot. Every field is a relaxed atomic: recording stays
/// lock-free and wait-free, concurrent dump reads are race-free (TSan
/// -clean), and the head re-check in snapshot() discards slots that were
/// overwritten mid-read.
struct Slot {
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
  std::atomic<const char*> label{nullptr};
  std::atomic<std::int32_t> rank{-1};
  std::atomic<std::uint8_t> kind{0};
};

struct Ring {
  /// Monotone write position; slot i lives at i % kRingCapacity. Single
  /// writer (the owning thread), many readers.
  std::atomic<std::uint64_t> head{0};
  /// Claimed by a live thread. Cleared at thread exit so a later thread
  /// reuses the ring (appending after the dead thread's events) instead of
  /// allocating a new one.
  std::atomic<bool> owned{true};
  Slot slots[FlightRecorder::kRingCapacity];
};

constexpr std::size_t kMaxRings = 1024;

/// Lock-free ring registry: a fixed array of pointers published with a
/// release store, so the fatal-signal handler can walk it without taking
/// any lock. Rings are never freed, only recycled across threads, so the
/// count is bounded by the peak number of concurrently recording threads.
struct Registry {
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::size_t> count{0};
  std::atomic<Ring*> rings[kMaxRings] = {};

  Registry() {
    const char* env = std::getenv("MDM_FLIGHT");
    if (env && env[0] == '0' && env[1] == '\0')
      enabled.store(false, std::memory_order_relaxed);
  }
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local Ring* t_ring = nullptr;
thread_local bool t_ring_released = false;
thread_local int t_rank = -1;

/// Hands the thread's ring back at thread exit. Events recorded later in
/// the exit sequence are dropped: the ring may already have a new owner.
struct RingRelease {
  ~RingRelease() {
    if (t_ring) t_ring->owned.store(false, std::memory_order_release);
    t_ring = nullptr;
    t_ring_released = true;
  }
};

Ring* claim_ring() {
  auto& reg = registry();
  const std::size_t count =
      std::min(reg.count.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t r = 0; r < count; ++r) {
    Ring* ring = reg.rings[r].load(std::memory_order_acquire);
    bool free = false;
    if (ring && ring->owned.compare_exchange_strong(
                    free, true, std::memory_order_acq_rel))
      return ring;
  }
  const std::size_t idx = reg.count.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= kMaxRings) return nullptr;  // beyond the cap: drop events
  auto* ring = new Ring;
  reg.rings[idx].store(ring, std::memory_order_release);
  return ring;
}

Ring* local_ring() {
  if (!t_ring && !t_ring_released) {
    t_ring = claim_ring();
    thread_local RingRelease release;
  }
  return t_ring;
}

// ---- async-signal-safe formatting helpers -------------------------------

std::size_t fmt_u64(char* buf, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t fmt_i64(char* buf, std::int64_t v) {
  if (v >= 0) return fmt_u64(buf, static_cast<std::uint64_t>(v));
  buf[0] = '-';
  return 1 + fmt_u64(buf + 1, static_cast<std::uint64_t>(-(v + 1)) + 1);
}

std::size_t fmt_hex(char* buf, std::uint64_t v) {
  char tmp[16];
  std::size_t n = 0;
  do {
    const int d = static_cast<int>(v & 0xF);
    tmp[n++] = static_cast<char>(d < 10 ? '0' + d : 'a' + d - 10);
    v >>= 4;
  } while (v);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

/// Buffered async-signal-safe writer (raw write(2), no stdio, no heap).
struct RawWriter {
  int fd;
  char buf[512];
  std::size_t len = 0;

  explicit RawWriter(int fd_in) : fd(fd_in) {}
  ~RawWriter() { flush(); }

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (len == sizeof buf) flush();
      buf[len++] = s[i];
    }
  }
  void str(const char* s) { put(s, std::strlen(s)); }
  void u64(std::uint64_t v) {
    char tmp[24];
    put(tmp, fmt_u64(tmp, v));
  }
  void i64(std::int64_t v) {
    char tmp[24];
    put(tmp, fmt_i64(tmp, v));
  }
  void hex(std::uint64_t v) {
    char tmp[16];
    put(tmp, fmt_hex(tmp, v));
  }
};

/// Emit one event; shared by the stream dump and the signal handler.
void write_event(RawWriter& w, const FlightEventView& e, bool first) {
  w.str(first ? "\n  {" : ",\n  {");
  w.str("\"ts_ns\":");
  w.u64(e.ts_ns);
  w.str(",\"kind\":\"");
  w.str(to_string(e.kind));
  w.str("\",\"rank\":");
  w.i64(e.rank);
  if (e.trace_id != 0) {
    w.str(",\"trace\":\"");
    w.hex(e.trace_id);
    w.str("\"");
  }
  if (e.label) {
    // Labels are string literals from our own call sites; escape the two
    // characters that could still break the JSON.
    w.str(",\"label\":\"");
    for (const char* s = e.label; *s; ++s) {
      if (*s == '"' || *s == '\\') w.put("\\", 1);
      w.put(s, 1);
    }
    w.str("\"");
  }
  w.str(",\"a\":");
  w.i64(e.a);
  w.str(",\"b\":");
  w.i64(e.b);
  w.str("}");
}

/// Decode one slot (relaxed loads only: async-signal-safe).
FlightEventView decode(const Slot& s) {
  FlightEventView e;
  e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
  e.trace_id = s.trace_id.load(std::memory_order_relaxed);
  e.a = s.a.load(std::memory_order_relaxed);
  e.b = s.b.load(std::memory_order_relaxed);
  e.label = s.label.load(std::memory_order_relaxed);
  e.rank = s.rank.load(std::memory_order_relaxed);
  e.kind = static_cast<FlightKind>(s.kind.load(std::memory_order_relaxed));
  return e;
}

/// Read the last events of one ring into `out` (unsorted). Safe against a
/// concurrently recording owner: slots the writer lapped are discarded.
void collect_ring(const Ring& ring, std::vector<FlightEventView>& out) {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min<std::uint64_t>(head, FlightRecorder::kRingCapacity);
  for (std::uint64_t i = head - n; i < head; ++i) {
    const FlightEventView e =
        decode(ring.slots[i % FlightRecorder::kRingCapacity]);
    // The writer may have wrapped onto this slot while we read it.
    if (ring.head.load(std::memory_order_acquire) >
        i + FlightRecorder::kRingCapacity)
      continue;
    out.push_back(e);
  }
}

// ---- fatal-signal handler ----------------------------------------------

char g_crash_path[512] = {0};
const int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
struct sigaction g_previous[sizeof kCrashSignals / sizeof kCrashSignals[0]];

void crash_handler(int sig) {
  // Everything here is async-signal-safe: open/write on pre-formatted
  // bytes, lock-free ring walks, no heap, no stdio. Events are dumped
  // per-ring unsorted (sorting is the reader's job).
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    RawWriter w(fd);
    w.str("{\"signal\":");
    w.i64(sig);
    w.str(",\"flight\":[");
    bool first = true;
    for (std::size_t r = 0; r < FlightRecorder::ring_count(); ++r) {
      const Ring* ring = registry().rings[r].load(std::memory_order_acquire);
      if (!ring) continue;
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t n =
          std::min<std::uint64_t>(head, FlightRecorder::kRingCapacity);
      for (std::uint64_t i = head - n; i < head; ++i) {
        write_event(w, decode(ring->slots[i % FlightRecorder::kRingCapacity]),
                    first);
        first = false;
      }
    }
    w.str("\n]}\n");
    w.flush();
    ::close(fd);
  }
  // Restore the previous disposition and re-raise so the process still
  // dies with the original signal (and any chained handler still runs).
  for (std::size_t i = 0; i < sizeof kCrashSignals / sizeof kCrashSignals[0];
       ++i) {
    if (kCrashSignals[i] == sig) {
      ::sigaction(sig, &g_previous[i], nullptr);
      break;
    }
  }
  ::raise(sig);
}

}  // namespace

const char* to_string(FlightKind kind) noexcept {
  switch (kind) {
    case FlightKind::kPhase: return "phase";
    case FlightKind::kStep: return "step";
    case FlightKind::kSend: return "send";
    case FlightKind::kRecv: return "recv";
    case FlightKind::kHealth: return "health";
    case FlightKind::kCheckpoint: return "checkpoint";
    case FlightKind::kRankFail: return "rank_fail";
    case FlightKind::kNote: return "note";
  }
  return "?";
}

bool FlightRecorder::enabled() noexcept {
  return registry().enabled.load(std::memory_order_relaxed);
}

void FlightRecorder::set_enabled(bool on) noexcept {
  registry().enabled.store(on, std::memory_order_relaxed);
}

void FlightRecorder::record(FlightKind kind, const char* label,
                            std::int64_t a, std::int64_t b) noexcept {
  record_trace(kind, TraceContext::current().trace_id, label, a, b);
}

void FlightRecorder::record_trace(FlightKind kind, std::uint64_t trace_id,
                                  const char* label, std::int64_t a,
                                  std::int64_t b) noexcept {
  auto& reg = registry();
  if (!reg.enabled.load(std::memory_order_relaxed)) return;
  Ring* ring = local_ring();
  if (!ring) return;
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[head % kRingCapacity];
  s.ts_ns.store(Trace::now_ns(), std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.label.store(label, std::memory_order_relaxed);
  s.rank.store(t_rank, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  ring->head.store(head + 1, std::memory_order_release);
  reg.recorded.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::set_thread_rank(int rank) noexcept { t_rank = rank; }

std::uint64_t FlightRecorder::recorded_count() noexcept {
  return registry().recorded.load(std::memory_order_relaxed);
}

std::size_t FlightRecorder::ring_count() noexcept {
  return std::min(registry().count.load(std::memory_order_relaxed),
                  kMaxRings);
}

std::size_t FlightRecorder::snapshot(std::vector<FlightEventView>& out) {
  out.clear();
  for (std::size_t r = 0; r < ring_count(); ++r) {
    const Ring* ring = registry().rings[r].load(std::memory_order_acquire);
    if (ring) collect_ring(*ring, out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEventView& x, const FlightEventView& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return out.size();
}

void FlightRecorder::write_json(std::ostream& os) {
  std::vector<FlightEventView> events;
  snapshot(events);
  os << "{\"flight\":[";
  bool first = true;
  for (const auto& e : events) {
    os << (first ? "\n  {" : ",\n  {");
    first = false;
    os << "\"ts_ns\":" << e.ts_ns << ",\"kind\":\"" << to_string(e.kind)
       << "\",\"rank\":" << e.rank;
    if (e.trace_id != 0) {
      char hex[17];
      hex[fmt_hex(hex, e.trace_id)] = '\0';
      os << ",\"trace\":\"" << hex << "\"";
    }
    if (e.label) {
      os << ",\"label\":\"";
      for (const char* s = e.label; *s; ++s) {
        if (*s == '"' || *s == '\\') os << '\\';
        os << *s;
      }
      os << "\"";
    }
    os << ",\"a\":" << e.a << ",\"b\":" << e.b << '}';
  }
  os << "\n]}\n";
}

bool FlightRecorder::write_json_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

void FlightRecorder::clear() {
  for (std::size_t r = 0; r < ring_count(); ++r) {
    Ring* ring = registry().rings[r].load(std::memory_order_acquire);
    if (ring) ring->head.store(0, std::memory_order_release);
  }
  registry().recorded.store(0, std::memory_order_relaxed);
}

void FlightRecorder::install_crash_handler(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), sizeof g_crash_path - 1);
  g_crash_path[sizeof g_crash_path - 1] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  for (std::size_t i = 0; i < sizeof kCrashSignals / sizeof kCrashSignals[0];
       ++i)
    ::sigaction(kCrashSignals[i], &sa, &g_previous[i]);
}

}  // namespace mdm::obs
