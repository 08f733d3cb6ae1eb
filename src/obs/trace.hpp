// Structured tracing for the verification engines (DESIGN.md §3.5).
//
// Every engine run can emit *spans* (named, nested time intervals: a BFS
// level, an OWCTY trim round, a BDD garbage collection, a BMC depth) and
// *counters* (sampled values: frontier size, live BDD nodes, RSS). Events
// land in thread-local lock-free buffers owned by the emitting thread and
// are drained only after that thread has quiesced (the engines' barrier /
// join points), so instrumenting the parallel engines costs no shared-state
// synchronization on the hot path.
//
// Cost model: tracing is compiled in unconditionally but *disabled* by
// default. The disabled path is a single relaxed atomic load per
// instrumentation point (Span construction, counter emission); an
// interleaved A/B comparison against the rebuilt pre-instrumentation
// commit put the overhead on the fig6/safety/n5 exhaustive run below the
// measurement noise floor (EXPERIMENTS.md "observability overhead").
// When enabled, an append is a clock read plus a bump of the owning
// thread's chunk cursor — no locks, no allocation except a new 64KiB
// chunk every 1024 events.
//
// Thread-safety contract (the "drain at barriers" design):
//  * install()/uninstall() must run while no instrumented code executes on
//    other threads (engines are quiescent between runs).
//  * Span/counter emission may happen concurrently from any number of
//    threads; each thread appends only to its own buffer.
//  * drain() may run concurrently with emission (chunk cursors are
//    published with release/acquire), but a coherent *complete* snapshot is
//    only guaranteed after the emitting threads joined — which is when the
//    exporters run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tt::obs {

/// Sentinel for "span carries no integer argument".
inline constexpr std::int64_t kNoArg = INT64_MIN;

/// What a TraceEvent records. kSpan is a closed interval [ts, ts+dur];
/// kCounter samples a value at ts; kInstant marks a point in time.
enum class EventKind : std::uint8_t {
  kSpan,
  kCounter,
  kInstant,
};

/// One trace event. `name`, `arg_name` and `detail` must point to
/// static-storage strings (string literals or constexpr to_string results):
/// the buffers store the pointers, not copies, so emission never allocates.
/// Times are nanoseconds since the owning Tracer's epoch (its install()).
struct TraceEvent {
  const char* name = nullptr;     ///< event name (static storage)
  const char* detail = nullptr;   ///< optional free-form label (static storage)
  const char* arg_name = nullptr; ///< name of `arg` when != kNoArg
  std::uint64_t ts_ns = 0;        ///< start time, ns since tracer epoch
  std::uint64_t dur_ns = 0;       ///< span duration in ns (0 otherwise)
  std::int64_t arg = kNoArg;      ///< optional integer argument
  double value = 0.0;             ///< counter value (kCounter only)
  EventKind kind = EventKind::kInstant;
};

namespace detail {

/// A single thread's event buffer: a linked list of fixed-size chunks.
/// Appends (owner thread only) write the slot then publish it by bumping
/// `count` with release order; readers acquire `count` and may touch only
/// slots below it — the SPMC publication that keeps drain() TSan-clean.
class ThreadBuffer {
 public:
  static constexpr std::size_t kChunkCap = 1024;

  explicit ThreadBuffer(std::uint32_t tid) : tid_(tid) {
    head_ = tail_ = new Chunk();
  }
  ThreadBuffer(const ThreadBuffer&) = delete;
  ThreadBuffer& operator=(const ThreadBuffer&) = delete;
  ~ThreadBuffer() {
    for (Chunk* c = head_; c != nullptr;) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  /// Owner-thread-only append.
  void push(const TraceEvent& e) {
    Chunk* t = tail_;
    const std::uint32_t n = t->count.load(std::memory_order_relaxed);
    if (n == kChunkCap) {
      Chunk* fresh = new Chunk();
      fresh->events[0] = e;
      fresh->count.store(1, std::memory_order_release);
      t->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      return;
    }
    t->events[n] = e;
    t->count.store(n + 1, std::memory_order_release);
  }

  /// Copies every published event, in append order, into `out`.
  void snapshot(std::vector<TraceEvent>& out) const {
    for (const Chunk* c = head_; c != nullptr;
         c = c->next.load(std::memory_order_acquire)) {
      const std::uint32_t n = c->count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i) out.push_back(c->events[i]);
    }
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

 private:
  struct Chunk {
    TraceEvent events[kChunkCap];
    std::atomic<std::uint32_t> count{0};
    std::atomic<Chunk*> next{nullptr};
  };
  Chunk* head_;
  Chunk* tail_;  // owner thread only
  std::uint32_t tid_;
};

/// Monotonic clock read in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;

}  // namespace detail

/// Per-thread slice of a drained trace.
struct ThreadEvents {
  std::uint32_t tid = 0;               ///< dense tracer-assigned thread id
  std::vector<TraceEvent> events;      ///< append order (= per-thread time order)
};

/// Collects events from every thread that emitted while this tracer was
/// installed. One Tracer per capture session; create a fresh one per run
/// (installation is cheap). All methods are safe to call from the thread
/// that owns the tracer; see the header comment for the concurrency rules.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  /// Uninstalls automatically if still installed (quiescence required).
  ~Tracer();

  /// Makes this the process-wide active tracer and enables event emission.
  /// The tracer epoch (ts_ns == 0) is the moment of installation. The
  /// installing thread is registered first, so it always owns tid 0 (the
  /// "coordinator" lane in the Chrome export).
  void install();
  /// Stops emission. Events already buffered remain drainable.
  void uninstall();

  /// True while this tracer is installed.
  [[nodiscard]] bool installed() const noexcept;

  /// Nanoseconds since this tracer's epoch (0 when never installed).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Snapshots every thread's published events. Complete only after the
  /// emitting threads joined/quiesced; cheap enough to call repeatedly.
  [[nodiscard]] std::vector<ThreadEvents> drain() const;

  /// Total events drained across threads (convenience for tests).
  [[nodiscard]] std::size_t event_count() const;

 private:
  friend detail::ThreadBuffer* registered_buffer();

  detail::ThreadBuffer* register_thread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
  std::uint64_t epoch_ns_ = 0;
  // Installation generation, assigned in install() *before* this tracer is
  // published. Threads compare it against their thread-local copy to decide
  // whether their cached buffer pointer belongs to this capture session;
  // keeping it inside the Tracer means buffer and generation are always
  // read from the same object (no torn pairing across sessions).
  std::uint64_t generation_ = 0;
};

/// True when a tracer is installed and emitting. One relaxed atomic load —
/// this is the whole cost of every instrumentation point while disabled.
[[nodiscard]] bool enabled() noexcept;

/// Nanoseconds since the active tracer's epoch; 0 when tracing is disabled.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Emits a closed span [start_ns, end_ns] on the calling thread's buffer.
/// No-op when disabled. Strings must have static storage (see TraceEvent).
void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
               std::int64_t arg = kNoArg, const char* arg_name = nullptr,
               const char* detail = nullptr);

/// Samples a counter value at the current time. No-op when disabled.
void emit_counter(const char* name, double value);

/// Marks an instantaneous event. No-op when disabled.
void emit_instant(const char* name, const char* detail = nullptr);

/// RAII span: times its own scope. Construction checks enabled() once; a
/// disabled Span costs one relaxed load and nothing at destruction.
/// Not thread-safe (stack object, used by one thread), like a Timer.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (enabled()) start_ns_ = now_ns() + 1;  // +1: reserve 0 as "disarmed"
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (start_ns_ != 0) {
      emit_span(name_, start_ns_ - 1, now_ns(), arg_, arg_name_, detail_);
    }
  }

  /// Attaches an integer argument (e.g. a depth or round number) rendered
  /// into the Chrome trace "args" object. Call any time before destruction.
  /// A span holds one argument and a later call replaces it; a run's
  /// counters go to the trace as counter samples (mc::trace_counters).
  void set_arg(const char* arg_name, std::int64_t value) noexcept {
    arg_name_ = arg_name;
    arg_ = value;
  }
  /// Attaches a static-storage free-form label.
  void set_detail(const char* detail) noexcept { detail_ = detail; }

 private:
  const char* name_;
  const char* detail_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = kNoArg;
  std::uint64_t start_ns_ = 0;  // 0 = disarmed (tracing was off at entry)
};

/// Manually opened/closed span for phases whose boundaries do not nest with
/// C++ scopes (e.g. "the BFS level ends where the next one begins").
/// begin() on an already-open span first closes the open one.
class ManualSpan {
 public:
  ManualSpan() = default;
  ManualSpan(const ManualSpan&) = delete;
  ManualSpan& operator=(const ManualSpan&) = delete;
  ~ManualSpan() { end(); }

  void begin(const char* name, std::int64_t arg = kNoArg,
             const char* arg_name = nullptr) {
    end();
    if (enabled()) {
      name_ = name;
      arg_ = arg;
      arg_name_ = arg_name;
      start_ns_ = now_ns() + 1;
    }
  }
  void end() {
    if (start_ns_ != 0) {
      emit_span(name_, start_ns_ - 1, now_ns(), arg_, arg_name_);
      start_ns_ = 0;
    }
  }

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = kNoArg;
  std::uint64_t start_ns_ = 0;
};

}  // namespace tt::obs
