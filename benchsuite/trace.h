// Bench-side tracing for the traced run of bench_suite (README.md "Reading
// a trace"). Spans are recorded from outside the program, around calls
// into its public layers: TracedStore decorates Store/StoreTxn/StoreReadTxn,
// and the analytics rounds record spans around PageRank and ConnComp.
//
// Every span is folded into a per-thread latency histogram per span name,
// so per-layer means and p99s cover all traffic; the raw spans of one
// session in kSampleEvery are also kept, in the same per-thread memory,
// and written as JSONL once the run is over.
#ifndef LIVEGRAPH_BENCHSUITE_TRACE_H_
#define LIVEGRAPH_BENCHSUITE_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/store.h"
#include "util/histogram.h"

namespace livegraph::suite {

enum class SpanName : uint8_t {
  kSession,      // Begin call start .. inner session destroyed
  kBeginRead,
  kBeginTxn,
  kGetNode,
  kGetLink,
  kCountLinks,
  kScanLinks,    // ScanLinks call .. session teardown starts (cursor walk)
  kAddNode,
  kUpdateNode,
  kDeleteNode,
  kAddLink,
  kUpdateLink,
  kDeleteLink,
  kCommit,
  kAbort,
  kEnd,          // inner session destructor (remote: END_READ/ABORT reply)
  kSnapshot,     // analytics: open the read-only snapshot
  kPageRank,
  kConnComp,
  kCount,
};

inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

inline const char* SpanNameString(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames = {
      "session",     "begin_read",  "begin_txn",   "get_node",
      "get_link",    "count_links", "scan_links",  "add_node",
      "update_node", "delete_node", "add_link",    "update_link",
      "delete_link", "commit",      "abort",       "end",
      "snapshot",    "pagerank",    "conncomp"};
  return kNames[static_cast<size_t>(name)];
}

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-global span sink. Each thread writes only its own buffer;
/// buffers outlive their threads so the driver's short-lived client
/// threads can be merged after they are joined.
class Tracer {
 public:
  /// One session in this many keeps its raw spans for the JSONL file.
  static constexpr uint64_t kSampleEvery = 64;
  /// Bound on raw spans kept per thread.
  static constexpr size_t kMaxRawPerThread = 50'000;

  struct Span {
    SpanName name;
    uint64_t id;
    uint64_t parent;   // 0 for a root span
    uint64_t session;  // 0 outside a store session
    uint64_t start_ns;
    uint64_t end_ns;
  };

  struct Buffer {
    uint32_t thread = 0;
    uint64_t next_id = 0;
    uint64_t sessions = 0;
    std::array<LatencyHistogram, kSpanNames> stats;
    uint64_t conflicts = 0;
    uint64_t timeouts = 0;
    std::vector<Span> raw;
  };

  static Tracer& Instance() {
    static Tracer tracer;
    return tracer;
  }

  /// This thread's buffer, created on first use.
  Buffer& Local() {
    thread_local Buffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> guard(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
      local->thread = static_cast<uint32_t>(buffers_.size());
    }
    return *local;
  }

  /// A process-unique id: thread index in the high bits.
  uint64_t NewId() {
    Buffer& buffer = Local();
    return (uint64_t{buffer.thread} << 40) | ++buffer.next_id;
  }

  void Record(SpanName name, uint64_t id, uint64_t parent, uint64_t session,
              uint64_t start_ns, uint64_t end_ns, bool keep_raw) {
    Buffer& buffer = Local();
    buffer.stats[static_cast<size_t>(name)].Record(end_ns - start_ns);
    if (keep_raw && buffer.raw.size() < kMaxRawPerThread) {
      buffer.raw.push_back(Span{name, id, parent, session, start_ns, end_ns});
    }
  }

  void NoteStatus(Status status) {
    if (status == Status::kConflict) ++Local().conflicts;
    if (status == Status::kTimeout) ++Local().timeouts;
  }

  /// Merged view over every thread. Call only while no thread records.
  struct Totals {
    std::array<LatencyHistogram, kSpanNames> stats;
    uint64_t conflicts = 0;
    uint64_t timeouts = 0;
    const LatencyHistogram& operator[](SpanName name) const {
      return stats[static_cast<size_t>(name)];
    }
  };
  Totals Merge() const {
    std::lock_guard<std::mutex> guard(mu_);
    Totals totals;
    for (const auto& buffer : buffers_) {
      for (size_t i = 0; i < kSpanNames; ++i) {
        totals.stats[i].Merge(buffer->stats[i]);
      }
      totals.conflicts += buffer->conflicts;
      totals.timeouts += buffer->timeouts;
    }
    return totals;
  }

  /// Writes the kept raw spans as JSONL, times relative to the first
  /// span. Returns the number of lines written, or -1 on I/O failure.
  long WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> guard(mu_);
    uint64_t origin = UINT64_MAX;
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->raw) {
        origin = std::min(origin, span.start_ns);
      }
    }
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return -1;
    long lines = 0;
    for (const auto& buffer : buffers_) {
      for (const Span& span : buffer->raw) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"session\":%llu,\"thread\":%u,\"start_ns\":%llu,"
                     "\"end_ns\":%llu}\n",
                     SpanNameString(span.name),
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.session),
                     buffer->thread,
                     static_cast<unsigned long long>(span.start_ns - origin),
                     static_cast<unsigned long long>(span.end_ns - origin));
        ++lines;
      }
    }
    return std::fclose(out) == 0 ? lines : -1;
  }

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call as a child span of `session`.
class SpanScope {
 public:
  SpanScope(SpanName name, uint64_t session, bool keep_raw)
      : name_(name),
        session_(session),
        keep_raw_(keep_raw),
        start_(NowNanos()) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    Tracer& tracer = Tracer::Instance();
    tracer.Record(name_, keep_raw_ ? tracer.NewId() : 0, session_, session_,
                  start_, NowNanos(), keep_raw_);
  }

 private:
  SpanName name_;
  uint64_t session_;
  bool keep_raw_;
  uint64_t start_;
};

/// Shared body of the traced read and write sessions. The session span
/// opens when the Begin call starts and closes when the inner session has
/// been destroyed; every call through it is a child span.
template <typename Session>
class TracedSession : public Session {
 public:
  TracedSession(std::unique_ptr<Session> inner, uint64_t begin_start,
                uint64_t begin_end, SpanName begin_name)
      : inner_(std::move(inner)), start_(begin_start) {
    Tracer& tracer = Tracer::Instance();
    id_ = tracer.NewId();
    keep_raw_ = (++tracer.Local().sessions % Tracer::kSampleEvery) == 0;
    tracer.Record(begin_name, tracer.NewId(), id_, id_, begin_start,
                  begin_end, keep_raw_);
  }
  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  ~TracedSession() override {
    Tracer& tracer = Tracer::Instance();
    const uint64_t teardown = NowNanos();
    if (scan_start_ != 0) {
      tracer.Record(SpanName::kScanLinks, tracer.NewId(), id_, id_,
                    scan_start_, teardown, keep_raw_);
    }
    inner_.reset();
    const uint64_t end = NowNanos();
    tracer.Record(SpanName::kEnd, tracer.NewId(), id_, id_, teardown, end,
                  keep_raw_);
    tracer.Record(SpanName::kSession, id_, 0, id_, start_, end, keep_raw_);
  }

  StatusOr<std::string> GetNode(vertex_t id) override {
    SpanScope span(SpanName::kGetNode, id_, keep_raw_);
    return inner_->GetNode(id);
  }
  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    SpanScope span(SpanName::kGetLink, id_, keep_raw_);
    return inner_->GetLink(src, label, dst);
  }
  /// The cursor is the inner engine's own (never re-wrapped, which would
  /// switch a TEL cursor to chunked mode), so its walk is timed as the
  /// rest of the session.
  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    if (scan_start_ == 0) scan_start_ = NowNanos();
    return inner_->ScanLinks(src, label, limit);
  }
  size_t CountLinks(vertex_t src, label_t label) override {
    SpanScope span(SpanName::kCountLinks, id_, keep_raw_);
    return inner_->CountLinks(src, label);
  }
  vertex_t VertexCount() override { return inner_->VertexCount(); }
  Status SessionStatus() const override { return inner_->SessionStatus(); }

 protected:
  std::unique_ptr<Session> inner_;
  uint64_t id_ = 0;
  bool keep_raw_ = false;

 private:
  uint64_t start_;
  uint64_t scan_start_ = 0;
};

class TracedReadTxn final : public TracedSession<StoreReadTxn> {
 public:
  using TracedSession::TracedSession;
};

class TracedTxn final : public TracedSession<StoreTxn> {
 private:
  /// Runs `call` inside a span and counts conflict/timeout outcomes.
  template <typename Call>
  auto Note(SpanName name, const Call& call) {
    SpanScope span(name, id_, keep_raw_);
    auto result = call();
    if constexpr (std::is_same_v<decltype(result), Status>) {
      Tracer::Instance().NoteStatus(result);
    } else {
      Tracer::Instance().NoteStatus(result.status());
    }
    return result;
  }

 public:
  using TracedSession::TracedSession;

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    return Note(SpanName::kAddNode, [&] { return inner_->AddNode(data); });
  }
  Status UpdateNode(vertex_t id, std::string_view data) override {
    return Note(SpanName::kUpdateNode,
                [&] { return inner_->UpdateNode(id, data); });
  }
  Status DeleteNode(vertex_t id) override {
    return Note(SpanName::kDeleteNode, [&] { return inner_->DeleteNode(id); });
  }
  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    return Note(SpanName::kAddLink,
                [&] { return inner_->AddLink(src, label, dst, data); });
  }
  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    return Note(SpanName::kUpdateLink,
                [&] { return inner_->UpdateLink(src, label, dst, data); });
  }
  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    return Note(SpanName::kDeleteLink,
                [&] { return inner_->DeleteLink(src, label, dst); });
  }
  StatusOr<timestamp_t> Commit() override {
    return Note(SpanName::kCommit, [&] { return inner_->Commit(); });
  }
  void Abort() override {
    SpanScope span(SpanName::kAbort, id_, keep_raw_);
    inner_->Abort();
  }
  bool SupportsThreadHandoff() const override {
    return inner_->SupportsThreadHandoff();
  }
  void DetachFromThread() override { inner_->DetachFromThread(); }
  void AttachToThread() override { inner_->AttachToThread(); }
};

/// Store decorator that records a session span per Begin* plus a child
/// span per call.
class TracedStore final : public Store {
 public:
  explicit TracedStore(Store& inner) : inner_(inner) {}

  std::string Name() const override { return "traced/" + inner_.Name(); }
  StoreTraits Traits() const override { return inner_.Traits(); }

  std::unique_ptr<StoreTxn> BeginTxn() override {
    const uint64_t start = NowNanos();
    std::unique_ptr<StoreTxn> inner = inner_.BeginTxn();
    return std::make_unique<TracedTxn>(std::move(inner), start, NowNanos(),
                                       SpanName::kBeginTxn);
  }
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override {
    const uint64_t start = NowNanos();
    std::unique_ptr<StoreReadTxn> inner = inner_.BeginReadTxn();
    return std::make_unique<TracedReadTxn>(std::move(inner), start,
                                           NowNanos(), SpanName::kBeginRead);
  }

 private:
  Store& inner_;
};

}  // namespace livegraph::suite

#endif  // LIVEGRAPH_BENCHSUITE_TRACE_H_
