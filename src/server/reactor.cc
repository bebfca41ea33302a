#include "server/reactor.h"

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "replication/epoch_frontier.h"
#include "util/metrics.h"

namespace livegraph {

namespace {

/// Epoll cookie reserved for the reactor's eventfd doorbell; connection
/// ids start above it.
constexpr uint64_t kWakeCookie = 0;

/// Per-wakeup read budget: one greedy connection cannot starve the rest
/// of the loop (level-triggered epoll re-reports whatever it left).
constexpr size_t kReadBudgetPerWakeup = 1u << 20;
constexpr size_t kReadChunk = 64u << 10;

/// Gathered-write fan: frames coalesced into one writev call.
constexpr int kMaxIov = 64;

/// Input buffer compaction threshold: consumed prefix worth a memmove.
constexpr size_t kCompactThreshold = 256u << 10;

metrics::Counter& WakeupsTotal() {
  static metrics::Counter& counter = metrics::Registry::Instance().GetCounter(
      "livegraph_server_reactor_wakeups_total");
  return counter;
}

metrics::Histogram& FramesPerWakeup() {
  static metrics::Histogram& histogram =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_server_frames_per_wakeup", metrics::Unit::kCount);
  return histogram;
}

metrics::Histogram& PendingWriteBytes() {
  static metrics::Histogram& histogram =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_server_pending_write_bytes", metrics::Unit::kBytes);
  return histogram;
}

metrics::Counter& IdleClosedTotal() {
  static metrics::Counter& counter = metrics::Registry::Instance().GetCounter(
      "livegraph_server_idle_closed_total");
  return counter;
}

}  // namespace

/// What a worker task will do — and, crucially, which pool lane it may
/// run in (see ReactorWorkerPool).
enum class TaskKind : uint8_t {
  kCommit,    // releases the transaction's locks; bounded by group commit
  kEpochWait, // may block for the client's full timeout (seconds)
  kMutation,  // may futex-wait on a vertex lock another task will release
};

/// A blocking operation in flight on the worker pool, and its result on
/// the way back to the owning reactor.
struct AsyncTask {
  Reactor* reactor = nullptr;
  uint64_t conn_id = 0;
  TaskKind kind = TaskKind::kCommit;
  std::unique_ptr<StoreTxn> txn;               // kCommit
  ServerSession::PendingMutation mutation;     // kMutation (owns its txn)
  EpochFrontier* frontier = nullptr;           // kEpochWait
  int64_t min_epoch = 0;
  int64_t timeout_ms = 0;
};

struct AsyncCompletion {
  uint64_t conn_id = 0;
  TaskKind kind = TaskKind::kCommit;
  StatusOr<timestamp_t> committed{Status::kUnavailable};
  bool covered = false;
  ServerSession::PendingMutation mutation;     // kMutation (txn rides back)
  ServerSession::MutationResult result;
};

/// The shared blocking-work pool, split into two lanes:
///
///   release lane  commits — the tasks that RELEASE vertex locks. Their
///                 only wait is group-commit durability, which the WAL
///                 thread always resolves.
///   acquire lane  mutations and epoch waits — tasks that may BLOCK for a
///                 long bound (a contended vertex lock, a frontier
///                 timeout).
///
/// The split is a deadlock-shaped requirement, not a tuning choice: a
/// mutation blocked on a vertex lock is waiting, transitively, for some
/// holder's commit to run. If that commit could queue behind blocked
/// mutations (one shared lane), every worker could end up waiting for a
/// release that none of them will ever execute, and all of them would ride
/// their waits to the full timeout. With commits in their own lane the
/// release is always schedulable, so contended waits resolve in
/// microseconds instead.
///
/// Stop() drains both lanes before joining: every handed-off transaction
/// runs to completion (its client may be gone, but its locks and epoch
/// must not leak).
class ReactorWorkerPool {
 public:
  explicit ReactorWorkerPool(int workers) : workers_(workers) {}
  ~ReactorWorkerPool() { Stop(); }

  void Start() {
    for (int i = 0; i < workers_; ++i) {
      threads_.emplace_back([this] { Run(&release_queue_, &release_cv_); });
      threads_.emplace_back([this] { Run(&acquire_queue_, &acquire_cv_); });
    }
  }

  void Submit(AsyncTask task) {
    const bool release = task.kind == TaskKind::kCommit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      (release ? release_queue_ : acquire_queue_).push_back(std::move(task));
    }
    (release ? release_cv_ : acquire_cv_).notify_one();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    release_cv_.notify_all();
    acquire_cv_.notify_all();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  void Run(std::deque<AsyncTask>* queue, std::condition_variable* cv);
  static void Execute(AsyncTask task);

  int workers_;
  std::mutex mu_;
  std::condition_variable release_cv_;
  std::condition_variable acquire_cv_;
  std::deque<AsyncTask> release_queue_;
  std::deque<AsyncTask> acquire_queue_;
  bool stopped_ = false;
  std::vector<std::thread> threads_;
};

/// One event-loop thread: an epoll instance, an eventfd doorbell, and the
/// connections the acceptor assigned here. Everything per-connection is
/// touched only from this thread; the doorbell paths (new sockets, worker
/// completions) go through small mutex-guarded hand-off queues.
class Reactor {
 public:
  Reactor(const ReactorGroup::Options& options,
          const ReactorGroup::AdoptFn* adopt, ReactorWorkerPool* workers,
          int index)
      : options_(options),
        adopt_(adopt),
        workers_(workers),
        conn_gauge_(metrics::Registry::Instance().GetGauge(
            "livegraph_server_reactor_connections{reactor=\"" +
            std::to_string(index) + "\"}")) {}

  ~Reactor() {
    Join();
    // Completions posted after the loop exited were parked here; any
    // mutation transactions they carry still hold locks.
    for (AsyncCompletion& completion : completions_) {
      ReleaseOrphanMutation(&completion);
    }
  }

  bool Start() {
    if (!epoll_.valid() || !wake_.valid()) return false;
    if (!epoll_.Add(wake_.fd(), Epoll::kRead, kWakeCookie)) return false;
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { Run(); });
    return true;
  }

  void RequestStop() {
    running_.store(false, std::memory_order_release);
    wake_.Signal();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor hand-off (any thread).
  void Enqueue(Socket socket) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(std::move(socket));
    }
    wake_.Signal();
  }

  /// Worker-pool hand-back (any thread).
  void PostCompletion(AsyncCompletion completion) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    wake_.Signal();
  }

  size_t active() const { return active_.load(std::memory_order_relaxed); }

 private:
  struct Conn {
    uint64_t id = 0;
    Socket socket;
    ServerSession session;
    /// Input: raw bytes [in_off, in_len) of `in` are unparsed.
    std::string in;
    size_t in_off = 0;
    size_t in_len = 0;
    /// Output: the session's reply queue, flushed by FlushConn.
    ServerSession::Sink out;
    /// Currently registered epoll interest bits.
    uint32_t interest = Epoll::kRead;
    enum class Wait : uint8_t { kNone, kCommit, kEpoch, kMutation };
    Wait wait = Wait::kNone;
    bool eof = false;
    bool closing = false;
    bool adopting = false;
    /// Mirrored into the reactor's write_conns_ aggregate (the
    /// mutation-offload hint): true while this connection holds >= 1 open
    /// write transaction.
    bool counted_write = false;
    Frame frame;
    uint64_t last_activity_ns = 0;

    Conn(uint64_t conn_id, Socket s, const ServerSession::Config& config,
         size_t high_water)
        : id(conn_id),
          socket(std::move(s)),
          session(config),
          out(high_water) {}

    /// An async op or parked scan owns the reply stream: no new frames
    /// may dispatch until it completes (replies are in request order).
    bool blocked() const {
      return wait != Wait::kNone || session.scan_paused();
    }
  };

  void Run() {
    std::vector<Epoll::Event> events;
    while (running_.load(std::memory_order_acquire)) {
      epoll_.Wait(SweepIntervalMs(), &events);
      WakeupsTotal().Add();
      uint64_t frames = 0;
      bool woken = false;
      for (const Epoll::Event& event : events) {
        if (event.data == kWakeCookie) {
          woken = true;
          continue;
        }
        auto it = conns_.find(event.data);
        if (it == conns_.end()) continue;  // closed earlier this round
        Conn* conn = it->second.get();
        if (event.readable) ReadInto(conn);
        PostProcess(conn, &frames);
      }
      if (woken) {
        wake_.Drain();
        AdoptPendingSockets();
        DrainCompletions(&frames);
      }
      if (!events.empty()) FramesPerWakeup().Record(frames);
      Sweep();
    }
    ShutdownAll();
  }

  /// Epoll timeout: bounded only when a periodic sweep has work to do.
  int SweepIntervalMs() const {
    if (conns_.empty()) return -1;
    if (options_.idle_timeout_ms <= 0 &&
        options_.write_stall_timeout_ms <= 0) {
      return -1;
    }
    int64_t interval = options_.idle_timeout_ms > 0
                           ? options_.idle_timeout_ms / 2
                           : options_.write_stall_timeout_ms / 2;
    if (interval < 10) interval = 10;
    if (interval > 1000) interval = 1000;
    return static_cast<int>(interval);
  }

  /// Drains the socket into the connection's input buffer (bounded per
  /// wakeup). EOF and errors mark the connection; frames already buffered
  /// are still served before the close (a half-closing client gets its
  /// replies).
  void ReadInto(Conn* conn) {
    if (conn->closing) return;
    size_t budget = kReadBudgetPerWakeup;
    while (budget > 0) {
      if (conn->in.size() - conn->in_len < kReadChunk) {
        size_t grown = conn->in.size() == 0 ? kReadChunk
                                            : conn->in.size() * 2;
        conn->in.resize(grown);
      }
      size_t want = conn->in.size() - conn->in_len;
      if (want > budget) want = budget;
      int64_t n =
          conn->socket.ReadNonBlocking(&conn->in[conn->in_len], want);
      if (n == Socket::kWouldBlock) break;
      if (n == 0) {
        conn->eof = true;
        break;
      }
      if (n < 0) {
        conn->closing = true;
        break;
      }
      conn->in_len += static_cast<size_t>(n);
      budget -= static_cast<size_t>(n);
      conn->last_activity_ns = metrics::MonotonicNanos();
      if (static_cast<size_t>(n) < want) break;  // socket drained
    }
  }

  /// Dispatches every complete buffered frame, stopping at backpressure,
  /// an async hand-off, a parked scan, or a protocol violation.
  void ProcessFrames(Conn* conn, uint64_t* frames) {
    while (!conn->closing && !conn->adopting && !conn->blocked() &&
           !conn->out.throttled()) {
      size_t avail = conn->in_len - conn->in_off;
      if (avail < kFrameHeaderSize) break;
      char header[kFrameHeaderSize];
      std::memcpy(header, conn->in.data() + conn->in_off, kFrameHeaderSize);
      uint32_t body_size;
      if (!DecodeFrameHeader(header, &conn->frame.type, &conn->frame.flags,
                             &body_size)) {
        conn->closing = true;
        break;
      }
      if (avail < kFrameHeaderSize + body_size) break;
      conn->frame.body.assign(
          conn->in.data() + conn->in_off + kFrameHeaderSize, body_size);
      if (!ValidateFrame(header, conn->frame.body)) {
        conn->closing = true;
        break;
      }
      conn->in_off += kFrameHeaderSize + body_size;
      ++*frames;
      // Mutations must offload only when ANOTHER connection on this loop
      // holds a write transaction (a potential vertex-lock holder whose
      // releasing Commit this loop must stay live to dispatch); otherwise
      // the inline lock acquisition cannot wait on anything this loop
      // serves, and the worker round trip is skipped. Re-derived per
      // frame: a pipelined batch can open and close transactions as it
      // drains.
      conn->session.set_offload_mutations(
          write_conns_ > (conn->counted_write ? 1u : 0u));
      ServerSession::Outcome outcome =
          conn->session.Handle(conn->frame, &conn->out);
      SyncWriteCount(conn);
      switch (outcome) {
        case ServerSession::Outcome::kDone:
          break;
        case ServerSession::Outcome::kClose:
          conn->closing = true;
          break;
        case ServerSession::Outcome::kScanPaused:
          break;  // blocked() is now true; resume on output drain
        case ServerSession::Outcome::kCommitAsync:
          SubmitCommit(conn);
          break;
        case ServerSession::Outcome::kWaitAsync:
          SubmitEpochWait(conn);
          break;
        case ServerSession::Outcome::kMutateAsync:
          SubmitMutation(conn);
          break;
        case ServerSession::Outcome::kSubscribe:
          conn->adopting = true;  // conn->frame is the kSubscribe frame
          break;
      }
    }
    // Reclaim the consumed prefix once it is worth a memmove.
    if (conn->in_off == conn->in_len) {
      conn->in_off = 0;
      conn->in_len = 0;
    } else if (conn->in_off >= kCompactThreshold) {
      std::memmove(&conn->in[0], conn->in.data() + conn->in_off,
                   conn->in_len - conn->in_off);
      conn->in_len -= conn->in_off;
      conn->in_off = 0;
    }
  }

  /// Writes as much queued output as the socket accepts, one writev per
  /// iov-full. Short writes keep their queue position; EPOLLOUT retries.
  void FlushConn(Conn* conn) {
    if (conn->closing || conn->out.empty()) return;
    PendingWriteBytes().Record(conn->out.bytes());
    while (!conn->out.empty()) {
      struct iovec iov[kMaxIov];
      int count = conn->out.Gather(iov, kMaxIov);
      int64_t n = conn->socket.WritevNonBlocking(iov, count);
      if (n == Socket::kWouldBlock) return;
      if (n < 0) {
        conn->closing = true;
        return;
      }
      conn->out.Consume(static_cast<size_t>(n));
    }
  }

  /// Alternates dispatch and flush until the connection can make no more
  /// progress this round: input exhausted, output throttled, an async op
  /// pending, or teardown.
  void Drive(Conn* conn, uint64_t* frames) {
    while (!conn->closing && !conn->adopting) {
      if (!conn->blocked()) ProcessFrames(conn, frames);
      FlushConn(conn);
      if (conn->closing || conn->adopting) break;
      bool resume_scan = conn->session.scan_paused() &&
                         conn->wait == Conn::Wait::kNone &&
                         conn->out.bytes() <= options_.write_low_water;
      if (!resume_scan) break;
      if (conn->session.ResumeScan(&conn->out) ==
          ServerSession::Outcome::kClose) {
        conn->closing = true;
      }
    }
  }

  void PostProcess(Conn* conn, uint64_t* frames) {
    Drive(conn, frames);
    if (conn->adopting) {
      AdoptSubscription(conn);
      return;
    }
    if (conn->eof && !conn->blocked() && conn->out.empty()) {
      // Every frame the peer managed to send has been served and every
      // reply flushed; nothing further can arrive.
      conn->closing = true;
    }
    if (conn->closing) {
      CloseConn(conn);
      return;
    }
    UpdateInterest(conn);
  }

  void UpdateInterest(Conn* conn) {
    uint32_t want = 0;
    if (!conn->blocked() && !conn->out.throttled() && !conn->eof) {
      want |= Epoll::kRead;
    }
    if (!conn->out.empty()) want |= Epoll::kWrite;
    if (want != conn->interest) {
      epoll_.Mod(conn->socket.fd(), want, conn->id);
      conn->interest = want;
    }
  }

  void SubmitCommit(Conn* conn) {
    conn->wait = Conn::Wait::kCommit;
    AsyncTask task;
    task.reactor = this;
    task.conn_id = conn->id;
    task.kind = TaskKind::kCommit;
    task.txn = conn->session.TakePendingCommit().txn;
    workers_->Submit(std::move(task));
  }

  void SubmitEpochWait(Conn* conn) {
    conn->wait = Conn::Wait::kEpoch;
    const ServerSession::PendingWait& wait = conn->session.pending_wait();
    AsyncTask task;
    task.reactor = this;
    task.conn_id = conn->id;
    task.kind = TaskKind::kEpochWait;
    task.frontier = options_.session.frontier;
    task.min_epoch = wait.min_epoch;
    task.timeout_ms = static_cast<int64_t>(wait.timeout_ms);
    workers_->Submit(std::move(task));
  }

  void SubmitMutation(Conn* conn) {
    conn->wait = Conn::Wait::kMutation;
    AsyncTask task;
    task.reactor = this;
    task.conn_id = conn->id;
    task.kind = TaskKind::kMutation;
    task.mutation = conn->session.TakePendingMutation();
    workers_->Submit(std::move(task));
  }

  void AdoptPendingSockets() {
    std::vector<Socket> sockets;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      sockets.swap(pending_);
    }
    for (Socket& socket : sockets) {
      if (!socket.SetNonBlocking(true)) continue;
      uint64_t id = next_id_++;
      auto conn = std::make_unique<Conn>(id, std::move(socket),
                                         options_.session,
                                         options_.write_high_water);
      conn->last_activity_ns = metrics::MonotonicNanos();
      if (!epoll_.Add(conn->socket.fd(), Epoll::kRead, id)) continue;
      conns_.emplace(id, std::move(conn));
    }
    NoteConnCount();
  }

  void DrainCompletions(uint64_t* frames) {
    std::vector<AsyncCompletion> completions;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions.swap(completions_);
    }
    for (AsyncCompletion& completion : completions) {
      auto it = conns_.find(completion.conn_id);
      if (it == conns_.end()) {
        // Connection died while waiting. A mutation's transaction rides in
        // the completion: re-attach so its abort releases on this thread.
        ReleaseOrphanMutation(&completion);
        continue;
      }
      Conn* conn = it->second.get();
      conn->wait = Conn::Wait::kNone;
      ServerSession::Sink* sink = &conn->out;
      ServerSession::Outcome outcome = ServerSession::Outcome::kClose;
      switch (completion.kind) {
        case TaskKind::kCommit:
          outcome = conn->session.FinishCommit(
              std::move(completion.committed), sink);
          break;
        case TaskKind::kEpochWait:
          outcome = conn->session.FinishEpochWait(completion.covered, sink);
          break;
        case TaskKind::kMutation:
          outcome = conn->session.FinishMutation(
              std::move(completion.mutation), completion.result, sink);
          break;
      }
      if (outcome == ServerSession::Outcome::kClose) conn->closing = true;
      SyncWriteCount(conn);
      PostProcess(conn, frames);
    }
  }

  /// Hands the socket (blocking again, queued output flushed) plus the
  /// kSubscribe frame to the owner's adoption callback; the replication
  /// push stream runs on a dedicated thread from here on.
  void AdoptSubscription(Conn* conn) {
    if (conn->counted_write) --write_conns_;
    epoll_.Del(conn->socket.fd());
    Socket socket = std::move(conn->socket);
    Frame frame = std::move(conn->frame);
    // The send deadline bounds this flush and every push-stream write, so
    // a follower that stops draining fails them instead of wedging.
    bool ok = socket.SetNonBlocking(false);
    socket.SetSendTimeout(options_.write_stall_timeout_ms);
    struct iovec iov;
    while (ok && conn->out.Gather(&iov, 1) == 1) {
      ok = socket.WriteFull(iov.iov_base, iov.iov_len);
      conn->out.Consume(iov.iov_len);
    }
    conns_.erase(conn->id);
    NoteConnCount();
    if (ok && adopt_ != nullptr && *adopt_) {
      (*adopt_)(std::move(socket), std::move(frame));
    }
  }

  /// Folds the connection's open-write-transaction state into the loop
  /// aggregate backing the mutation-offload hint.
  void SyncWriteCount(Conn* conn) {
    const bool has = conn->session.open_write_txns() > 0;
    if (has == conn->counted_write) return;
    if (has) {
      ++write_conns_;
    } else {
      --write_conns_;
    }
    conn->counted_write = has;
  }

  /// Destroys a completion's orphaned mutation transaction (its
  /// connection is gone): attach first so the abort's lock releases are
  /// accounted to this thread.
  static void ReleaseOrphanMutation(AsyncCompletion* completion) {
    if (completion->mutation.txn == nullptr) return;
    completion->mutation.txn->AttachToThread();
    completion->mutation.txn.reset();
  }

  void CloseConn(Conn* conn) {
    if (conn->counted_write) --write_conns_;
    epoll_.Del(conn->socket.fd());
    conns_.erase(conn->id);  // Socket closes; session aborts open txns
    NoteConnCount();
  }

  /// Periodic policing: idle clients (silent past the deadline) and dead
  /// weight (queued output making no progress — the peer stopped
  /// draining). Both classes abort their open transactions on close, so
  /// they cannot pin epochs or hold locks forever.
  void Sweep() {
    if (options_.idle_timeout_ms <= 0 &&
        options_.write_stall_timeout_ms <= 0) {
      return;
    }
    const uint64_t now = metrics::MonotonicNanos();
    std::vector<uint64_t> doomed;
    for (auto& [id, conn] : conns_) {
      if (options_.idle_timeout_ms > 0 && conn->out.empty() &&
          !conn->blocked() &&
          now - conn->last_activity_ns >
              static_cast<uint64_t>(options_.idle_timeout_ms) * 1'000'000) {
        IdleClosedTotal().Add();
        doomed.push_back(id);
        continue;
      }
      if (options_.write_stall_timeout_ms > 0 &&
          conn->out.last_progress_ns() != 0 &&
          now - conn->out.last_progress_ns() >
              static_cast<uint64_t>(options_.write_stall_timeout_ms) *
                  1'000'000) {
        doomed.push_back(id);
      }
    }
    for (uint64_t id : doomed) {
      auto it = conns_.find(id);
      if (it != conns_.end()) CloseConn(it->second.get());
    }
  }

  /// Loop exit: best-effort flush of queued replies, then teardown. Open
  /// transactions abort in the session destructors.
  void ShutdownAll() {
    for (auto& [id, conn] : conns_) {
      FlushConn(conn.get());
      conn->socket.Shutdown();
    }
    conns_.clear();
    write_conns_ = 0;
    NoteConnCount();
  }

  void NoteConnCount() {
    active_.store(conns_.size(), std::memory_order_relaxed);
    conn_gauge_.Set(static_cast<int64_t>(conns_.size()));
  }

  const ReactorGroup::Options& options_;
  const ReactorGroup::AdoptFn* adopt_;
  ReactorWorkerPool* workers_;
  metrics::Gauge& conn_gauge_;

  Epoll epoll_;
  EventFd wake_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> active_{0};

  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  /// Connections holding >= 1 open write transaction (offload hint).
  size_t write_conns_ = 0;

  std::mutex pending_mu_;
  std::vector<Socket> pending_;

  std::mutex completions_mu_;
  std::vector<AsyncCompletion> completions_;
};

void ReactorWorkerPool::Run(std::deque<AsyncTask>* queue,
                            std::condition_variable* cv) {
  while (true) {
    AsyncTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv->wait(lock, [&] { return stopped_ || !queue->empty(); });
      // Drain before exiting: a handed-off transaction must run (or the
      // epoch frontier could wedge on its acquired epoch).
      if (queue->empty()) return;
      task = std::move(queue->front());
      queue->pop_front();
    }
    Execute(std::move(task));
  }
}

void ReactorWorkerPool::Execute(AsyncTask task) {
  AsyncCompletion done;
  done.conn_id = task.conn_id;
  done.kind = task.kind;
  switch (task.kind) {
    case TaskKind::kCommit:
      task.txn->AttachToThread();
      done.committed = task.txn->Commit();
      task.txn.reset();
      break;
    case TaskKind::kEpochWait:
      done.covered =
          task.frontier->WaitCovered(task.min_epoch, task.timeout_ms);
      break;
    case TaskKind::kMutation:
      task.mutation.txn->AttachToThread();
      done.result =
          ServerSession::ExecuteMutation(*task.mutation.txn, task.mutation);
      task.mutation.txn->DetachFromThread();
      done.mutation = std::move(task.mutation);
      break;
  }
  task.reactor->PostCompletion(std::move(done));
}

ReactorGroup::ReactorGroup(Options options, AdoptFn adopt)
    : options_(std::move(options)), adopt_(std::move(adopt)) {}

ReactorGroup::~ReactorGroup() { Stop(); }

bool ReactorGroup::Start() {
  if (running_) return true;
  int reactors = options_.reactors < 1 ? 1 : options_.reactors;
  int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_ = std::make_unique<ReactorWorkerPool>(workers);
  workers_->Start();
  for (int i = 0; i < reactors; ++i) {
    reactors_.push_back(
        std::make_unique<Reactor>(options_, &adopt_, workers_.get(), i));
    if (!reactors_.back()->Start()) {
      Stop();
      return false;
    }
  }
  running_ = true;
  return true;
}

void ReactorGroup::Stop() {
  // Loops first: they stop submitting new work, close their connections,
  // and exit. The pool then drains — completions posted to stopped
  // reactors are parked harmlessly until destruction. The Reactor objects
  // themselves stay alive (threads joined, zero connections) so that
  // concurrent active_connections() readers never race their teardown.
  for (auto& reactor : reactors_) reactor->RequestStop();
  for (auto& reactor : reactors_) reactor->Join();
  if (workers_ != nullptr) workers_->Stop();
  running_ = false;
}

void ReactorGroup::AddConnection(Socket socket) {
  if (reactors_.empty()) return;
  reactors_[next_reactor_++ % reactors_.size()]->Enqueue(std::move(socket));
}

size_t ReactorGroup::active_connections() const {
  size_t total = 0;
  for (const auto& reactor : reactors_) total += reactor->active();
  return total;
}

}  // namespace livegraph
