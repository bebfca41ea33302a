#include "core/commit_manager.h"

#include <unistd.h>

#include <thread>

#include "core/epoch_domain.h"
#include "core/graph.h"
#include "util/futex_lock.h"
#include "util/invariant.h"
#include "util/metrics.h"
#include "util/sync_annotations.h"

namespace livegraph {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// 1-in-16 gate for the formation-latency sample. Its own tick, so that it
/// never shifts the phase of the commit stages' SampleStageTiming() gate
/// on the same thread; forced on while slow-op tracing is armed, like it.
bool SampleFormation() {
  if (metrics::SlowOpRing::Instance().threshold_nanos() != 0) return true;
  thread_local uint32_t tick = 0;
  return (++tick & 15u) == 0;
}

}  // namespace

CommitManager::CommitManager(Graph* graph, Wal* wal, size_t max_batch)
    : graph_(graph),
      wal_(wal),
      max_batch_(max_batch == 0 ? 1 : max_batch),
      spin_iters_(sysconf(_SC_NPROCESSORS_ONLN) > 1 ? 256 : 0) {
  // Every concurrent committer holds a Graph worker slot, so max_workers
  // bounds the requests in flight; doubling that means a producer never
  // finds its ring slot still occupied (the invariant Enqueue checks).
  size_t ring_size =
      NextPow2(static_cast<size_t>(graph->options().max_workers) * 2);
  if (ring_size < 64) ring_size = 64;
  ring_mask_ = ring_size - 1;
  ring_ = std::vector<RingSlot>(ring_size);
  for (size_t i = 0; i < ring_size; ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
  batch_.reserve(max_batch_);
  records_.reserve(max_batch_);
  if (wal_ != nullptr && graph->options().fsync_wal) {
    flusher_ = std::thread([this] { FlusherMain(); });
  }
}

CommitManager::~CommitManager() {
  if (!flusher_.joinable()) return;
  // Every transaction is gone by now, so nothing is queued or led; the
  // flusher sleeps on flush_word_ or is about to.
  stopping_.store(true, std::memory_order_seq_cst);
  flush_word_.fetch_add(1, std::memory_order_seq_cst);
  FutexWakeAll(&flush_word_);
  flusher_.join();
}

void CommitManager::SetWake(std::function<void()> wake) {
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_ = std::move(wake);
}

void CommitManager::Enqueue(Request* req) {
  uint64_t pos = ring_tail_.fetch_add(1, std::memory_order_acq_rel);
  RingSlot& slot = ring_[pos & ring_mask_];
  // Nobody but a committing thread consumes the ring, so a producer that
  // waited here for a full ring to drain would wait forever. It never has
  // to: at most max_workers requests are in flight (each committer holds
  // a worker slot) and the ring has at least twice that many slots, so the
  // request one lap ahead was drained before this claim.
  LIVEGRAPH_DCHECK(slot.seq.load(std::memory_order_acquire) == pos,
                   "commit ring slot %llu not yet drained one lap later: "
                   "more requests in flight than the ring (sized past "
                   "max_workers * 2) holds",
                   static_cast<unsigned long long>(pos & ring_mask_));
  // Single-writer discipline: the leader nulled the slot in DrainRing
  // before recycling it; a non-null req here is two producers inside one
  // slot — ring corruption.
  LIVEGRAPH_DCHECK(slot.req == nullptr,
                   "commit ring slot %llu claimed while still occupied "
                   "(two producers in one slot)",
                   static_cast<unsigned long long>(pos & ring_mask_));
  slot.req = req;
  // Slot handoff edge: the request's fields (payload view, epoch inputs)
  // happen-before the leader's read of them — carried by the seq
  // release/acquire pair; annotated so TSan keeps the pair checkable.
  LIVEGRAPH_TSAN_RELEASE(&slot.seq);
  slot.seq.store(pos + 1, std::memory_order_release);
}

uint32_t CommitManager::DrainRing() {
  static metrics::Histogram& formation_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_formation_latency", metrics::Unit::kNanos);
  bool sampled = false;
  uint32_t parked = 0;
  while (batch_.size() < max_batch_) {
    RingSlot& slot = ring_[ring_head_ & ring_mask_];
    if (slot.seq.load(std::memory_order_acquire) != ring_head_ + 1) break;
    LIVEGRAPH_TSAN_ACQUIRE(&slot.seq);  // pairs with Enqueue's RELEASE
    LIVEGRAPH_DCHECK(slot.req != nullptr,
                     "commit ring slot %llu published empty",
                     static_cast<unsigned long long>(ring_head_ & ring_mask_));
    batch_.push_back(slot.req);
    sampled |= slot.req->enqueued_nanos != 0;
    parked += slot.req->parked ? 1 : 0;
    // Null before recycling the slot: this arms the two-producers DCHECK
    // in Enqueue.
    slot.req = nullptr;
    slot.seq.store(ring_head_ + ring_.size(), std::memory_order_release);
    ++ring_head_;
  }
  if (parked != 0) parked_queued_.fetch_sub(parked, std::memory_order_seq_cst);
  if (!sampled) return parked;
  // Formation latency: how long a sampled request sat in the ring before
  // a leader drained it.
  const uint64_t now = metrics::MonotonicNanos();
  for (const Request* request : batch_) {
    if (request->enqueued_nanos != 0) {
      formation_latency.Record(now - request->enqueued_nanos);
    }
  }
  return parked;
}

void CommitManager::LeadGroup() {
  static metrics::Counter& groups = metrics::Registry::Instance().GetCounter(
      "livegraph_commit_groups_total");
  static metrics::Histogram& group_size =
      metrics::Registry::Instance().GetHistogram("livegraph_commit_group_size",
                                                 metrics::Unit::kCount);
  static metrics::Histogram& ring_occupancy =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_ring_occupancy", metrics::Unit::kCount);
  batch_.clear();
  // Parked members wait on their event loops, not on durable_word_.
  const bool wake = DrainRing() != 0;
  const bool drained = !batch_.empty();
  if (drained) {
    groups.Add();
    group_size.Record(batch_.size());
    // Requests still queued behind the group just taken: the backlog the
    // pipeline is running at.
    ring_occupancy.Record(ring_tail_.load(std::memory_order_relaxed) -
                          ring_head_);

    // One fresh epoch for every request that does not carry a
    // coordinator-stamped one; its MarkApplied countdown is the number of
    // fresh transactions in the group.
    uint32_t fresh = 0;
    for (Request* request : batch_) {
      if (request->external_epoch == 0) ++fresh;
    }
    timestamp_t fresh_epoch =
        fresh > 0 ? graph_->epoch_domain()->Acquire(fresh) : 0;
    records_.clear();
    for (Request* request : batch_) {
      request->epoch = request->external_epoch != 0 ? request->external_epoch
                                                    : fresh_epoch;
      if (!request->payload.empty()) {
        records_.push_back(Wal::Record{request->epoch, request->participants,
                                       request->payload});
      }
    }

    // Persist the whole group: writev gathered straight from the members'
    // payload buffers, one fsync. A failed append/sync poisons the WAL,
    // degrades the engine to read-only, and fails every member of the
    // group — none of their records reached stable storage (the fsync
    // covers the whole group).
    Status wal_status = Status::kOk;
    if (wal_ != nullptr && !records_.empty()) {
      wal_status = wal_->AppendBatch(records_);
      if (wal_status != Status::kOk) graph_->EnterDegraded(wal_status);
    }

    // Release the group into its apply phase. A member's committer may
    // reuse its Request the moment the durable flag flips, so nothing
    // touches it afterwards.
    for (Request* request : batch_) {
      request->status = wal_status;
      request->durable.store(1, std::memory_order_release);
    }
  }
  // Step down, then wake the followers asleep under this leadership —
  // members of the group and those queued behind it, one of which leads
  // next. Dekker pair with WaitForLeader: it bumps waiters_ before
  // re-checking leading_, this bumps durable_word_ before reading
  // waiters_ (all seq_cst), so either it sees the follower or the
  // follower's futex compare sees the new word.
  leading_.store(0, std::memory_order_seq_cst);
  durable_word_.fetch_add(1, std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_seq_cst) != 0) {
    FutexWakeAll(&durable_word_);
  }
  if (wake) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (wake_) wake_();
  }
  // Nothing drained: the head slot is claimed but not yet published, its
  // producer preempted between the two steps. Let it run.
  if (!drained) std::this_thread::yield();
}

void CommitManager::WaitForLeader(const Request* done) {
  uint32_t word = durable_word_.load(std::memory_order_acquire);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  // Sleep only while a leader is active: with none, this thread must lead
  // the next group itself (its request may be the only one queued).
  if ((done == nullptr || !Durable(*done)) &&
      leading_.load(std::memory_order_seq_cst) != 0) {
    FutexWait(&durable_word_, word);
  }
  // relaxed: a stale count costs the next leader one spare wake syscall.
  waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void CommitManager::FlusherMain() {
  while (true) {
    const uint32_t word = flush_word_.load(std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst)) return;
    if (parked_queued_.load(std::memory_order_seq_cst) != 0) {
      // Lead, or let the committer that leads release its group and look
      // again: it may have left parked requests queued.
      if (TryLead()) {
        LeadGroup();
      } else {
        WaitForLeader(nullptr);
      }
      continue;
    }
    // Dekker pair with Publish: it counts the request and bumps
    // flush_word_, then reads flusher_asleep_; this sets flusher_asleep_
    // and then re-reads the count, so either it sees the request or the
    // futex compare sees the new word (or Publish wakes it).
    flusher_asleep_.store(true, std::memory_order_seq_cst);
    if (parked_queued_.load(std::memory_order_seq_cst) == 0 &&
        !stopping_.load(std::memory_order_seq_cst)) {
      FutexWait(&flush_word_, word);
    }
    flusher_asleep_.store(false, std::memory_order_relaxed);
  }
}

void CommitManager::Publish(Request* request, bool park) {
  LIVEGRAPH_DCHECK(!park || has_flusher(),
                   "parked commit without a flusher: nobody would lead it");
  request->parked = park;
  request->epoch = 0;
  request->status = Status::kOk;
  request->durable.store(0, std::memory_order_relaxed);
  request->enqueued_nanos = SampleFormation() ? metrics::MonotonicNanos() : 0;
  // Counted before it is queued, so a leader's drain never takes the
  // count below zero.
  if (park) parked_queued_.fetch_add(1, std::memory_order_seq_cst);
  Enqueue(request);
  if (!park) return;
  flush_word_.fetch_add(1, std::memory_order_seq_cst);
  if (flusher_asleep_.load(std::memory_order_seq_cst)) {
    FutexWakeOne(&flush_word_);
  }
}

void CommitManager::WaitDurable(const Request& request) {
  // Lead or wait until the request is durable. The request is usually in
  // the group its committer leads; when it is not (behind max_batch_
  // others, behind a claimed but unpublished slot, or led by the flusher)
  // the loop leads the next group too. A follower spins briefly — groups
  // turn around in a few µs without fsync — then sleeps until the leader
  // releases.
  for (int pass = 0; !Durable(request); ++pass) {
    if (TryLead()) {
      LeadGroup();
    } else if (pass < spin_iters_) {
      CpuRelax();
    } else {
      WaitForLeader(&request);
    }
  }
}

}  // namespace livegraph
