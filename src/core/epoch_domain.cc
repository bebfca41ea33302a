#include "core/epoch_domain.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

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

}  // namespace

EpochDomain::EpochDomain(size_t window)
    : spin_iters_(std::thread::hardware_concurrency() > 1 ? 128 : 0),
      pins_(kPinSlots) {
  size_t size = NextPow2(window < 64 ? 64 : window);
  mask_ = size - 1;
  slots_ = std::vector<Slot>(size);
  for (auto& pin : pins_) pin.store(kFreePin, std::memory_order_relaxed);
  // Epoch-frontier gauges are sampled on demand (a metrics probe run at
  // snapshot time) instead of being maintained on the commit path. With
  // several domains in one process (embedded tests/benches) the last
  // probe to run wins; a server process has exactly one relevant domain
  // (docs/OBSERVABILITY.md).
  metrics::Registry& registry = metrics::Registry::Instance();
  metrics::Gauge& issued_gauge = registry.GetGauge("livegraph_epoch_issued");
  metrics::Gauge& visible_gauge =
      registry.GetGauge("livegraph_epoch_visible");
  metrics::Gauge& lag_gauge = registry.GetGauge("livegraph_epoch_lag");
  metrics::Gauge& pins_gauge = registry.GetGauge("livegraph_epoch_read_pins");
  metrics::Gauge& pin_age_gauge =
      registry.GetGauge("livegraph_epoch_oldest_pin_age");
  metrics_probe_ = registry.AddProbe([this, &issued_gauge, &visible_gauge,
                                      &lag_gauge, &pins_gauge,
                                      &pin_age_gauge] {
    const timestamp_t now_visible = visible();
    const timestamp_t now_issued = issued();
    issued_gauge.Set(now_issued);
    visible_gauge.Set(now_visible);
    lag_gauge.Set(now_issued - now_visible);
    int64_t live_pins = 0;
    timestamp_t oldest = now_visible;
    for (const auto& pin : pins_) {
      timestamp_t pinned = pin.load(std::memory_order_relaxed);
      if (pinned == kFreePin) continue;
      ++live_pins;
      if (pinned < oldest) oldest = pinned;
    }
    pins_gauge.Set(live_pins);
    pin_age_gauge.Set(now_visible - oldest);
  });
}

EpochDomain::~EpochDomain() {
  // Blocks out any in-flight Collect() before `this` goes away.
  metrics::Registry::Instance().RemoveProbe(metrics_probe_);
}

timestamp_t EpochDomain::Acquire(uint32_t participants) {
  timestamp_t epoch = next_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // GRE <= GWE at issue time: the epoch we just minted cannot already be
  // visible — only its own MarkApplied countdown may publish it.
  LIVEGRAPH_DCHECK(visible_.load(std::memory_order_seq_cst) < epoch,
                   "visible frontier %lld is at/past freshly issued epoch "
                   "%lld (GRE overran GWE)",
                   static_cast<long long>(
                       visible_.load(std::memory_order_seq_cst)),
                   static_cast<long long>(epoch));
  // Slot reuse guard: the previous tenant of this slot is epoch - size;
  // once it is visible its countdown is spent and the slot is ours. In
  // flight epochs are bounded by attached engines' worker tables, far
  // below the window, so this wait never fires in practice — it is the
  // backstop that makes the ring formally safe at any scale.
  timestamp_t previous_lap = epoch - static_cast<timestamp_t>(mask_ + 1);
  if (previous_lap > 0) WaitVisible(previous_lap);
  Slot& slot = slots_[static_cast<size_t>(epoch) & mask_];
  slot.pending.store(participants == 0 ? 1 : participants,
                     std::memory_order_release);
  return epoch;
}

void EpochDomain::MarkApplied(timestamp_t epoch) {
  // Epochs apply in issue order and at most `participants` times. Both
  // checks read state BEFORE our decrement: while our participation is
  // outstanding the countdown is >= 1, so the cascade cannot have
  // published `epoch` yet — seeing it visible means a double MarkApplied
  // (or a MarkApplied for a never-issued epoch).
  LIVEGRAPH_DCHECK(epoch >= 1 &&
                       epoch <= next_.load(std::memory_order_acquire),
                   "MarkApplied(%lld) for an epoch this domain never issued",
                   static_cast<long long>(epoch));
  LIVEGRAPH_DCHECK(visible_.load(std::memory_order_seq_cst) < epoch,
                   "MarkApplied(%lld) after the epoch became visible — "
                   "double apply would corrupt the visibility order",
                   static_cast<long long>(epoch));
  Slot& slot = slots_[static_cast<size_t>(epoch) & mask_];
  uint32_t prev = slot.pending.fetch_sub(1, std::memory_order_acq_rel);
  LIVEGRAPH_DCHECK(prev != 0,
                   "MarkApplied(%lld) underflowed the participant countdown",
                   static_cast<long long>(epoch));
  if (prev != 1) return;
  // Last participant: publish, then cascade the frontier over every
  // consecutive fully-applied epoch. Everything here is seq_cst for the
  // same store-buffer litmus as the old per-graph cascade: when two last
  // participants of adjacent epochs race, the single total order makes at
  // least one of them observe the other's applied store and finish the
  // cascade — otherwise both could read stale and the frontier would
  // stall with nobody left to move it.
  //
  // Publish edge: everything this group's transactions wrote
  // happens-before any thread that observes visible() >= epoch (the
  // matching ACQUIRE is in WaitVisible / PinRead). The edge exists in the
  // C++ model through the seq_cst stores below; the annotation keeps the
  // futex-mediated pair explicit for TSan.
  LIVEGRAPH_TSAN_RELEASE(&visible_);
  slot.applied.store(epoch, std::memory_order_seq_cst);
  while (true) {
    timestamp_t current = visible_.load(std::memory_order_seq_cst);
    Slot& next = slots_[static_cast<size_t>(current + 1) & mask_];
    if (next.applied.load(std::memory_order_seq_cst) != current + 1) return;
    if (!visible_.compare_exchange_strong(current, current + 1,
                                          std::memory_order_seq_cst)) {
      continue;  // another participant advanced concurrently; re-examine
    }
    visible_word_.fetch_add(1, std::memory_order_release);
    FutexWakeAll(&visible_word_);
  }
}

void EpochDomain::WaitVisible(timestamp_t epoch) {
  // Waiting on an epoch the domain never issued would sleep forever —
  // nobody's MarkApplied can advance the frontier past next_.
  LIVEGRAPH_DCHECK(epoch <= next_.load(std::memory_order_acquire),
                   "WaitVisible(%lld) beyond the issued frontier %lld would "
                   "hang",
                   static_cast<long long>(epoch),
                   static_cast<long long>(
                       next_.load(std::memory_order_acquire)));
  if (visible_.load(std::memory_order_seq_cst) >= epoch) {
    LIVEGRAPH_TSAN_ACQUIRE(&visible_);  // pairs with MarkApplied's RELEASE
    return;
  }
  for (int spin = 0; spin < spin_iters_; ++spin) {
    CpuRelax();
    if (visible_.load(std::memory_order_seq_cst) >= epoch) {
      LIVEGRAPH_TSAN_ACQUIRE(&visible_);
      return;
    }
  }
  while (visible_.load(std::memory_order_seq_cst) < epoch) {
    uint32_t word = visible_word_.load(std::memory_order_acquire);
    if (visible_.load(std::memory_order_seq_cst) >= epoch) break;
    FutexWait(&visible_word_, word);
  }
  LIVEGRAPH_TSAN_ACQUIRE(&visible_);  // pairs with MarkApplied's RELEASE
}

void EpochDomain::FastForward(timestamp_t epoch) {
  timestamp_t next = next_.load(std::memory_order_acquire);
  timestamp_t visible = visible_.load(std::memory_order_seq_cst);
  if (next != visible) {
    std::fprintf(stderr,
                 "EpochDomain::FastForward with epochs in flight "
                 "(issued=%lld visible=%lld)\n",
                 static_cast<long long>(next),
                 static_cast<long long>(visible));
    std::abort();
  }
  if (epoch <= visible) return;
  next_.store(epoch, std::memory_order_release);
  visible_.store(epoch, std::memory_order_seq_cst);
  visible_word_.fetch_add(1, std::memory_order_release);
  FutexWakeAll(&visible_word_);
}

uint32_t EpochDomain::ClaimPinSlot() {
  static thread_local uint32_t hint = 0;
  for (uint32_t attempt = 0; attempt < kPinSlots * 4; ++attempt) {
    uint32_t i = (hint + attempt) % kPinSlots;
    timestamp_t expected = kFreePin;
    // Claim conservatively at epoch 0; the caller publishes the real pin
    // (and rechecks) before relying on it, and a momentary 0 pin can only
    // make a concurrent SafeEpoch scan more conservative.
    // relaxed pre-check: an availability hint — ownership comes from the
    // CAS alone; a stale read just moves the probe to the next slot.
    if (pins_[i].load(std::memory_order_relaxed) == kFreePin &&
        pins_[i].compare_exchange_strong(expected, 0,
                                         std::memory_order_acq_rel)) {
      hint = i;
      return i;
    }
  }
  std::fprintf(stderr,
               "EpochDomain: more concurrent read pins than %u slots\n",
               kPinSlots);
  std::abort();
}

EpochDomain::ReadPin EpochDomain::PinRead() {
  uint32_t slot = ClaimPinSlot();
  // Store-recheck (mirrors Graph::PublishReadEpoch): after publishing we
  // verify the frontier did not move. If it did not, any SafeEpoch scan
  // ordered after our store sees our pin; any scan ordered before used a
  // frontier <= ours, whose floor already covers us.
  while (true) {
    timestamp_t epoch = visible_.load(std::memory_order_seq_cst);
    pins_[slot].store(epoch, std::memory_order_seq_cst);
    if (visible_.load(std::memory_order_seq_cst) == epoch) {
      // Observe edge: the snapshot we pinned is fully applied; pair with
      // MarkApplied's RELEASE so TSan sees the commit's writes as ordered
      // before this reader.
      LIVEGRAPH_TSAN_ACQUIRE(&visible_);
      return ReadPin{epoch, slot};
    }
  }
}

EpochDomain::ReadPin EpochDomain::PinReadAt(timestamp_t epoch) {
  ReadPin pin = PinRead();
  if (epoch < 0) epoch = 0;
  if (epoch < pin.epoch) {
    // Publishing a value below the frontier is always safe — the floor
    // only ever shrinks from it.
    pins_[pin.slot].store(epoch, std::memory_order_seq_cst);
    pin.epoch = epoch;
  }
  return pin;
}

void EpochDomain::Unpin(const ReadPin& pin) {
  LIVEGRAPH_DCHECK(
      pins_[pin.slot].load(std::memory_order_seq_cst) != kFreePin,
      "Unpin of slot %u that is already free (double unpin)", pin.slot);
  pins_[pin.slot].store(kFreePin, std::memory_order_seq_cst);
}

timestamp_t EpochDomain::OldestPin(timestamp_t bound) const {
  for (const auto& pin : pins_) {
    timestamp_t e = pin.load(std::memory_order_seq_cst);
    if (e < bound) bound = e;
  }
  return bound;
}

}  // namespace livegraph
