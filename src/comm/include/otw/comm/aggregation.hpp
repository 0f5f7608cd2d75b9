// Dynamic Message Aggregation (DyMA) layer (paper Section 6).
//
// Sits between a logical process and the network: application messages
// destined to the same LP and close in (wall) time are collected into one
// physical message, amortizing the large fixed per-message overhead of the
// interconnect. Three policies:
//
//   None  - every message ships immediately (the "unaggregated" kernel),
//   Fixed - FAW: flush when the aggregate's age reaches a fixed window,
//   Adaptive - SAAW: like FAW but the window is re-tuned by the
//              AggregationWindowController every time an aggregate is sent.
//
// Aggregates also flush when they reach max_batch items (bounds latency and
// memory under bursts). Control traffic (GVT tokens) bypasses this layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "otw/core/aggregation_controller.hpp"
#include "otw/platform/engine.hpp"
#include "otw/util/assert.hpp"
#include "otw/util/buffer_pool.hpp"
#include "otw/util/stats.hpp"

namespace otw::comm {

enum class AggregationPolicy : std::uint8_t { None, Fixed, Adaptive };

[[nodiscard]] constexpr const char* to_string(AggregationPolicy p) noexcept {
  switch (p) {
    case AggregationPolicy::None: return "unaggregated";
    case AggregationPolicy::Fixed: return "FAW";
    case AggregationPolicy::Adaptive: return "SAAW";
  }
  return "?";
}

struct AggregationConfig {
  AggregationPolicy policy = AggregationPolicy::None;
  /// FAW window / SAAW initial window ("aggregate age" axis of Figs. 8-9),
  /// in microseconds of platform time.
  double window_us = 32.0;
  /// Hard cap on messages per aggregate.
  std::size_t max_batch = 128;
  /// SAAW controller tuning; initial_window_us is overridden by window_us.
  core::AggregationControlConfig saaw;
};

struct AggregationStats {
  std::uint64_t messages_enqueued = 0;
  std::uint64_t aggregates_sent = 0;
  util::RunningStat aggregate_size;
  util::RunningStat aggregate_age_us;
  util::RunningStat window_us;
};

/// Per-LP outgoing aggregation buffers. Item is the application message type
/// (the kernel's Event). SendFn is invoked as send_fn(dst, std::vector<Item>&&)
/// exactly once per physical message.
template <typename Item>
class AggregationChannel {
 public:
  AggregationChannel(platform::LpId self, platform::LpId num_lps,
                     const AggregationConfig& config)
      : self_(self), config_(config), buffers_(num_lps) {
    OTW_REQUIRE(config.max_batch >= 1);
    OTW_REQUIRE(config.window_us >= 0.0);
    if (config_.policy == AggregationPolicy::Adaptive) {
      auto saaw = config_.saaw;
      saaw.initial_window_us = config_.window_us;
      saaw.min_window_us = std::min(saaw.min_window_us, saaw.initial_window_us);
      saaw.max_window_us = std::max(saaw.max_window_us, saaw.initial_window_us);
      controller_.emplace(saaw);
    }
  }

  /// Queues one item for dst; flushes the destination's aggregate if the
  /// policy says so.
  template <typename SendFn>
  void enqueue(platform::LpId dst, Item item, std::uint64_t now_ns, SendFn&& send_fn) {
    OTW_REQUIRE(dst < buffers_.size());
    OTW_REQUIRE_MSG(dst != self_, "intra-LP traffic must not enter the network");
    ++stats_.messages_enqueued;

    if (config_.policy == AggregationPolicy::None) {
      std::vector<Item> single = acquire_buffer();
      single.push_back(std::move(item));
      ship(dst, std::move(single), 0.0, send_fn);
      return;
    }

    Buffer& buf = buffers_[dst];
    if (buf.items.empty()) {
      if (buf.items.capacity() == 0) {
        buf.items = acquire_buffer();
      }
      buf.opened_ns = now_ns;
      ++open_count_;
    }
    buf.items.push_back(std::move(item));

    if (buf.items.size() >= config_.max_batch || age_us(buf, now_ns) >= window_us()) {
      flush(dst, now_ns, send_fn);
    }
  }

  /// Flushes every aggregate whose age has reached the current window.
  /// Called from the LP's step loop so time-based flushing happens even when
  /// no new messages arrive.
  template <typename SendFn>
  void pump(std::uint64_t now_ns, SendFn&& send_fn) {
    if (open_count_ == 0) {
      return;
    }
    for (platform::LpId dst = 0; dst < buffers_.size(); ++dst) {
      if (!buffers_[dst].items.empty() &&
          age_us(buffers_[dst], now_ns) >= window_us()) {
        flush(dst, now_ns, send_fn);
      }
    }
  }

  /// Ships every open aggregate regardless of age (end of simulation, or a
  /// control message that must not be overtaken by buffered events).
  template <typename SendFn>
  void flush_all(std::uint64_t now_ns, SendFn&& send_fn) {
    for (platform::LpId dst = 0; dst < buffers_.size(); ++dst) {
      if (!buffers_[dst].items.empty()) {
        flush(dst, now_ns, send_fn);
      }
    }
  }

  /// Drops every open aggregate without shipping it (snapshot restore: the
  /// buffered events belong to a rolled-back incarnation and must not reach
  /// the wire). Counters other than the open count are left untouched.
  void discard_all() noexcept {
    for (Buffer& buf : buffers_) {
      if (!buf.items.empty()) {
        buf.items.clear();
        --open_count_;
      }
    }
  }

  /// Ships dst's aggregate if non-empty.
  template <typename SendFn>
  void flush(platform::LpId dst, std::uint64_t now_ns, SendFn&& send_fn) {
    Buffer& buf = buffers_[dst];
    if (buf.items.empty()) {
      return;
    }
    const double age = age_us(buf, now_ns);
    std::vector<Item> items;
    items.swap(buf.items);
    --open_count_;
    if (controller_) {
      // Span since the previous flush to this destination: the rate
      // estimator's observation window (0 = unknown on the first flush).
      const double elapsed =
          buf.flushed_before && now_ns > buf.last_flush_ns
              ? static_cast<double>(now_ns - buf.last_flush_ns) / 1000.0
              : 0.0;
      controller_->on_aggregate_sent(items.size(), age, elapsed);
    }
    buf.last_flush_ns = now_ns;
    buf.flushed_before = true;
    ship(dst, std::move(items), age, send_fn);
  }

  /// True when any aggregate is open; the LP must keep stepping (and
  /// pumping) until this drains.
  [[nodiscard]] bool has_pending() const noexcept { return open_count_ > 0; }

  /// Earliest deadline (ns) at which an open aggregate becomes due, or
  /// UINT64_MAX when none is open.
  [[nodiscard]] std::uint64_t next_deadline_ns() const noexcept {
    std::uint64_t deadline = UINT64_MAX;
    if (open_count_ == 0) {
      return deadline;
    }
    const auto window_ns = static_cast<std::uint64_t>(window_us() * 1000.0);
    for (const Buffer& buf : buffers_) {
      if (!buf.items.empty()) {
        deadline = std::min(deadline, buf.opened_ns + window_ns);
      }
    }
    return deadline;
  }

  /// Hands SAAW the engine's measured host cost of one wire frame
  /// (LpContext::frame_cost_us); nullopt keeps the configured weights.
  void set_frame_cost_us(std::optional<double> cost_us) noexcept {
    if (controller_) {
      controller_->set_frame_cost_us(cost_us);
    }
  }

  /// Current window in microseconds (fixed for FAW, adapted for SAAW).
  [[nodiscard]] double window_us() const noexcept {
    return controller_ ? controller_->window_us() : config_.window_us;
  }

  [[nodiscard]] const AggregationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AggregationConfig& config() const noexcept { return config_; }

  /// Batch buffers are drawn from `recycle` instead of freshly allocated
  /// (the receiving side returns them; see tw::EventBatchMessage). Null
  /// disables recycling. The pool must outlive the channel.
  void set_recycler(util::BufferPool<Item>* recycle) noexcept {
    recycle_ = recycle;
  }

 private:
  [[nodiscard]] std::vector<Item> acquire_buffer() {
    return recycle_ != nullptr ? recycle_->acquire() : std::vector<Item>{};
  }
  struct Buffer {
    std::vector<Item> items;
    std::uint64_t opened_ns = 0;
    std::uint64_t last_flush_ns = 0;
    bool flushed_before = false;
  };

  static double age_us(const Buffer& buf, std::uint64_t now_ns) noexcept {
    return now_ns <= buf.opened_ns
               ? 0.0
               : static_cast<double>(now_ns - buf.opened_ns) / 1000.0;
  }

  template <typename SendFn>
  void ship(platform::LpId dst, std::vector<Item>&& items, double age,
            SendFn&& send_fn) {
    ++stats_.aggregates_sent;
    stats_.aggregate_size.add(static_cast<double>(items.size()));
    stats_.aggregate_age_us.add(age);
    stats_.window_us.add(window_us());
    send_fn(dst, std::move(items));
  }

  platform::LpId self_;
  AggregationConfig config_;
  std::vector<Buffer> buffers_;
  std::optional<core::AggregationWindowController> controller_;
  util::BufferPool<Item>* recycle_ = nullptr;
  std::size_t open_count_ = 0;
  AggregationStats stats_;
};

}  // namespace otw::comm
