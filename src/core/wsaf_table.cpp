#include "core/wsaf_table.h"

#include <algorithm>
#include <bit>

#include "core/wsaf_view.h"
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace instameasure::core {

namespace {

/// Trace hook shared by every accumulate() outcome: one branch when no
/// recorder is attached.
inline void trace_wsaf(telemetry::TraceRecorder* trace, unsigned track,
                       telemetry::TraceEventKind kind,
                       std::uint64_t flow_hash, double payload,
                       std::uint32_t aux) noexcept {
  if (trace != nullptr) trace->emit(track, kind, flow_hash, payload, aux);
}

// Validates before WsafTable's member-init list runs: slots_ allocates
// 2^log2_entries entries, so an absurd log2 must throw invalid_argument
// here rather than surface as bad_alloc from the vector constructor.
const WsafConfig& validated(const WsafConfig& config) {
  if (config.log2_entries > WsafTable::kMaxLog2Entries) {
    throw std::invalid_argument(
        "WsafConfig: log2_entries (" + std::to_string(config.log2_entries) +
        ") exceeds kMaxLog2Entries (" +
        std::to_string(WsafTable::kMaxLog2Entries) + ")");
  }
  if (config.max_log2_entries != 0 &&
      config.max_log2_entries < config.log2_entries) {
    throw std::invalid_argument(
        "WsafConfig: max_log2_entries (" +
        std::to_string(config.max_log2_entries) +
        ") must be 0 or >= log2_entries (" +
        std::to_string(config.log2_entries) + ")");
  }
  if (config.layout == WsafLayout::kBucketed && config.log2_entries < 4) {
    throw std::invalid_argument(
        "WsafTable: kBucketed needs log2_entries >= 4 "
        "(one 16-slot bucket per cache line)");
  }
  return config;
}

}  // namespace

WsafTable::WsafTable(const WsafConfig& config)
    : config_(validated(config)),
      mask_((std::uint64_t{1} << config.log2_entries) - 1),
      slots_(config.entries()),
      trace_(config.trace),
      trace_track_(config.trace_track) {
  if (config.layout == WsafLayout::kBucketed) {
    const std::size_t bucket_count = config.entries() / WsafBucketMeta::kSlots;
    buckets_.assign(bucket_count, WsafBucketMeta{});
    bucket_mask_ = bucket_count - 1;
    // probe_limit is a slot budget in both layouts; here it rounds up to
    // whole buckets so a scalar config keeps (at least) its reach.
    bucket_window_ = static_cast<unsigned>(std::min<std::uint64_t>(
        (config.probe_limit + WsafBucketMeta::kSlots - 1) /
            WsafBucketMeta::kSlots,
        bucket_count));
  }
  if (config.registry != nullptr) {
    auto& reg = *config.registry;
    tel_accumulates_ = reg.counter("im_wsaf_accumulates_total",
                                   "Saturation events offered to the WSAF",
                                   config.labels);
    tel_inserts_ = reg.counter("im_wsaf_inserts_total",
                               "New WSAF entries created", config.labels);
    tel_updates_ = reg.counter("im_wsaf_updates_total",
                               "Existing WSAF entries incremented",
                               config.labels);
    tel_evictions_ = reg.counter("im_wsaf_evictions_total",
                                 "Second-chance/stalest replacements",
                                 config.labels);
    tel_gc_reclaims_ = reg.counter(
        "im_wsaf_gc_reclaims_total",
        "Expired entries whose slot an insert actually overwrote",
        config.labels);
    tel_gc_swept_ = reg.counter(
        "im_wsaf_gc_swept_total",
        "Expired entries cleared by the background sweep", config.labels);
    tel_rejected_ = reg.counter("im_wsaf_rejected_total",
                                "Insertions dropped (eviction disabled)",
                                config.labels);
    tel_tag_collisions_ = reg.counter(
        "im_wsaf_tag_collisions_total",
        "Bucketed layout: tag matched but key did not (filter false hit)",
        config.labels);
    tel_occupancy_ = reg.gauge("im_wsaf_occupancy",
                               "Live WSAF entries", config.labels);
    tel_pressure_level_ = reg.gauge(
        "im_wsaf_pressure_level",
        "Overload signal: 0 nominal, 1 elevated, 2 saturated", config.labels);
    tel_eviction_pressure_ = reg.gauge(
        "im_wsaf_eviction_pressure",
        "Evict/reject fraction of the last pressure window", config.labels);
    tel_probe_length_ = reg.histogram(
        "im_wsaf_probe_length",
        "Probe steps per accumulate(): slots in the scalar-probe layout, "
        "buckets in the bucketed layout",
        config.labels);
    tel_resize_started_ = reg.counter(
        "im_wsaf_resize_started_total", "Online resizes begun", config.labels);
    tel_resize_completed_ = reg.counter(
        "im_wsaf_resize_completed_total",
        "Online resizes whose migration fully drained", config.labels);
    tel_resize_aborted_ = reg.counter(
        "im_wsaf_resize_aborted_total",
        "Resizes aborted at allocation (table kept serving at old capacity)",
        config.labels);
    tel_resize_migrated_ = reg.counter(
        "im_wsaf_resize_migrated_total",
        "Entries moved from the old region into the new one", config.labels);
    tel_resize_stalls_ = reg.counter(
        "im_wsaf_resize_stalls_total",
        "Migration ticks skipped by the wsaf.resize.migrate_stall fault",
        config.labels);
    tel_resize_in_flight_ = reg.gauge(
        "im_wsaf_resize_in_flight",
        "1 while an incremental resize is migrating, else 0", config.labels);
    tel_log2_entries_ = reg.gauge(
        "im_wsaf_log2_entries", "Current table capacity as log2(slots)",
        config.labels);
    tel_resize_op_slots_ = reg.histogram(
        "im_wsaf_resize_op_slots",
        "Old slots drained per accumulate() while a resize is in flight",
        config.labels);
    tel_log2_entries_.set(static_cast<double>(config.log2_entries));
  }
}

WsafTable::Accumulated WsafTable::accumulate(const netio::FlowKey& key,
                                             std::uint64_t flow_hash,
                                             double est_packets,
                                             double est_bytes,
                                             std::uint64_t now_ns) {
  ++stats_.accumulates;
  tel_accumulates_.inc();
  if (++window_accumulates_ >= kPressureWindow) roll_pressure_window();
  if (now_ns > latest_ns_) latest_ns_ = now_ns;
  if (resize_ != nullptr) migrate_tick(now_ns);
  if (config_.idle_timeout_ns != 0) {
    // Amortized occupancy hygiene: without this, expired entries in chains
    // no live flow probes stay counted as occupied forever and pressure()
    // overstates load on idle tables.
    (void)sweep_expired(now_ns, kSweepSlotsPerAccumulate);
  }
  if (config_.layout == WsafLayout::kBucketed) {
    return accumulate_bucketed(key, flow_hash, est_packets, est_bytes, now_ns);
  }
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);

  std::size_t first_free = slots_.size();  // sentinel: none seen
  bool first_free_expired = false;
  unsigned first_free_probe = 0;
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    ++stats_.probes;
    const auto s = slot_of(flow_hash, i);
    WsafEntry& e = slots_[s];
    if (!e.occupied) {
      if (first_free == slots_.size()) first_free = s;
      // An empty slot proves the key is absent only in a chain without
      // deletions; evictions create holes, so keep probing for a match and
      // remember the first usable slot.
      continue;
    }
    if (expired(e, now_ns)) {
      // Inline garbage collection: an expired entry is a usable slot. Only
      // NOTE it here — the reclaim is counted (and traced) if and when the
      // insert below actually overwrites it; a later key match leaves the
      // slot untouched and must not inflate the reclaim counter.
      if (first_free == slots_.size()) {
        first_free = s;
        first_free_expired = true;
        first_free_probe = i;
      }
      continue;
    }
    if (e.flow_id == flow_id && e.key == key) {
      e.packets += est_packets;
      e.bytes += est_bytes;
      e.last_update_ns = now_ns;
      e.referenced = true;
      ++stats_.updates;
      tel_updates_.inc();
      tel_probe_length_.record(i + 1);
      trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafUpdate,
                 flow_hash, e.packets, i + 1);
      return {e.packets, e.bytes, e.first_seen_ns};
    }
  }
  tel_probe_length_.record(config_.probe_limit);

  // New-region miss during a resize: the flow may still live in the old
  // region. Updating it there (and migrating it on touch) keeps every flow
  // in exactly one region; inserting a duplicate here would fork counters.
  if (resize_ != nullptr) {
    if (auto acc =
            accumulate_in_old(key, flow_hash, est_packets, est_bytes, now_ns)) {
      return *acc;
    }
  }

  if (first_free != slots_.size()) {
    WsafEntry& e = slots_[first_free];
    if (first_free_expired) {
      // The reclaim happens NOW: the expired entry's slot is overwritten.
      // Occupancy is unchanged (one dead entry out, one live entry in).
      ++stats_.gc_reclaims;
      tel_gc_reclaims_.inc();
      trace_wsaf(trace_, trace_track_,
                 telemetry::TraceEventKind::kWsafGcReclaim, flow_hash,
                 e.packets, first_free_probe);
    } else {
      ++occupied_;
    }
    e = WsafEntry{key, flow_id, est_packets, est_bytes, now_ns, now_ns,
                  /*occupied=*/true, /*referenced=*/false};
    ++stats_.inserts;
    tel_inserts_.inc();
    tel_occupancy_.set(static_cast<double>(occupied_));
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafInsert,
               flow_hash, e.packets, 0);
    return {e.packets, e.bytes, e.first_seen_ns};
  }

  // Probe window full of live entries: replace per the configured policy.
  ++window_stress_;  // this event displaces (or loses) a live flow
  if (config_.eviction == EvictionPolicy::kNone) {
    ++stats_.rejected;
    tel_rejected_.inc();
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafReject,
               flow_hash, est_packets, 0);
    return {est_packets, est_bytes,
            now_ns};  // dropped: caller sees only this event
  }

  std::size_t victim = slots_.size();
  std::size_t stalest = slot_of(flow_hash, 0);
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    const auto s = slot_of(flow_hash, i);
    WsafEntry& e = slots_[s];
    if (config_.eviction == EvictionPolicy::kSecondChance) {
      // The paper evicts the "least significant" mice flow: entries whose
      // reference bit is set survive this round (bit consumed); among the
      // rest the smallest counter is the victim. Falls back to the stalest
      // entry when every slot had its second chance.
      if (!e.referenced &&
          (victim == slots_.size() || e.packets < slots_[victim].packets)) {
        victim = s;
      }
      e.referenced = false;  // consume the second chance
    }
    if (e.last_update_ns < slots_[stalest].last_update_ns) stalest = s;
  }
  if (victim == slots_.size()) victim = stalest;

  WsafEntry& e = slots_[victim];
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafEvict,
             flow_hash, e.packets, 0);
  e = WsafEntry{key, flow_id, est_packets, est_bytes, now_ns, now_ns,
                /*occupied=*/true, /*referenced=*/false};
  ++stats_.inserts;
  ++stats_.evictions;
  tel_inserts_.inc();
  tel_evictions_.inc();
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafInsert,
             flow_hash, e.packets, 1);
  return {e.packets, e.bytes, e.first_seen_ns};
}

WsafTable::Accumulated WsafTable::accumulate_bucketed(
    const netio::FlowKey& key, std::uint64_t flow_hash, double est_packets,
    double est_bytes, std::uint64_t now_ns) {
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);
  const auto tag = WsafBucketMeta::tag_of(flow_hash);

  // Fast path: one metadata line per bucket; entry lines are dereferenced
  // only for tag matches, and free-slot discovery reads the bitmap alone.
  std::size_t first_free = slots_.size();  // sentinel: none seen
  bool first_free_expired = false;
  unsigned first_free_bucket = 0;
  for (unsigned j = 0; j < bucket_window_; ++j) {
    ++stats_.probes;  // unit: buckets in this layout
    const auto b = bucket_of(flow_hash, j);
    WsafBucketMeta& meta = buckets_[b];
    for (auto mask = meta.match_mask(tag); mask != 0; mask &= mask - 1) {
      const auto s =
          slot_base(b) + static_cast<std::size_t>(std::countr_zero(mask));
      WsafEntry& e = slots_[s];
      if (expired(e, now_ns)) {
        // Inline GC, same rule as the scalar walk: only NOTE the reusable
        // slot; the reclaim is counted if the insert below overwrites it.
        if (first_free == slots_.size()) {
          first_free = s;
          first_free_expired = true;
          first_free_bucket = j;
        }
        continue;
      }
      if (e.flow_id == flow_id && e.key == key) {
        e.packets += est_packets;
        e.bytes += est_bytes;
        e.last_update_ns = now_ns;
        e.referenced = true;
        ++stats_.updates;
        tel_updates_.inc();
        tel_probe_length_.record(j + 1);
        trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafUpdate,
                   flow_hash, e.packets, j + 1);
        return {e.packets, e.bytes, e.first_seen_ns};
      }
      // Occupied, live, tag agreed but key did not: the 1-byte fingerprint's
      // false hit — the only extra entry line this layout ever touches.
      ++stats_.tag_collisions;
      tel_tag_collisions_.inc();
    }
    if (first_free == slots_.size()) {
      if (const auto free_bits = meta.free_mask(); free_bits != 0) {
        first_free = slot_base(b) +
                     static_cast<std::size_t>(std::countr_zero(free_bits));
      }
    }
  }
  tel_probe_length_.record(bucket_window_);

  // Same resize fallback as the scalar walk: a new-region miss must defer
  // to the old region before creating a (duplicate) entry here.
  if (resize_ != nullptr) {
    if (auto acc =
            accumulate_in_old(key, flow_hash, est_packets, est_bytes, now_ns)) {
      return *acc;
    }
  }

  if (first_free == slots_.size()) {
    // Every bitmap in the window is full, but the tag filter hides expired
    // entries stored under other tags. Before displacing (or rejecting) a
    // live flow, pay the full scan the scalar walk does implicitly: an
    // expired slot anywhere in the window is still a usable slot.
    for (unsigned j = 0; j < bucket_window_ && first_free == slots_.size();
         ++j) {
      const auto b = bucket_of(flow_hash, j);
      for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
        if (expired(slots_[slot_base(b) + i], now_ns)) {
          first_free = slot_base(b) + i;
          first_free_expired = true;
          first_free_bucket = j;
          break;
        }
      }
    }
  }

  if (first_free != slots_.size()) {
    WsafEntry& e = slots_[first_free];
    if (first_free_expired) {
      ++stats_.gc_reclaims;
      tel_gc_reclaims_.inc();
      trace_wsaf(trace_, trace_track_,
                 telemetry::TraceEventKind::kWsafGcReclaim, flow_hash,
                 e.packets, first_free_bucket);
    } else {
      ++occupied_;
    }
    e = WsafEntry{key, flow_id, est_packets, est_bytes, now_ns, now_ns,
                  /*occupied=*/true, /*referenced=*/false};
    buckets_[first_free / WsafBucketMeta::kSlots].set(
        first_free % WsafBucketMeta::kSlots, tag);
    ++stats_.inserts;
    tel_inserts_.inc();
    tel_occupancy_.set(static_cast<double>(occupied_));
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafInsert,
               flow_hash, e.packets, 0);
    return {e.packets, e.bytes, e.first_seen_ns};
  }

  // Window full of live entries: replace per the configured policy. Same
  // intent as the scalar clock pass, but the candidate set is the
  // bucket-granular window — eviction-policy v2.
  ++window_stress_;
  if (config_.eviction == EvictionPolicy::kNone) {
    ++stats_.rejected;
    tel_rejected_.inc();
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafReject,
               flow_hash, est_packets, 0);
    return {est_packets, est_bytes, now_ns};
  }

  std::size_t victim = slots_.size();
  std::size_t stalest = slot_base(bucket_of(flow_hash, 0));
  for (unsigned j = 0; j < bucket_window_; ++j) {
    const auto b = bucket_of(flow_hash, j);
    for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
      const auto s = slot_base(b) + i;
      WsafEntry& e = slots_[s];
      if (config_.eviction == EvictionPolicy::kSecondChance) {
        if (!e.referenced &&
            (victim == slots_.size() || e.packets < slots_[victim].packets)) {
          victim = s;
        }
        e.referenced = false;  // consume the second chance
      }
      if (e.last_update_ns < slots_[stalest].last_update_ns) stalest = s;
    }
  }
  if (victim == slots_.size()) victim = stalest;

  WsafEntry& e = slots_[victim];
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafEvict,
             flow_hash, e.packets, 0);
  e = WsafEntry{key, flow_id, est_packets, est_bytes, now_ns, now_ns,
                /*occupied=*/true, /*referenced=*/false};
  buckets_[victim / WsafBucketMeta::kSlots].set(
      victim % WsafBucketMeta::kSlots, tag);
  ++stats_.inserts;
  ++stats_.evictions;
  tel_inserts_.inc();
  tel_evictions_.inc();
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafInsert,
             flow_hash, e.packets, 1);
  return {e.packets, e.bytes, e.first_seen_ns};
}

std::optional<WsafEntry> WsafTable::lookup(const netio::FlowKey& key,
                                           std::uint64_t flow_hash,
                                           std::uint64_t now_ns) const noexcept {
  if (config_.layout == WsafLayout::kBucketed) {
    return lookup_bucketed(key, flow_hash, now_ns);
  }
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    const auto s = slot_of(flow_hash, i);
    const WsafEntry& e = slots_[s];
    if (e.occupied && e.flow_id == flow_id && e.key == key) {
      // An expired record is one accumulate() would reclaim, not resume:
      // serving it would report state the write path already considers
      // dead. Invisible here, consistently with live_entries()/fill_view().
      if (expired(e, now_ns)) return std::nullopt;
      return e;
    }
  }
  // Mid-resize: a flow the migration has not reached yet still lives in the
  // old region — at most one extra probe window, never both populated.
  if (resize_ != nullptr) {
    const auto s = find_in_old(key, flow_hash);
    if (s != resize_->old_slots.size()) {
      const WsafEntry& e = resize_->old_slots[s];
      if (!expired(e, now_ns)) return e;
    }
  }
  return std::nullopt;
}

std::optional<WsafEntry> WsafTable::lookup_bucketed(
    const netio::FlowKey& key, std::uint64_t flow_hash,
    std::uint64_t now_ns) const noexcept {
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);
  const auto tag = WsafBucketMeta::tag_of(flow_hash);
  for (unsigned j = 0; j < bucket_window_; ++j) {
    const auto b = bucket_of(flow_hash, j);
    // One metadata line names the candidates; slots whose tag mismatches
    // are never dereferenced (a fuzzed property of match_mask).
    for (auto mask = buckets_[b].match_mask(tag); mask != 0; mask &= mask - 1) {
      const auto s =
          slot_base(b) + static_cast<std::size_t>(std::countr_zero(mask));
      const WsafEntry& e = slots_[s];
      if (e.flow_id == flow_id && e.key == key) {
        // Same expiry rule as the scalar path: a record accumulate() would
        // reclaim, not resume, is invisible to readers.
        if (expired(e, now_ns)) return std::nullopt;
        return e;
      }
    }
  }
  // Same second-window rule as the scalar path (see lookup()).
  if (resize_ != nullptr) {
    const auto s = find_in_old(key, flow_hash);
    if (s != resize_->old_slots.size()) {
      const WsafEntry& e = resize_->old_slots[s];
      if (!expired(e, now_ns)) return e;
    }
  }
  return std::nullopt;
}

std::vector<const WsafEntry*> WsafTable::live_entries(
    std::uint64_t now_ns) const {
  std::vector<const WsafEntry*> out;
  out.reserve(occupied_);
  for (const auto& e : slots_) {
    if (e.occupied && !expired(e, now_ns)) out.push_back(&e);
  }
  // Mid-resize the logical table is the union of both regions (each flow is
  // in exactly one), so readers see a single consistent epoch.
  if (resize_ != nullptr) {
    for (const auto& e : resize_->old_slots) {
      if (e.occupied && !expired(e, now_ns)) out.push_back(&e);
    }
  }
  return out;
}

void WsafTable::fill_view(WsafView& view, std::uint64_t now_ns) const {
  view.clear();
  view.as_of_ns = now_ns;
  if (view.entries.capacity() < occupied_) view.entries.reserve(occupied_);
  for (const auto& e : slots_) {
    if (!e.occupied || expired(e, now_ns)) continue;
    view.entries.push_back({e.key,
                            // Rebuild the 64-bit hash domain the readers
                            // key on: the entry keeps only the top 32 bits.
                            e.key.hash(config_.seed), e.packets, e.bytes,
                            e.first_seen_ns, e.last_update_ns});
  }
  // Same single-epoch union as live_entries(): a published view mid-resize
  // carries every live flow exactly once, never a half-migrated table.
  if (resize_ != nullptr) {
    for (const auto& e : resize_->old_slots) {
      if (!e.occupied || expired(e, now_ns)) continue;
      view.entries.push_back({e.key, e.key.hash(config_.seed), e.packets,
                              e.bytes, e.first_seen_ns, e.last_update_ns});
    }
  }
}

std::size_t WsafTable::sweep_expired(std::uint64_t now_ns,
                                     std::size_t max_slots) {
  if (config_.idle_timeout_ns == 0 || occupied_ == 0) return 0;
  const std::size_t budget =
      max_slots == 0 ? slots_.size() : std::min(max_slots, slots_.size());
  std::size_t reclaimed = 0;
  for (std::size_t visited = 0; visited < budget; ++visited) {
    const auto s = sweep_cursor_;
    WsafEntry& e = slots_[s];
    sweep_cursor_ = (sweep_cursor_ + 1) & mask_;
    if (e.occupied && expired(e, now_ns)) {
      e = WsafEntry{};
      if (config_.layout == WsafLayout::kBucketed) {
        buckets_[s / WsafBucketMeta::kSlots].clear(s % WsafBucketMeta::kSlots);
      }
      --occupied_;
      ++reclaimed;
    }
  }
  if (reclaimed != 0) {
    stats_.gc_swept += reclaimed;
    tel_gc_swept_.inc(reclaimed);
    tel_occupancy_.set(static_cast<double>(occupied_));
  }
  return reclaimed;
}

bool WsafTable::begin_resize(unsigned new_log2) {
  if (resize_ != nullptr || new_log2 <= config_.log2_entries ||
      new_log2 > kMaxLog2Entries ||
      (config_.max_log2_entries != 0 &&
       new_log2 > config_.max_log2_entries)) {
    return false;
  }
  std::vector<WsafEntry> new_slots;
  std::vector<WsafBucketMeta> new_buckets;
  std::unique_ptr<ResizeState> state;
  try {
    if (fault_alloc_fail_->fire()) throw std::bad_alloc{};
    new_slots.resize(std::size_t{1} << new_log2);
    if (config_.layout == WsafLayout::kBucketed) {
      new_buckets.resize((std::size_t{1} << new_log2) /
                         WsafBucketMeta::kSlots);
    }
    state = std::make_unique<ResizeState>();
  } catch (const std::exception&) {
    // Rollback is trivial by construction: nothing was swapped in yet, so
    // the table keeps serving at its old capacity.
    ++resize_stats_.aborted;
    tel_resize_aborted_.inc();
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafResize, 0,
               static_cast<double>(config_.log2_entries), 2);
    return false;
  }

  state->old_slots = std::move(slots_);
  state->old_buckets = std::move(buckets_);
  state->old_mask = mask_;
  state->old_bucket_mask = bucket_mask_;
  state->old_bucket_window = bucket_window_;
  state->old_log2 = config_.log2_entries;
  // All currently occupied slots live in what just became the old region.
  state->old_occupied = occupied_;

  slots_ = std::move(new_slots);
  buckets_ = std::move(new_buckets);
  config_.log2_entries = new_log2;
  mask_ = (std::uint64_t{1} << new_log2) - 1;
  if (config_.layout == WsafLayout::kBucketed) {
    const std::size_t bucket_count = slots_.size() / WsafBucketMeta::kSlots;
    bucket_mask_ = bucket_count - 1;
    bucket_window_ = static_cast<unsigned>(std::min<std::uint64_t>(
        (config_.probe_limit + WsafBucketMeta::kSlots - 1) /
            WsafBucketMeta::kSlots,
        bucket_count));
  }
  sweep_cursor_ = 0;  // the old cursor is meaningless under the new mask
  saturated_streak_ = 0;
  const unsigned old_log2 = state->old_log2;
  resize_ = std::move(state);
  ++resize_stats_.started;
  tel_resize_started_.inc();
  tel_resize_in_flight_.set(1);
  tel_log2_entries_.set(static_cast<double>(new_log2));
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafResize, 0,
             static_cast<double>(old_log2), 0);
  if (resize_->old_occupied == 0) complete_resize_if_drained();
  return true;
}

void WsafTable::finish_resize() {
  if (resize_ == nullptr) return;
  // Drain through the fault-free core: a probability-1 migrate_stall fault
  // must not be able to wedge an explicit completion request.
  migrate_some(resize_->old_slots.size(), latest_ns_);
}

void WsafTable::migrate_tick(std::uint64_t now_ns) {
  if (fault_migrate_stall_->fire()) {
    ++resize_stats_.migrate_stalls;
    tel_resize_stalls_.inc();
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafResize, 0,
               static_cast<double>(resize_->old_log2), 3);
    return;
  }
  const std::uint64_t before = resize_stats_.slots_scanned;
  migrate_some(kResizeMigrateSlotsPerOp, now_ns);
  const auto op = static_cast<std::size_t>(resize_stats_.slots_scanned - before);
  if (op > resize_stats_.max_op_slots) resize_stats_.max_op_slots = op;
  tel_resize_op_slots_.record(static_cast<double>(op));
}

void WsafTable::migrate_some(std::size_t max_slots, std::uint64_t now_ns) {
  if (resize_ == nullptr) return;
  ResizeState& rs = *resize_;
  const std::size_t total = rs.old_slots.size();
  std::size_t visited = 0;
  while (visited < max_slots && rs.cursor < total && rs.old_occupied != 0) {
    const auto s = rs.cursor++;
    ++visited;
    WsafEntry& e = rs.old_slots[s];
    if (!e.occupied) continue;
    if (expired(e, now_ns)) {
      // A dead flow is not worth rehashing; collect it like the background
      // sweep would have.
      clear_old_slot(s);
      --rs.old_occupied;
      --occupied_;
      ++stats_.gc_swept;
      ++resize_stats_.entries_expired;
      tel_gc_swept_.inc();
      continue;
    }
    place_migrated(e, e.key.hash(config_.seed));
    clear_old_slot(s);
    --rs.old_occupied;
    ++resize_stats_.entries_migrated;
    tel_resize_migrated_.inc();
  }
  resize_stats_.slots_scanned += visited;
  tel_occupancy_.set(static_cast<double>(occupied_));
  complete_resize_if_drained();
}

void WsafTable::place_migrated(const WsafEntry& src, std::uint64_t flow_hash) {
  // Migration is a move, not an arrival: no insert/update is counted, so a
  // grown table's stats stay comparable to a fresh table's. Expiry below is
  // judged at the trace-time high-water mark.
  const std::uint64_t now_ns = latest_ns_;
  // The flow may have forked: judged expired in the old region by a late
  // timestamp, re-inserted fresh into the new region, then reached here via
  // the cursor under an earlier (out-of-order) timestamp. A second copy
  // would surface the same flow twice in every view, so merge instead —
  // old totals + post-fork totals is exactly the unforked sum.
  if (const auto existing = find_in_new(src.key, flow_hash);
      existing != slots_.size()) {
    WsafEntry& dst = slots_[existing];
    dst.packets += src.packets;
    dst.bytes += src.bytes;
    dst.first_seen_ns = std::min(dst.first_seen_ns, src.first_seen_ns);
    dst.last_update_ns = std::max(dst.last_update_ns, src.last_update_ns);
    dst.referenced = dst.referenced || src.referenced;
    --occupied_;  // two records became one
    return;
  }
  if (config_.layout == WsafLayout::kBucketed) {
    const auto tag = WsafBucketMeta::tag_of(flow_hash);
    std::size_t free_slot = slots_.size();
    bool free_expired = false;
    for (unsigned j = 0; j < bucket_window_ && free_slot == slots_.size();
         ++j) {
      const auto b = bucket_of(flow_hash, j);
      if (const auto bits = buckets_[b].free_mask(); bits != 0) {
        free_slot = slot_base(b) +
                    static_cast<std::size_t>(std::countr_zero(bits));
        break;
      }
      for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
        if (expired(slots_[slot_base(b) + i], now_ns)) {
          free_slot = slot_base(b) + i;
          free_expired = true;
          break;
        }
      }
    }
    if (free_slot == slots_.size()) {
      // Window full of live entries even in the doubled table (pathological
      // skew): displace the stalest occupant rather than drop a live flow —
      // deliberately even under kNone, which only governs new arrivals.
      std::size_t stalest = slot_base(bucket_of(flow_hash, 0));
      for (unsigned j = 0; j < bucket_window_; ++j) {
        const auto b = bucket_of(flow_hash, j);
        for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
          const auto s = slot_base(b) + i;
          if (slots_[s].last_update_ns < slots_[stalest].last_update_ns) {
            stalest = s;
          }
        }
      }
      trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafEvict,
                 flow_hash, slots_[stalest].packets, 0);
      ++stats_.evictions;
      tel_evictions_.inc();
      --occupied_;
      free_slot = stalest;
    } else if (free_expired) {
      ++stats_.gc_reclaims;
      tel_gc_reclaims_.inc();
      --occupied_;
    }
    slots_[free_slot] = src;
    buckets_[free_slot / WsafBucketMeta::kSlots].set(
        free_slot % WsafBucketMeta::kSlots, tag);
    return;
  }

  std::size_t free_slot = slots_.size();
  bool free_expired = false;
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    const auto s = slot_of(flow_hash, i);
    const WsafEntry& e = slots_[s];
    if (!e.occupied) {
      free_slot = s;
      free_expired = false;
      break;
    }
    if (free_slot == slots_.size() && expired(e, now_ns)) {
      free_slot = s;
      free_expired = true;
    }
  }
  if (free_slot == slots_.size()) {
    std::size_t stalest = slot_of(flow_hash, 0);
    for (unsigned i = 0; i < config_.probe_limit; ++i) {
      const auto s = slot_of(flow_hash, i);
      if (slots_[s].last_update_ns < slots_[stalest].last_update_ns) {
        stalest = s;
      }
    }
    trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafEvict,
               flow_hash, slots_[stalest].packets, 0);
    ++stats_.evictions;
    tel_evictions_.inc();
    --occupied_;
    free_slot = stalest;
  } else if (free_expired) {
    ++stats_.gc_reclaims;
    tel_gc_reclaims_.inc();
    --occupied_;
  }
  slots_[free_slot] = src;
}

void WsafTable::clear_old_slot(std::size_t s) noexcept {
  ResizeState& rs = *resize_;
  rs.old_slots[s] = WsafEntry{};
  if (config_.layout == WsafLayout::kBucketed) {
    rs.old_buckets[s / WsafBucketMeta::kSlots].clear(s %
                                                     WsafBucketMeta::kSlots);
  }
}

std::size_t WsafTable::find_in_new(const netio::FlowKey& key,
                                   std::uint64_t flow_hash) const noexcept {
  const auto npos = slots_.size();
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);
  if (config_.layout == WsafLayout::kBucketed) {
    const auto tag = WsafBucketMeta::tag_of(flow_hash);
    for (unsigned j = 0; j < bucket_window_; ++j) {
      const auto b = bucket_of(flow_hash, j);
      for (auto m = buckets_[b].match_mask(tag); m != 0; m &= m - 1) {
        const auto s =
            slot_base(b) + static_cast<std::size_t>(std::countr_zero(m));
        const WsafEntry& e = slots_[s];
        if (e.flow_id == flow_id && e.key == key) return s;
      }
    }
    return npos;
  }
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    const auto s = slot_of(flow_hash, i);
    const WsafEntry& e = slots_[s];
    if (e.occupied && e.flow_id == flow_id && e.key == key) return s;
  }
  return npos;
}

std::size_t WsafTable::find_in_old(const netio::FlowKey& key,
                                   std::uint64_t flow_hash) const noexcept {
  const ResizeState& rs = *resize_;
  const auto npos = rs.old_slots.size();
  const auto flow_id = static_cast<std::uint32_t>(flow_hash >> 32);
  if (config_.layout == WsafLayout::kBucketed) {
    const auto tag = WsafBucketMeta::tag_of(flow_hash);
    for (unsigned j = 0; j < rs.old_bucket_window; ++j) {
      const auto b = probe_bucket(rs.old_bucket_mask, flow_hash, j);
      for (auto m = rs.old_buckets[b].match_mask(tag); m != 0; m &= m - 1) {
        const auto s =
            slot_base(b) + static_cast<std::size_t>(std::countr_zero(m));
        const WsafEntry& e = rs.old_slots[s];
        if (e.flow_id == flow_id && e.key == key) return s;
      }
    }
    return npos;
  }
  for (unsigned i = 0; i < config_.probe_limit; ++i) {
    const auto s = probe_slot(rs.old_mask, flow_hash, i);
    const WsafEntry& e = rs.old_slots[s];
    if (e.occupied && e.flow_id == flow_id && e.key == key) return s;
  }
  return npos;
}

std::optional<WsafTable::Accumulated> WsafTable::accumulate_in_old(
    const netio::FlowKey& key, std::uint64_t flow_hash, double est_packets,
    double est_bytes, std::uint64_t now_ns) {
  const auto s = find_in_old(key, flow_hash);
  if (s == resize_->old_slots.size()) return std::nullopt;
  WsafEntry& e = resize_->old_slots[s];
  if (expired(e, now_ns)) {
    // One accumulate() would reclaim, not resume, this record: treat the
    // flow as absent and let the migration sweep collect the corpse.
    return std::nullopt;
  }
  e.packets += est_packets;
  e.bytes += est_bytes;
  e.last_update_ns = now_ns;
  e.referenced = true;
  ++stats_.updates;
  tel_updates_.inc();
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafUpdate,
             flow_hash, e.packets, 0);
  const Accumulated out{e.packets, e.bytes, e.first_seen_ns};
  // Migrate on touch: an active flow moves the moment traffic reaches it,
  // instead of waiting for the cursor sweep to arrive.
  place_migrated(e, flow_hash);
  clear_old_slot(s);
  --resize_->old_occupied;
  ++resize_stats_.entries_migrated;
  tel_resize_migrated_.inc();
  complete_resize_if_drained();
  return out;
}

void WsafTable::complete_resize_if_drained() {
  if (resize_ == nullptr || resize_->old_occupied != 0) return;
  const unsigned old_log2 = resize_->old_log2;
  resize_.reset();
  ++resize_stats_.completed;
  tel_resize_completed_.inc();
  tel_resize_in_flight_.set(0);
  trace_wsaf(trace_, trace_track_, telemetry::TraceEventKind::kWsafResize, 0,
             static_cast<double>(old_log2), 1);
}

namespace {

// Snapshot format: header (magic, version, config) then one fixed-width
// record per occupied slot. Little-endian host assumed (x86/ARM targets).
//
// v2 ("IMWSAF02") carries the layout in the header and load() validates
// each record against it; bucket metadata is never serialized — tags are
// derivable from each record's key (tag == low byte of flow_id), so load()
// rebuilds them. v1 ("IMWSAF01") predates the layout field and the record
// checks; load() rejects it by name.
constexpr char kMagicV1[8] = {'I', 'M', 'W', 'S', 'A', 'F', '0', '1'};
constexpr char kMagicV2[8] = {'I', 'M', 'W', 'S', 'A', 'F', '0', '2'};

struct SnapshotHeaderV2 {  // 48 bytes
  char magic[8];
  std::uint32_t log2_entries;
  std::uint32_t probe_limit;
  std::uint32_t layout;    // WsafLayout as u32
  std::uint32_t reserved;  // 0, or the old region's log2_entries when the
                           // snapshot captured an in-flight resize (the
                           // field was written as zero and ignored before
                           // resize support, so old readers/files agree)
  std::uint64_t idle_timeout_ns;
  std::uint64_t seed;
  std::uint64_t occupied;
};

// High bit of SnapshotRecord::slot marks a record still in the OLD region
// of an in-flight resize; the remaining bits index the old geometry.
constexpr std::uint64_t kOldRegionSlotBit = std::uint64_t{1} << 63;

struct SnapshotRecord {
  std::uint64_t slot;
  std::uint32_t src_ip, dst_ip;
  std::uint16_t src_port, dst_port;
  std::uint8_t proto;
  std::uint8_t referenced;
  std::uint32_t flow_id;
  double packets;
  double bytes;
  std::uint64_t first_seen_ns;
  std::uint64_t last_update_ns;
};

}  // namespace

void WsafTable::save(const std::string& path) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error("WsafTable::save: cannot open " + path);

  SnapshotHeaderV2 header{};
  std::memcpy(header.magic, kMagicV2, sizeof kMagicV2);
  header.log2_entries = config_.log2_entries;
  header.probe_limit = config_.probe_limit;
  header.layout = static_cast<std::uint32_t>(config_.layout);
  header.reserved = resize_ != nullptr ? resize_->old_log2 : 0;
  header.idle_timeout_ns = config_.idle_timeout_ns;
  header.seed = config_.seed;
  header.occupied = occupied_;  // both regions; each flow is in exactly one
  out.write(reinterpret_cast<const char*>(&header), sizeof header);

  const auto write_record = [&](std::size_t slot, const WsafEntry& e,
                                bool old_region) {
    SnapshotRecord rec{};
    rec.slot = old_region ? (slot | kOldRegionSlotBit) : slot;
    rec.src_ip = e.key.src_ip;
    rec.dst_ip = e.key.dst_ip;
    rec.src_port = e.key.src_port;
    rec.dst_port = e.key.dst_port;
    rec.proto = e.key.proto;
    rec.referenced = e.referenced ? 1 : 0;
    rec.flow_id = e.flow_id;
    rec.packets = e.packets;
    rec.bytes = e.bytes;
    rec.first_seen_ns = e.first_seen_ns;
    rec.last_update_ns = e.last_update_ns;
    out.write(reinterpret_cast<const char*>(&rec), sizeof rec);
  };

  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].occupied) write_record(s, slots_[s], /*old_region=*/false);
  }
  if (resize_ != nullptr) {
    // Not-yet-migrated entries, flagged so load() can either finish the
    // migration or reject a torn file — new-region records always precede
    // old-region ones.
    for (std::size_t s = 0; s < resize_->old_slots.size(); ++s) {
      if (resize_->old_slots[s].occupied) {
        write_record(s, resize_->old_slots[s], /*old_region=*/true);
      }
    }
  }
  if (!out) throw std::runtime_error("WsafTable::save: write failed");
}

WsafTable WsafTable::load(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("WsafTable::load: cannot open " + path);

  char magic[8] = {};
  in.read(magic, sizeof magic);
  if (!in) throw std::runtime_error("WsafTable::load: bad snapshot header");

  if (std::memcmp(magic, kMagicV1, sizeof magic) == 0) {
    throw std::runtime_error(
        "WsafTable::load: IMWSAF01 (v1) snapshots are no longer supported; "
        "only IMWSAF02 loads");
  }
  if (std::memcmp(magic, kMagicV2, sizeof magic) != 0) {
    throw std::runtime_error("WsafTable::load: bad snapshot header");
  }
  SnapshotHeaderV2 header{};
  std::memcpy(header.magic, magic, sizeof magic);
  in.read(reinterpret_cast<char*>(&header) + sizeof magic,
          sizeof header - sizeof magic);
  if (!in) throw std::runtime_error("WsafTable::load: truncated v2 header");
  if (header.layout > static_cast<std::uint32_t>(WsafLayout::kBucketed)) {
    throw std::runtime_error("WsafTable::load: unknown layout in header");
  }
  WsafConfig config;
  config.layout = static_cast<WsafLayout>(header.layout);
  if (config.layout == WsafLayout::kBucketed && header.log2_entries < 4) {
    throw std::runtime_error(
        "WsafTable::load: bad bucket count (bucketed layout needs "
        "log2_entries >= 4)");
  }
  config.log2_entries = header.log2_entries;
  config.probe_limit = header.probe_limit;
  config.idle_timeout_ns = header.idle_timeout_ns;
  config.seed = header.seed;
  const std::uint64_t claimed_occupied = header.occupied;
  // Nonzero: the snapshot captured an in-flight resize and old_log2 names
  // the source region's geometry; load() completes the migration.
  const unsigned old_log2 = header.reserved;

  if (config.log2_entries > 40) {
    throw std::runtime_error("WsafTable::load: implausible table size");
  }
  if (config.probe_limit == 0) {
    // A zero probe window makes every lookup/accumulate a no-op; a table
    // restored from such a header would silently drop all traffic.
    throw std::runtime_error("WsafTable::load: probe_limit must be > 0");
  }
  if (old_log2 != 0) {
    // An in-flight resize only ever grows, and a bucketed source region
    // must itself have been a whole number of buckets.
    if (old_log2 >= config.log2_entries) {
      throw std::runtime_error(
          "WsafTable::load: in-flight resize source (2^" +
          std::to_string(old_log2) + ") is not smaller than the table (2^" +
          std::to_string(config.log2_entries) + ")");
    }
    if (config.layout == WsafLayout::kBucketed && old_log2 < 4) {
      throw std::runtime_error(
          "WsafTable::load: in-flight resize source too small for the "
          "bucketed layout (log2 " + std::to_string(old_log2) + " < 4)");
    }
  }
  const std::uint64_t capacity =
      (std::uint64_t{1} << config.log2_entries) +
      (old_log2 != 0 ? (std::uint64_t{1} << old_log2) : 0);
  if (claimed_occupied > capacity) {
    throw std::runtime_error(
        "WsafTable::load: occupied count exceeds table capacity");
  }

  WsafTable table{config};

  // Old-region bookkeeping for an in-flight snapshot: records are placed
  // straight into the (already larger) table — the migration completes at
  // load instead of resuming, so the restored table is never torn.
  const std::uint64_t old_capacity =
      old_log2 != 0 ? (std::uint64_t{1} << old_log2) : 0;
  const std::uint64_t old_mask = old_capacity != 0 ? old_capacity - 1 : 0;
  std::uint64_t old_bucket_mask = 0;
  unsigned old_bucket_window = 0;
  if (old_log2 != 0 && config.layout == WsafLayout::kBucketed) {
    const std::uint64_t old_buckets = old_capacity / WsafBucketMeta::kSlots;
    old_bucket_mask = old_buckets - 1;
    old_bucket_window = static_cast<unsigned>(std::min<std::uint64_t>(
        (config.probe_limit + WsafBucketMeta::kSlots - 1) /
            WsafBucketMeta::kSlots,
        old_buckets));
  }
  std::vector<bool> old_seen(static_cast<std::size_t>(old_capacity), false);

  for (std::uint64_t i = 0; i < claimed_occupied; ++i) {
    SnapshotRecord rec{};
    in.read(reinterpret_cast<char*>(&rec), sizeof rec);
    if (!in) throw std::runtime_error("WsafTable::load: truncated snapshot");
    if ((rec.slot & kOldRegionSlotBit) != 0 && old_log2 != 0) {
      // A not-yet-migrated entry of an in-flight resize. Validate it
      // against the OLD geometry it was stored under, then complete its
      // migration by placing it into the restored (new-geometry) table.
      const auto old_slot =
          static_cast<std::size_t>(rec.slot & ~kOldRegionSlotBit);
      if (old_slot >= old_capacity) {
        throw std::runtime_error(
            "WsafTable::load: old-region slot out of range");
      }
      if (old_seen[old_slot]) {
        throw std::runtime_error(
            "WsafTable::load: duplicate old-region slot in snapshot");
      }
      old_seen[old_slot] = true;
      const netio::FlowKey key{rec.src_ip, rec.dst_ip, rec.src_port,
                               rec.dst_port, rec.proto};
      const auto rebuilt = key.hash(config.seed);
      if (static_cast<std::uint32_t>(rebuilt >> 32) != rec.flow_id) {
        throw std::runtime_error(
            "WsafTable::load: record flow_id does not match its key");
      }
      bool reachable = false;
      if (config.layout == WsafLayout::kBucketed) {
        const auto bucket = old_slot / WsafBucketMeta::kSlots;
        for (unsigned j = 0; j < old_bucket_window && !reachable; ++j) {
          reachable = probe_bucket(old_bucket_mask, rebuilt, j) == bucket;
        }
      } else {
        for (unsigned p = 0; p < config.probe_limit && !reachable; ++p) {
          reachable = probe_slot(old_mask, rebuilt, p) == old_slot;
        }
      }
      if (!reachable) {
        throw std::runtime_error(
            "WsafTable::load: old-region slot outside its key's probe "
            "window");
      }
      // Place into the new region: first free slot in the key's window. A
      // copy of the flow already restored there, or a window with no free
      // slot, means the snapshot is torn — reject, never evict on load.
      std::size_t dest = table.slots_.size();
      if (config.layout == WsafLayout::kBucketed) {
        const auto tag = WsafBucketMeta::tag_of(rebuilt);
        for (unsigned j = 0; j < table.bucket_window_; ++j) {
          const auto b = table.bucket_of(rebuilt, j);
          for (auto m = table.buckets_[b].match_mask(tag); m != 0;
               m &= m - 1) {
            const auto s =
                slot_base(b) + static_cast<std::size_t>(std::countr_zero(m));
            const WsafEntry& n = table.slots_[s];
            if (n.flow_id == rec.flow_id && n.key == key) {
              throw std::runtime_error(
                  "WsafTable::load: flow present in both resize regions");
            }
          }
          if (dest == table.slots_.size()) {
            if (const auto bits = table.buckets_[b].free_mask(); bits != 0) {
              dest = slot_base(b) +
                     static_cast<std::size_t>(std::countr_zero(bits));
            }
          }
        }
        if (dest == table.slots_.size()) {
          throw std::runtime_error(
              "WsafTable::load: no free slot completing in-flight "
              "migration");
        }
        table.buckets_[dest / WsafBucketMeta::kSlots].set(
            dest % WsafBucketMeta::kSlots, tag);
      } else {
        for (unsigned p = 0; p < config.probe_limit; ++p) {
          const auto s = table.slot_of(rebuilt, p);
          const WsafEntry& n = table.slots_[s];
          if (!n.occupied) {
            if (dest == table.slots_.size()) dest = s;
            continue;
          }
          if (n.flow_id == rec.flow_id && n.key == key) {
            throw std::runtime_error(
                "WsafTable::load: flow present in both resize regions");
          }
        }
        if (dest == table.slots_.size()) {
          throw std::runtime_error(
              "WsafTable::load: no free slot completing in-flight "
              "migration");
        }
      }
      WsafEntry& e = table.slots_[dest];
      e.key = key;
      e.flow_id = rec.flow_id;
      e.packets = rec.packets;
      e.bytes = rec.bytes;
      e.first_seen_ns = rec.first_seen_ns;
      e.last_update_ns = rec.last_update_ns;
      e.occupied = true;
      e.referenced = rec.referenced != 0;
      ++table.occupied_;
      if (rec.last_update_ns > table.latest_ns_) {
        table.latest_ns_ = rec.last_update_ns;
      }
      continue;
    }
    if (rec.slot >= table.slots_.size()) {
      throw std::runtime_error("WsafTable::load: slot out of range");
    }
    WsafEntry& e = table.slots_[rec.slot];
    if (e.occupied) {
      // Two records claiming one slot means the snapshot is corrupt; the
      // second write would silently drop the first flow's counters.
      throw std::runtime_error("WsafTable::load: duplicate slot in snapshot");
    }
    e.key = netio::FlowKey{rec.src_ip, rec.dst_ip, rec.src_port, rec.dst_port,
                           rec.proto};
    const auto rebuilt = e.key.hash(config.seed);
    if (static_cast<std::uint32_t>(rebuilt >> 32) != rec.flow_id) {
      // Either the key or the flow_id bytes were corrupted; in the
      // bucketed layout a wrong flow_id also means a wrong fingerprint
      // tag, so the restored entry would be unfindable.
      throw std::runtime_error(
          "WsafTable::load: record flow_id does not match its key");
    }
    bool reachable = false;
    if (config.layout == WsafLayout::kBucketed) {
      const auto bucket = rec.slot / WsafBucketMeta::kSlots;
      for (unsigned j = 0; j < table.bucket_window_ && !reachable; ++j) {
        reachable = table.bucket_of(rebuilt, j) == bucket;
      }
    } else {
      for (unsigned p = 0; p < config.probe_limit && !reachable; ++p) {
        reachable = table.slot_of(rebuilt, p) == rec.slot;
      }
    }
    if (!reachable) {
      throw std::runtime_error(
          "WsafTable::load: record slot outside its key's probe window");
    }
    if (config.layout == WsafLayout::kBucketed) {
      table.buckets_[rec.slot / WsafBucketMeta::kSlots].set(
          rec.slot % WsafBucketMeta::kSlots, WsafBucketMeta::tag_of(rebuilt));
    }
    e.flow_id = rec.flow_id;
    e.packets = rec.packets;
    e.bytes = rec.bytes;
    e.first_seen_ns = rec.first_seen_ns;
    e.last_update_ns = rec.last_update_ns;
    e.occupied = true;
    e.referenced = rec.referenced != 0;
    // occupied_ derives from records actually restored, never from the
    // header's claim (which past the checks above could still disagree).
    ++table.occupied_;
    if (rec.last_update_ns > table.latest_ns_) {
      table.latest_ns_ = rec.last_update_ns;
    }
  }
  table.tel_occupancy_.set(static_cast<double>(table.occupied_));
  return table;
}

void WsafTable::roll_pressure_window() noexcept {
  eviction_pressure_ = static_cast<double>(window_stress_) /
                       static_cast<double>(window_accumulates_);
  window_stress_ = 0;
  window_accumulates_ = 0;
  tel_eviction_pressure_.set(eviction_pressure_);
  tel_pressure_level_.set(static_cast<double>(pressure().level));
  // Pressure-driven auto-grow: sustained saturation means the working set
  // outgrew the provisioning guess — double the table instead of grinding
  // on forced evictions. One window of relief resets the streak.
  if (config_.grow_after_saturated_windows == 0 || resize_ != nullptr) return;
  if (pressure().level == WsafPressureLevel::kSaturated) {
    if (++saturated_streak_ >= config_.grow_after_saturated_windows) {
      // May fail (cap reached or allocation) — the failed attempt resets
      // the streak so a capped table retries at most once per N windows.
      (void)begin_resize(config_.log2_entries + 1);
      saturated_streak_ = 0;
    }
  } else {
    saturated_streak_ = 0;
  }
}

void WsafTable::reset() {
  std::fill(slots_.begin(), slots_.end(), WsafEntry{});
  std::fill(buckets_.begin(), buckets_.end(), WsafBucketMeta{});
  occupied_ = 0;
  stats_ = WsafStats{};
  window_accumulates_ = 0;
  window_stress_ = 0;
  eviction_pressure_ = 0.0;
  latest_ns_ = 0;
  sweep_cursor_ = 0;
  // An in-flight resize completes trivially: every entry is dropped anyway,
  // so the table simply keeps its (already swapped-in) new capacity.
  resize_.reset();
  resize_stats_ = WsafResizeStats{};
  saturated_streak_ = 0;
  // Telemetry counters stay monotone across resets (Prometheus semantics);
  // only point-in-time gauges rewind.
  tel_occupancy_.set(0);
  tel_pressure_level_.set(0);
  tel_eviction_pressure_.set(0);
  tel_resize_in_flight_.set(0);
  tel_log2_entries_.set(static_cast<double>(config_.log2_entries));
}

}  // namespace instameasure::core
