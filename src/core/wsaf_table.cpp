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

// The probe_limit bound shared by the constructor and load().
std::string probe_limit_beyond_table(unsigned probe_limit,
                                     unsigned log2_entries) {
  return "probe_limit (" + std::to_string(probe_limit) +
         ") exceeds the table's 2^" + std::to_string(log2_entries) + " = " +
         std::to_string(std::uint64_t{1} << log2_entries) + " slots";
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
  if (config.probe_limit == 0) {
    // A zero probe window finds no slot: every accumulate would evict
    // nothing yet count an insert and an eviction, and no flow is findable.
    throw std::invalid_argument("WsafConfig: probe_limit (0) must be > 0");
  }
  if (config.probe_limit > config.entries()) {
    // The same bound load() applies, so every table save() writes loads: a
    // longer window only revisits slots, at up to ~4e9 probes per event.
    throw std::invalid_argument(
        "WsafConfig: " +
        probe_limit_beyond_table(config.probe_limit, config.log2_entries));
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
  return std::nullopt;
}

std::vector<const WsafEntry*> WsafTable::live_entries(
    std::uint64_t now_ns) const {
  std::vector<const WsafEntry*> out;
  out.reserve(occupied_);
  for (const auto& e : slots_) {
    if (e.occupied && !expired(e, now_ns)) out.push_back(&e);
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
  std::uint32_t reserved;  // always 0; nonzero was an in-flight resize
  std::uint64_t idle_timeout_ns;
  std::uint64_t seed;
  std::uint64_t occupied;
};

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
  header.reserved = 0;
  header.idle_timeout_ns = config_.idle_timeout_ns;
  header.seed = config_.seed;
  header.occupied = occupied_;
  out.write(reinterpret_cast<const char*>(&header), sizeof header);

  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const WsafEntry& e = slots_[s];
    if (!e.occupied) continue;
    SnapshotRecord rec{};
    rec.slot = s;
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
  if (header.reserved != 0) {
    // Only the retired online resize wrote a nonzero value here (the log2
    // of the region it was migrating out of), followed by records of that
    // second region; tables are fixed-size now.
    throw std::runtime_error(
        "WsafTable::load: header reserved field is " +
        std::to_string(header.reserved) +
        ", marking a snapshot of an in-flight resize; online resize was "
        "removed and such snapshots no longer load");
  }
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

  if (config.log2_entries > kMaxLog2Entries) {
    throw std::runtime_error("WsafTable::load: implausible table size");
  }
  if (config.probe_limit == 0) {
    // A zero probe window makes every lookup/accumulate a no-op; a table
    // restored from such a header would silently drop all traffic.
    throw std::runtime_error("WsafTable::load: probe_limit must be > 0");
  }
  const std::uint64_t capacity = std::uint64_t{1} << config.log2_entries;
  if (config.probe_limit > capacity) {
    // Every accumulate walks the whole window, so a header claiming ~4e9
    // probes over a small table would stall the first one for seconds.
    throw std::runtime_error(
        "WsafTable::load: " +
        probe_limit_beyond_table(config.probe_limit, config.log2_entries));
  }
  if (claimed_occupied > capacity) {
    throw std::runtime_error(
        "WsafTable::load: occupied count exceeds table capacity");
  }

  WsafTable table{config};

  for (std::uint64_t i = 0; i < claimed_occupied; ++i) {
    SnapshotRecord rec{};
    in.read(reinterpret_cast<char*>(&rec), sizeof rec);
    if (!in) throw std::runtime_error("WsafTable::load: truncated snapshot");
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
  // Telemetry counters stay monotone across resets (Prometheus semantics);
  // only point-in-time gauges rewind.
  tel_occupancy_.set(0);
  tel_pressure_level_.set(0);
  tel_eviction_pressure_.set(0);
}

}  // namespace instameasure::core
