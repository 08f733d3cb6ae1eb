// LockFreeStateIndexMap: the compressing, out-of-core sibling of
// ShardedStateIndexMap — the storage layer behind `--store lockfree`.
//
// Three tiers, one interface:
//
//   1. An open-addressed probe table per shard: a power-of-two array of
//      64-bit slots packing (fingerprint << 32) | (local + 1), where the
//      fingerprint is the low 32 bits of the state hash and 0 marks an empty
//      slot. A probe compares fingerprints first and reads a stored state
//      only on a fingerprint match. A shard grows its own table at 70% load,
//      rehashing from the fingerprints alone.
//
//   2. Delta compression of the closed set. The arena is paged (1024 states
//      per page, stable addresses). Once a BFS level is sealed — the engines
//      call quiescent_maintain() between levels — every full page whose
//      states predate the previous quiescent point is recompressed against a
//      per-page reference state: per state, a byte-mask plus the bytes that
//      differ from the reference. States within a level share long prefixes
//      (odometer successor order), so this routinely shrinks the closed set
//      severalfold while the probe fingerprints stay hot in the slot table.
//
//   3. Out-of-core write-behind spill (DESIGN.md §3.9). When memory_bytes()
//      exceeds the configured budget, sealed pages are *enqueued* to a
//      dedicated I/O thread (support/spill_writer.hpp) — one unlinked temp
//      file per shard, each with its own append offset — and maintain
//      returns without waiting for the writes. Page bodies stay resident
//      until a later maintain step harvests their completions, so readers
//      never race a tier change; the only synchronous barrier (counted in
//      StoreStats::spill_sync_waits) is taken when the budget is still
//      exceeded with writes in flight. One Bloom filter over the
//      fingerprints of every shard absorbs definitely-absent membership
//      probes. Runs whose closed set exceeds RAM finish with exact counts.
//
// Id encoding matches ShardedStateIndexMap exactly — id = (local <<
// log2(shards)) | shard, shard routing from the top hash-bit window
// (support/hash.hpp) — so verdicts, counts and extracted traces are
// bit-identical between the stores at any thread count.
//
// Thread-safety contract (owner-exclusive shards, as ShardedStateIndexMap):
//   * insert()        — inserts to *different* shards may run concurrently;
//                       each shard admits one writer at a time. The frontier
//                       engines' drain phase gives every shard to exactly one
//                       thread. The only memory two shard owners share is the
//                       Bloom filter, whose bits are set with atomic fetch_or.
//   * find()/at()     — plain reads; safe concurrently with each other, never
//                       with an insert to the same shard (the level-
//                       synchronous engines read only between write phases).
//   * quiescent_maintain()/reserve()/size()/memory_bytes()/store_stats() —
//                       quiescent phases only (single thread, no concurrent
//                       access).
//
// Memory order: the engines separate write and read phases with a barrier,
// which orders every insert's plain slot and arena stores before the next
// phase's reads. Tier transitions (sealing, and the sealed→spilled flip after
// a write becomes durable) and Bloom rebuilds happen only at quiescent
// points, so the concurrent phases never observe one.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/sharded_state_index_map.hpp"  // StateCapacityError
#include "support/spill_writer.hpp"

// Out-of-core support needs the POSIX pieces (SpillWriter::platform_supported
// reports the same condition at runtime); kept as a macro so tests can
// compile-guard the spill-tier expectations.
#if defined(__unix__) || defined(__APPLE__)
#define TT_LFSIM_HAS_SPILL 1
#else
#define TT_LFSIM_HAS_SPILL 0
#endif

namespace tt {

template <std::size_t W>
class LockFreeStateIndexMap {
 public:
  using State = std::array<std::uint64_t, W>;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr unsigned kMaxShards = 256;
  static_assert((1u << kShardWindowBits) == kMaxShards,
                "shard window must cover kMaxShards exactly");

  /// Cumulative counters, readable at quiescent points (store_stats()).
  struct StoreStats {
    std::size_t pages_compressed = 0;  ///< arena pages sealed to delta form
    std::size_t pages_spilled = 0;     ///< page bodies evicted out of RAM
    std::size_t spill_bytes = 0;       ///< compressed bytes handed to the writer
    std::size_t bloom_negatives = 0;   ///< finds short-circuited by the Bloom
    std::size_t spill_sync_waits = 0;  ///< synchronous write-behind barriers
    std::size_t spill_async_pages = 0; ///< pages enqueued without blocking
  };

  /// Resident-byte accounting, component by component; memory_bytes() is
  /// exactly the sum. A regression test pins this formula so the budget
  /// enforcement can't silently stop counting a component.
  struct MemoryBreakdown {
    std::size_t slots = 0;         ///< probe tables across all shards
    std::size_t raw_pages = 0;     ///< uncompressed arena pages
    std::size_t sealed_pages = 0;  ///< delta streams + anchor tables
    std::size_t bloom = 0;
    std::size_t spill_writer = 0;  ///< ring + per-shard file metadata

    [[nodiscard]] std::size_t total() const noexcept {
      return slots + raw_pages + sealed_pages + bloom + spill_writer;
    }
  };

  /// `max_states_per_shard` lowers the per-shard dense-id cap below the
  /// encoding limit; insert() throws StateCapacityError beyond it. With one
  /// shard this is an exact total cap (as for ShardedStateIndexMap).
  explicit LockFreeStateIndexMap(unsigned shard_count = 1,
                                 std::size_t initial_capacity = 1 << 12,
                                 std::uint64_t max_states_per_shard = ~0ull) {
    TT_REQUIRE(shard_count >= 1 && shard_count <= kMaxShards, "bad shard count");
    unsigned shards = 1;
    shard_bits_ = 0;
    while (shards < shard_count) {
      shards <<= 1;
      ++shard_bits_;
    }
    shard_mask_ = shards - 1;
    // Ids never reach 0xffffffff: cap each shard one short of its local
    // space, which also keeps the slot's local+1 field within 32 bits.
    local_limit_ = (shard_bits_ == 32) ? 0 : ((1ull << (32 - shard_bits_)) - 1);
    if (max_states_per_shard < local_limit_) local_limit_ = max_states_per_shard;
    shards_ = std::make_unique<Shard[]>(shards);
    const std::size_t per_shard = initial_capacity / shards + 64;
    for (unsigned s = 0; s <= shard_mask_; ++s) shards_[s].init(per_shard);
  }

  [[nodiscard]] unsigned shard_count() const noexcept { return shard_mask_ + 1; }

  [[nodiscard]] unsigned shard_of(const State& s) const noexcept {
    return shard_of(hash_words(s));
  }
  /// Hash-once shard routing; `h` must equal `hash_words(s)`. Same top-bit
  /// window as ShardedStateIndexMap, so both stores assign identical ids.
  [[nodiscard]] unsigned shard_of(std::uint64_t h) const noexcept {
    return static_cast<unsigned>(h >> kShardHashShift) & shard_mask_;
  }
  [[nodiscard]] unsigned shard_of_id(std::uint32_t id) const noexcept {
    return id & shard_mask_;
  }
  [[nodiscard]] std::uint32_t local_of_id(std::uint32_t id) const noexcept {
    return id >> shard_bits_;
  }
  [[nodiscard]] std::uint32_t id_of(unsigned shard, std::uint32_t local) const noexcept {
    return (local << shard_bits_) | shard;
  }

  /// Interns `s`. Returns {id, fresh}. The caller must be the only writer
  /// of `s`'s shard for the duration of the call.
  std::pair<std::uint32_t, bool> insert(const State& s) { return insert(s, hash_words(s)); }

  /// Hash-once intern; `h` must equal `hash_words(s)`. Grows only the
  /// probe table of `s`'s own shard.
  std::pair<std::uint32_t, bool> insert(const State& s, std::uint64_t h) {
    const unsigned idx = shard_of(h);
    Shard& sh = shards_[idx];
    if ((std::size_t{sh.count} + 1) * 10 >= (sh.mask + 1) * 7) grow_shard(sh, (sh.mask + 1) * 2);
    const auto fp = static_cast<std::uint32_t>(h);
    std::uint64_t& slot = sh.slots[probe(sh, fp, s)];
    if (slot != 0) return {id_of(idx, static_cast<std::uint32_t>(slot) - 1), false};
    if (sh.count >= local_limit_) {
      throw StateCapacityError("LockFreeStateIndexMap: shard dense-id space exhausted");
    }
    const std::uint32_t local = sh.count;
    if ((local & kPageOffMask) == 0) sh.pages.push_back(std::make_unique<Page>(idx));
    sh.pages.back()->raw[local & kPageOffMask] = s;
    slot = (static_cast<std::uint64_t>(fp) << 32) | (local + 1);
    ++sh.count;
    bloom_add(fp);
    return {id_of(idx, local), true};
  }

  /// Same as insert(); kept because benchmark/replay.hpp names it.
  std::pair<std::uint32_t, bool> insert_serial(const State& s, std::uint64_t h) {
    return insert(s, h);
  }

  [[nodiscard]] std::uint32_t find(const State& s) const { return find(s, hash_words(s)); }

  /// Hash-once lookup; Bloom-fronted, then the probe walk.
  [[nodiscard]] std::uint32_t find(const State& s, std::uint64_t h) const {
    const auto fp = static_cast<std::uint32_t>(h);
    if (bloom_mask_ != 0 && !bloom_maybe(fp)) {
      bloom_negatives_.fetch_add(1, std::memory_order_relaxed);
      return kEmpty;
    }
    const unsigned idx = shard_of(h);
    const Shard& sh = shards_[idx];
    const std::uint64_t v = sh.slots[probe(sh, fp, s)];
    return v == 0 ? kEmpty : id_of(idx, static_cast<std::uint32_t>(v) - 1);
  }

  /// Decoding read: raw pages are a direct load; sealed and spilled pages
  /// reconstruct the state from the reference + delta stream. Returns by
  /// value — callers bind a const reference or copy, both are fine.
  [[nodiscard]] State at(std::uint32_t id) const {
    return state_at(shards_[id & shard_mask_], id >> shard_bits_);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (unsigned s = 0; s <= shard_mask_; ++s) total += shards_[s].count;
    return total;
  }

  [[nodiscard]] std::size_t shard_size(unsigned shard) const noexcept {
    return shards_[shard].count;
  }

  /// Resident bytes, component by component. Quiescent phases only.
  [[nodiscard]] MemoryBreakdown memory_breakdown() const noexcept {
    MemoryBreakdown b;
    b.sealed_pages = sealed_bytes_;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      const Shard& sh = shards_[s];
      b.slots += sh.slots.size() * sizeof(std::uint64_t);
      b.raw_pages += (sh.pages.size() - sh.sealed_pages) * kPageStates * sizeof(State);
    }
    if (bloom_mask_ != 0) b.bloom = (bloom_mask_ + 1) / 8;
    if (writer_) b.spill_writer = writer_->memory_bytes();
    return b;
  }

  /// Resident bytes: the sum of every memory_breakdown() component. Spilled
  /// bytes live on disk and are excluded. Quiescent phases only.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return memory_breakdown().total();
  }

  /// Pre-sizes every shard for `total_states` overall (25% skew margin) and
  /// builds the Bloom front. Not thread-safe; call before exploration.
  void reserve(std::size_t total_states) {
    const std::size_t per_shard =
        total_states / shard_count() + total_states / (4 * shard_count()) + 64;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      Shard& sh = shards_[s];
      std::size_t cap = sh.mask + 1;
      while ((per_shard + 1) * 10 >= cap * 7) cap <<= 1;
      if (cap != sh.mask + 1) grow_shard(sh, cap);
    }
    grow_bloom_for(total_states);
  }

  /// Sets the resident-memory budget in bytes (0 = unlimited). Sealed pages
  /// are spilled to disk at quiescent points while memory_bytes() exceeds it.
  void set_mem_budget(std::size_t bytes) { mem_budget_bytes_ = bytes; }

  /// Overrides the spill directory (--spill-dir); wins over TTSTART_SPILL_DIR.
  /// Must be set before the first spill. An unwritable directory surfaces as
  /// StateCapacityError from the maintain step, never a silent /tmp fallback.
  void set_spill_dir(std::string dir) {
    TT_REQUIRE(!writer_, "set_spill_dir must precede the first spill");
    spill_dir_ = std::move(dir);
  }

  /// Forces every maintain step to wait for its spill writes (the pre-
  /// write-behind behavior). Bench baseline dial; off by default.
  void set_spill_synchronous(bool on) { spill_sync_ = on; }

  [[nodiscard]] StoreStats store_stats() const noexcept {
    StoreStats st = stats_;
    st.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
    return st;
  }

  /// The between-levels maintenance step; must be called with no concurrent
  /// access (the engines call it from the coordinator between barriers).
  ///
  ///   1. Harvests write-behind completions from the I/O thread and flips
  ///      the newly durable pages' tier (readers only ever see the flip
  ///      after this quiescent point).
  ///   2. Grows any shard whose table would exceed ~50% load after
  ///      `expected_new_states` more inserts (rehash from fingerprints alone
  ///      — sealed states never need decoding to rehash). A headroom hint
  ///      only: insert() still grows a shard that outruns it.
  ///   3. Grows/rebuilds the Bloom filter toward 16 bits per state; the
  ///      only place it grows, since a rebuild reads every shard.
  ///   4. Seals every full arena page whose states predate the *previous*
  ///      quiescent point (the current frontier stays raw for fast expand
  ///      reads) and delta-compresses it.
  ///   5. Under a memory budget, enqueues sealed pages to the write-behind
  ///      thread and frees the oldest *durable* bodies while over budget;
  ///      takes the synchronous barrier only when still over budget with
  ///      writes in flight (StoreStats::spill_sync_waits).
  void quiescent_maintain(std::size_t expected_new_states = 0) {
    harvest_spill();
    const std::size_t expected_share =
        expected_new_states / shard_count() + expected_new_states / (4 * shard_count()) + 16;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      Shard& sh = shards_[s];
      const std::size_t need = sh.count + expected_share;
      std::size_t cap = sh.mask + 1;
      while ((need + 1) * 2 >= cap) cap <<= 1;  // target load <= ~0.5 post-growth
      if (cap != sh.mask + 1) grow_shard(sh, cap);
    }
    const std::size_t total = size();
    if (bloom_mask_ == 0 || total * 16 > bloom_mask_ + 1) {
      grow_bloom_for(total + total / 2 + 1024);
    }
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      Shard& sh = shards_[s];
      const std::uint32_t sealable_limit = sh.prev_quiescent;
      sh.prev_quiescent = sh.count;
      while ((sh.sealed_pages + 1) * kPageStates <= sealable_limit) {
        Page* pg = sh.pages[sh.sealed_pages].get();
        seal_page(*pg);
        spill_queue_.push_back(pg);
        ++sh.sealed_pages;
      }
    }
    if (mem_budget_bytes_ != 0 && SpillWriter::platform_supported()) {
      // Write-behind: hand every newly sealed page to the I/O thread and
      // return; bodies stay resident (and readable) until their writes are
      // durable *and* a later maintain step frees them.
      const bool enqueue = enqueue_head_ < spill_queue_.size();
      if (!writer_ && enqueue) writer_ = std::make_unique<SpillWriter>(shard_count(), spill_dir_);
      for (; enqueue_head_ < spill_queue_.size(); ++enqueue_head_) {
        Page* pg = spill_queue_[enqueue_head_];
        const std::uint32_t len = static_cast<std::uint32_t>(pg->packed.size());
        pg->spill_off = writer_->enqueue(pg->owner, pg->packed.data(), len,
                                         reinterpret_cast<std::uint64_t>(pg));
        pg->spill_len = len;
        stats_.spill_bytes += len;
        ++stats_.spill_async_pages;
      }
      if (spill_sync_ && enqueue) {
        writer_->wait_idle();
        ++stats_.spill_sync_waits;
      }
      harvest_spill();
      while (memory_bytes() > mem_budget_bytes_ && free_head_ < spill_queue_.size()) {
        Page* pg = spill_queue_[free_head_];
        if (!pg->durable) {
          // Budget critically exceeded with writes still in flight: the one
          // place the write-behind pipeline takes a synchronous barrier.
          writer_->wait_idle();
          ++stats_.spill_sync_waits;
          harvest_spill();
          if (!pg->durable) break;  // writer failed; surfaced below
        }
        evict_page(*pg);
        ++free_head_;
      }
      if (writer_) {
        if (writer_->failed()) {
          throw StateCapacityError("LockFreeStateIndexMap: " + writer_->error());
        }
        if (!writer_->remap_all()) {
          throw StateCapacityError("LockFreeStateIndexMap: " + writer_->error());
        }
      }
    }
  }

 private:
  static constexpr std::uint32_t kPageBits = 10;  ///< 1024 states per page
  static constexpr std::uint32_t kPageStates = 1u << kPageBits;
  static constexpr std::uint32_t kPageOffMask = kPageStates - 1;
  static constexpr std::uint32_t kAnchorShift = 3;  ///< random-access stride 8
  static constexpr std::uint32_t kAnchorEvery = 1u << kAnchorShift;
  static constexpr std::size_t kStateBytes = W * sizeof(std::uint64_t);

  enum Tier : std::uint8_t {
    kTierRaw = 0,
    kTierSealed = 1,
    kTierSpilled = 2,
  };

  struct Page {
    explicit Page(unsigned shard)
        : raw(std::make_unique<State[]>(kPageStates)), owner(shard) {}

    std::unique_ptr<State[]> raw;        ///< kPageStates entries while kTierRaw
    State ref{};                         ///< delta reference once sealed
    std::vector<std::uint8_t> packed;    ///< mask+delta stream while kTierSealed
    std::vector<std::uint32_t> anchors;  ///< stream offset of every 8th state
    std::uint64_t spill_off = 0;
    std::uint32_t spill_len = 0;
    unsigned owner = 0;     ///< owning shard = this page's spill file index
    bool durable = false;   ///< write-behind completion harvested
    std::uint8_t tier = kTierRaw;
  };

  // One cache line (at least) per shard, so owners of neighbouring shards
  // never write the same line.
  struct alignas(64) Shard {
    std::vector<std::uint64_t> slots;  ///< (fp << 32) | (local + 1); 0 = empty
    std::size_t mask = 0;
    std::uint32_t count = 0;
    std::uint32_t prev_quiescent = 0;  ///< count at the previous maintain()
    std::uint32_t sealed_pages = 0;    ///< pages [0, sealed_pages) are sealed
    /// The arena. Pages are heap-allocated so their addresses stay stable
    /// for spill_queue_ and the spill writer's completion cookies.
    std::vector<std::unique_ptr<Page>> pages;

    void init(std::size_t initial_capacity) {
      std::size_t cap = 64;
      while (cap < initial_capacity) cap <<= 1;
      slots.assign(cap, 0);
      mask = cap - 1;
    }
  };

  /// The slot holding `s` in `sh`, or the empty slot that ends its probe
  /// sequence.
  std::size_t probe(const Shard& sh, std::uint32_t fp, const State& s) const {
    std::size_t slot = fp & sh.mask;
    while (true) {
      const std::uint64_t v = sh.slots[slot];
      if (v == 0) return slot;
      if (static_cast<std::uint32_t>(v >> 32) == fp &&
          state_at(sh, static_cast<std::uint32_t>(v) - 1) == s) {
        return slot;
      }
      slot = (slot + 1) & sh.mask;
    }
  }

  State state_at(const Shard& sh, std::uint32_t local) const {
    const Page& pg = *sh.pages[local >> kPageBits];
    const std::uint32_t off = local & kPageOffMask;
    if (pg.tier == kTierRaw) return pg.raw[off];
    State out;
    decode_into(pg, off, out);
    return out;
  }

  // ---- delta codec -------------------------------------------------------
  // Entry i encodes state i against the page reference: W mask bytes (bit j
  // of mask byte b set iff state byte b*8+j differs from the reference),
  // followed by the differing bytes in order. Entries are independent, so
  // decoding seeks to the nearest anchor and skips at most 7 entries.

  static void encode_entry(const State& ref, const State& s, std::vector<std::uint8_t>& out) {
    const auto* a = reinterpret_cast<const std::uint8_t*>(ref.data());
    const auto* b = reinterpret_cast<const std::uint8_t*>(s.data());
    const std::size_t mask_pos = out.size();
    out.insert(out.end(), W, 0);
    for (std::size_t i = 0; i < kStateBytes; ++i) {
      if (a[i] != b[i]) {
        out[mask_pos + (i >> 3)] |= static_cast<std::uint8_t>(1u << (i & 7));
        out.push_back(b[i]);
      }
    }
  }

  static const std::uint8_t* apply_entry(const std::uint8_t* q, State& s) {
    auto* b = reinterpret_cast<std::uint8_t*>(s.data());
    const std::uint8_t* mask = q;
    q += W;
    for (std::size_t i = 0; i < W; ++i) {
      std::uint8_t m = mask[i];
      while (m != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(m));
        m &= static_cast<std::uint8_t>(m - 1);
        b[i * 8 + bit] = *q++;
      }
    }
    return q;
  }

  static const std::uint8_t* skip_entry(const std::uint8_t* q) {
    std::size_t n = W;
    for (std::size_t i = 0; i < W; ++i) n += static_cast<std::size_t>(std::popcount(q[i]));
    return q + n;
  }

  void decode_into(const Page& pg, std::uint32_t off, State& out) const {
    const std::uint8_t* base;
    if (pg.tier == kTierSpilled) {
      base = writer_->data(pg.owner, pg.spill_off, pg.spill_len);
    } else {
      base = pg.packed.data();
    }
    const std::uint8_t* q = base + pg.anchors[off >> kAnchorShift];
    for (std::uint32_t i = off & (kAnchorEvery - 1); i > 0; --i) q = skip_entry(q);
    out = pg.ref;
    apply_entry(q, out);
  }

  void seal_page(Page& pg) {
    pg.ref = pg.raw[0];
    pg.packed.clear();
    pg.anchors.clear();
    for (std::uint32_t i = 0; i < kPageStates; ++i) {
      if ((i & (kAnchorEvery - 1)) == 0) {
        pg.anchors.push_back(static_cast<std::uint32_t>(pg.packed.size()));
      }
      encode_entry(pg.ref, pg.raw[i], pg.packed);
    }
    pg.packed.shrink_to_fit();
    pg.raw.reset();
    pg.tier = kTierSealed;
    sealed_bytes_ += pg.packed.capacity() + pg.anchors.capacity() * sizeof(std::uint32_t);
    ++stats_.pages_compressed;
  }

  /// Frees the resident body of a page whose write-behind job is durable.
  void evict_page(Page& pg) {
    sealed_bytes_ -= pg.packed.capacity();
    pg.packed.clear();
    pg.packed.shrink_to_fit();
    pg.tier = kTierSpilled;  // anchors stay resident for random access
    ++stats_.pages_spilled;
  }

  /// Collects write-behind completions and marks their pages durable. The
  /// tier flip to kTierSpilled happens later, in evict_page, and only at
  /// quiescent points — concurrent readers never observe a transition.
  void harvest_spill() {
    if (!writer_) return;
    harvest_buf_.clear();
    writer_->harvest(harvest_buf_);
    for (const SpillWriter::Completion& c : harvest_buf_) {
      Page* pg = reinterpret_cast<Page*>(static_cast<std::uintptr_t>(c.cookie));
      TT_ASSERT(pg->spill_off == c.offset && pg->spill_len == c.length);
      pg->durable = true;
    }
  }

  // ---- probe-table growth (the shard's owner, or quiescent) --------------
  // Rehashing needs only the stored fingerprints: a probe's home slot is
  // fp & mask, so it is found without decoding (or re-reading spilled)
  // states.

  static void grow_shard(Shard& sh, std::size_t new_cap) {
    std::vector<std::uint64_t> bigger(new_cap, 0);
    const std::size_t mask = new_cap - 1;
    for (const std::uint64_t v : sh.slots) {
      if (v == 0) continue;
      std::size_t slot = static_cast<std::uint32_t>(v >> 32) & mask;
      while (bigger[slot] != 0) slot = (slot + 1) & mask;
      bigger[slot] = v;
    }
    sh.slots = std::move(bigger);
    sh.mask = mask;
  }

  // ---- Bloom front -------------------------------------------------------
  // One filter for all shards, two bits per state derived from mix64(fp) —
  // rebuildable from the slot words alone. Sized toward 16 bits/state
  // (~1.4% false-maybe rate). Owners of different shards may set bits in
  // the same word, hence the atomic fetch_or.

  void bloom_add(std::uint32_t fp) {
    if (bloom_mask_ == 0) return;
    const std::uint64_t g = mix64(fp);
    const std::size_t p1 = g & bloom_mask_;
    const std::size_t p2 = (g >> 32) & bloom_mask_;
    bloom_[p1 >> 6].fetch_or(1ull << (p1 & 63), std::memory_order_relaxed);
    bloom_[p2 >> 6].fetch_or(1ull << (p2 & 63), std::memory_order_relaxed);
  }

  [[nodiscard]] bool bloom_maybe(std::uint32_t fp) const {
    const std::uint64_t g = mix64(fp);
    const std::size_t p1 = g & bloom_mask_;
    const std::size_t p2 = (g >> 32) & bloom_mask_;
    return ((bloom_[p1 >> 6].load(std::memory_order_relaxed) >> (p1 & 63)) & 1) != 0 &&
           ((bloom_[p2 >> 6].load(std::memory_order_relaxed) >> (p2 & 63)) & 1) != 0;
  }

  void grow_bloom_for(std::size_t states) {
    std::size_t bits = 1 << 14;
    while (bits < states * 16) bits <<= 1;
    if (bloom_mask_ != 0 && bits <= bloom_mask_ + 1) return;
    bloom_ = std::make_unique<std::atomic<std::uint64_t>[]>(bits / 64);  // value-init
    bloom_mask_ = bits - 1;
    for (unsigned s = 0; s <= shard_mask_; ++s) {
      for (const std::uint64_t v : shards_[s].slots) {
        if (v != 0) bloom_add(static_cast<std::uint32_t>(v >> 32));
      }
    }
  }

  std::unique_ptr<Shard[]> shards_;
  unsigned shard_bits_ = 0;
  unsigned shard_mask_ = 0;
  std::uint64_t local_limit_ = 0;

  std::unique_ptr<std::atomic<std::uint64_t>[]> bloom_;
  std::size_t bloom_mask_ = 0;

  std::size_t mem_budget_bytes_ = 0;  ///< 0 = unlimited (never spill)
  std::vector<Page*> spill_queue_;    ///< sealed pages in seal order
  std::size_t enqueue_head_ = 0;      ///< next page to hand to the writer
  std::size_t free_head_ = 0;         ///< next durable page body to free
  std::string spill_dir_;             ///< --spill-dir override (may be empty)
  bool spill_sync_ = false;           ///< bench dial: wait for every spill
  std::vector<SpillWriter::Completion> harvest_buf_;

  std::size_t sealed_bytes_ = 0;
  StoreStats stats_;
  mutable std::atomic<std::size_t> bloom_negatives_{0};

  // Destroyed first (members are destroyed in reverse order), so the I/O
  // thread is joined before the arena pages it reads are freed — keep last.
  std::unique_ptr<SpillWriter> writer_;
};

}  // namespace tt
