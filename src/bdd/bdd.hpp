// A production-grade reduced ordered binary decision diagram (ROBDD)
// package — the substrate behind the symbolic model checker (the paper's
// workhorse: "the symbolic model checker of SAL is able to examine these in
// a few tens of minutes").
//
// Design (DESIGN.md §3.3):
//  * Node arena in struct-of-arrays form (per-node var/lo/hi columns) with
//    an open-addressing hashed unique table — no std::unordered_map on the
//    hot path, no per-node heap allocation.
//  * Complement edges on the low arc (Brace/Rudell/Bryant): a NodeId is
//    (arena index << 1) | complement bit. Negation is a single XOR, the
//    then-arc is always regular, and a function and its negation share one
//    node — roughly halving the arena.
//  * One persistent bounded operation cache keyed by (op, f, g, h) that
//    survives across public calls; it is direct-mapped, never grows, and is
//    invalidated only by garbage collection.
//  * Mark-and-sweep garbage collection over external references
//    (ref/deref), triggered automatically when the arena outgrows an
//    adaptive threshold at public-call boundaries. Node ids are stable
//    across collections (sweeping free-lists dead slots, no compaction).
//  * A genuinely recursive and_exists relational product (conjoin and
//    quantify in one pass, with the early-exit-on-true disjunction) — image
//    computation never materializes the monolithic f & g intermediate.
//  * Exact model counting via support::BigUint (double convenience
//    accessor kept); Fig. 5-scale reachable sets exceed 2^53.
//
// GC contract: any NodeId that must survive the next public call must be
// protected with ref() (or never cross a call boundary). Automatic
// collection only runs at public-call entry, and the call's own arguments
// are always treated as roots, so `m.lor(a, m.land(b, c))` is safe without
// protecting the inner result.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/run_stats.hpp"
#include "support/assert.hpp"
#include "support/biguint.hpp"

namespace tt::bdd {

/// An edge: arena index << 1 | complement bit.
using NodeId = std::uint32_t;

/// The single terminal node lives at arena index 0; FALSE is its complement.
constexpr NodeId kTrue = 0;
constexpr NodeId kFalse = 1;

/// Aggregate counters of one manager; copy_bdd_stats reports them.
struct ManagerStats {
  std::size_t live_nodes = 0;       ///< currently reachable from roots
  std::size_t peak_live_nodes = 0;  ///< high-water mark of live_nodes
  std::size_t arena_nodes = 0;      ///< allocated slots (live + free-listed)
  std::size_t unique_lookups = 0;
  std::size_t unique_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  std::size_t gc_runs = 0;
  std::size_t memory_bytes = 0;

  [[nodiscard]] double unique_hit_rate() const noexcept {
    return unique_lookups > 0
               ? static_cast<double>(unique_hits) / static_cast<double>(unique_lookups)
               : 0.0;
  }
  [[nodiscard]] double cache_hit_rate() const noexcept {
    return cache_lookups > 0
               ? static_cast<double>(cache_hits) / static_cast<double>(cache_lookups)
               : 0.0;
  }
};

/// Writes the bdd section of an engine's RunStats from `ms` and marks it;
/// the one place ManagerStats meets the counter table. `bdd_iterations`
/// stays the engine's to fill.
inline void copy_bdd_stats(const ManagerStats& ms, mc::RunStats& stats) noexcept {
  stats.bdd_peak_live_nodes = ms.peak_live_nodes;
  stats.bdd_gc_collections = ms.gc_runs;
  stats.bdd_unique_hit_rate = ms.unique_hit_rate();
  stats.bdd_op_cache_hit_rate = ms.cache_hit_rate();
  stats.mark(mc::Section::kBdd);
}

class Manager {
 public:
  /// `num_vars` is the total variable count; variable 0 is the topmost.
  /// `op_cache_log2` sizes the persistent operation cache (2^k entries).
  explicit Manager(int num_vars, int op_cache_log2 = 16);

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
  /// Live (externally reachable) node count, including the terminal.
  [[nodiscard]] std::size_t node_count() const noexcept { return live_nodes_; }
  [[nodiscard]] ManagerStats stats() const noexcept;

  /// The BDD of a single variable / its negation. O(1) after first use:
  /// projection functions are interned once and pinned as GC roots.
  [[nodiscard]] NodeId var(int v);
  [[nodiscard]] NodeId nvar(int v) { return negate(var(v)); }

  /// Negation is complement-edge flipping — no traversal, no allocation.
  [[nodiscard]] static constexpr NodeId negate(NodeId f) noexcept { return f ^ 1u; }

  [[nodiscard]] NodeId ite(NodeId f, NodeId g, NodeId h);
  [[nodiscard]] NodeId land(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  [[nodiscard]] NodeId lor(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  [[nodiscard]] NodeId lnot(NodeId f) { return negate(f); }
  [[nodiscard]] NodeId lxor(NodeId f, NodeId g) { return ite(f, negate(g), g); }

  /// The positive cube over `vars` (conjunction of the variables), used as
  /// the quantification schedule of exists/and_exists.
  [[nodiscard]] NodeId cube(const std::vector<int>& vars);

  /// Existential quantification of every variable in `cube`.
  [[nodiscard]] NodeId exists(NodeId f, NodeId cube);
  /// Mask form: quantifies every variable v with quantify[v] != 0.
  [[nodiscard]] NodeId exists(NodeId f, const std::vector<std::uint8_t>& quantify);

  /// Relational product exists(cube, f & g), computed in one recursive pass
  /// with quantification interleaved into the conjunction (never builds the
  /// monolithic f & g).
  [[nodiscard]] NodeId and_exists(NodeId f, NodeId g, NodeId cube);
  [[nodiscard]] NodeId and_exists(NodeId f, NodeId g,
                                  const std::vector<std::uint8_t>& quantify);

  /// Interns a variable renaming for use by rename(). The mapping must be
  /// strictly monotone on the variables occurring in renamed functions (it
  /// preserves the order), which holds for the next->current renaming used
  /// by symbolic reachability (2i+1 -> 2i). Registering the same map twice
  /// returns the same id, so rename results stay op-cache-coherent.
  [[nodiscard]] int register_rename(const std::vector<int>& map);
  [[nodiscard]] NodeId rename(NodeId f, int map_id);
  /// Convenience form: registers (or finds) the map, then renames.
  [[nodiscard]] NodeId rename(NodeId f, const std::vector<int>& map);

  /// Exact number of satisfying assignments over all `num_vars` variables.
  [[nodiscard]] BigUint sat_count_exact(NodeId f);
  /// Double convenience accessor (loses exactness above 2^53).
  [[nodiscard]] double sat_count(NodeId f) { return sat_count_exact(f).to_double(); }

  /// Evaluates f under a full assignment (one bool per variable).
  [[nodiscard]] bool eval(NodeId f, const std::vector<bool>& assignment) const;
  /// Packed-word form: bit v of the assignment is (words[v>>6] >> (v&63)) & 1
  /// (the support::BitWriter layout used by the explicit engines' states).
  [[nodiscard]] bool eval_bits(NodeId f, const std::uint64_t* words) const;

  /// The minterm of a packed assignment restricted to `bits` variables —
  /// built bottom-up with raw make() calls (no op-cache traffic), the
  /// insert path of the BDD-set reachability engine.
  [[nodiscard]] NodeId minterm_bits(const std::uint64_t* words, int bits);

  /// Interleaved-order variants for the liveness engine's current/next
  /// variable pairing (current bit i = var 2i, next bit i = var 2i+1).
  /// minterm_even_bits constrains only the even (current) variables — the
  /// odd ones stay free, so the result is a *set* over current vars;
  /// minterm_pair_bits constrains both, yielding one transition minterm of
  /// the relation. Both are raw bottom-up make() chains like minterm_bits.
  [[nodiscard]] NodeId minterm_even_bits(const std::uint64_t* words, int bits);
  [[nodiscard]] NodeId minterm_pair_bits(const std::uint64_t* cur, const std::uint64_t* next,
                                         int bits);

  /// Extracts one satisfying assignment (f must not be kFalse); unassigned
  /// variables default to false.
  [[nodiscard]] std::vector<bool> any_sat(NodeId f) const;

  /// Support mask: out[v] != 0 iff variable v occurs in f. Used to compute
  /// the early-quantification schedule of the partitioned image.
  [[nodiscard]] std::vector<std::uint8_t> support(NodeId f) const;

  /// External-reference protocol: a node passed to ref() (and every node
  /// reachable from it) survives garbage collection until deref()ed the
  /// same number of times. Terminals and projection vars need no refs.
  void ref(NodeId f);
  void deref(NodeId f);

  /// Explicit mark-and-sweep collection (also clears the op cache). Returns
  /// the number of freed nodes. Called automatically when the arena exceeds
  /// the adaptive threshold at a public-call boundary.
  std::size_t gc();
  void set_gc_threshold(std::size_t nodes) noexcept { gc_threshold_ = nodes; }

 private:
  // --- arena (struct of arrays) ---
  std::vector<std::int32_t> node_var_;
  std::vector<NodeId> node_lo_;
  std::vector<NodeId> node_hi_;
  std::vector<std::uint32_t> extref_;   ///< external reference counts
  std::vector<std::uint8_t> mark_;      ///< GC mark bits
  std::vector<std::uint32_t> free_;     ///< free-listed arena indices

  // --- unique table: open addressing, power-of-two, linear probing ---
  std::vector<std::uint32_t> table_;    ///< arena index or kEmptySlot
  std::size_t table_mask_ = 0;
  std::size_t table_used_ = 0;

  // --- persistent operation cache (direct-mapped) ---
  struct CacheEntry {
    NodeId f = 0xffffffffu;
    NodeId g = 0;
    NodeId h = 0;
    std::uint32_t op = 0;
    NodeId result = 0;
  };
  std::vector<CacheEntry> cache_;
  std::uint32_t cache_mask_ = 0;

  // --- pinned projection functions and interned rename maps ---
  std::vector<NodeId> proj_;                  ///< var(v) nodes, pinned
  std::vector<std::vector<int>> rename_maps_;

  int num_vars_ = 0;
  std::size_t live_nodes_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t gc_threshold_ = 0;
  // counters
  std::size_t unique_lookups_ = 0;
  std::size_t unique_hits_ = 0;
  std::size_t cache_lookups_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t gc_runs_ = 0;

  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  [[nodiscard]] static constexpr std::uint32_t index_of(NodeId f) noexcept { return f >> 1; }
  [[nodiscard]] static constexpr bool is_complement(NodeId f) noexcept { return (f & 1u) != 0; }
  [[nodiscard]] int var_of(NodeId f) const noexcept { return node_var_[index_of(f)]; }
  /// Cofactor with complement propagation; `f` must be a non-terminal whose
  /// top variable is exactly `v` or deeper.
  [[nodiscard]] NodeId cofactor(NodeId f, int v, bool positive) const noexcept {
    const std::uint32_t i = index_of(f);
    if (node_var_[i] != v) return f;
    return (positive ? node_hi_[i] : node_lo_[i]) ^ (f & 1u);
  }

  [[nodiscard]] NodeId make(int var, NodeId lo, NodeId hi);
  [[nodiscard]] NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  [[nodiscard]] NodeId and_exists_rec(NodeId f, NodeId g, NodeId cube);
  [[nodiscard]] NodeId exists_rec(NodeId f, NodeId cube);
  [[nodiscard]] NodeId rename_rec(NodeId f, const std::vector<int>& map, std::uint32_t op);

  [[nodiscard]] bool cache_probe(std::uint32_t op, NodeId f, NodeId g, NodeId h,
                                 NodeId& out) noexcept;
  void cache_store(std::uint32_t op, NodeId f, NodeId g, NodeId h, NodeId result) noexcept;

  void grow_table(std::size_t min_capacity);
  void table_insert(std::uint32_t index) noexcept;
  /// GC trigger at public-call boundaries; `roots` are the call's operands.
  void maybe_gc(std::initializer_list<NodeId> roots);
  void mark_from(NodeId f) noexcept;
};

}  // namespace tt::bdd
