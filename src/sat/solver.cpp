#include "sat/solver.hpp"

#include <algorithm>
#include <stdexcept>

namespace tt::sat {

int Solver::new_var() {
  const int v = num_vars();
  assign_.push_back(0);
  phase_.push_back(-1);  // default polarity: false (BMC formulas like sparse models)
  model_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::add_clause(std::vector<Lit> lits) {
  TT_ASSERT(trail_lim_.empty());  // clauses may only be added at level 0
  // Normalize in place: remove duplicates and satisfied/false literals at
  // level 0.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::size_t keep = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i > 0 && l == lits[i - 1]) continue;
    if (i > 0 && l == ~lits[i - 1]) return;  // tautology
    const auto v = lit_value(l);
    if (v > 0) return;  // already satisfied at level 0
    if (v < 0) continue;
    lits[keep++] = l;
  }
  lits.resize(keep);
  if (lits.empty()) {
    unsat_ = true;
    return;
  }
  if (lits.size() == 1) {
    enqueue(lits[0], kNoReason);
    if (propagate() != kNoReason) unsat_ = true;
    return;
  }
  attach(alloc(lits, /*learned=*/false));
}

Solver::ClauseRef Solver::alloc(const std::vector<Lit>& lits, bool learned) {
  // Watchers keep the reference in 31 bits.
  const std::size_t cr = arena_.size();
  if (cr + kHeaderWords + lits.size() > (std::size_t{1} << 31)) {
    throw std::length_error("ttstart: sat clause arena exceeds 2^31 words");
  }
  arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 2 | (learned ? kLearnedBit : 0));
  arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (const Lit l : lits) arena_.push_back(code(l));
  ++num_clauses_;
  return static_cast<ClauseRef>(cr);
}

void Solver::attach(ClauseRef cr) {
  const auto c = lits(cr);
  const std::uint32_t word = cr << 1 | (c.size() == 2 ? 1u : 0u);
  watches_[static_cast<std::size_t>((~lit(c[0])).code())].push_back(Watcher{word, lit(c[1])});
  watches_[static_cast<std::size_t>((~lit(c[1])).code())].push_back(Watcher{word, lit(c[0])});
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  TT_ASSERT(lit_value(l) == 0);
  assign_[static_cast<std::size_t>(l.var())] = l.negated() ? -1 : 1;
  level_[static_cast<std::size_t>(l.var())] = static_cast<int>(trail_lim_.size());
  reason_[static_cast<std::size_t>(l.var())] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    const std::uint32_t false_code = code(~p);
    ++stats_.propagations;
    auto& watch_list = watches_[static_cast<std::size_t>(p.code())];
    Watcher* w = watch_list.data();
    Watcher* const end = w + watch_list.size();
    Watcher* keep = w;
    ClauseRef conflict = kNoReason;
    while (w != end) {
      const Watcher watcher = *w++;
      const std::int8_t blocker_value = lit_value(watcher.blocker);
      if (blocker_value > 0) {
        *keep++ = watcher;  // satisfied; keep watching
        continue;
      }
      const ClauseRef cr = watcher.cref();
      if (watcher.binary()) {
        *keep++ = watcher;
        if (blocker_value < 0) {
          conflict = cr;
          break;
        }
        enqueue(watcher.blocker, cr);
        continue;
      }
      // Ensure the falsified literal is lits[1].
      const auto c = lits(cr);
      if (c[0] == false_code) std::swap(c[0], c[1]);
      TT_ASSERT(c[1] == false_code);
      const Lit first = lit(c[0]);
      const Watcher kept{watcher.word, first};
      if (first != watcher.blocker && lit_value(first) > 0) {
        *keep++ = kept;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (lit_value(lit(c[k])) >= 0) {
          c[1] = c[k];
          c[k] = false_code;
          watches_[static_cast<std::size_t>((~lit(c[1])).code())].push_back(kept);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      *keep++ = kept;
      if (lit_value(first) < 0) {
        conflict = cr;
        break;
      }
      enqueue(first, cr);
    }
    while (w != end) *keep++ = *w++;  // after a conflict: the unvisited rest
    watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
    if (conflict != kNoReason) {
      propagate_head_ = trail_.size();
      return conflict;
    }
  }
  return kNoReason;
}

void Solver::heap_insert(int var) {
  if (heap_pos_[static_cast<std::size_t>(var)] >= 0) return;
  heap_pos_[static_cast<std::size_t>(var)] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  const int v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const int v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child], heap_[child + 1])) ++child;
    if (!heap_less(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::bump_var(int var) {
  activity_[static_cast<std::size_t>(var)] += var_inc_;
  if (activity_[static_cast<std::size_t>(var)] > 1e100) {
    // Uniform rescale preserves the heap order.
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  const int pos = heap_pos_[static_cast<std::size_t>(var)];
  if (pos >= 0) heap_sift_up(static_cast<std::size_t>(pos));
}

void Solver::bump_clause(ClauseRef cr) {
  const float a = activity(cr) + static_cast<float>(clause_inc_);
  set_activity(cr, a);
  if (a > 1e20f) {
    for (ClauseRef c = 0; c < arena_.size(); c += kHeaderWords + clause_size(c)) {
      if (is_learned(c)) set_activity(c, activity(c) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= 0.95;
  clause_inc_ /= 0.999;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backtrack_level) {
  learnt.clear();
  learnt.push_back(Lit::make(0, false));  // placeholder for the asserting literal
  to_clear_.clear();
  int counter = 0;
  Lit p;
  bool have_p = false;
  std::size_t trail_index = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());

  ClauseRef cr = conflict;
  do {
    TT_ASSERT(cr != kNoReason);
    if (is_learned(cr)) bump_clause(cr);
    for (const std::uint32_t code : lits(cr)) {
      const Lit q = lit(code);
      if (have_p && q == p) continue;
      const int v = q.var();
      if (seen_[static_cast<std::size_t>(v)] != 0 || level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      to_clear_.push_back(v);
      bump_var(v);
      if (level_[static_cast<std::size_t>(v)] == current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal. Marks stay set
    // for the whole analysis (they double as the "already visited" set) and
    // are cleared together at the end via to_clear_.
    while (seen_[static_cast<std::size_t>(trail_[trail_index - 1].var())] == 0) {
      --trail_index;
    }
    --trail_index;
    p = trail_[trail_index];
    have_p = true;
    cr = reason_[static_cast<std::size_t>(p.var())];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Recursive clause minimization (remove literals implied by the rest).
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(learnt[i].var())] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const int v = learnt[i].var();
    if (reason_[static_cast<std::size_t>(v)] == kNoReason ||
        !lit_redundant(learnt[i], abstract_levels)) {
      learnt[keep++] = learnt[i];
    }
  }
  learnt.resize(keep);

  // Compute the backtrack level (second-highest level in the clause).
  backtrack_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[static_cast<std::size_t>(learnt[i].var())] >
          level_[static_cast<std::size_t>(learnt[max_i].var())]) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[static_cast<std::size_t>(learnt[1].var())];
  }
  for (const int v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
}

void Solver::analyze_final(Lit failed) {
  // The assumption `failed` is falsified by the current (assumption-only)
  // trail. Collect the subset of assumption decisions whose implication
  // chain reaches ~failed; together with `failed` itself they form an
  // unsatisfiable core over the assumptions.
  core_.clear();
  core_.push_back(failed);
  if (trail_lim_.empty()) return;  // falsified at level 0: formula units suffice
  std::vector<int> marked;
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  marked.push_back(failed.var());
  const std::size_t bottom = static_cast<std::size_t>(trail_lim_[0]);
  for (std::size_t i = trail_.size(); i-- > bottom;) {
    const Lit x = trail_[i];
    const int v = x.var();
    if (seen_[static_cast<std::size_t>(v)] == 0) continue;
    const ClauseRef cr = reason_[static_cast<std::size_t>(v)];
    if (cr == kNoReason) {
      // A decision above level 0 is necessarily an assumption.
      if (!(x == failed)) core_.push_back(x);
    } else {
      for (const std::uint32_t code : lits(cr)) {
        const int qv = lit(code).var();
        if (qv == v || level_[static_cast<std::size_t>(qv)] == 0) continue;
        if (seen_[static_cast<std::size_t>(qv)] == 0) {
          seen_[static_cast<std::size_t>(qv)] = 1;
          marked.push_back(qv);
        }
      }
    }
  }
  for (const int v : marked) seen_[static_cast<std::size_t>(v)] = 0;
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  minimize_stack_.clear();
  minimize_stack_.push_back(l);
  std::vector<int> newly_marked;
  while (!minimize_stack_.empty()) {
    const Lit q = minimize_stack_.back();
    minimize_stack_.pop_back();
    const ClauseRef cr = reason_[static_cast<std::size_t>(q.var())];
    if (cr == kNoReason) {
      for (int v : newly_marked) seen_[static_cast<std::size_t>(v)] = 0;
      return false;
    }
    for (const std::uint32_t code : lits(cr)) {
      const Lit r = lit(code);
      const int v = r.var();
      if (v == q.var() || seen_[static_cast<std::size_t>(v)] != 0 ||
          level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      if ((1u << (level_[static_cast<std::size_t>(v)] & 31) & abstract_levels) == 0) {
        for (int vv : newly_marked) seen_[static_cast<std::size_t>(vv)] = 0;
        return false;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      newly_marked.push_back(v);
      minimize_stack_.push_back(r);
    }
  }
  // Success: keep the marks (they memoize redundancy for the remaining
  // literals) but register them for the end-of-analysis cleanup.
  for (int v : newly_marked) to_clear_.push_back(v);
  return true;
}

void Solver::backtrack(int target_level) {
  while (static_cast<int>(trail_lim_.size()) > target_level) {
    const int boundary = trail_lim_.back();
    trail_lim_.pop_back();
    while (static_cast<int>(trail_.size()) > boundary) {
      const Lit l = trail_.back();
      trail_.pop_back();
      phase_[static_cast<std::size_t>(l.var())] = l.negated() ? -1 : 1;
      assign_[static_cast<std::size_t>(l.var())] = 0;
      reason_[static_cast<std::size_t>(l.var())] = kNoReason;
      heap_insert(l.var());
    }
  }
  propagate_head_ = trail_.size();
}

int Solver::pick_branch_var() {
  while (!heap_.empty()) {
    const int v = heap_[0];
    const int last = heap_.back();
    heap_.pop_back();
    heap_pos_[static_cast<std::size_t>(v)] = -1;
    if (!heap_.empty()) {
      heap_[0] = last;
      heap_pos_[static_cast<std::size_t>(last)] = 0;
      heap_sift_down(0);
    }
    if (assign_[static_cast<std::size_t>(v)] == 0) return v;
  }
  return -1;
}

int Solver::luby(int i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  int k = 1;
  while ((1 << (k + 1)) <= i + 1) ++k;
  while ((1 << k) - 1 != i + 1) {
    i = i - (1 << k) + 1;
    k = 1;
    while ((1 << (k + 1)) <= i + 1) ++k;
  }
  return 1 << (k - 1);
}

void Solver::reduce_learned() {
  // Remove the least active half of the learned clauses (keeping binary
  // clauses), then drop their watchers.
  std::vector<ClauseRef> learned;
  for (ClauseRef cr = 0; cr < arena_.size(); cr += kHeaderWords + clause_size(cr)) {
    if (is_learned(cr) && !is_deleted(cr) && clause_size(cr) > 2) learned.push_back(cr);
  }
  if (learned.size() < 100) return;
  std::sort(learned.begin(), learned.end(),
            [&](ClauseRef a, ClauseRef b) { return activity(a) < activity(b); });
  for (std::size_t i = 0; i < learned.size() / 2; ++i) {
    const ClauseRef cr = learned[i];
    // Never drop a clause that is currently a reason on the trail.
    bool is_reason = false;
    for (const std::uint32_t code : lits(cr)) {
      const auto v = static_cast<std::size_t>(lit(code).var());
      if (assign_[v] != 0 && reason_[v] == cr) {
        is_reason = true;
        break;
      }
    }
    if (is_reason) continue;
    arena_[cr] |= kDeletedBit;
    --live_learned_;
  }
  // A dropped clause keeps its arena words, so every ClauseRef held in
  // reason_ stays valid; only its watchers go.
  for (auto& wl : watches_) {
    std::size_t keep = 0;
    for (const Watcher w : wl) {
      if (w.binary() || !is_deleted(w.cref())) wl[keep++] = w;
    }
    wl.resize(keep);
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  ++stats_.solve_calls;
  if (stats_.solve_calls > 1) stats_.clauses_reused += live_learned_;
  core_.clear();
  if (unsat_) return Result::kUnsat;
  TT_ASSERT(trail_lim_.empty());
  if (propagate() != kNoReason) {
    unsat_ = true;
    return Result::kUnsat;
  }

  std::vector<Lit> learnt;
  int restart_count = 0;
  std::uint64_t conflicts_until_restart =
      100 * static_cast<std::uint64_t>(luby(restart_count));
  std::uint64_t conflicts_this_restart = 0;

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return Result::kUnsat;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cr = alloc(learnt, /*learned=*/true);
        bump_clause(cr);
        attach(cr);
        enqueue(learnt[0], cr);
        ++stats_.learned;
        ++live_learned_;
      }
      decay_activities();
      if (stats_.learned >= reduce_at_) {
        reduce_learned();
        reduce_at_ += 2000;
      }
      continue;
    }

    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      ++restart_count;
      conflicts_this_restart = 0;
      conflicts_until_restart = 100 * static_cast<std::uint64_t>(luby(restart_count));
      backtrack(0);
      continue;
    }

    // Place pending assumptions as pseudo-decisions (one level each, so
    // analyze() treats them exactly like decisions and never resolves
    // past them — learned clauses stay assumption-free).
    Lit decision;
    bool have_decision = false;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      const std::int8_t v = lit_value(a);
      if (v > 0) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // already satisfied
      } else if (v < 0) {
        analyze_final(a);
        backtrack(0);
        return Result::kUnsat;
      } else {
        decision = a;
        have_decision = true;
        break;
      }
    }
    if (!have_decision) {
      const int v = pick_branch_var();
      if (v < 0) {
        model_ = assign_;  // full assignment, no conflict
        backtrack(0);
        return Result::kSat;
      }
      decision = Lit::make(v, phase_[static_cast<std::size_t>(v)] < 0);
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(decision, kNoReason);
  }
}

}  // namespace tt::sat
