#include "tta/independence.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "tta/cluster.hpp"

namespace tt::tta {

PartialOrderReducer::PartialOrderReducer(const ClusterConfig& cfg, PorTuning tuning)
    : cfg_(&cfg), tuning_(tuning) {
  enabled_ = cfg_->faulty_hub == ClusterConfig::kNone;
  // The horizon index reaches masks (<= 1) + remaining restart budget; four
  // distinct slots per node cover budgets up to one restart (the validated
  // range), and each extra restart needs at most one more certain delivery.
  instants_ = 4 + std::max(0, cfg_->transient_restarts - 1);
  TT_REQUIRE(instants_ <= kMaxInstants, "restart budget beyond the schedule depth");
}

int PartialOrderReducer::hub_latest_open_bound(int h, const HubVars& v) const {
  const int n = cfg_->n;
  switch (v.state) {
    case HubState::kInit: {
      // Max-stay wake: remaining window slots, the wake step itself, the full
      // LISTEN count to 2n, then the step that enters STARTUP.
      const int stays = std::max(0, hub_init_window_for(*cfg_, h) - v.counter);
      return stays + 1 + (2 * n - 1) + 1;
    }
    case HubState::kListen:
      return (2 * n - v.counter) + 1;
    default:
      return 0;  // STARTUP (and beyond): arbitrating now
  }
}

void PartialOrderReducer::worst_tx_reference(int id, NodeVars v, int k, int* out) const {
  int filled = 0;
  int t = 0;
  const int horizon = 16 * cfg_->n + 64;
  while (filled < k && t < horizon) {
    ++t;
    if (v.state == NodeState::kInit) {
      // Latest option: stay asleep while the window allows it.
      if (v.counter < cfg_->init_window) {
        v.counter++;
        continue;
      }
      v.state = NodeState::kListen;
      v.counter = 1;
      continue;
    }
    if (v.state == NodeState::kListen) {
      if (v.counter >= cfg_->listen_timeout(id)) {
        out[filled++] = t;
        v.state = NodeState::kColdstart;
        v.counter = 1;
        continue;
      }
      v.counter++;
      continue;
    }
    if (v.state == NodeState::kColdstart) {
      if (v.counter >= cfg_->coldstart_timeout(id)) {
        out[filled++] = t;
        v.counter = 1;
        continue;
      }
      v.counter++;
      continue;
    }
    break;  // ACTIVE/faulty: not part of the pre-coldstart certificate
  }
  while (filled < k) out[filled++] = horizon + 1;
}

int PartialOrderReducer::first_tx_closed_form(int id, const NodeVars& v) const {
  // Gate states only: INIT stays to the window edge then walks the LISTEN
  // ladder; LISTEN fires when counter >= LT_TO[id] before the increment.
  if (v.state == NodeState::kListen) {
    return std::max(1, cfg_->listen_timeout(id) - v.counter + 1);
  }
  TT_ASSERT(v.state == NodeState::kInit);
  return std::max(0, cfg_->init_window - v.counter) + 1 + cfg_->listen_timeout(id);
}

void PartialOrderReducer::plan_node(int j, const NodeVars& v, NodePlan& out) const {
  out.gate = v.state == NodeState::kInit || v.state == NodeState::kListen;
  out.listen = v.state == NodeState::kListen;
  out.slack = out.listen ? cfg_->listen_timeout(j) - v.counter : 0;
  if (!enabled_ || !out.gate) return;
  const int period = cfg_->coldstart_timeout(j);
  int t = first_tx_closed_form(j, v);
  for (int k = 0; k < instants_; ++k, t += period) out.tx[k] = t;
}

void PartialOrderReducer::combine(const NodePlan* const* nodes, ComboPlan& plan) const {
  plan.gate = false;
  plan.ntx = 0;
  plan.nlisten = 0;
  if (!enabled_) return;
  for (int j = 0; j < cfg_->n; ++j) {
    if (!cfg_->node_is_faulty(j) && !nodes[j]->gate) return;
  }
  plan.gate = true;
  for (int j = 0; j < cfg_->n; ++j) {
    if (cfg_->node_is_faulty(j)) continue;
    const NodePlan& p = *nodes[j];
    // Each node's slots ascend already: merge them in from the back.
    int a = plan.ntx - 1;
    int out = plan.ntx + instants_ - 1;
    for (int b = instants_ - 1; b >= 0; --out) {
      plan.tx[out] = a >= 0 && plan.tx[a] > p.tx[b] ? plan.tx[a--] : p.tx[b--];
    }
    plan.ntx += instants_;
    if (p.listen) {
      plan.listen_node[plan.nlisten] = static_cast<std::uint8_t>(j);
      plan.listen_slack[plan.nlisten] = p.slack;
      ++plan.nlisten;
    }
  }
  if (tuning_.dedupe_slots) {
    // One hub arbitration pick masks every simultaneous correct transmission,
    // so the maskable units are distinct SLOTS, not transmissions.
    plan.ntx = static_cast<int>(std::unique(plan.tx, plan.tx + plan.ntx) - plan.tx);
  }
}

void PartialOrderReducer::prepare(const NodeVars* nodes, ComboPlan& plan) const {
  NodePlan per_node[kMaxNodes];
  const NodePlan* ptrs[kMaxNodes] = {};
  for (int j = 0; j < cfg_->n; ++j) {
    if (cfg_->node_is_faulty(j)) continue;
    plan_node(j, nodes[j], per_node[j]);
    ptrs[j] = &per_node[j];
  }
  combine(ptrs, plan);
}

PartialOrderReducer::Outcome PartialOrderReducer::decide(const ComboPlan& plan,
                                                         const HubVars& h0, const HubVars& h1,
                                                         bool in_flight,
                                                         std::uint8_t restarts_used,
                                                         int& cap) const {
  if (!plan.gate) return Outcome::kDeclined;
  if (plan.nlisten == 0) return Outcome::kUnchanged;  // nothing clampable
  // A usable broadcast in flight means a reception resolves next step; the
  // certificate only reasons about quiet evolution.
  if (in_flight) return Outcome::kDeclined;
  const HubVars* hubs[2] = {&h0, &h1};
  int ostar = 1 << 20;
  for (int h = 0; h < 2; ++h) {
    const HubVars& v = *hubs[h];
    if (v.state != HubState::kInit && v.state != HubState::kListen &&
        v.state != HubState::kStartup) {
      return Outcome::kDeclined;
    }
    ostar = std::min(ostar, hub_latest_open_bound(h, v));
  }
  // First certain-delivery slot: the earliest worst-case transmission that a
  // guardian is certainly arbitrating for.
  int lo = 0;
  while (lo < plan.ntx && plan.tx[lo] < ostar) ++lo;
  if (lo >= plan.ntx) return Outcome::kUnchanged;
  // The faulty node masks at most one certain slot — none once a hub that is
  // certainly open by then has locked its port (it relays the correct frame
  // no matter what the faulty node emits).
  int masks = 1;
  const int fbit = cfg_->faulty_node;
  if (fbit != ClusterConfig::kNone) {
    for (int h = 0; h < 2; ++h) {
      const bool locked = ((hubs[h]->locks >> fbit) & 1u) != 0;
      if (locked && plan.tx[lo] >= hub_latest_open_bound(h, *hubs[h])) masks = 0;
    }
  }
  const int idx = masks + std::max(0, cfg_->transient_restarts - restarts_used);
  if (lo + idx >= plan.ntx) return Outcome::kUnchanged;
  cap = plan.tx[lo + idx] + tuning_.margin;
  for (int k = 0; k < plan.nlisten; ++k) {
    if (plan.listen_slack[k] > cap) return Outcome::kClamped;
  }
  return Outcome::kUnchanged;
}

void PartialOrderReducer::clamp(const ComboPlan& plan, int cap, NodeVars* nodes) const {
  for (int k = 0; k < plan.nlisten; ++k) {
    if (plan.listen_slack[k] > cap) {
      const int j = plan.listen_node[k];
      nodes[j].counter = static_cast<std::uint8_t>(cfg_->listen_timeout(j) - cap);
    }
  }
}

PartialOrderReducer::Outcome PartialOrderReducer::saturate(ClusterState& c) const {
  ComboPlan plan;
  prepare(c.node, plan);
  int cap = 0;
  const Outcome o = decide(plan, c.hub[0], c.hub[1],
                           broadcast_in_flight(c.hub[0].out, c.hub[1].out), c.restarts_used,
                           cap);
  if (o == Outcome::kClamped) clamp(plan, cap, c.node);
  return o;
}

}  // namespace tt::tta
