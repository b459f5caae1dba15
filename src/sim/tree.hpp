#pragma once

// The one execution surface of an engine world.
//
// Every protocol world (core/*World) runs the same way: its persistent
// actors tick in scheduler order against its chains until the run
// horizon. TreeFrame is that surface — the chain substrate, the actors,
// and the horizon — and play() is the one loop that drives it, so a
// fresh traced world (the run_* free functions), a reused sweep world, a
// fuzz run and a load instance all execute the same actors the same way.
//
// Reused worlds roll back through the layered snapshot stack: slot 0,
// pushed right after setup, is the post-setup state every run rewinds to,
// and the schedule-tree executor (sim/scenario.cpp) pushes one more slot
// per executed tick and rewinds to the deepest shared prefix when moving
// from one schedule to the next. Engines keep owning setup, plan
// installation, and result assembly.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/snapshot.hpp"
#include "common/types.hpp"
#include "sim/deviation.hpp"
#include "sim/party.hpp"

namespace xchain::sim {

/// What every runner drives directly. Built once per world (the actors
/// persist across runs — their mutable state rides the snapshot stack);
/// `actors` is in scheduler add-order, one per party, and `horizon` the
/// exclusive end tick of a run.
struct TreeFrame {
  chain::MultiChain* chains = nullptr;
  std::vector<Party*> actors;
  Tick horizon = 0;

  /// Snapshots the chains and every actor as one more stack depth.
  void snap_push() {
    const std::size_t depth = chains->snap_depth();
    chains->snap_push();
    for (Party* p : actors) p->snapshot(chain::SnapshotOp::kPush, depth);
  }

  /// Rewinds the chains and every actor to stack depth `depth`, which
  /// becomes the top of the stack.
  void snap_rewind(std::size_t depth) {
    chains->snap_rewind(depth);
    for (Party* p : actors) p->snapshot(chain::SnapshotOp::kRestore, depth);
  }
};

/// Runs one schedule on `world` from its post-setup state (a fresh world,
/// or a reused one rewound to slot 0): installs one plan per actor, ticks
/// every actor and then every chain from tick 0 to the horizon, and
/// finalizes the chains — a party (or test) that submits after the run
/// fails loudly instead of mutating a world whose result was collected.
/// Returns world.collect(). Throws std::invalid_argument unless there is
/// exactly one plan per actor.
template <class World>
auto play(World& world, const std::vector<DeviationPlan>& plans) {
  TreeFrame& frame = world.frame();
  if (plans.size() != frame.actors.size()) {
    throw std::invalid_argument(
        "schedule has " + std::to_string(plans.size()) + " plans for " +
        std::to_string(frame.actors.size()) + " parties");
  }
  world.set_plans(plans);
  for (Tick t = 0; t < frame.horizon; ++t) {
    for (Party* p : frame.actors) p->tick(*frame.chains, t);
    frame.chains->produce_all(t);
  }
  frame.chains->finalize_all();
  return world.collect();
}

}  // namespace xchain::sim
