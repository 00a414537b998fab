// N-site mesh experiment harness — the journal-version "multiple players"
// extension, run on the same virtual-time substrate as the two-site
// testbed of §4.
//
// N sites (2, 4 or 8 — each owning an equal span of the input word) are
// joined by a full mesh of independently-seeded Netem links. There is no
// handshake: lockstep itself is the rendezvous — no site can execute frame
// BufFrame until every other site's input for it has arrived, so staggered
// boots are absorbed exactly like the paper's start deviation, with
// Algorithm 4 rate-locking every slave to site 0.
//
// Each site is the two-site harness's simulated site (see experiment.h)
// with one endpoint per peer: the same core::FrameLoop, the same sender
// and receivers. Mesh players own a 4-bit direction nibble (quadtron's
// partition), so each site's masher bytes are masked to it at any N.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/core/sync_peer.h"
#include "src/emu/game.h"
#include "src/net/netem.h"
#include "src/testbed/experiment.h"

namespace rtct::testbed {

struct MeshExperimentConfig {
  std::string game = "quadtron";
  /// When set, overrides `game`: produces each site's replica. Any
  /// IDeterministicGame works (same transparency contract as the two-site
  /// harness) — the chaos soak runs native games here for speed.
  std::function<std::unique_ptr<emu::IDeterministicGame>()> game_factory;
  int num_sites = 4;  ///< must divide 16 (2, 4, 8)
  int frames = 600;

  core::SyncConfig sync;
  net::NetemConfig net;  ///< applied to every link direction

  /// Scheduled mid-run reconfigurations, applied to every link direction
  /// at once (the chaos harness degrades and restores the whole mesh).
  struct NetEvent {
    Dur at = 0;
    net::NetemConfig config;
  };
  std::vector<NetEvent> net_events;
  /// Site i boots at i * boot_stagger (tests the rendezvous-by-lockstep).
  Dur boot_stagger = milliseconds(20);
  Dur frame_compute_time = milliseconds(2);
  std::uint64_t input_seed_base = 500;
  int input_hold_frames = 6;
  std::uint64_t net_seed = 1;
  Dur watchdog = 0;

  [[nodiscard]] Dur effective_watchdog() const {
    return watchdog_deadline(watchdog, frames, sync);
  }
};

/// A mesh site reports what a two-site one does (it never fails a
/// handshake: there is none).
using MeshSiteResult = SiteResult;

struct MeshExperimentResult {
  std::vector<MeshSiteResult> sites;

  [[nodiscard]] bool converged() const;
  /// First frame at which any site's hash differs from site 0's (-1 never).
  [[nodiscard]] FrameNo first_divergence() const;
  [[nodiscard]] double avg_frame_time_ms(int site) const;
  [[nodiscard]] double frame_time_deviation_ms(int site) const;
  /// Worst pairwise mean-absolute begin-time difference.
  [[nodiscard]] double worst_synchrony_ms() const;
};

MeshExperimentResult run_mesh_experiment(const MeshExperimentConfig& cfg);

}  // namespace rtct::testbed
