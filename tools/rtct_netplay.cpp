// rtct_netplay — the paper's system as a usable command-line application:
// share a legacy game between two machines over UDP.
//
// On machine A (becomes the master / site 0):
//   rtct_netplay --site 0 --game duel --bind 7000 --peer <B-ip>:7000
// On machine B (site 1):
//   rtct_netplay --site 1 --game duel --bind 7000 --peer <A-ip>:7000
//
// Each side runs the full stack: deterministic game replica (any core in
// the registry: --game duel, --game agent86:skirmish, ...), session handshake
// (refuses mismatched ROMs), SyncInput lockstep with 100 ms local lag over
// UDP, master/slave frame pacing, and in-protocol desync detection.
// Inputs come from a deterministic synthetic player by default (so the
// tool is self-contained and scriptable); the final state hash printed on
// both machines must match.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "src/common/telemetry.h"
#include "src/core/input_source.h"
#include "src/core/realtime.h"
#include "src/emu/machine.h"
#include "src/emu/render_text.h"
#include "src/emu/rom_io.h"
#include "src/cores/registry.h"
#include "src/net/udp_socket.h"
#include "src/relay/relay_client.h"

namespace {
void usage() {
  std::fprintf(stderr,
               "usage: rtct_netplay --site 0|1 --peer IP:PORT [--game NAME | --rom FILE]\n"
               "                    [--bind PORT] [--frames N] [--seed S] [--quiet]\n"
               "                    [--mode lockstep|rollback] [--input-delay N]\n"
               "                    [--record FILE.rpl] [--spectator-port PORT]\n"
               "                    [--stats] [--metrics-out FILE.json]\n"
               "                    [--timeline-out FILE.json]\n"
               "       rtct_netplay --relay IP:PORT (--create | --join CONN) ...\n"
               "\n"
               "--mode rollback opts into speculative execution with rollback\n"
               "(fixed --input-delay frames of perceived latency, RTT-independent);\n"
               "the session runs it only if BOTH sites pass --mode rollback, else\n"
               "it degrades to the paper's local-lag lockstep.\n"
               "\n"
               "--relay runs the session through an rtct_relayd instead of a direct\n"
               "peer: --create opens a session at the relay's lobby (the printed\n"
               "conn id is what the other side passes to --join; --create implies\n"
               "site 0, --join site 1, and --peer/--bind are not used).\n");
}

/// Strict decimal parse. atoi's silent acceptance of "7000junk", "", and
/// negative ports turned typos into a confusing bind on port 0 (or on the
/// two's-complement wraparound of a negative value) — reject instead.
bool parse_int(const char* s, long lo, long hi, long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_port(const char* s, bool allow_zero, std::uint16_t* out) {
  long v = 0;
  if (!parse_int(s, allow_zero ? 0 : 1, 65535, &v)) return false;
  *out = static_cast<std::uint16_t>(v);
  return true;
}

bool split_host_port(const std::string& s, std::string* host, std::uint16_t* port) {
  const auto colon = s.find_last_of(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = s.substr(0, colon);
  return parse_port(s.c_str() + colon + 1, /*allow_zero=*/false, port);
}
}  // namespace

int main(int argc, char** argv) {
  using namespace rtct;

  int site = -1;
  std::string game = "duel", rom_file, peer;
  std::uint16_t bind_port = 0;
  int frames = 3600;
  std::uint64_t seed = 0;
  bool quiet = false;
  bool stats = false;
  std::string mode = "lockstep";
  int input_delay = -1;
  std::string record_path, metrics_out, timeline_out;
  std::uint16_t spectator_port = 0;
  std::string relay;
  bool relay_create = false;
  long relay_join = -1;

  // Every numeric flag is parsed strictly (see parse_int): a value that is
  // not a clean in-range decimal is a usage error, not a silent zero.
  bool parse_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rtct_netplay: %s needs a value\n", what);
        std::exit(1);
      }
      return argv[++i];
    };
    auto num = [&](const char* what, long lo, long hi) -> long {
      long v = 0;
      if (!parse_int(next(what), lo, hi, &v)) {
        std::fprintf(stderr, "rtct_netplay: bad %s '%s' (want integer in [%ld, %ld])\n",
                     what, argv[i], lo, hi);
        parse_ok = false;
      }
      return v;
    };
    if (arg == "--site") site = static_cast<int>(num("--site", 0, 1));
    else if (arg == "--game") game = next("--game");
    else if (arg == "--rom") rom_file = next("--rom");
    else if (arg == "--peer") peer = next("--peer");
    else if (arg == "--bind") {
      if (!parse_port(next("--bind"), /*allow_zero=*/true, &bind_port)) {
        std::fprintf(stderr, "rtct_netplay: bad --bind '%s' (want port 0..65535)\n", argv[i]);
        parse_ok = false;
      }
    }
    else if (arg == "--frames") frames = static_cast<int>(num("--frames", 1, 10000000));
    else if (arg == "--mode") mode = next("--mode");
    else if (arg == "--input-delay") input_delay = static_cast<int>(num("--input-delay", 0, 255));
    else if (arg == "--seed") seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (arg == "--record") record_path = next("--record");
    else if (arg == "--spectator-port") {
      if (!parse_port(next("--spectator-port"), /*allow_zero=*/false, &spectator_port)) {
        std::fprintf(stderr, "rtct_netplay: bad --spectator-port '%s' (want port 1..65535)\n",
                     argv[i]);
        parse_ok = false;
      }
    }
    else if (arg == "--relay") relay = next("--relay");
    else if (arg == "--create") relay_create = true;
    else if (arg == "--join") relay_join = num("--join", 1, 0xFFFFFFFFL);
    else if (arg == "--stats") stats = true;
    else if (arg == "--metrics-out") metrics_out = next("--metrics-out");
    else if (arg == "--timeline-out") timeline_out = next("--timeline-out");
    else if (arg == "--quiet") quiet = true;
    else {
      usage();
      return arg == "-h" || arg == "--help" ? 0 : 1;
    }
  }
  if (!parse_ok) return 1;
  const bool use_relay = !relay.empty();
  if (use_relay) {
    if (relay_create == (relay_join > 0)) {
      std::fprintf(stderr, "rtct_netplay: --relay needs exactly one of --create / --join\n");
      return 1;
    }
    // The relay roles fix the sites: the creator is the master.
    site = relay_create ? 0 : 1;
  } else if ((site != 0 && site != 1) || peer.empty()) {
    usage();
    return 1;
  }

  std::unique_ptr<emu::IDeterministicGame> machine;
  if (!rom_file.empty()) {
    auto rom = emu::load_rom_file(rom_file);
    if (!rom) {
      std::fprintf(stderr, "rtct_netplay: cannot load ROM '%s'\n", rom_file.c_str());
      return 1;
    }
    machine = std::make_unique<emu::ArcadeMachine>(*rom);
  } else {
    machine = cores::make_game(game);
    if (!machine) {
      std::fprintf(stderr, "rtct_netplay: unknown game '%s'\n", game.c_str());
      return 1;
    }
  }

  core::MasherInput player(seed != 0 ? seed : 1000 + static_cast<std::uint64_t>(site));
  core::RealtimeConfig cfg;
  cfg.frames = frames;
  cfg.handshake_timeout = seconds(30);
  if (mode == "rollback") {
    cfg.sync.rollback = true;
    if (input_delay >= 0) {
      // Speculation may run at most rollback_window-2 frames past the
      // confirmed watermark, so a larger input delay could never be
      // absorbed — it would stall every frame.
      const int max_delay = cfg.sync.rollback_window - 2;
      if (input_delay > max_delay) {
        std::fprintf(stderr,
                     "rtct_netplay: --input-delay %d exceeds the rollback ring window "
                     "(max %d with rollback_window=%d)\n",
                     input_delay, max_delay, cfg.sync.rollback_window);
        return 1;
      }
      cfg.sync.rollback_input_delay = input_delay;
    }
  } else if (mode != "lockstep") {
    std::fprintf(stderr, "rtct_netplay: bad --mode '%s' (want lockstep|rollback)\n",
                 mode.c_str());
    return 1;
  } else if (input_delay >= 0) {
    std::fprintf(stderr,
                 "rtct_netplay: --input-delay is only meaningful with --mode rollback\n");
    return 1;
  }

  // Transport: a direct connected socket, or a relayed endpoint speaking
  // the same protocol bytes through rtct_relayd.
  std::unique_ptr<net::UdpSocket> direct;
  std::unique_ptr<relay::RelayEndpoint> relayed;
  net::PollableTransport* transport = nullptr;
  if (use_relay) {
    std::string relay_host;
    std::uint16_t relay_port = 0;
    if (!split_host_port(relay, &relay_host, &relay_port)) {
      std::fprintf(stderr, "rtct_netplay: bad --relay '%s' (want IP:PORT)\n", relay.c_str());
      return 1;
    }
    relay::RelayLobby lobby(relay_host, relay_port, "0.0.0.0");
    if (!lobby.valid()) {
      std::fprintf(stderr, "rtct_netplay: relay lobby: %s\n", lobby.last_error().c_str());
      return 1;
    }
    const auto res = relay_create
                         ? lobby.create(machine->content_id())
                         : lobby.join(static_cast<relay::ConnId>(relay_join));
    if (!res) {
      std::fprintf(stderr, "rtct_netplay: relay handshake: %s\n", lobby.last_error().c_str());
      return 1;
    }
    relayed = lobby.into_endpoint(*res);
    transport = relayed.get();
    std::printf("site %d relayed via %s, conn id %u (peer joins with --join %u), "
                "game '%s', %d frames\n",
                site, relay.c_str(), res->conn, res->conn,
                machine->content_name().c_str(), frames);
    std::fflush(stdout);
  } else {
    std::string peer_host;
    std::uint16_t peer_port = 0;
    if (!split_host_port(peer, &peer_host, &peer_port)) {
      std::fprintf(stderr, "rtct_netplay: bad --peer '%s' (want IP:PORT)\n", peer.c_str());
      return 1;
    }
    direct = std::make_unique<net::UdpSocket>("0.0.0.0", bind_port);
    if (!direct->valid() || !direct->connect_peer(peer_host, peer_port)) {
      std::fprintf(stderr, "rtct_netplay: socket: %s\n", direct->last_error().c_str());
      return 1;
    }
    transport = direct.get();
    std::printf("site %d on udp/%u -> %s, game '%s', %d frames\n", site, direct->local_port(),
                peer.c_str(), machine->content_name().c_str(), frames);
  }

  core::RealtimeSession session(site, *machine, player, *transport, cfg);
  std::unique_ptr<net::UdpSocket> spectator_socket;
  if (spectator_port != 0) {
    spectator_socket = std::make_unique<net::UdpSocket>("0.0.0.0", spectator_port);
    if (!spectator_socket->valid()) {
      std::fprintf(stderr, "rtct_netplay: spectator socket: %s\n",
                   spectator_socket->last_error().c_str());
      return 1;
    }
    session.serve_spectators(spectator_socket.get());
    std::printf("serving spectators on udp/%u (rtct_watch --host <me>:%u)\n",
                spectator_socket->local_port(), spectator_socket->local_port());
  }
  if (stats) {
    // Live one-line HUD driven by the metrics registry: a fresh snapshot
    // roughly once a second (60 frames) — the human-facing face of the
    // same export --metrics-out serializes.
    session.set_frame_hook([&session](const emu::IDeterministicGame&,
                                      const core::FrameRecord& r) {
      if (r.frame % 60 != 59) return;
      MetricsRegistry reg;
      session.export_metrics(reg);
      const auto val = [&reg](const char* name) { return reg.value(name).value_or(0); };
      std::printf("[stats] f=%-6lld ft=%6.2fms stall=%5.2fms rtt=%6.2fms "
                  "tx=%llu rx=%llu retx=%llu overruns=%llu wake/f=%.1f spect=%.0f\n",
                  static_cast<long long>(r.frame),
                  reg.histogram("timeline.frame_time_ms").mean(),
                  reg.histogram("timeline.stall_ms").mean(), val("sync.rtt_ms"),
                  static_cast<unsigned long long>(val("net.udp.datagrams_sent")),
                  static_cast<unsigned long long>(val("net.udp.datagrams_received")),
                  static_cast<unsigned long long>(val("sync.inputs_retransmitted")),
                  static_cast<unsigned long long>(val("pacer.overruns")),
                  val("session.wakeups") / static_cast<double>(r.frame + 1),
                  val("spectator.host.joined"));
      std::fflush(stdout);
    });
  } else if (!quiet) {
    session.set_frame_hook([](const emu::IDeterministicGame& g, const core::FrameRecord& r) {
      if (r.frame % 300 != 150) return;
      const auto* screen = g.renderable();
      if (screen == nullptr) return;
      std::printf("\n--- frame %lld (hash %016llx) ---\n%s",
                  static_cast<long long>(r.frame),
                  static_cast<unsigned long long>(r.state_hash),
                  emu::render_ascii(screen->framebuffer(), screen->fb_cols(),
                                    screen->fb_rows())
                      .c_str());
    });
  }

  std::string error;
  const bool run_ok = session.run(&error);
  if (relayed != nullptr) relayed->leave();  // fire-and-forget lobby goodbye
  if (!run_ok) {
    std::fprintf(stderr, "rtct_netplay: session failed: %s\n", error.c_str());
    return 1;
  }

  const auto ft = session.timeline().frame_times().summarize();
  std::printf("\ncompleted %zu frames: avg %.3f ms/frame (dev %.3f ms), RTT %.3f ms, "
              "%zu stalled frames\n",
              session.timeline().size(), ft.mean, ft.mean_abs_deviation, to_ms(session.rtt()),
              session.timeline().stalled_frames());
  if (session.rollback_mode()) {
    const auto* rs = session.rollback_stats();
    std::printf("mode: rollback (negotiated): %llu rollbacks, %llu frames resimulated, "
                "max depth %d\n",
                static_cast<unsigned long long>(rs->rollbacks),
                static_cast<unsigned long long>(rs->frames_resimulated),
                rs->max_rollback_depth);
  } else if (mode == "rollback") {
    std::printf("mode: lockstep (peer did not opt into rollback)\n");
  }
  std::printf("final state hash: %016llx  (must match the peer's)\n",
              static_cast<unsigned long long>(machine->state_hash()));

  if (!metrics_out.empty()) {
    MetricsRegistry reg;
    session.export_metrics(reg);
    std::ofstream out(metrics_out, std::ios::binary | std::ios::trunc);
    out << reg.to_json() << '\n';
    if (out) {
      std::printf("metrics snapshot written to %s (rtct_trace show %s)\n",
                  metrics_out.c_str(), metrics_out.c_str());
    } else {
      std::fprintf(stderr, "rtct_netplay: failed to write '%s'\n", metrics_out.c_str());
      return 1;
    }
  }
  if (!timeline_out.empty()) {
    const std::string name = "site" + std::to_string(site) + "/" + game;
    std::ofstream out(timeline_out, std::ios::binary | std::ios::trunc);
    out << core::timeline_to_json(session.timeline(), name, cfg.sync.cfps) << '\n';
    if (out) {
      std::printf("timeline written to %s (diff against the peer's with rtct_trace)\n",
                  timeline_out.c_str());
    } else {
      std::fprintf(stderr, "rtct_netplay: failed to write '%s'\n", timeline_out.c_str());
      return 1;
    }
  }

  if (!record_path.empty()) {
    if (session.replay().save_file(record_path)) {
      std::printf("recorded %lld frames to %s (replay with: rtct_play --replay %s)\n",
                  static_cast<long long>(session.replay().frames()), record_path.c_str(),
                  record_path.c_str());
    } else {
      std::fprintf(stderr, "rtct_netplay: failed to write '%s'\n", record_path.c_str());
      return 1;
    }
  }
  return 0;
}
