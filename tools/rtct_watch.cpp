// rtct_watch — watch a live rtct_netplay match over UDP as an observer.
//
// On the hosting machine:
//   rtct_netplay --site 0 ... --spectator-port 7500
// Anywhere else:
//   rtct_watch --host <host-ip>:7500 --game [core:]duel [--frames N]
//
// The watcher joins late (snapshot + live input feed), replays the match
// on its own replica, and renders it as ASCII. The ROM (or bundled game
// name) must match the host's — the join is refused otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/telemetry.h"
#include "src/core/spectate.h"
#include "src/emu/machine.h"
#include "src/emu/render_text.h"
#include "src/emu/rom_io.h"
#include "src/cores/registry.h"
#include "src/net/udp_socket.h"

int main(int argc, char** argv) {
  using namespace rtct;

  std::string host, game = "duel", rom_file;
  int frames = 600;
  int render_every = 60;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rtct_watch: %s needs a value\n", what);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--host") host = next("--host");
    else if (arg == "--game") game = next("--game");
    else if (arg == "--rom") rom_file = next("--rom");
    else if (arg == "--frames") frames = std::atoi(next("--frames"));
    else if (arg == "--render-every") render_every = std::atoi(next("--render-every"));
    else if (arg == "--stats") stats = true;
    else {
      std::fprintf(stderr, "usage: rtct_watch --host IP:PORT [--game NAME | --rom FILE] "
                           "[--frames N] [--render-every K] [--stats]\n");
      return arg == "-h" || arg == "--help" ? 0 : 1;
    }
  }
  const auto colon = host.find_last_of(':');
  if (host.empty() || colon == std::string::npos) {
    std::fprintf(stderr, "rtct_watch: --host IP:PORT is required\n");
    return 1;
  }

  std::unique_ptr<emu::IDeterministicGame> machine;
  if (!rom_file.empty()) {
    auto rom = emu::load_rom_file(rom_file);
    if (!rom) {
      std::fprintf(stderr, "rtct_watch: cannot load ROM '%s'\n", rom_file.c_str());
      return 1;
    }
    machine = std::make_unique<emu::ArcadeMachine>(*rom);
  } else {
    machine = cores::make_game(game);
    if (!machine) {
      std::fprintf(stderr, "rtct_watch: unknown game '%s'\n", game.c_str());
      return 1;
    }
  }

  net::UdpSocket socket("0.0.0.0", 0);
  if (!socket.valid() ||
      !socket.connect_peer(host.substr(0, colon),
                           static_cast<std::uint16_t>(
                               std::strtol(host.c_str() + colon + 1, nullptr, 10)))) {
    std::fprintf(stderr, "rtct_watch: socket: %s\n", socket.last_error().c_str());
    return 1;
  }

  core::SpectatorClient client(*machine, core::SyncConfig{});
  std::printf("watching %s (game '%s')...\n", host.c_str(), machine->content_name().c_str());

  const Time start = steady_now();
  Time last_progress = start;
  while (client.applied_frame() < frames - 1) {
    const Time t = steady_now() - start;
    if (auto m = client.make_message(t)) socket.send(core::encode_message(*m));
    socket.wait_readable(milliseconds(20));
    while (auto payload = socket.try_recv()) {
      if (auto msg = core::decode_message(*payload)) client.ingest(*msg);
    }
    while (client.step_one()) {
      last_progress = steady_now();
      const FrameNo f = client.applied_frame();
      if (stats && f % 60 == 59) {
        MetricsRegistry reg;
        client.export_metrics(reg);
        socket.export_metrics(reg);
        const auto val = [&reg](const char* name) { return reg.value(name).value_or(0); };
        std::printf("[stats] f=%-6lld pending=%-4.0f feeds=%llu stale=%llu "
                    "tx=%llu rx=%llu\n",
                    static_cast<long long>(f), val("spectator.client.pending"),
                    static_cast<unsigned long long>(val("spectator.client.feed_messages_rcvd")),
                    static_cast<unsigned long long>(val("spectator.client.stale_inputs_rcvd")),
                    static_cast<unsigned long long>(val("net.udp.datagrams_sent")),
                    static_cast<unsigned long long>(val("net.udp.datagrams_received")));
        std::fflush(stdout);
      }
      const emu::IRenderableGame* screen = machine->renderable();
      if (screen != nullptr && render_every > 0 && f % render_every == render_every - 1) {
        std::printf("\n--- frame %lld (hash %016llx) ---\n%s",
                    static_cast<long long>(f),
                    static_cast<unsigned long long>(machine->state_hash()),
                    emu::render_ascii(screen->framebuffer(), screen->fb_cols(),
                                      screen->fb_rows())
                        .c_str());
      }
    }
    const Dur idle = steady_now() - last_progress;
    if (idle > (client.joined() ? seconds(5) : seconds(10))) {
      std::fprintf(stderr, "rtct_watch: feed went quiet (match over or host gone)\n");
      break;
    }
  }

  std::printf("\nwatched through frame %lld; final replica hash %016llx\n",
              static_cast<long long>(client.applied_frame()),
              static_cast<unsigned long long>(machine->state_hash()));
  return client.joined() ? 0 : 1;
}
