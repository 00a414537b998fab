// rtct_replay — offline surgery on RTCTRPL1/RTCTRPL2 session recordings:
//
//   rtct_replay info FILE.rpl             header + keyframe table
//   rtct_replay seek FILE.rpl FRAME       random access: restore nearest
//                                         keyframe, re-simulate, print the
//                                         state digest at FRAME
//   rtct_replay rewind FILE.rpl           seek backwards through the whole
//                                         recording (TAS-style), proving
//                                         every rewind costs O(interval)
//   rtct_replay branch FILE.rpl FRAME OUT.rpl
//                                         truncate-and-fork frames [0,FRAME]
//   rtct_replay bisect A.rpl B.rpl        divergence bisection: first
//                                         divergent frame + exact 256 B
//                                         page(s), as rtct.bisect.v1 JSON
//   rtct_replay bisect A.rpl --timeline T.json
//                                         replay vs archived per-frame-hash
//                                         timeline (exact frame, no pages)
//   rtct_replay gen-fixture DIR           deterministically forge the
//                                         divergent-twin fixture pair the
//                                         test suite and CI bisect against
//
// Exit codes: 0 ok / bisect identical, 2 = bisect found a divergence,
// 1 = usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/random.h"
#include "src/core/bisect.h"
#include "src/core/metrics.h"
#include "src/core/replay.h"
#include "src/cores/registry.h"
#include "src/emu/machine.h"

namespace {

using rtct::core::BisectReport;
using rtct::core::FrameTimeline;
using rtct::core::Replay;
using rtct::FrameNo;

int usage() {
  std::fprintf(stderr,
               "usage: rtct_replay info FILE.rpl\n"
               "       rtct_replay seek FILE.rpl FRAME [--digest-version 1|3]\n"
               "       rtct_replay rewind FILE.rpl [--step N]\n"
               "       rtct_replay branch FILE.rpl FRAME OUT.rpl\n"
               "       rtct_replay bisect A.rpl B.rpl\n"
               "       rtct_replay bisect A.rpl --timeline T.json [--digest-version 1|3]\n"
               "       rtct_replay gen-fixture DIR\n");
  return 1;
}

std::optional<Replay> load_or_complain(const std::string& path) {
  std::string why;
  auto r = Replay::load_file(path, &why);
  if (!r) {
    std::fprintf(stderr, "rtct_replay: %s: %s\n", path.c_str(),
                 why.empty() ? "not a valid replay container" : why.c_str());
  }
  return r;
}

std::unique_ptr<rtct::emu::IDeterministicGame> game_for(const Replay& r) {
  // Name-first: recordings stamped with their qualified game name
  // re-instantiate the right core directly. The content id is still the
  // authority — a name whose image does not match (renamed game, edited
  // file) falls back to the full registry scan.
  if (!r.game_name().empty()) {
    if (auto game = rtct::cores::make_game(r.game_name());
        game != nullptr && game->content_id() == r.content_id()) {
      return game;
    }
  }
  auto game = rtct::cores::make_game_for_content(r.content_id());
  if (game == nullptr) {
    std::fprintf(stderr, "rtct_replay: no bundled game with content id %016llx\n",
                 static_cast<unsigned long long>(r.content_id()));
  }
  return game;
}

// ---- info -------------------------------------------------------------------

int cmd_info(const std::string& path) {
  const auto r = load_or_complain(path);
  if (!r) return 1;
  std::printf("container   RTCTRPL%d\n", r->container_version());
  std::printf("content_id  %016llx\n", static_cast<unsigned long long>(r->content_id()));
  std::printf("game        %s\n",
              r->game_name().empty() ? "(unrecorded)" : r->game_name().c_str());
  std::printf("cfps        %d\n", r->cfps());
  std::printf("buf_frames  %d\n", r->buf_frames());
  std::printf("digest_ver  %d\n", r->digest_version());
  std::printf("interval    %d\n", r->keyframe_interval());
  std::printf("frames      %lld\n", static_cast<long long>(r->frames()));
  std::printf("keyframes   %zu\n", r->keyframes().size());
  for (const auto& kf : r->keyframes()) {
    std::printf("  frame %8lld  digest %016llx  state %zu B\n", static_cast<long long>(kf.frame),
                static_cast<unsigned long long>(kf.digest), kf.state.size());
  }
  return 0;
}

// ---- seek / rewind ----------------------------------------------------------

int cmd_seek(const std::string& path, FrameNo frame, int digest_version) {
  const auto r = load_or_complain(path);
  if (!r) return 1;
  auto game = game_for(*r);
  if (game == nullptr) return 1;
  Replay::SeekStats st;
  const auto digest = r->seek(*game, frame, digest_version, &st);
  if (!digest) {
    std::fprintf(stderr, "rtct_replay: seek to frame %lld failed (out of range or corrupt keyframe)\n",
                 static_cast<long long>(frame));
    return 1;
  }
  std::printf("frame %lld  digest %016llx  (keyframe %lld, resimulated %lld)\n",
              static_cast<long long>(frame), static_cast<unsigned long long>(*digest),
              static_cast<long long>(st.keyframe), static_cast<long long>(st.resimulated));
  return 0;
}

int cmd_rewind(const std::string& path, FrameNo step) {
  const auto r = load_or_complain(path);
  if (!r) return 1;
  auto game = game_for(*r);
  if (game == nullptr) return 1;
  if (r->frames() == 0) {
    std::fprintf(stderr, "rtct_replay: empty recording\n");
    return 1;
  }
  if (step <= 0) {
    step = r->keyframe_interval() > 0 ? r->keyframe_interval() : 60;
  }
  FrameNo total_resim = 0;
  for (FrameNo f = r->frames() - 1; f >= 0; f -= step) {
    Replay::SeekStats st;
    const auto digest = r->seek(*game, f, 0, &st);
    if (!digest) {
      std::fprintf(stderr, "rtct_replay: rewind to frame %lld failed\n", static_cast<long long>(f));
      return 1;
    }
    total_resim += st.resimulated;
    std::printf("frame %8lld  digest %016llx  (keyframe %8lld, resimulated %lld)\n",
                static_cast<long long>(f), static_cast<unsigned long long>(*digest),
                static_cast<long long>(st.keyframe), static_cast<long long>(st.resimulated));
    if (f == 0) break;
  }
  std::printf("rewound %lld frames, re-simulated %lld total\n",
              static_cast<long long>(r->frames()), static_cast<long long>(total_resim));
  return 0;
}

// ---- branch -----------------------------------------------------------------

int cmd_branch(const std::string& path, FrameNo frame, const std::string& out) {
  const auto r = load_or_complain(path);
  if (!r) return 1;
  const Replay b = r->branch(frame);
  if (!b.save_file(out)) {
    std::fprintf(stderr, "rtct_replay: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("%s: frames [0, %lld], %zu keyframe(s)\n", out.c_str(),
              static_cast<long long>(b.frames() - 1), b.keyframes().size());
  return 0;
}

// ---- bisect -----------------------------------------------------------------

int report_and_exit(const BisectReport& rep) {
  std::printf("%s\n", rtct::core::bisect_report_to_json(rep).c_str());
  if (rep.verdict == "error") {
    std::fprintf(stderr, "rtct_replay: bisect error: %s\n", rep.error.c_str());
    return 1;
  }
  return rep.verdict == "diverged" ? 2 : 0;
}

int cmd_bisect(const std::string& path_a, const std::string& path_b) {
  const auto a = load_or_complain(path_a);
  const auto b = load_or_complain(path_b);
  if (!a || !b) return 1;
  const auto factory = [&a] { return game_for(*a); };
  return report_and_exit(rtct::core::bisect_replays(*a, *b, factory));
}

int cmd_bisect_timeline(const std::string& path_a, const std::string& path_t, int digest_version) {
  const auto a = load_or_complain(path_a);
  if (!a) return 1;
  std::ifstream in(path_t, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<FrameTimeline> timeline;
  if (in) {
    if (const auto doc = rtct::parse_json(buf.str())) {
      timeline = rtct::core::timeline_from_json(*doc);
    }
  }
  if (!timeline) {
    std::fprintf(stderr, "rtct_replay: %s: not a valid timeline export\n", path_t.c_str());
    return 1;
  }
  const auto factory = [&a] { return game_for(*a); };
  return report_and_exit(
      rtct::core::bisect_replay_vs_timeline(*a, *timeline, digest_version, factory));
}

// ---- gen-fixture ------------------------------------------------------------

// Forges the committed divergent-twin fixture: two RTCTRPL2 recordings of
// the same deterministic torture-ROM session, except one embedded keyframe
// of twin B carries a single-byte RAM mutation (frame 599, page 17). The
// mutation lives in the *snapshot*, not the input log, so the bisector
// must attribute side "b" and name exactly that page. Everything is seeded
// and allocation-order-free, so the three outputs are byte-identical on
// every run — CI regenerates and diffs them.
constexpr FrameNo kFixtureFrames = 900;
constexpr int kFixtureInterval = 150;
constexpr FrameNo kFixtureMutFrame = 599;  // a keyframe frame: 150*4 - 1
constexpr int kFixtureMutPage = 17;
constexpr int kFixtureMutOffset = 5;  // byte within the page

int cmd_gen_fixture(const std::string& dir) {
  auto game = rtct::cores::make_game("ac16:torture");
  if (game == nullptr) return 1;
  rtct::core::SyncConfig cfg;
  cfg.replay_keyframe_interval = kFixtureInterval;
  Replay a(game->content_id(), cfg, game->content_name());
  rtct::Rng rng(42);
  for (FrameNo f = 0; f < kFixtureFrames; ++f) {
    const auto input = static_cast<rtct::InputWord>(rng.next_u64() & 0xFFFF);
    game->step_frame(input);
    a.record(input);
    if (a.keyframe_due()) a.record_keyframe(*game);
  }

  Replay b = a;
  auto* mut = [&b]() -> rtct::core::ReplayKeyframe* {
    for (auto& kf : b.keyframes_mutable()) {
      if (kf.frame == kFixtureMutFrame) return &kf;
    }
    return nullptr;
  }();
  if (mut == nullptr) {
    std::fprintf(stderr, "rtct_replay: fixture keyframe at frame %lld missing\n",
                 static_cast<long long>(kFixtureMutFrame));
    return 1;
  }
  // The snapshot is (header | 32 KiB mutable region); flip one byte of
  // page 17 and restamp the keyframe digest so the forged snapshot is
  // internally consistent — the divergence evidence is the digest
  // disagreeing with the deterministic line, not a corrupt file.
  const std::size_t header = mut->state.size() - (0x10000 - rtct::emu::kRamBase);
  const std::size_t off =
      header + static_cast<std::size_t>(kFixtureMutPage) * rtct::emu::kPageSize + kFixtureMutOffset;
  mut->state[off] ^= 0x01;
  auto scratch = rtct::cores::make_game("ac16:torture");
  if (!scratch->load_state(mut->state)) {
    std::fprintf(stderr, "rtct_replay: forged snapshot failed to load\n");
    return 1;
  }
  mut->digest = scratch->state_digest(a.digest_version());

  const auto factory = [] { return rtct::cores::make_game("ac16:torture"); };
  const BisectReport rep = rtct::core::bisect_replays(a, b, factory);
  if (rep.verdict != "diverged") {
    std::fprintf(stderr, "rtct_replay: fixture self-check failed (verdict %s)\n",
                 rep.verdict.c_str());
    return 1;
  }

  const std::string pa = dir + "/bisect_twin_a.rpl";
  const std::string pb = dir + "/bisect_twin_b.rpl";
  const std::string pj = dir + "/bisect_expected.json";
  if (!a.save_file(pa) || !b.save_file(pb)) {
    std::fprintf(stderr, "rtct_replay: cannot write fixture replays under %s\n", dir.c_str());
    return 1;
  }
  std::ofstream out(pj, std::ios::binary | std::ios::trunc);
  out << rtct::core::bisect_report_to_json(rep) << '\n';
  if (!out) {
    std::fprintf(stderr, "rtct_replay: cannot write %s\n", pj.c_str());
    return 1;
  }
  std::printf("wrote %s %s %s\n", pa.c_str(), pb.c_str(), pj.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  int digest_version = 0;
  FrameNo step = 0;
  std::string timeline_path;
  std::vector<std::string> pos;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--digest-version" && i + 1 < args.size()) {
      digest_version = std::atoi(args[++i].c_str());
      if (digest_version != 1 && digest_version != rtct::emu::kStateDigestVersion) {
        std::fprintf(stderr, "rtct_replay: --digest-version must be 1 or 3\n");
        return usage();
      }
    } else if (args[i] == "--step" && i + 1 < args.size()) {
      step = std::atoll(args[++i].c_str());
    } else if (args[i] == "--timeline" && i + 1 < args.size()) {
      timeline_path = args[++i];
    } else {
      pos.push_back(args[i]);
    }
  }
  if (pos.empty()) return usage();
  const std::string& cmd = pos[0];
  if (cmd == "info" && pos.size() == 2) return cmd_info(pos[1]);
  if (cmd == "seek" && pos.size() == 3) {
    return cmd_seek(pos[1], std::atoll(pos[2].c_str()), digest_version);
  }
  if (cmd == "rewind" && pos.size() == 2) return cmd_rewind(pos[1], step);
  if (cmd == "branch" && pos.size() == 4) {
    return cmd_branch(pos[1], std::atoll(pos[2].c_str()), pos[3]);
  }
  if (cmd == "bisect" && pos.size() == 2 && !timeline_path.empty()) {
    return cmd_bisect_timeline(pos[1], timeline_path, digest_version);
  }
  if (cmd == "bisect" && pos.size() == 3) return cmd_bisect(pos[1], pos[2]);
  if (cmd == "gen-fixture" && pos.size() == 2) return cmd_gen_fixture(pos[1]);
  return usage();
}
