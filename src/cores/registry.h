// The GameCore registry: pluggable deterministic cores behind one name
// scheme.
//
// A *core* is a virtual machine / simulation engine (AC16 arcade board,
// agent86 PC, native C++ games); a *game* is content a core can load. The
// registry resolves qualified names — "ac16:duel", "agent86:skirmish",
// "native:cellwars" — to fresh IDeterministicGame instances; bare names
// keep meaning "ac16:" for compatibility with every existing CLI flag,
// script and replay. Tools, the testbed and benches construct games only
// through here; the sync layer (src/core) still sees nothing but
// IDeterministicGame. That split is the paper's §2 transparency claim
// made structural: adding a core is adding a subdirectory, not touching
// the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/emu/game.h"

namespace rtct::cores {

inline constexpr std::string_view kDefaultCore = "ac16";

/// One pluggable simulation backend.
class GameCore {
 public:
  virtual ~GameCore() = default;

  /// Registry name ("ac16", "agent86", "native").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Names of the games this core bundles.
  [[nodiscard]] virtual std::vector<std::string_view> game_names() const = 0;

  /// Creates a fresh instance of a bundled game; nullptr when unknown.
  [[nodiscard]] virtual std::unique_ptr<emu::IDeterministicGame> make_game(
      std::string_view game) const = 0;

  /// Content id of a bundled game without constructing a machine (used for
  /// content-id scans). Default: instantiate and ask.
  [[nodiscard]] virtual std::uint64_t content_id(std::string_view game) const {
    const auto g = make_game(game);
    return g ? g->content_id() : 0;
  }
};

/// A "core:game" name split into its halves. Bare names resolve to the
/// default (AC16) core.
struct QualifiedName {
  std::string_view core;
  std::string_view game;
};
[[nodiscard]] QualifiedName split_qualified(std::string_view qualified);

/// One row of the full core/game catalogue.
struct GameEntry {
  std::string core;
  std::string game;
  std::uint64_t content_id = 0;
  [[nodiscard]] std::string qualified() const { return core + ":" + game; }
};

/// The process-wide registry. Built-in cores (ac16, agent86, native) are
/// registered on first use; register_core adds plugins on top.
class CoreRegistry {
 public:
  static CoreRegistry& instance();

  void register_core(std::unique_ptr<GameCore> core);
  [[nodiscard]] const GameCore* core(std::string_view name) const;
  [[nodiscard]] std::vector<const GameCore*> cores() const;

 private:
  CoreRegistry();
  std::vector<std::unique_ptr<GameCore>> cores_;
};

/// Resolves a (possibly qualified) game name to a fresh instance; nullptr
/// when the core or game is unknown.
std::unique_ptr<emu::IDeterministicGame> make_game(std::string_view qualified);

/// True when make_game(qualified) would return a game: the core is
/// registered and lists the game. Constructs nothing.
bool has_game(std::string_view qualified);

/// Re-instantiates whichever registered game has this content id (replay
/// and spectator tooling); nullptr when no bundled game matches.
std::unique_ptr<emu::IDeterministicGame> make_game_for_content(std::uint64_t content_id);

/// Qualified name for a content id, when some bundled game matches.
std::optional<std::string> find_content_name(std::uint64_t content_id);

/// Every (core, game) pair the registry knows, in stable order.
std::vector<GameEntry> list_games();

}  // namespace rtct::cores
