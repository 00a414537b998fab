#include "src/cores/registry.h"

#include <algorithm>

#include "src/cores/agent86/games.h"
#include "src/emu/machine.h"
#include "src/games/cellwars.h"
#include "src/games/roms.h"

namespace rtct::cores {

namespace {

class Ac16Core final : public GameCore {
 public:
  [[nodiscard]] std::string_view name() const override { return "ac16"; }
  [[nodiscard]] std::vector<std::string_view> game_names() const override {
    return games::game_names();
  }
  [[nodiscard]] std::unique_ptr<emu::IDeterministicGame> make_game(
      std::string_view game) const override {
    return games::make_machine(game);
  }
  [[nodiscard]] std::uint64_t content_id(std::string_view game) const override {
    const emu::Rom* rom = games::rom_by_name(game);
    return rom != nullptr ? rom->checksum() : 0;
  }
};

class Agent86Core final : public GameCore {
 public:
  [[nodiscard]] std::string_view name() const override { return "agent86"; }
  [[nodiscard]] std::vector<std::string_view> game_names() const override {
    return a86::game_names();
  }
  [[nodiscard]] std::unique_ptr<emu::IDeterministicGame> make_game(
      std::string_view game) const override {
    return a86::make_machine(game);
  }
  [[nodiscard]] std::uint64_t content_id(std::string_view game) const override {
    const a86::Program* program = a86::program_by_name(game);
    return program != nullptr ? program->checksum() : 0;
  }
};

class NativeCore final : public GameCore {
 public:
  [[nodiscard]] std::string_view name() const override { return "native"; }
  [[nodiscard]] std::vector<std::string_view> game_names() const override {
    return {"cellwars"};
  }
  [[nodiscard]] std::unique_ptr<emu::IDeterministicGame> make_game(
      std::string_view game) const override {
    if (game == "cellwars") return games::make_cellwars();
    return nullptr;
  }
};

}  // namespace

QualifiedName split_qualified(std::string_view qualified) {
  const auto colon = qualified.find(':');
  if (colon == std::string_view::npos) return {kDefaultCore, qualified};
  return {qualified.substr(0, colon), qualified.substr(colon + 1)};
}

CoreRegistry::CoreRegistry() {
  cores_.push_back(std::make_unique<Ac16Core>());
  cores_.push_back(std::make_unique<Agent86Core>());
  cores_.push_back(std::make_unique<NativeCore>());
}

CoreRegistry& CoreRegistry::instance() {
  static CoreRegistry registry;
  return registry;
}

void CoreRegistry::register_core(std::unique_ptr<GameCore> core) {
  if (core == nullptr || this->core(core->name()) != nullptr) return;
  cores_.push_back(std::move(core));
}

const GameCore* CoreRegistry::core(std::string_view name) const {
  for (const auto& c : cores_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const GameCore*> CoreRegistry::cores() const {
  std::vector<const GameCore*> out;
  out.reserve(cores_.size());
  for (const auto& c : cores_) out.push_back(c.get());
  return out;
}

std::unique_ptr<emu::IDeterministicGame> make_game(std::string_view qualified) {
  const QualifiedName qn = split_qualified(qualified);
  const GameCore* core = CoreRegistry::instance().core(qn.core);
  if (core == nullptr) return nullptr;
  return core->make_game(qn.game);
}

bool has_game(std::string_view qualified) {
  const QualifiedName qn = split_qualified(qualified);
  const GameCore* core = CoreRegistry::instance().core(qn.core);
  if (core == nullptr) return false;
  const auto names = core->game_names();
  return std::find(names.begin(), names.end(), qn.game) != names.end();
}

std::unique_ptr<emu::IDeterministicGame> make_game_for_content(std::uint64_t content_id) {
  for (const GameCore* core : CoreRegistry::instance().cores()) {
    for (const std::string_view game : core->game_names()) {
      if (core->content_id(game) == content_id) return core->make_game(game);
    }
  }
  return nullptr;
}

std::optional<std::string> find_content_name(std::uint64_t content_id) {
  for (const GameCore* core : CoreRegistry::instance().cores()) {
    for (const std::string_view game : core->game_names()) {
      if (core->content_id(game) == content_id) {
        return std::string(core->name()) + ":" + std::string(game);
      }
    }
  }
  return std::nullopt;
}

std::vector<GameEntry> list_games() {
  std::vector<GameEntry> out;
  for (const GameCore* core : CoreRegistry::instance().cores()) {
    for (const std::string_view game : core->game_names()) {
      out.push_back({std::string(core->name()), std::string(game), core->content_id(game)});
    }
  }
  return out;
}

}  // namespace rtct::cores
