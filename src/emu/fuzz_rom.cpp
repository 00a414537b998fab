#include "src/emu/fuzz_rom.h"

#include <vector>

#include "src/common/random.h"
#include "src/emu/isa.h"

namespace rtct::emu {

namespace {

constexpr Op kAluReg[] = {Op::kAdd, Op::kSub, Op::kAnd, Op::kOr,  Op::kXor,
                          Op::kShl, Op::kShr, Op::kMul, Op::kNeg, Op::kNot,
                          Op::kCmp, Op::kMov};
constexpr Op kAluImm[] = {Op::kAddi, Op::kSubi, Op::kAndi, Op::kOri, Op::kXori,
                          Op::kShli, Op::kShri, Op::kMuli, Op::kCmpi};
constexpr Op kMem[] = {Op::kLdb, Op::kLdw, Op::kStb, Op::kStw};
constexpr Op kJump[] = {Op::kJmp, Op::kJz, Op::kJnz, Op::kJc,
                        Op::kJnc, Op::kJn, Op::kJnn};
// Fill-loop counts (0 runs 65,536 times) and strides (0xFFFF steps down).
constexpr std::uint16_t kFillCounts[] = {0, 1, 2, 3, 64, 3072};
constexpr std::uint16_t kFillStrides[] = {0, 1, 2, 64, 300, 0xFFFF};

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&arr)[N]) {
  return arr[static_cast<std::size_t>(rng.uniform(0, N - 1))];
}

}  // namespace

Rom make_fuzz_rom(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
  std::vector<std::uint8_t> image;

  auto emit_raw = [&image](std::uint8_t b0, std::uint8_t b1, std::uint8_t b2,
                           std::uint8_t b3) {
    image.push_back(b0);
    image.push_back(b1);
    image.push_back(b2);
    image.push_back(b3);
  };
  auto emit = [&emit_raw](Op op, std::uint8_t a, std::uint8_t b, std::uint8_t c) {
    std::uint8_t raw[4];
    encode({op, a, b, c}, raw);
    emit_raw(raw[0], raw[1], raw[2], raw[3]);
  };
  auto emit_imm = [&emit](Op op, std::uint8_t a, std::uint16_t imm) {
    emit(op, a, static_cast<std::uint8_t>(imm & 0xFF),
         static_cast<std::uint8_t>(imm >> 8));
  };
  auto reg = [&rng] { return static_cast<std::uint8_t>(rng.uniform(0, 15)); };
  auto low_reg = [&rng] { return static_cast<std::uint8_t>(rng.uniform(0, 7)); };
  auto byte = [&rng] { return static_cast<std::uint8_t>(rng.uniform(0, 255)); };

  const int body = static_cast<int>(rng.uniform(48, 256));
  const std::size_t total_bytes = static_cast<std::size_t>(8 + body + 2) * kInstrBytes;

  // Prelude: point the low registers at RAM so memory traffic mostly hits
  // real pages (an 8-bit offset then still reaches ROM via wraparound or
  // a later register clobber — the interesting cases stay reachable).
  for (std::uint8_t r = 0; r < 8; ++r) {
    const auto ram = static_cast<std::uint16_t>(
        kRamBase | (rng.next_u64() & 0x7FF0));
    emit_imm(Op::kLdi, r, ram);
  }

  // A jump target: usually instruction-aligned inside the program (loops,
  // skips), sometimes a raw 16-bit address — mid-instruction, the
  // zero-filled ROM tail, the predecode boundary, or RAM.
  auto jump_target = [&]() -> std::uint16_t {
    if (rng.bernoulli(0.10)) return static_cast<std::uint16_t>(rng.next_u64());
    const auto slot = static_cast<std::uint64_t>(
        rng.uniform(0, static_cast<std::int64_t>(total_bytes / kInstrBytes) - 1));
    return static_cast<std::uint16_t>(slot * kInstrBytes);
  };

  for (int i = 0; i < body; ++i) {
    const std::int64_t roll = rng.uniform(0, 99);
    if (roll < 5) {
      // A counted fill loop (STB/STW, ADDI, SUBI 1, JNZ back), which the
      // fast interpreter may run as one block store: registers sometimes
      // aliased, the pointer mostly in RAM, sometimes just below the top
      // (the stores wrap into ROM) or anywhere.
      const std::uint8_t ptr = reg();
      const std::uint8_t value = rng.bernoulli(0.1) ? ptr : reg();
      const std::uint8_t counter = rng.bernoulli(0.1) ? ptr : reg();
      const std::int64_t where = rng.uniform(0, 9);
      const auto target = static_cast<std::uint16_t>(
          where < 6 ? kRamBase | (rng.next_u64() & 0x7FFF)
                    : (where < 8 ? 0x10000 - rng.uniform(1, 512) : rng.next_u64()));
      const auto count = rng.bernoulli(0.5) ? pick(rng, kFillCounts)
                                            : static_cast<std::uint16_t>(rng.uniform(1, 4000));
      const auto stride = rng.bernoulli(0.8) ? pick(rng, kFillStrides)
                                             : static_cast<std::uint16_t>(rng.next_u64());
      emit_imm(Op::kLdi, value, static_cast<std::uint16_t>(rng.next_u64()));
      emit_imm(Op::kLdi, counter, count);
      emit_imm(Op::kLdi, ptr, target);
      const auto head = static_cast<std::uint16_t>(image.size());
      emit(rng.bernoulli(0.5) ? Op::kStb : Op::kStw, ptr, value,
           rng.bernoulli(0.7) ? 0 : byte());
      emit_imm(Op::kAddi, ptr, stride);
      emit_imm(Op::kSubi, counter, 1);
      emit_imm(Op::kJnz, byte(), head);
    } else if (roll < 25) {
      emit(pick(rng, kAluReg), reg(), reg(), byte());
    } else if (roll < 45) {
      emit_imm(pick(rng, kAluImm), reg(), static_cast<std::uint16_t>(rng.next_u64()));
    } else if (roll < 55) {
      emit_imm(Op::kLdi, reg(), static_cast<std::uint16_t>(rng.next_u64()));
    } else if (roll < 67) {
      // Memory op off a (mostly RAM-pointing) low base register. For
      // stores `a` is the address register, for loads it is `b`.
      const Op op = pick(rng, kMem);
      const bool store = op == Op::kStb || op == Op::kStw;
      emit(op, store ? low_reg() : reg(), store ? reg() : low_reg(), byte());
    } else if (roll < 77) {
      emit_imm(pick(rng, kJump), byte(), jump_target());
    } else if (roll < 82) {
      emit(rng.bernoulli(0.5) ? Op::kPush : Op::kPop, reg(), byte(), byte());
    } else if (roll < 85) {
      emit_imm(Op::kCall, byte(), jump_target());
    } else if (roll < 87) {
      emit(Op::kRet, byte(), byte(), byte());
    } else if (roll < 91) {
      const auto port = static_cast<std::uint8_t>(rng.uniform(0, 7));
      if (rng.bernoulli(0.5)) {
        emit(Op::kIn, reg(), port, byte());
      } else {
        emit(Op::kOut, port, reg(), byte());
      }
    } else if (roll < 95) {
      emit(Op::kHalt, byte(), byte(), byte());
    } else if (roll < 97) {
      emit_raw(byte(), byte(), byte(), byte());  // may be an invalid opcode
    } else {
      emit(Op::kNop, byte(), byte(), byte());
    }
  }

  // Tail: end the frame and loop, so tame seeds keep producing frames.
  emit(Op::kHalt, 0, 0, 0);
  emit_imm(Op::kJmp, 0, 0);

  Rom rom;
  rom.title = "fuzz-" + std::to_string(seed);
  rom.image = std::move(image);
  rom.entry = 0;
  return rom;
}

}  // namespace rtct::emu
