// Structure-aware fuzzing of the wire decoders and the sans-IO protocol
// state machines behind them.
//
// Three layers, composed the way the deployed stack is:
//   1. decode_message must never read past the span, crash, or accept a
//      message violating the documented field ranges (docs/PROTOCOL.md
//      "Decoder rejection rules");
//   2. anything decode *does* accept must re-encode canonically (decode ∘
//      encode is the identity on accepted messages);
//   3. accepted messages must be safe to feed into SyncPeer /
//      SessionControl / SpectatorBroadcastHub / SpectatorClient — the decoder is
//      the trust boundary, so the state machines are fuzzed only through
//      it, exactly as in production.
// All randomness comes from one seeded Rng; every failure is reproducible
// from (seed, iteration). The deterministic corpus (build_corpus) is
// checked into tests/corpus/ and replayed as a regression suite under the
// sanitize preset.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rtct::chaos {

struct FuzzStats {
  std::uint64_t iterations = 0;
  std::uint64_t accepted = 0;  ///< buffers decode accepted
  std::uint64_t rejected = 0;
};

/// One self-describing regression input. `expect_reject` records the
/// contract at generation time; replay fails if a once-rejected input is
/// ever accepted again (a hardening regression).
struct CorpusEntry {
  /// Which decoder the entry targets: the wire message decoder or the
  /// RTCTRPL1/RTCTRPL2 replay-container parser.
  enum class Kind { kWire, kReplay };

  std::string name;  ///< stable file name, e.g. "sync_count_oversized.bin"
  std::vector<std::uint8_t> bytes;
  bool expect_reject = false;
  Kind kind = Kind::kWire;
};

/// The deterministic regression corpus: valid edge-case encodings of
/// every message type plus the hostile shapes the decoders must reject
/// (truncations, oversized counts, out-of-range frames/times, trailing
/// garbage). Same output on every platform and run.
std::vector<CorpusEntry> build_corpus();

/// Runs one buffer through decode + canonical-re-encode + field-range
/// validation. Returns a failure description, or nullopt if the decoder
/// behaved (rejection is correct behaviour for hostile input).
std::optional<std::string> check_decoder(std::span<const std::uint8_t> bytes);

/// Same contract for the replay-container parser (Replay::parse): a
/// kReplay corpus entry must keep its generation-time accept/reject
/// verdict, and anything accepted must re-serialize canonically.
std::optional<std::string> check_replay_container(std::span<const std::uint8_t> bytes,
                                                  bool expect_reject);

/// Random-structure fuzz of Replay::parse: seeded RTCTRPL1/RTCTRPL2
/// containers mutated by truncation/extension/byte-flips — half of the
/// mutants get their CRC trailer re-stamped so the structural validation
/// *past* the checksum is exercised too. Returns the first failure.
std::optional<std::string> fuzz_replay(std::uint64_t seed, int iterations,
                                       FuzzStats* stats = nullptr);

/// Random-structure fuzz of the decoders: `iterations` buffers derived
/// from `seed` (valid encodings with edge-biased fields, then mutated by
/// truncation/extension/byte-flips, plus raw noise). Returns the first
/// failure, or nullopt.
std::optional<std::string> fuzz_wire(std::uint64_t seed, int iterations,
                                     FuzzStats* stats = nullptr);

/// Fuzzes the protocol state machines through the decoder trust boundary:
/// mutated buffers that survive decoding are fed into a driven SyncPeer,
/// SessionControl, a two-observer SpectatorBroadcastHub and a
/// SpectatorClient. Sanitizers (ASan/UBSan) turn any memory or overflow bug into a failure; this function
/// additionally drives the peers forward so ingested state is exercised,
/// not just stored. Returns the first failure, or nullopt.
std::optional<std::string> fuzz_ingest(std::uint64_t seed, int iterations);

}  // namespace rtct::chaos
