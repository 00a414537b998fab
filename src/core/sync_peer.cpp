#include "src/core/sync_peer.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/common/telemetry.h"

namespace rtct::core {

SyncPeer::SyncPeer(SiteId my_site, SyncConfig cfg, int num_sites)
    : my_site_(my_site),
      num_sites_(num_sites),
      cfg_(cfg),
      ibuf_(num_sites),
      peers_(static_cast<std::size_t>(num_sites)) {
  for (auto& p : peers_) p.rtt = RttEstimator(cfg.min_rto, cfg.max_rto);
  reset_lag(cfg.buf_frames);
}

void SyncPeer::reset_lag(int buf_frames) {
  // Paper initialization: every LastRcvFrame and LastAckFrame starts at
  // BufFrame-1, which makes the exit condition trivially true for the
  // first BufFrame frames ("empty inputs are returned", §3.1). The initial
  // LastRcvFrame is shared knowledge: acking it would be "new info" to no
  // one.
  cfg_.buf_frames = buf_frames;
  last_rcv_.assign(static_cast<std::size_t>(num_sites_), buf_frames - 1);
  for (auto& p : peers_) {
    p.last_ack = buf_frames - 1;
    p.ack_sent = buf_frames - 1;
  }
}

bool SyncPeer::set_buf_frames(int buf_frames) {
  // Legal only while the protocol is still in its constructed state: no
  // local input buffered or sent, nothing delivered, nothing received.
  // (The handshake completes before frame 0, so drivers hit this window.)
  if (pointer_ != 0 || stats_.messages_made != 0) return false;
  for (const FrameNo rcv : last_rcv_) {
    if (rcv != cfg_.buf_frames - 1) return false;
  }
  reset_lag(buf_frames);
  return true;
}

Dur SyncPeer::current_rto(SiteId peer) const {
  const Peer& p = peers_[peer];
  const Dur base = p.rtt.has_sample() ? p.rtt.rto() : cfg_.initial_rto;
  // The backed-off timeout honours the same ceiling as the estimator
  // (RFC 6298 §5.5): backoff must not grow a stall past max_rto.
  return std::min(base * p.rto_backoff, cfg_.max_rto);
}

void SyncPeer::submit_local(FrameNo frame, InputWord local_input) {
  const FrameNo lag_frame = frame + cfg_.buf_frames;  // line 1: LagF
  if (last_rcv_[my_site_] < lag_frame) {              // lines 2-5
    ibuf_.put(my_site_, lag_frame, local_input);
    last_rcv_[my_site_] = lag_frame;
  }
}

FrameNo SyncPeer::min_acked() const {
  FrameNo lo = last_rcv_[my_site_];
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s != my_site_) lo = std::min(lo, peers_[s].last_ack);
  }
  return lo;
}

bool SyncPeer::make_message_into(SiteId peer, Time now, SyncMsg& msg) {
  if (peer < 0 || peer >= num_sites_ || peer == my_site_) return false;
  Peer& p = peers_[peer];
  const FrameNo ack = last_rcv_[peer];         // sd[0]
  const FrameNo first_unacked = p.last_ack + 1;
  const FrameNo last = last_rcv_[my_site_];    // sd[2]

  const bool have_unacked = last >= first_unacked;
  const bool have_new_ack = ack > p.ack_sent;

  // Paper policy (default): the whole unacked window goes out every flush.
  FrameNo first = first_unacked;  // sd[1]
  bool have_inputs = have_unacked;
  bool rto_resend = false;

  if (cfg_.adaptive_resend) {
    const FrameNo pre_watermark = p.highest_sent;
    if (have_unacked && p.rto_deadline >= 0 && now >= p.rto_deadline) {
      rto_resend = true;
      // Retransmission timer fired: fall back to a full go-back-N resend
      // and back the timer off until the peer shows ack progress.
      ++stats_.rto_fires;
      p.rto_backoff = std::min(p.rto_backoff * 2, kMaxRtoBackoff);
      p.rto_deadline = now + current_rto(peer);
    } else if (have_unacked) {
      // Steady state: new inputs plus a redundancy tail of every unacked
      // input first sent within the last K flushes. Measuring the tail in
      // flushes (not entries) matters: after a stall the frame loop
      // catches up and a single flush carries a whole burst of inputs —
      // if that message is lost, a newest-K-entries tail could never
      // refill the gap and the session would sit out a full RTO (and the
      // resulting catch-up burst re-exposes the same window, a cascade
      // the loss sweeps showed clearly). Re-carrying the burst whole for
      // K flushes gives one-flush repair like the paper's go-back-N, at a
      // cost bounded by the input production rate rather than by the
      // RTT-scaled window.
      const FrameNo first_new = std::max(first_unacked, p.highest_sent + 1);
      const FrameNo tail_start =
          p.sent_watermarks.empty() ? first_new : p.sent_watermarks.front() + 1;
      first = std::max(first_unacked, std::min(first_new, tail_start));
      have_inputs = first <= last;
    }
    // Slide the per-flush watermark history (protection = K re-sends).
    p.sent_watermarks.push_back(pre_watermark);
    while (p.sent_watermarks.size() >
           static_cast<std::size_t>(std::max(0, cfg_.redundant_inputs))) {
      p.sent_watermarks.pop_front();
    }
  }

  if (!have_inputs && !have_new_ack) return false;  // "if new info exists"

  msg.site = my_site_;
  msg.ack_frame = ack;
  msg.first_frame = first;
  msg.inputs.clear();
  if (have_inputs) {
    const auto count = std::min<FrameNo>(last - first + 1, cfg_.max_inputs_per_message);
    for (FrameNo f = first; f < first + count; ++f) {
      msg.inputs.push_back(ibuf_.partial(my_site_, f));
      if (f <= p.highest_sent) {
        ++stats_.inputs_retransmitted;
        if (cfg_.adaptive_resend && !rto_resend) ++stats_.redundant_inputs_sent;
      }
    }
    p.highest_sent = std::max(p.highest_sent, first + count - 1);
    stats_.inputs_sent += msg.inputs.size();
    // Arm the retransmission timer the moment unacked data is outstanding.
    if (cfg_.adaptive_resend && p.rto_deadline < 0) p.rto_deadline = now + current_rto(peer);
  }

  msg.send_time = now;
  msg.echo_time = p.last_send_time >= 0 ? p.last_send_time : -1;
  msg.echo_hold = p.last_send_time >= 0 ? now - p.last_recv_time : 0;
  msg.hash_frame = latest_own_.frame >= 0 ? latest_own_.frame : -1;
  msg.state_hash = latest_own_.frame >= 0 ? latest_own_.hash : 0;

  p.ack_sent = std::max(p.ack_sent, ack);
  ++stats_.messages_made;
  return true;
}

void SyncPeer::ingest(const SyncMsg& msg, Time recv_time) {
  const SiteId from = msg.site;
  if (from < 0 || from >= num_sites_ || from == my_site_) {
    ++stats_.stale_messages;
    return;
  }
  ++stats_.messages_ingested;
  Peer& p = peers_[from];

  // Lines 13-16: merge remote partial inputs, advance LastRcvFrame[from].
  for (std::size_t i = 0; i < msg.inputs.size(); ++i) {
    const FrameNo f = msg.first_frame + static_cast<FrameNo>(i);
    if (f < 0) continue;
    if (!ibuf_.put(from, f, msg.inputs[i])) ++stats_.duplicate_inputs_rcvd;
  }
  // LastRcvFrame is a *contiguity* watermark, so it must only advance over
  // frames actually present. Under the paper policy every message starts at
  // the peer's first unacked frame, so msg.last_frame() is usually safe; but
  // a reordered message can arrive with a gap behind it (adaptive new-input
  // windows, or an older go-back-N window sliding past a loss), and blindly
  // adopting last_frame() would declare missing inputs present (and desync
  // the replicas on an all-zero merge). Walking the buffer also rolls the
  // watermark forward over any out-of-order future inputs a gap-filling
  // retransmission just connected.
  if (!msg.inputs.empty()) {
    FrameNo advanced = last_rcv_[from];
    while (ibuf_.has(from, advanced + 1)) ++advanced;
    if (advanced > last_rcv_[from]) {
      last_rcv_[from] = advanced;
      if (from == kMasterSite) {
        master_advance_time_ = recv_time;  // "MasterRcvTime" for Algorithm 4
        seen_master_ = true;
      }
    }
  }

  // Lines 17-19: cumulative ack from the peer.
  if (msg.ack_frame > p.last_ack) {
    p.last_ack = msg.ack_frame;
    ibuf_.trim_below(std::min(pointer_, min_acked() + 1));
    // Ack progress: the path is moving, so reset the retransmit backoff
    // and re-arm (or clear) the timer for whatever is still outstanding.
    if (cfg_.adaptive_resend) {
      p.rto_backoff = 1;
      p.rto_deadline =
          last_rcv_[my_site_] > p.last_ack ? recv_time + current_rto(from) : -1;
    }
  }

  // RTT sample from echoed timestamps. A 0 ns sample (loopback) is a real
  // measurement: the estimator keeps has-sample state explicitly instead
  // of the old `rtt == 0` sentinel that re-seeded forever on fast links.
  if (msg.echo_time >= 0) {
    const Dur sample = recv_time - msg.echo_time - msg.echo_hold;
    if (sample >= 0) {
      p.rtt.sample(sample);
      ++stats_.rtt_samples;
    }
  }
  if (msg.send_time > p.last_send_time) {
    p.last_send_time = msg.send_time;
    p.last_recv_time = recv_time;
  }

  if (msg.hash_frame >= 0) check_remote_hash(p, msg.hash_frame, msg.state_hash);
}

void SyncPeer::note_state_hash(FrameNo frame, std::uint64_t hash) {
  if (cfg_.hash_interval <= 0 || frame % cfg_.hash_interval != 0) return;
  const auto slot = static_cast<std::size_t>((frame / cfg_.hash_interval) % kHashWindow);
  own_hashes_[slot] = {frame, hash};
  latest_own_ = {frame, hash};
  // A peer's hash may have been waiting for us to reach this frame.
  for (auto& p : peers_) {
    if (p.parked.frame != frame) continue;
    if (p.parked.hash != hash) flag_desync(frame);
    p.parked = {};
  }
}

void SyncPeer::check_remote_hash(Peer& p, FrameNo frame, std::uint64_t hash) {
  if (cfg_.hash_interval <= 0 || desync_frame_ >= 0) return;
  const auto slot = static_cast<std::size_t>((frame / cfg_.hash_interval) % kHashWindow);
  if (own_hashes_[slot].frame == frame) {
    if (own_hashes_[slot].hash != hash) desync_frame_ = frame;
    return;
  }
  // We have not reached that frame yet (the peer runs ahead): park the
  // newest such observation and compare when we get there.
  if (frame > p.parked.frame) p.parked = {frame, hash};
}

bool SyncPeer::ready() const {
  // Line 21: LastRcvFrame[i] >= IBufPointer for every site (the local one
  // is kept ahead by submit_local by construction).
  return std::all_of(last_rcv_.begin(), last_rcv_.end(),
                     [this](FrameNo rcv) { return rcv >= pointer_; });
}

InputWord SyncPeer::pop() {
  // Lines 22-23. For the first BufFrame frames no entry exists and the
  // merged input is the paper's "empty input" (all zeros).
  const InputWord out = ibuf_.merged(pointer_).value_or(0);
  ++pointer_;
  ibuf_.trim_below(std::min(pointer_, min_acked() + 1));
  return out;
}

InputWord SyncPeer::local_input(FrameNo f) const { return ibuf_.partial(my_site_, f); }

std::optional<InputWord> SyncPeer::remote_input(FrameNo f) const {
  if (f < cfg_.buf_frames) return InputWord{0};
  InputWord out = 0;
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    if (!ibuf_.has(s, f)) return std::nullopt;
    out = static_cast<InputWord>(out | ibuf_.partial(s, f));  // disjoint site spans
  }
  return out;
}

SiteId SyncPeer::straggler() const {
  SiteId worst = kNoSite;
  FrameNo lo = last_rcv_[my_site_];
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s != my_site_ && last_rcv_[s] < lo) {
      lo = last_rcv_[s];
      worst = s;
    }
  }
  return worst;
}

SyncPeer::RemoteObs SyncPeer::remote_obs() const {
  RemoteObs obs;
  if (!seen_master_) return obs;  // never set on the master itself
  const RttEstimator& rtt = peers_[kMasterSite].rtt;
  obs.valid = true;
  // MasterFrame = LastRcvFrame[0] - BufFrame: the received frame number
  // includes the local-lag offset (Algorithm 4, line 6).
  obs.master_frame = last_rcv_[kMasterSite] - cfg_.buf_frames;
  obs.rcv_time = master_advance_time_;
  obs.rtt = rtt.srtt();
  obs.rtt_valid = rtt.has_sample();
  return obs;
}

void SyncPeer::export_metrics(MetricsRegistry& reg) const {
  reg.counter("sync.messages_made").set(stats_.messages_made);
  reg.counter("sync.messages_ingested").set(stats_.messages_ingested);
  reg.counter("sync.inputs_sent").set(stats_.inputs_sent);
  reg.counter("sync.inputs_retransmitted").set(stats_.inputs_retransmitted);
  reg.counter("sync.redundant_inputs_sent").set(stats_.redundant_inputs_sent);
  reg.counter("sync.duplicate_inputs_rcvd").set(stats_.duplicate_inputs_rcvd);
  reg.counter("sync.stale_messages").set(stats_.stale_messages);
  reg.counter("sync.rtt_samples").set(stats_.rtt_samples);
  reg.counter("sync.rto_fires").set(stats_.rto_fires);
  // Protocol gauges against the slowest peer: the lowest remote watermark
  // gates ready(), the lowest ack trims the buffer, the worst path sets
  // the pace. With two sites each is simply the one peer's value.
  FrameNo rcv = std::numeric_limits<FrameNo>::max();
  double rtt_ms = 0;
  Dur rto = 0;
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    rcv = std::min(rcv, last_rcv_[s]);
    if (peers_[s].rtt.has_sample()) rtt_ms = std::max(rtt_ms, to_ms(peers_[s].rtt.srtt()));
    rto = std::max(rto, current_rto(s));
  }
  reg.gauge("sync.pointer_frame").set(static_cast<double>(pointer_));
  reg.gauge("sync.last_rcv_frame").set(static_cast<double>(rcv));
  reg.gauge("sync.last_ack_frame").set(static_cast<double>(min_acked()));
  reg.gauge("sync.rtt_ms").set(rtt_ms);
  reg.gauge("sync.rto_ms").set(to_ms(rto));
  reg.gauge("sync.desync_frame").set(static_cast<double>(desync_frame_));
  if (num_sites_ <= 2) return;
  reg.gauge("mesh.num_sites").set(num_sites_);
  reg.gauge("mesh.straggler_site").set(static_cast<double>(straggler()));
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    const std::string prefix = "mesh.peer." + std::to_string(s) + ".";
    const Peer& p = peers_[s];
    reg.gauge(prefix + "last_rcv_frame").set(static_cast<double>(last_rcv_[s]));
    reg.gauge(prefix + "last_ack_frame").set(static_cast<double>(p.last_ack));
    reg.gauge(prefix + "rtt_ms").set(p.rtt.has_sample() ? to_ms(p.rtt.srtt()) : 0.0);
  }
}

}  // namespace rtct::core
