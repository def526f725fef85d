#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

Network::Network(Simulator& sim, std::size_t n_sites, NetConfig config, Rng rng)
    : sim_(sim),
      site_count_(n_sites),
      config_(config),
      topo_(build_topology(config.topology, n_sites,
                           EdgeParams{config.base_delay, config.noise_max, config.hiccup_prob,
                                      config.hiccup_mean})),
      flat_edge_{config.base_delay, config.noise_max, config.hiccup_prob, config.hiccup_mean},
      switched_(topo_.switched),
      rng_(rng),
      next_seq_(n_sites, 0),
      handlers_(n_sites),
      crashed_(n_sites, false),
      partition_group_(n_sites, 0),
      held_by_(n_sites),
      arrival_logs_(n_sites) {
  OTPDB_CHECK(n_sites >= 1);
  if (switched_) {
    link_free_at_.assign(n_sites, 0);
    // One rng stream per (from, to) edge, split off in row-major order at
    // construction. Shared-bus profiles never split, so the flat/lan rng_
    // stream is untouched and bit-identical to the pre-topology code.
    edge_rngs_.reserve(n_sites * n_sites);
    for (std::size_t e = 0; e < n_sites * n_sites; ++e) edge_rngs_.push_back(rng_.split());
  }
}

void Network::subscribe(SiteId site, Channel channel, Handler handler) {
  OTPDB_CHECK(site < site_count_);
  auto& per_site = handlers_[site];
  if (per_site.size() <= channel) per_site.resize(channel + 1);
  OTPDB_CHECK_MSG(!per_site[channel], "channel already subscribed at this site");
  per_site[channel] = std::move(handler);
}

SimTime Network::sample_receiver_delay(Rng& rng, const EdgeParams& edge) {
  SimTime delay = edge.base_delay +
                  static_cast<SimTime>(rng.uniform_double(0.0, static_cast<double>(edge.noise_max)));
  if (rng.bernoulli(edge.hiccup_prob)) {
    delay += static_cast<SimTime>(rng.exponential(static_cast<double>(edge.hiccup_mean)));
  }
  return delay;
}

void Network::deliver(SiteId to, Message msg, SimTime fire_at) {
  std::uint32_t slot;
  if (!free_flight_slots_.empty()) {
    slot = free_flight_slots_.back();
    free_flight_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  in_flight_[slot].to = to;
  in_flight_[slot].msg = std::move(msg);
  sim_.schedule_at(fire_at, [this, slot] { deliver_now(slot); });
}

void Network::deliver_now(std::uint32_t slot) {
  const SiteId to = in_flight_[slot].to;
  Message msg = std::move(in_flight_[slot].msg);
  free_flight_slots_.push_back(slot);
  // Re-check at delivery time: the receiver may have crashed in flight.
  // A crash loses the message (the paper's crash model; recovery replays
  // from peers); a partition merely delays it - channels stay reliable
  // ("a message sent by Ni to Nj is eventually received"), so the message
  // is retried until the partition heals or an endpoint crashes.
  if (crashed_[to] || crashed_[msg.from]) return;
  if (partition_group_[msg.from] != partition_group_[to] || chaos_blocked(msg.from, to)) {
    held_by_[to].push_back(std::move(msg));  // parked until the block lifts
    return;
  }
  if (duplicate_suppressed(to, msg)) return;
  if (recorded_channel_ && msg.channel == *recorded_channel_) {
    arrival_logs_[to].push_back(msg.id);
  }
  ++delivered_;
  const auto& per_site = handlers_[to];
  if (msg.channel < per_site.size() && per_site[msg.channel]) {
    per_site[msg.channel](msg);
  }
}

MsgId Network::send(SiteId from, SiteId to, Channel channel, PayloadPtr payload) {
  OTPDB_CHECK(from < site_count_);
  const MsgId id{from, next_seq_[from]++};
  if (crashed_[from]) return id;  // a crashed site's sends vanish
  // A unicast to a dead receiver never reaches the wire and must not occupy
  // the medium (multicasts still serialize one frame for the surviving
  // receivers).
  if (to != kEveryone && crashed_[to]) return id;

  // The medium serializes frames: the frame reaches the wire when the shared
  // bus (or, switched, this sender's own link) frees up, and every
  // receiver's delay is measured from that point.
  SimTime& medium_free_at = switched_ ? link_free_at_[from] : bus_free_at_;
  const SimTime wire_at = std::max(sim_.now(), medium_free_at);
  medium_free_at = wire_at + config_.serialization_time;
  const SimTime on_wire = medium_free_at - sim_.now();

  const Message msg{id, from, channel, std::move(payload)};
  if (to != kEveryone) {
    transmit(from, to, msg, on_wire);
    return id;
  }
  for (SiteId receiver = 0; receiver < site_count_; ++receiver) {
    // Partitioned receivers are handled at delivery.
    if (!crashed_[receiver]) transmit(from, receiver, msg, on_wire);
  }
  return id;
}

void Network::transmit(SiteId from, SiteId to, const Message& msg, SimTime on_wire) {
  const SimTime now = sim_.now();
  Rng& rng = delay_rng(from, to);
  SimTime delay = on_wire + sample_receiver_delay(rng, edge_params(from, to));
  // Loss + retransmission: each drop defers delivery by one timeout. The
  // channel stays reliable (paper model) but late arrivals perturb order.
  while (rng.bernoulli(config_.loss_prob)) delay += config_.retransmit_timeout;
  if (chaos_ != nullptr && to != from) {
    const auto p = chaos_->perturb(from, to, now, chaos_rng(from, to), chaos_stats_);
    delay += p.extra;
    if (p.duplicate) deliver(to, msg, now + delay + p.duplicate_extra);
  }
  deliver(to, msg, now + delay);
}

MsgId Network::multicast(SiteId from, Channel channel, PayloadPtr payload) {
  return send(from, kEveryone, channel, std::move(payload));
}

MsgId Network::unicast(SiteId from, SiteId to, Channel channel, PayloadPtr payload) {
  OTPDB_CHECK(to < site_count_);
  return send(from, to, channel, std::move(payload));
}

void Network::crash(SiteId site) {
  OTPDB_CHECK(site < site_count_);
  crashed_[site] = true;
}

void Network::recover(SiteId site) {
  OTPDB_CHECK(site < site_count_);
  crashed_[site] = false;
}

void Network::partition(const std::vector<SiteId>& group_a, const std::vector<SiteId>& group_b) {
  for (SiteId s : group_a) partition_group_[s] = 1;
  for (SiteId s : group_b) partition_group_[s] = 2;
}

void Network::heal_partition() {
  std::fill(partition_group_.begin(), partition_group_.end(), 0);
  release_unblocked();
}

void Network::release_unblocked() {
  // Reliable channels: everything parked during a split (or a chaos block)
  // flows once every block on its edge has lifted, with a fresh receiver
  // delay per message (modelling post-heal retransmission); still-blocked
  // messages stay parked for the next transition. Replay order: receiver,
  // then park order.
  for (SiteId to = 0; to < site_count_; ++to) {
    if (held_by_[to].empty()) continue;
    std::vector<Message> held = std::move(held_by_[to]);
    held_by_[to].clear();
    for (auto& msg : held) {
      const SiteId from = msg.from;
      if (partition_group_[from] != partition_group_[to] ||
          (chaos_ != nullptr && chaos_->blocked(from, to))) {
        held_by_[to].push_back(std::move(msg));
        continue;
      }
      if (chaos_ != nullptr) ++chaos_stats_.parked_released;
      const SimTime fire = sim_.now() + config_.retransmit_timeout +
                           sample_receiver_delay(delay_rng(from, to), edge_params(from, to));
      deliver(to, std::move(msg), fire);
    }
  }
}

void Network::arm_chaos(const ChaosConfig& config, Rng chaos_rng) {
  OTPDB_CHECK_MSG(chaos_ == nullptr && !dedup_, "chaos already armed");
  chaos_rng_ = chaos_rng;
  // Duplication makes "reliable" mean at-least-once; the abcast layer
  // asserts at-most-once per MsgId, so dedup is mandatory whenever the plan
  // can duplicate.
  dedup_ = config.transport_dedup || config.plan.has(FaultKind::duplicate);
  if (dedup_) seen_.resize(site_count_);
  if (config.plan.empty()) return;
  chaos_ = std::make_unique<ChaosRuntime>(config.plan, site_count_);
  if (switched_) {
    // One chaos stream per edge, mirroring edge_rngs_.
    chaos_edge_rngs_.reserve(site_count_ * site_count_);
    for (std::size_t e = 0; e < site_count_ * site_count_; ++e) {
      chaos_edge_rngs_.push_back(chaos_rng_.split());
    }
  }
  chaos_->arm(sim_, [this] { release_unblocked(); }, chaos_stats_);
}

void Network::record_arrivals(Channel channel) { recorded_channel_ = channel; }

}  // namespace otpdb
