// Contention-resolution protocol interface (ternary-feedback model, §1.1).
//
// A protocol instance is the per-packet state machine. In every slot the
// packet either sleeps, listens, or sends (sending subsumes listening for
// accounting purposes: a sender learns the slot outcome from whether it
// departed). The engine drives the protocol with exactly two queries and
// one notification:
//
//   access_prob()            P(packet accesses the channel this slot)
//   send_prob_given_access() P(packet sends | it accesses)
//   on_observation(obs)      channel feedback, delivered only on access
//
// Contract (load-bearing for the event-driven engine): protocol state — and
// therefore both probabilities — may change ONLY inside on_observation().
// Between channel accesses the packet is dormant and its per-slot access
// probability is constant, which is what allows geometric gap-skipping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace lowsense {

/// What a listener hears in a slot (ternary feedback, §1.1).
enum class Feedback : std::uint8_t {
  kEmpty = 0,    ///< no packet sent, slot not jammed
  kSuccess = 1,  ///< exactly one packet sent, slot not jammed
  kNoisy = 2,    ///< two or more senders, or the slot was jammed
};

/// Everything a packet learns when it accesses the channel.
struct Observation {
  Feedback feedback = Feedback::kEmpty;
  bool sent = false;  ///< whether this packet itself transmitted
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// P(access the channel this slot). Must be in [0, 1].
  virtual double access_prob() const noexcept = 0;

  /// P(send | access). Must be in [0, 1].
  virtual double send_prob_given_access() const noexcept = 0;

  /// Feedback delivery; the only place state may change.
  virtual void on_observation(const Observation& obs) = 0;

  /// Current window size (diagnostic; 1/send_prob() for window protocols).
  virtual double window() const noexcept = 0;

  virtual const char* name() const noexcept = 0;

  /// Draws the number of slots until this packet's NEXT channel access
  /// (support {1, 2, ...}; kNoSlot = never). The default is the
  /// memoryless geometric implied by access_prob(); protocols with
  /// non-memoryless schedules (e.g. windowed Ethernet backoff, which
  /// picks a uniform slot within its current window) override this, and
  /// low-sensing overrides it to draw the same geometric from a cached log.
  /// Both engines call exactly this, once per access period, so
  /// overriding it preserves slot/event trace equivalence.
  virtual std::uint64_t draw_gap(Rng& rng) const { return rng.geometric_gap(access_prob()); }

  /// Unconditional per-slot send probability; the engine sums these to
  /// maintain the paper's contention C(t) = Σ_u 1/w_u.
  double send_prob() const noexcept { return access_prob() * send_prob_given_access(); }
};

/// Creates fresh protocol state for each arriving packet.
class ProtocolFactory {
 public:
  virtual ~ProtocolFactory() = default;
  virtual std::unique_ptr<Protocol> create() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace lowsense
