// Fixture: a stream-based Rng draw inside the phase-1 send-draw section.
// A send decision must be pure in (packet, slot); a stream draw's value
// depends on how many draws preceded it on that stream, i.e. on call
// order — only slot-keyed CounterRng coins (pure in (key, slot)) are
// legal here.
// expect-lint: stream-rng-in-send-phase
#include <cstdint>

struct Rng {
  std::uint64_t next_u64();
};
struct Packet {
  Rng rng;
  bool sent;
};
struct PacketShard {
  Packet* pkts;
  std::size_t n;
};

struct SimCore {
  void phase_send_draws(std::uint64_t t, PacketShard& shard);
};

void SimCore::phase_send_draws(std::uint64_t t, PacketShard& shard) {
  for (std::size_t i = 0; i < shard.n; ++i) {
    Packet& pkt = shard.pkts[i];
    pkt.sent = (pkt.rng.next_u64() ^ t) & 1;  // stream draw in phase 1
  }
}
