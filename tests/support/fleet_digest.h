// Per-mission snapshot digests for the fleet engine's pinned-digest
// tests: FNV-1a over the raw bytes of every MissionStatus field and
// position, so equal digests mean bit-identical fleets.
#pragma once

#include <cstdint>
#include <cstring>

#include "fleet/engine.h"

namespace skyferry::fleet::test_support {

struct Digest {
  std::uint64_t h{1469598103934665603ULL};
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

inline void fold_snapshot(const FleetEngine& eng, Digest& d) {
  for (int i = 0; i < static_cast<int>(eng.mission_count()); ++i) {
    const MissionStatus st = eng.mission(i);
    const geo::Vec3 p = eng.position(i);
    d.add(static_cast<std::uint8_t>(st.phase));
    d.add(st.d_star_m);
    d.add(st.utility);
    d.add(st.bytes_delivered);
    d.add(st.bytes_by_deadline);
    d.add(st.mpdus_attempted);
    d.add(st.mpdus_delivered);
    d.add(st.arrived_t_s);
    d.add(st.completed_t_s);
    d.add(st.burst_link);
    d.add(st.trickle_bytes);
    d.add(st.reelections);
    d.add(static_cast<std::uint8_t>(st.stall_reason));
    d.add(p.x);
    d.add(p.y);
    d.add(p.z);
  }
}

}  // namespace skyferry::fleet::test_support
