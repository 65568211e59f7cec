// Resource identifiers. Following the X model the paper borrows from, every
// protocol object (LOUD, virtual device, wire, sound, queue) is named by a
// 32-bit id. Clients allocate ids out of a per-connection range handed out
// in the connection setup reply; server-created objects (the device LOUD and
// its contents) come from a reserved server range.

#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>

namespace aud {

using ResourceId = uint32_t;

// Id 0 never names an object; it is "None" in requests that take an optional
// resource.
inline constexpr ResourceId kNoResource = 0;

// Server-owned ids (the device LOUD tree, implicit mixers) live in the top
// range so they can never collide with a client allocation.
inline constexpr ResourceId kServerIdBase = 0xF0000000u;

// Each client connection is granted a contiguous id block of this size.
inline constexpr uint32_t kClientIdBlockSize = 1u << 18;

// First block, handed to connection slot 0.
inline constexpr ResourceId kClientIdBase = 0x00100000u;

// Connection slots whose id blocks fit below the server range: the most
// clients one server holds at once. A closed connection's slot, and with it
// its block, is reused.
inline constexpr uint32_t kMaxClientConnections =
    (kServerIdBase - kClientIdBase) / kClientIdBlockSize;

// Returns the id base for connection slot `connection_index`.
inline constexpr ResourceId ClientIdBaseFor(uint32_t connection_index) {
  return kClientIdBase + connection_index * kClientIdBlockSize;
}

// True if `id` falls inside the server-reserved range.
inline constexpr bool IsServerId(ResourceId id) { return id >= kServerIdBase; }

}  // namespace aud

#endif  // SRC_COMMON_IDS_H_
