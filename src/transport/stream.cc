#include "src/transport/stream.h"

namespace aud {

bool ReadFully(ByteStream* stream, std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    size_t n = stream->Read(out.subspan(done));
    if (n == 0) {
      return false;
    }
    done += n;
  }
  return true;
}

}  // namespace aud
