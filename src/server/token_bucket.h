// Token bucket for per-connection rate limiting (DESIGN.md decision 15).
// Plain non-atomic state: each bucket is owned by the single thread that
// reads its connection (the event-loop thread that owns it), exactly like ClientConnection's trace sample counter,
// so no locking or atomics are needed on the per-request path.

#ifndef SRC_SERVER_TOKEN_BUCKET_H_
#define SRC_SERVER_TOKEN_BUCKET_H_

#include <algorithm>
#include <chrono>

namespace aud {

class TokenBucket {
 public:
  // rate_per_sec = sustained refill rate; burst = bucket capacity (the
  // largest debt a momentarily idle connection can spend at once). A zero
  // rate disables the bucket entirely. Configure before the owning thread
  // starts reading; the bucket opens full.
  void Configure(double rate_per_sec, double burst) {
    rate_per_sec_ = rate_per_sec;
    burst_ = std::max(burst, 1.0);
    tokens_ = burst_;
    last_ = {};
  }

  bool enabled() const { return rate_per_sec_ > 0.0; }

  // Refills for the elapsed time, then tries to spend `cost` tokens.
  // Returns false (and spends nothing) when the bucket cannot cover the
  // cost — the caller throttles or disconnects per its policy.
  bool TryAcquire(double cost, std::chrono::steady_clock::time_point now) {
    if (!enabled()) {
      return true;
    }
    if (last_.time_since_epoch().count() != 0 && now > last_) {
      const double elapsed = std::chrono::duration<double>(now - last_).count();
      tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
    }
    last_ = now;
    if (tokens_ < cost) {
      return false;
    }
    tokens_ -= cost;
    return true;
  }

 private:
  double rate_per_sec_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  std::chrono::steady_clock::time_point last_{};
};

}  // namespace aud

#endif  // SRC_SERVER_TOKEN_BUCKET_H_
