// Telephone line unit: the workstation's attachment to an exchange line.
// Full duplex through two CODEC channels (tx toward the network, rx from
// it) plus the control surface the telephone device class needs: Dial,
// Answer, HangUp, SendDTMF, and asynchronous line events (ring with caller
// id, answered, call progress, incoming DTMF).

#ifndef SRC_HW_PHONE_LINE_H_
#define SRC_HW_PHONE_LINE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/hw/codec.h"
#include "src/hw/exchange.h"
#include "src/hw/physical_device.h"

namespace aud {

class PhoneLineUnit : public PhysicalDevice {
 public:
  using EventSink = std::function<void(const ExchangeLine::Event&)>;

  // `line` must outlive the unit.
  PhoneLineUnit(std::string name, ExchangeLine* line, uint32_t ambient_domain,
                size_t ring_frames = 8192);

  AttrList Attributes() const override;

  // Playback direction: server audio toward the far end.
  Codec& tx_codec() { return tx_codec_; }
  // Capture direction: far-end audio toward the server.
  Codec& rx_codec() { return rx_codec_; }

  ExchangeLine* line() { return line_; }

  // Control surface.
  Status Dial(const std::string& number) { return line_->Dial(number); }
  Status Answer() { return line_->Answer(); }
  void HangUp() { line_->HangUp(); }
  void SendDtmf(const std::string& digits) { line_->SendDtmf(digits); }
  LineState line_state() const { return line_->state(); }

  // Events forwarded from the exchange line. Set once (by the server's
  // telephone device wrapper).
  void SetEventSink(EventSink sink);

  void Advance(size_t frames) override;
  int64_t device_frames() const override { return tx_codec_.device_frames(); }
  Codec& engine_codec() override { return tx_codec_; }

 private:
  ExchangeLine* line_;
  Codec tx_codec_;
  Codec rx_codec_;
  std::vector<Sample> scratch_;
};

}  // namespace aud

#endif  // SRC_HW_PHONE_LINE_H_
