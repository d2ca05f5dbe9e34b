// Test Secure Payload (S-EL1).
//
// The paper's secure OS is a modified ARM Trusted Firmware TSP whose
// secure-timer interrupt handler performs the integrity check (§IV-A,
// §VI-A). This class models that thin layer: it installs itself as the
// EL3 monitor's secure-timer payload and forwards each session to a
// registered service (the baseline checker or SATIN).
#pragma once

#include <functional>
#include <memory>

#include "hw/platform.h"

namespace satin::secure {

class TestSecurePayload {
 public:
  using TimerService =
      std::function<void(std::shared_ptr<hw::SecureSession>)>;

  explicit TestSecurePayload(hw::Platform& platform) : platform_(platform) {}

  // Replaces the secure-timer interrupt handler body. A null service makes
  // the payload complete sessions immediately (enter-and-leave, used to
  // measure the bare Ts_switch).
  void install_timer_service(TimerService service);

 private:
  hw::Platform& platform_;
  TimerService service_;
};

}  // namespace satin::secure
