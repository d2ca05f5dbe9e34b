#include "secure/tsp.h"

namespace satin::secure {

void TestSecurePayload::install_timer_service(TimerService service) {
  service_ = std::move(service);
  platform_.monitor().set_secure_timer_payload(
      [this](std::shared_ptr<hw::SecureSession> session) {
        if (service_) {
          service_(std::move(session));
        } else {
          session->complete();
        }
      });
}

}  // namespace satin::secure
