#include "scenario/scenario.h"

namespace satin::scenario {

// Every Scenario boots the process-wide default kernel image (DESIGN.md
// §20): one immutable build per process, installed copy-on-write into
// each trial's own physical memory.
Scenario::Scenario(ScenarioConfig config) {
  platform_ = std::make_unique<hw::Platform>(config.platform);
  os_ = std::make_unique<os::RichOs>(*platform_, os::default_kernel_image(),
                                     config.os);
  tsp_ = std::make_unique<secure::TestSecurePayload>(*platform_);
  if (config.boot) os_->boot();
}

}  // namespace satin::scenario
