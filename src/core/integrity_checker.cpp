#include "core/integrity_checker.h"

#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "secure/pristine_base.h"

namespace satin::core {

namespace {

// The pristine area digests of the process-wide default kernel image,
// shared by every checker on that image in every thread (DESIGN.md §20).
const std::shared_ptr<secure::PristineBase>& default_pristine_base() {
  static const std::shared_ptr<secure::PristineBase> base = [] {
    const auto& image = os::default_kernel_image();
    return std::make_shared<secure::PristineBase>(
        image, std::span<const std::uint8_t>(image->bytes()));
  }();
  return base;
}

}  // namespace

const char* to_string(AlarmKind kind) {
  return kind == AlarmKind::kConfirmed ? "confirmed" : "transient";
}

IntegrityChecker::IntegrityChecker(hw::Platform& platform,
                                   const os::KernelImage& image,
                                   std::vector<Area> areas,
                                   secure::HashKind hash,
                                   secure::ScanStrategy strategy)
    : platform_(platform),
      image_(image),
      areas_(std::move(areas)),
      introspector_(platform, hash, strategy),
      per_area_checks_(areas_.size(), 0) {
  if (areas_.empty()) {
    throw std::invalid_argument("IntegrityChecker: no areas");
  }
  // A checker on the default image attaches the process's pristine digest
  // base, so the digests of untouched areas are computed once per process
  // instead of once per trial. Identity-neutral: the cache only serves
  // areas still provably holding the installed bytes, with the digests
  // hashing them gives (secure/pristine_base.h).
  if (&image_ == os::default_kernel_image().get()) {
    introspector_.digest_cache().set_pristine_base(default_pristine_base());
  }
}

void IntegrityChecker::authorize_boot_state() {
  if (authorized_) {
    throw std::logic_error("IntegrityChecker: already authorized");
  }
  const auto& pristine = image_.bytes();
  const auto& base = introspector_.digest_cache().pristine_base();
  for (const Area& area : areas_) {
    // With the pristine base attached the per-area reference digest is the
    // base's memoized digest: hash_bytes over the same slice, and the
    // digest that later rounds over the untouched area are served.
    const std::optional<std::uint64_t> shared =
        base != nullptr ? base->area_digest(introspector_.hash_kind(),
                                            area.offset, area.size)
                        : std::nullopt;
    const std::span<const std::uint8_t> slice(pristine.data() + area.offset,
                                              area.size);
    store_.authorize("area/" + std::to_string(area.index),
                     shared ? *shared : introspector_.digest_reference(slice));
  }
  authorized_ = true;
}

void IntegrityChecker::set_max_retries(int retries) {
  if (retries < 0) {
    throw std::invalid_argument("IntegrityChecker: negative retry budget");
  }
  max_retries_ = retries;
}

void IntegrityChecker::check_area_async(
    hw::CoreId core, int area, std::function<void(const CheckOutcome&)> done) {
  if (!authorized_) {
    throw std::logic_error("IntegrityChecker: authorize_boot_state first");
  }
  run_attempt(core, area, 0, std::move(done));
}

void IntegrityChecker::run_attempt(
    hw::CoreId core, int area, int attempt,
    std::function<void(const CheckOutcome&)> done) {
  const Area& a = areas_.at(static_cast<std::size_t>(area));
  introspector_.scan_async(
      core, a.offset, a.size,
      [this, core, area, attempt, done = std::move(done)](
          const secure::ScanResult& scan) mutable {
        const bool match =
            store_.matches("area/" + std::to_string(area), scan.digest);
        if (!match && attempt < max_retries_) {
          ++retries_;
          SATIN_METRIC_INC("satin.retries");
          SATIN_FLIGHT_RECORD(obs::FlightKind::kRetry, scan.scan_end, retries_,
                              core, static_cast<std::uint64_t>(area));
          run_attempt(core, area, attempt + 1, std::move(done));
          return;
        }
        CheckOutcome outcome;
        outcome.area = area;
        outcome.core = core;
        outcome.scan = scan;
        outcome.ok = match && attempt == 0;
        outcome.transient = match && attempt > 0;
        outcome.retries = attempt;
        ++checks_;
        ++per_area_checks_.at(static_cast<std::size_t>(area));
        SATIN_METRIC_INC("integrity.checks");
        SATIN_METRIC_DIGEST_OBSERVE("integrity.retries_per_check",
                                    static_cast<double>(attempt));
        if (!outcome.ok) {
          const AlarmKind kind = outcome.transient ? AlarmKind::kTransient
                                                   : AlarmKind::kConfirmed;
          Alarm alarm;
          alarm.area = area;
          alarm.core = core;
          alarm.when = scan.scan_end;
          alarm.digest = scan.digest;
          alarm.kind = kind;
          alarm.retries = attempt;
          alarms_.push_back(alarm);
          SATIN_METRIC_INC("integrity.alarms");
          SATIN_FLIGHT_RECORD(
              obs::FlightKind::kAlarm, scan.scan_end, alarms_.size() - 1, core,
              (static_cast<std::uint64_t>(area) << 1) |
                  (kind == AlarmKind::kTransient ? 1u : 0u));
          if (kind == AlarmKind::kTransient) {
            ++transient_alarms_;
            SATIN_METRIC_INC("satin.transient_alarms");
          } else {
            ++confirmed_alarms_;
          }
        }
        done(outcome);
      });
}

std::uint64_t IntegrityChecker::alarm_count(AlarmKind kind) const {
  return kind == AlarmKind::kConfirmed ? confirmed_alarms_
                                       : transient_alarms_;
}

std::uint64_t IntegrityChecker::check_count(int area) const {
  return per_area_checks_.at(static_cast<std::size_t>(area));
}

}  // namespace satin::core
