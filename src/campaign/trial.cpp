#include "campaign/trial.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fault/plan.h"
#include "sim/fnv1a.h"
#include "sim/seed_seq.h"

namespace satin::campaign {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void append_field(std::string& out, const char* key, std::uint64_t value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, value);
  out += buf;
}

void append_hex_field(std::string& out, const char* key, std::uint64_t value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %s=%016" PRIx64, key, value);
  out += buf;
}

void append_int_field(std::string& out, const char* key, std::int64_t value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %s=%" PRId64, key, value);
  out += buf;
}

// Field-order-driven decoder: consumes " key=value" tokens strictly in
// the order the encoder wrote them, so any reordering, duplication or
// omission — not just value corruption — fails the decode.
class FieldReader {
 public:
  explicit FieldReader(const std::string& body) : body_(body) {}

  bool take_u64(const char* key, std::uint64_t& out) {
    std::string value;
    if (!take(key, value)) return false;
    char* end = nullptr;
    out = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return fail(std::string("malformed value for '") + key + "'");
    }
    return true;
  }

  bool take_i64(const char* key, std::int64_t& out) {
    std::string value;
    if (!take(key, value)) return false;
    char* end = nullptr;
    out = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return fail(std::string("malformed value for '") + key + "'");
    }
    return true;
  }

  bool take_hex64(const char* key, std::uint64_t& out) {
    std::string value;
    if (!take(key, value)) return false;
    char* end = nullptr;
    out = std::strtoull(value.c_str(), &end, 16);
    if (end == value.c_str() || *end != '\0') {
      return fail(std::string("malformed value for '") + key + "'");
    }
    return true;
  }

  bool at_end() const { return pos_ == body_.size(); }
  const std::string& error() const { return error_; }

 private:
  bool take(const char* key, std::string& value) {
    if (!error_.empty()) return false;
    if (pos_ >= body_.size() || body_[pos_] != ' ') {
      return fail(std::string("expected field '") + key + "'");
    }
    ++pos_;
    const std::size_t keylen = std::strlen(key);
    if (body_.compare(pos_, keylen, key) != 0 ||
        pos_ + keylen >= body_.size() || body_[pos_ + keylen] != '=') {
      return fail(std::string("expected field '") + key + "'");
    }
    pos_ += keylen + 1;
    const std::size_t end = body_.find(' ', pos_);
    const std::size_t stop = end == std::string::npos ? body_.size() : end;
    value = body_.substr(pos_, stop - pos_);
    pos_ = stop;
    if (value.empty()) {
      return fail(std::string("empty value for '") + key + "'");
    }
    return true;
  }

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  const std::string& body_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string encode_trial_record(const TrialResult& r) {
  std::string body = "R";
  append_field(body, "i", r.index);
  append_hex_field(body, "seed", r.seed);
  const scenario::DuelReport& d = r.report;
  append_field(body, "rounds", d.rounds);
  append_field(body, "alarms", d.alarms);
  append_field(body, "cycles", d.full_cycles);
  append_int_field(body, "area", d.target_area);
  append_field(body, "tar", d.target_area_rounds);
  append_field(body, "taa", d.target_area_alarms);
  append_hex_field(body, "gap", double_bits(d.avg_target_gap_s));
  append_field(body, "stays", d.secure_stays);
  append_field(body, "det", d.prober_detections);
  append_field(body, "fp", d.false_positives);
  append_field(body, "fn", d.false_negatives);
  append_field(body, "ev", d.evasions_started);
  append_field(body, "rearms", d.rearms);
  append_hex_field(body, "sims", double_bits(d.sim_seconds));
  append_field(body, "conf", d.confirmed_alarms);
  append_field(body, "trans", d.transient_alarms);
  append_field(body, "benign", d.benign_confirmed_alarms);
  append_field(body, "wdog", d.watchdog_fires);
  append_field(body, "sretry", d.scan_retries);
  append_field(body, "inj", r.faults_injected);
  append_hex_field(body, "crc", sim::fnv1a(body.data(), body.size()));
  return body;
}

bool decode_trial_record(const std::string& line, TrialResult& out,
                         std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (line.compare(0, 2, "R ") != 0) return fail("not a trial record");
  const std::size_t crc_at = line.rfind(" crc=");
  if (crc_at == std::string::npos) return fail("missing checksum");
  char* end = nullptr;
  const std::string crc_text = line.substr(crc_at + 5);
  const std::uint64_t stored = std::strtoull(crc_text.c_str(), &end, 16);
  if (end == crc_text.c_str() || *end != '\0') {
    return fail("malformed checksum");
  }
  if (stored != sim::fnv1a(line.data(), crc_at)) {
    return fail("checksum mismatch");
  }

  TrialResult r;
  std::uint64_t gap_bits = 0, sims_bits = 0;
  std::int64_t area = 0;
  const std::string body = line.substr(1, crc_at - 1);
  FieldReader fr(body);
  const bool ok =
      fr.take_u64("i", r.index) && fr.take_hex64("seed", r.seed) &&
      fr.take_u64("rounds", r.report.rounds) &&
      fr.take_u64("alarms", r.report.alarms) &&
      fr.take_u64("cycles", r.report.full_cycles) &&
      fr.take_i64("area", area) &&
      fr.take_u64("tar", r.report.target_area_rounds) &&
      fr.take_u64("taa", r.report.target_area_alarms) &&
      fr.take_hex64("gap", gap_bits) &&
      fr.take_u64("stays", r.report.secure_stays) &&
      fr.take_u64("det", r.report.prober_detections) &&
      fr.take_u64("fp", r.report.false_positives) &&
      fr.take_u64("fn", r.report.false_negatives) &&
      fr.take_u64("ev", r.report.evasions_started) &&
      fr.take_u64("rearms", r.report.rearms) &&
      fr.take_hex64("sims", sims_bits) &&
      fr.take_u64("conf", r.report.confirmed_alarms) &&
      fr.take_u64("trans", r.report.transient_alarms) &&
      fr.take_u64("benign", r.report.benign_confirmed_alarms) &&
      fr.take_u64("wdog", r.report.watchdog_fires) &&
      fr.take_u64("sretry", r.report.scan_retries) &&
      fr.take_u64("inj", r.faults_injected);
  if (!ok) return fail(fr.error());
  if (!fr.at_end()) return fail("trailing content");
  r.report.target_area = static_cast<int>(area);
  r.report.avg_target_gap_s = bits_double(gap_bits);
  r.report.sim_seconds = bits_double(sims_bits);
  out = r;
  return true;
}

TrialResult run_campaign_trial(const CampaignSpec& spec, std::uint64_t index) {
  const sim::TrialSeedSeq seeds(spec.root_seed);
  const std::uint64_t seed = seeds.seed_for(index);

  scenario::ScenarioConfig scenario_config = spec.scenario;
  if (!(spec.pin_first_platform_seed && index == 0)) {
    scenario_config.platform.seed = seed;
  }

  std::string faults = spec.faults;
  if (spec.faults_reseed && !faults.empty()) {
    fault::FaultPlan plan = fault::FaultPlan::parse(faults);
    plan.seed ^= seed;
    faults = plan.to_string();
  }

  const scenario::SingleDuelResult duel =
      scenario::run_single_duel(scenario_config, spec.duel, faults);
  TrialResult result;
  result.index = index;
  result.seed = seed;
  result.report = duel.report;
  result.faults_injected = duel.faults_injected;
  return result;
}

}  // namespace satin::campaign
