#include "campaign/trial.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "fault/plan.h"
#include "sim/fnv1a.h"
#include "sim/seed_seq.h"

namespace satin::campaign {

namespace {

// Each value travels as visit_trial_fields says its type does.
void append_value(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

void append_value(std::string& out, int value) { out += std::to_string(value); }

void append_value(std::string& out, HexField field) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, field.value);
  out += buf;
}

void append_value(std::string& out, double value) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  append_value(out, HexField{bits});
}

// The inverses: false unless the whole of `text` is one number.
bool parse_value(const std::string& text, std::uint64_t& value,
                 int base = 10) {
  char* end = nullptr;
  value = std::strtoull(text.c_str(), &end, base);
  return end != text.c_str() && *end == '\0';
}

bool parse_value(const std::string& text, int& value) {
  char* end = nullptr;
  value = static_cast<int>(std::strtoll(text.c_str(), &end, 10));
  return end != text.c_str() && *end == '\0';
}

bool parse_value(const std::string& text, HexField field) {
  return parse_value(text, field.value, 16);
}

bool parse_value(const std::string& text, double& value) {
  std::uint64_t bits = 0;
  const bool ok = parse_value(text, bits, 16);
  value = std::bit_cast<double>(bits);
  return ok;
}

}  // namespace

std::string encode_trial_record(const TrialResult& result) {
  TrialResult r = result;
  std::string body = "R";
  visit_trial_fields(r, [&body](const char* key, const char*, auto&& value) {
    body += ' ';
    body += key;
    body += '=';
    append_value(body, value);
  });
  std::uint64_t crc = sim::fnv1a(body.data(), body.size());
  body += " crc=";
  append_value(body, HexField{crc});
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
  std::uint64_t stored = 0;
  if (!parse_value(line.substr(crc_at + 5), stored, 16)) {
    return fail("malformed checksum");
  }
  if (stored != sim::fnv1a(line.data(), crc_at)) {
    return fail("checksum mismatch");
  }

  // Fields are read strictly in the order the encoder wrote them, so any
  // reordering, duplication or omission — not just value corruption —
  // fails the decode. The first failure sticks.
  TrialResult r;
  std::string why;
  std::size_t pos = 1;  // after the "R"
  visit_trial_fields(r, [&](const char* key, const char*, auto&& value) {
    if (!why.empty()) return;
    const std::string token = std::string(" ") + key + "=";
    if (line.compare(pos, token.size(), token) != 0) {
      why = std::string("expected field '") + key + "'";
      return;
    }
    pos += token.size();
    const std::size_t stop = line.find(' ', pos);  // at crc_at at the latest
    const std::string text = line.substr(pos, stop - pos);
    pos = stop;
    if (text.empty()) {
      why = std::string("empty value for '") + key + "'";
    } else if (!parse_value(text, value)) {
      why = std::string("malformed value for '") + key + "'";
    }
  });
  if (!why.empty()) return fail(why);
  if (pos != crc_at) return fail("trailing content");
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
