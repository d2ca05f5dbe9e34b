#include "fault/plan.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace satin::fault {

namespace {

[[noreturn]] void bad(const std::string& what, const std::string& token) {
  throw std::invalid_argument("FaultPlan: " + what + " in '" + token + "'");
}

FaultKind kind_from(const std::string& name, const std::string& item) {
  if (name == "timer-misfire") return FaultKind::kTimerMisfire;
  if (name == "timer-drift") return FaultKind::kTimerDrift;
  if (name == "irq-lost") return FaultKind::kIrqLost;
  if (name == "irq-spurious") return FaultKind::kIrqSpurious;
  if (name == "smc-fail") return FaultKind::kSmcFail;
  if (name == "bitflip") return FaultKind::kBitFlip;
  if (name == "core-off") return FaultKind::kCoreOffline;
  bad("unknown fault kind '" + name + "'", item);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string strip(const std::string& text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

double parse_number(const std::string& text, const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    bad("expected a number, got '" + text + "'", token);
  }
  if (!std::isfinite(value)) bad("non-finite number '" + text + "'", token);
  return value;
}

long parse_long(const std::string& text, const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    bad("expected an integer, got '" + text + "'", token);
  }
  if (errno == ERANGE || value > 2147483647L || value < -2147483648L) {
    bad("integer out of range '" + text + "'", token);
  }
  return value;
}

std::uint64_t parse_seed(const std::string& text, const std::string& token) {
  if (text.empty()) bad("empty seed value", token);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0') {
    bad("expected a seed integer, got '" + text + "'", token);
  }
  if (errno == ERANGE) bad("seed out of range '" + text + "'", token);
  if (text[0] == '-') bad("negative seed '" + text + "'", token);
  return static_cast<std::uint64_t>(value);
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTimerMisfire:
      return "timer-misfire";
    case FaultKind::kTimerDrift:
      return "timer-drift";
    case FaultKind::kIrqLost:
      return "irq-lost";
    case FaultKind::kIrqSpurious:
      return "irq-spurious";
    case FaultKind::kSmcFail:
      return "smc-fail";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kCoreOffline:
      return "core-off";
  }
  return "?";
}

sim::Duration parse_duration(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    throw std::invalid_argument("FaultPlan: expected a duration, got '" +
                                text + "'");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    throw std::invalid_argument("FaultPlan: duration out of range in '" +
                                text + "'");
  }
  const std::string unit = strip(end);
  double unit_ps = 0.0;
  if (unit.empty() || unit == "s") {
    unit_ps = 1e12;
  } else if (unit == "ms") {
    unit_ps = 1e9;
  } else if (unit == "us") {
    unit_ps = 1e6;
  } else if (unit == "ns") {
    unit_ps = 1e3;
  } else if (unit == "ps") {
    unit_ps = 1.0;
  } else {
    throw std::invalid_argument("FaultPlan: unknown time unit '" + unit +
                                "' in '" + text + "'");
  }
  // The picosecond tick count must fit an int64; llround on an
  // out-of-range double is undefined, so guard before converting.
  if (std::fabs(value) > 9.2e18 / unit_ps) {
    throw std::invalid_argument("FaultPlan: duration out of range in '" +
                                text + "'");
  }
  if (unit.empty() || unit == "s") return sim::Duration::from_sec_f(value);
  if (unit == "ms") return sim::Duration::from_ms_f(value);
  if (unit == "us") return sim::Duration::from_us_f(value);
  if (unit == "ns") return sim::Duration::from_ns_f(value);
  return sim::Duration::from_ps(static_cast<std::int64_t>(value));
}

std::string format_duration(sim::Duration d) {
  // Pick the largest unit that renders without a fraction; fall back to s.
  const std::int64_t ps = d.ps();
  char buf[64];
  if (ps % 1'000'000'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(ps / 1'000'000'000'000));
  } else if (ps % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(ps / 1'000'000'000));
  } else if (ps % 1'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldus",
                  static_cast<long long>(ps / 1'000'000));
  } else if (ps % 1'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldns",
                  static_cast<long long>(ps / 1'000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldps", static_cast<long long>(ps));
  }
  return buf;
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  out << fault::to_string(kind) << "@"
      << format_duration(start - sim::Time::zero()) << "+"
      << format_duration(duration);
  if (core != kAnyCore) out << ":core=" << core;
  if (probability != 1.0) {
    // The shortest form that reads back as the same double: a stream's
    // default six digits would round p=0.123456789 to 0.123457.
    char buf[32];
    const auto printed = std::to_chars(buf, buf + sizeof(buf), probability);
    out << ":p=" << std::string(buf, printed.ptr);
  }
  if (kind == FaultKind::kTimerDrift) {
    out << ":drift=" << format_duration(drift);
  }
  if (kind == FaultKind::kIrqSpurious) {
    out << ":period=" << format_duration(period);
  }
  if (kind == FaultKind::kBitFlip && flips != 1) out << ":flips=" << flips;
  return out.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (strip(spec).empty()) return plan;
  for (const std::string& raw : split(spec, ',')) {
    const std::string item = strip(raw);
    if (item.empty()) continue;
    if (item.rfind("seed=", 0) == 0) {
      plan.seed = parse_seed(item.substr(5), item);
      continue;
    }
    const std::vector<std::string> parts = split(item, ':');
    const std::string& head = parts.front();
    const std::size_t at = head.find('@');
    if (at == std::string::npos) bad("missing '@<start>+<duration>'", item);
    const std::size_t plus = head.find('+', at);
    if (plus == std::string::npos) bad("missing '+<duration>'", item);

    FaultSpec fault;
    fault.kind = kind_from(head.substr(0, at), item);
    fault.start =
        sim::Time::zero() + parse_duration(head.substr(at + 1, plus - at - 1));
    if (fault.start < sim::Time::zero()) bad("negative window start", item);
    fault.duration = parse_duration(head.substr(plus + 1));
    if (fault.duration <= sim::Duration::zero()) {
      bad("non-positive window duration", item);
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string param = strip(parts[i]);
      const std::size_t eq = param.find('=');
      if (eq == std::string::npos) bad("malformed parameter '" + param + "'",
                                       item);
      const std::string key = param.substr(0, eq);
      const std::string value = param.substr(eq + 1);
      if (key == "core") {
        fault.core = static_cast<int>(parse_long(value, item));
      } else if (key == "p") {
        fault.probability = parse_number(value, item);
        if (fault.probability < 0.0 || fault.probability > 1.0) {
          bad("probability outside [0, 1]", item);
        }
      } else if (key == "drift") {
        fault.drift = parse_duration(value);
      } else if (key == "period") {
        fault.period = parse_duration(value);
        if (fault.period <= sim::Duration::zero()) {
          bad("non-positive period", item);
        }
      } else if (key == "flips") {
        fault.flips = static_cast<int>(parse_long(value, item));
        if (fault.flips <= 0) bad("non-positive flip count", item);
      } else {
        bad("unknown parameter '" + key + "'", item);
      }
    }
    plan.faults.push_back(fault);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed;
  for (const FaultSpec& fault : faults) out << "," << fault.to_string();
  return out.str();
}

}  // namespace satin::fault
