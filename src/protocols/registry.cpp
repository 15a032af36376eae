#include "protocols/registry.hpp"

#include "core/parse.hpp"
#include "protocols/binary_exponential.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/log_backoff.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "protocols/polynomial_backoff.hpp"
#include "protocols/windowed_ethernet.hpp"

namespace lowsense {

std::unique_ptr<ProtocolFactory> make_protocol(const std::string& name) {
  if (name == "low-sensing" || name == "lsb") {
    return std::make_unique<LowSensingFactory>();
  }
  if (name == "binary-exponential" || name == "beb") {
    return std::make_unique<BinaryExponentialFactory>();
  }
  if (name == "capped-exponential") {
    BinaryExponentialParams p;
    p.max_window = 1024.0;  // Ethernet's truncation point
    return std::make_unique<BinaryExponentialFactory>(p);
  }
  if (name == "polynomial") {
    return std::make_unique<PolynomialBackoffFactory>();
  }
  if (name == "slow-oblivious") {
    return std::make_unique<SlowBackoffFactory>();
  }
  if (name == "mw-full-sensing" || name == "mw") {
    return std::make_unique<MwFullSensingFactory>();
  }
  if (name == "windowed-ethernet" || name == "ethernet") {
    return std::make_unique<WindowedEthernetFactory>();
  }
  if (name.rfind("aloha:", 0) == 0) {
    const auto p = parse_f64(std::string_view(name).substr(6));
    if (p && *p > 0.0 && *p <= 1.0) return std::make_unique<FixedProbabilityFactory>(*p);
    return nullptr;
  }
  return nullptr;
}

std::vector<std::string> protocol_names() {
  return {"low-sensing",   "binary-exponential", "capped-exponential",
          "polynomial",    "slow-oblivious",     "mw-full-sensing",
          "windowed-ethernet", "aloha:<p>"};
}

}  // namespace lowsense
