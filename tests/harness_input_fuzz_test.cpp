// Seeded mutation fuzz over every untrusted text input: the four packs
// under packs/, the golden fixture pack, and the arrival / jammer /
// protocol spec grammars. Each input is mutated a few bytes or tokens at a
// time (flips, inserts of edge tokens, deletions, duplicated lines,
// truncation) and must either parse — into factories that construct
// without throwing — or be rejected: a pack with an "origin:line: what"
// error, a spec with nullptr. Never an abort, a throw or a sanitizer
// report; the asan-ubsan preset runs this suite with the fast set.
//
// Every accepted arrival spec also yields up to 64 bursts, so a spec whose
// first windows cost unbounded work or memory fails here. No mutated
// scenario is simulated, so a legal-but-huge value (batch:10^18) costs
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

// Edge fragments of the grammars: signs, exponents, overflow, NaN,
// separators, section syntax, keywords.
const char* const kTokens[] = {
    "-",        "+",         "0",          "1",          "-1",        "nan",
    "inf",      "1e400",     "1e-400",     "0x10",       "4294967296", "18446744073709551616",
    ".",        ",",         ",,",         ":",          "=",         "==",
    "[",        "]",         "[]",         "#",          " ",         "\t",
    "\n",       "\r\n",      "\xff",       "batch:",     "poisson:",  "aqt:",
    "random:",  "burst:",    "victim:",    "blanket:",   "band:",     "randband:",
    "none",     "spread",    "front",      "pulse",      "aloha:",    "low-sensing",
    "expect",   "drained",   ">=",         "<=",         "window",    "warmup",
    "digest",   "budget",    "horizon",    "seed",       "jam-seed",  "protocol",
    "arrivals", "jammer",    "shards",     "0123456789abcdef",
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// 1-4 random edits of `text`, drawn from `gen`.
std::string mutate(std::string text, std::mt19937_64& gen) {
  auto below = [&gen](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(gen() % n);
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = below(text.size() + 1);
    const std::string token = kTokens[below(std::size(kTokens))];
    switch (below(6)) {
      case 0:  // flip one byte to any value, NUL included
        if (!text.empty()) text[below(text.size())] = static_cast<char>(gen() & 0xff);
        break;
      case 1:
        text.insert(pos, token);
        break;
      case 2:
        text.erase(pos, 1 + below(8));
        break;
      case 3:
        text.replace(pos, 1 + below(4), token);
        break;
      case 4: {  // duplicate the line around pos
        const std::size_t lo = text.rfind('\n', pos == 0 ? 0 : pos - 1);
        const std::size_t start = lo == std::string::npos ? 0 : lo + 1;
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        text.insert(start, text.substr(start, end - start) + "\n");
        break;
      }
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

std::vector<std::filesystem::path> seed_packs() {
  const std::filesystem::path data(LOWSENSE_TEST_DATA_DIR);
  std::vector<std::filesystem::path> packs;
  for (const auto& e : std::filesystem::directory_iterator(data / ".." / ".." / "packs")) {
    if (e.path().extension() == ".pack") packs.push_back(e.path());
  }
  std::sort(packs.begin(), packs.end());
  packs.push_back(data / "golden_scenario.pack");
  return packs;
}

/// "fuzz.pack:<line>: what", or "fuzz.pack: what" for whole-file errors.
bool names_origin_and_line(const std::string& error) {
  const std::string origin = "fuzz.pack:";
  if (error.rfind(origin, 0) != 0) return false;
  std::size_t i = origin.size();
  const std::size_t digits = i;
  while (i < error.size() && std::isdigit(static_cast<unsigned char>(error[i]))) ++i;
  if (i > digits && (i == error.size() || error[i++] != ':')) return false;
  return i + 1 < error.size() && error[i] == ' ';
}

/// A parsed entry promises to run: its factories construct.
void expect_constructs(const Scenario& s, const std::string& label) {
  ASSERT_TRUE(s.protocol && s.arrivals && s.jammer) << label;
  EXPECT_NO_THROW({
    EXPECT_NE(s.protocol(), nullptr) << label;
    EXPECT_NE(s.arrivals(1), nullptr) << label;
    EXPECT_NE(s.jammer(1), nullptr) << label;
  }) << label;
}

TEST(InputFuzz, MutatedPacksParseOrNameOriginAndLine) {
  const std::vector<std::filesystem::path> packs = seed_packs();
  ASSERT_EQ(packs.size(), 5u) << "four packs/*.pack plus the golden fixture";
  std::mt19937_64 gen(20261019);
  int parsed = 0;
  int rejected = 0;
  for (const auto& path : packs) {
    const std::string original = read_file(path);
    ASSERT_FALSE(original.empty()) << path;
    for (int iter = 0; iter < 1000; ++iter) {
      const std::string text = mutate(original, gen);
      const std::string label = path.filename().string() + " #" + std::to_string(iter);
      std::istringstream in(text);
      ScenarioPack pack;
      std::string error;
      if (parse_scenario_pack(in, "fuzz.pack", &pack, &error)) {
        ++parsed;
        ASSERT_FALSE(pack.entries.empty()) << label;
        for (const PackEntry& e : pack.entries) {
          expect_constructs(make_pack_scenario(e), label + " [" + e.name + "]");
        }
      } else {
        ++rejected;
        EXPECT_TRUE(names_origin_and_line(error)) << label << ": " << error;
      }
    }
  }
  // Both outcomes must actually occur, or the mutations are too weak (or
  // too strong) to say anything.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

TEST(InputFuzz, MutatedSpecsParseOrReturnNull) {
  const std::vector<std::string> arrivals = {
      "batch:1000",       "poisson:0.05,5000",    "poisson:0.02,0",
      "aqt:0.2,1024,front,20000", "aqt:0.3,64,random,48", "aqt:0.2,128,spread,1200",
      "aqt:0.5,16,pulse,0"};
  const std::vector<std::string> jammers = {
      "none",     "random:0.2",       "random:0.25,600", "burst:97,13",
      "victim:3,100", "blanket:40",   "band:0.5,2.5,500", "randband:0.5,2.5,0.5,500,0.3"};
  std::vector<std::string> protocols;
  for (const std::string& p : protocol_names()) {
    protocols.push_back(p == "aloha:<p>" ? "aloha:0.05" : p);
  }

  std::mt19937_64 gen(20261020);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string a = mutate(arrivals[iter % arrivals.size()], gen);
    if (const auto factory = parse_arrivals_spec(a)) {
      ++accepted;
      EXPECT_NO_THROW({
        const auto process = factory(1);
        EXPECT_NE(process, nullptr) << a;
        int pulled = 0;
        while (process && pulled < 64 && process->next()) ++pulled;
      }) << a;
    } else {
      ++rejected;
    }

    const std::string j = mutate(jammers[iter % jammers.size()], gen);
    if (const auto factory = parse_jammer_spec(j, 7)) {
      ++accepted;
      EXPECT_NO_THROW(EXPECT_NE(factory(1), nullptr) << j) << j;
    } else {
      ++rejected;
    }

    const std::string p = mutate(protocols[iter % protocols.size()], gen);
    if (const auto factory = make_protocol(p)) {
      ++accepted;
      EXPECT_NO_THROW(EXPECT_NE(factory->create(), nullptr) << p) << p;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace lowsense
