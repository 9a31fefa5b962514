// Differential test of the line protocol's request parser: parse_query
// (a whitespace tokenizer plus std::from_chars) against the
// std::istringstream reader it replaced, kept below verbatim. Seeded
// well-formed lines must give bit-identical queries; seeded mutations
// must give the same query or a tagged error on both sides. The one
// allowed disagreement is the old reader's bug: it stopped inside a
// field, or failed on the fifth, and served the line anyway.
#include "policy/server.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "sim/rng.h"

namespace skyferry::policy {
namespace {

/// The request parser as it was.
bool legacy_parse_query(const std::string& line, const Query& defaults, Query* out,
                        std::string* err) {
  std::istringstream fields(line);
  Query q = defaults;
  if (!(fields >> q.d0_m >> q.speed_mps >> q.mdata_bytes >> q.rho_per_m)) {
    *err = "expected: <d0> <v> <mdata> <rho> [min_d]";
    return false;
  }
  double min_d;
  if (fields >> min_d) q.min_distance_m = min_d;
  std::string extra;
  if (fields >> extra) {
    *err = "trailing garbage '" + extra + "'";
    return false;
  }
  *out = q;
  return true;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (is_space(c)) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// True when the old reader reads `tok` as one whole number.
bool stream_reads_whole(const std::string& tok) {
  std::istringstream s(tok);
  double x = 0.0;
  s >> x;
  return !s.fail() && s.eof();
}

/// The old reader's bug class: some whitespace-separated field is not
/// one whole number to it, so it stopped inside that field and either
/// dropped the rest or read the rest as the next field ("1.2.3" is 1.2
/// then .3).
bool old_reader_stops_inside_a_field(const std::string& line) {
  for (const std::string& t : tokens_of(line))
    if (!stream_reads_whole(t)) return true;
  return false;
}

bool tagged(const std::string& err) {
  return err == "expected: <d0> <v> <mdata> <rho> [min_d]" ||
         err.rfind("trailing garbage '", 0) == 0 || err.rfind("bad ", 0) == 0;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_query(const Query& want, const Query& got, const std::string& line) {
  EXPECT_EQ(bits(got.d0_m), bits(want.d0_m)) << line;
  EXPECT_EQ(bits(got.speed_mps), bits(want.speed_mps)) << line;
  EXPECT_EQ(bits(got.mdata_bytes), bits(want.mdata_bytes)) << line;
  EXPECT_EQ(bits(got.rho_per_m), bits(want.rho_per_m)) << line;
  EXPECT_EQ(bits(got.min_distance_m), bits(want.min_distance_m)) << line;
}

std::string printf_double(const char* fmt, double v) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

/// One well-formed field, in one of the spellings a client may send.
std::string well_formed_field(sim::Rng& rng) {
  const double v = std::exp(rng.uniform(std::log(1e-6), std::log(3e8)));
  switch (rng.uniform_int(12)) {
    case 0: return printf_double("%g", v);
    case 1: return printf_double("%.3f", v);
    case 2: return std::string("+").append(io::json_number(v));
    case 3: {  // ".5"
      const std::string s = printf_double("%.6f", rng.uniform());
      return s.substr(1);
    }
    case 4: return std::to_string(rng.uniform_int(1000)) + ".";  // "5."
    case 5: return io::json_number(std::bit_cast<double>(rng.uniform_int(1ULL << 52) + 1));
    case 6: {  // rounds to zero
      const char* under[] = {"1e-400", "-1e-400", "2e-324", "7.1e-999", "0.000001e-320"};
      return under[rng.uniform_int(5)];
    }
    case 7: return printf_double("%.17g", -v);
    case 8: return printf_double("%E", v);
    case 9: return std::to_string(rng.uniform_int(100000));
    default: return io::json_number(v);
  }
}

std::string separator(sim::Rng& rng) {
  std::string s;
  const std::uint64_t n = 1 + rng.uniform_int(3);
  for (std::uint64_t i = 0; i < n; ++i) s += rng.bernoulli(0.3) ? '\t' : ' ';
  return s;
}

std::string well_formed_line(sim::Rng& rng) {
  std::string line = rng.bernoulli(0.2) ? separator(rng) : "";
  const int fields = rng.bernoulli(0.5) ? 4 : 5;
  for (int f = 0; f < fields; ++f) {
    if (f) line += separator(rng);
    line += well_formed_field(rng);
  }
  if (rng.bernoulli(0.2)) line += separator(rng);
  if (rng.bernoulli(0.2)) line += '\r';
  return line;
}

std::string mutate(std::string line, sim::Rng& rng) {
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.uniform_int(line.size() + extra));
  };
  const char* specials[] = {"nan",   "inf",    "-inf",    "NaN",   "infinity", "0x10",
                            "0x1p3", "1e400",  "-1e9999", "1e-99999", "1e",     "1e+",
                            "abc",   "--5",    "+-5",     "+",     ".",        "1.2.3",
                            "5e5e5", "1,5",    "2e-3x",   "\x7f",  "1e308",    "-0"};
  switch (rng.uniform_int(7)) {
    case 0: {  // one bit flip
      if (line.empty()) return line;
      const std::size_t p = pos(0);
      line[p] = static_cast<char>(line[p] ^ (1 << rng.uniform_int(8)));
      return line;
    }
    case 1: return line.substr(0, pos(0));  // truncation
    case 2: {                               // a field replaced by a special token
      std::vector<std::string> tok = tokens_of(line);
      if (tok.empty()) return line;
      tok[rng.uniform_int(tok.size())] = specials[rng.uniform_int(std::size(specials))];
      std::string out;
      for (const std::string& t : tok) out += (out.empty() ? "" : " ") + t;
      return out;
    }
    case 3:  // extra fields
      return line + " " + specials[rng.uniform_int(std::size(specials))] +
             (rng.bernoulli(0.5) ? " 7" : "");
    case 4: {  // a special token glued onto a field
      line.insert(pos(1), specials[rng.uniform_int(std::size(specials))]);
      return line;
    }
    case 5: {  // a character deleted
      if (!line.empty()) line.erase(pos(0), 1);
      return line;
    }
    default: {  // a huge exponent appended to a field
      line.insert(pos(1), rng.bernoulli(0.5) ? "e999" : "e-999");
      return line;
    }
  }
}

Query defaults() {
  Query q;
  q.min_distance_m = 20.0;
  return q;
}

TEST(ParseQueryDifferential, WellFormedLinesMatchTheStreamReaderBitForBit) {
  sim::Rng rng(20260);
  for (int i = 0; i < 20'000; ++i) {
    const std::string line = well_formed_line(rng);
    Query want, got;
    std::string want_err, got_err;
    ASSERT_TRUE(legacy_parse_query(line, defaults(), &want, &want_err)) << line;
    ASSERT_TRUE(parse_query(line, defaults(), &got, &got_err)) << line << ": " << got_err;
    expect_same_query(want, got, line);
  }
}

TEST(ParseQueryDifferential, SpellingsTheOldReaderAccepted) {
  const char* lines[] = {"+300 10 28e6 2e-3",   "300 10 28e6 .5",     "300 10 28e6 5.",
                         "300\t10\t28e6\t2e-3", "300 10 28e6 2e-3\r", "300 10 28e6 2e-3 40\r",
                         "  300 10 28e6 2e-3 ", "300 10 28e6 1e-400", "300 10 28e6 -1e-400",
                         "300 10 28e6 4.9e-324"};
  for (const char* line : lines) {
    Query want, got;
    std::string err;
    ASSERT_TRUE(legacy_parse_query(line, defaults(), &want, &err)) << line;
    ASSERT_TRUE(parse_query(line, defaults(), &got, &err)) << line << ": " << err;
    expect_same_query(want, got, line);
  }
  Query q;
  std::string err;
  ASSERT_TRUE(parse_query("300 10 28e6 -1e-400", defaults(), &q, &err));
  EXPECT_TRUE(std::signbit(q.rho_per_m));
  EXPECT_EQ(q.rho_per_m, 0.0);
}

TEST(ParseQueryDifferential, MutatedLinesGiveTheSameQueryOrATaggedError) {
  sim::Rng rng(20261);
  int agree_ok = 0, agree_err = 0, bug_class = 0;
  for (int i = 0; i < 40'000; ++i) {
    std::string line = well_formed_line(rng);
    const int rounds = 1 + static_cast<int>(rng.uniform_int(2));
    for (int r = 0; r < rounds; ++r) line = mutate(line, rng);
    Query want, got;
    std::string want_err, got_err;
    const bool old_ok = legacy_parse_query(line, defaults(), &want, &want_err);
    const bool new_ok = parse_query(line, defaults(), &got, &got_err);
    if (!new_ok) {
      EXPECT_TRUE(tagged(got_err)) << line << ": " << got_err;
    }
    if (old_ok && new_ok) {
      expect_same_query(want, got, line);
      ++agree_ok;
    } else if (!old_ok && !new_ok) {
      ++agree_err;
    } else {
      EXPECT_TRUE(old_ok && !new_ok && old_reader_stops_inside_a_field(line))
          << "old " << (old_ok ? "ok" : want_err) << ", new " << (new_ok ? "ok" : got_err)
          << " on '" << line << "'";
      ++bug_class;
    }
  }
  // The mutations reach all three outcomes.
  EXPECT_GT(agree_ok, 1000);
  EXPECT_GT(agree_err, 1000);
  EXPECT_GT(bug_class, 100);
}

}  // namespace
}  // namespace skyferry::policy
