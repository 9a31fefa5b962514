#include "policy/server.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <system_error>
#include <vector>

#include "io/json.h"

namespace skyferry::policy {
namespace {

/// The classic-locale whitespace the fields are separated by.
bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// One whole finite decimal token. A leading '+' is accepted; hex,
/// inf/nan and any character after the number are not.
bool parse_number(std::string_view tok, double* x) {
  const char* first = tok.data();
  const char* const last = first + tok.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return false;
  }
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ptr != last) return false;
  if (ec == std::errc::result_out_of_range) {
    // The decimal rounds to zero or overflows and from_chars leaves `v`
    // unset. strtod tells the two apart: an underflow reads as its
    // signed zero, an overflow as HUGE_VAL, which is rejected below.
    v = std::strtod(std::string(first, last).c_str(), nullptr);
  } else if (ec != std::errc()) {
    return false;
  }
  if (!std::isfinite(v)) return false;
  *x = v;
  return true;
}

void append_decision(std::string& out, const Decision& d) {
  out += "ok ";
  io::append_json_number(out, d.d_opt_m);
  out += ' ';
  io::append_json_number(out, d.utility);
  out += ' ';
  io::append_json_number(out, d.cdelay_s);
  out += ' ';
  io::append_json_number(out, d.discount);
  out += ' ';
  out += core::to_string(d.boundary);
  out += ' ';
  out += to_string(d.backend);
}

}  // namespace

bool parse_query(std::string_view line, const Query& defaults, Query* out, std::string* err) {
  // Up to six fields: a sixth is only read to name it in the error.
  std::array<std::string_view, 6> tok;
  std::size_t n = 0;
  for (std::size_t i = 0; i < line.size() && n < tok.size();) {
    if (is_space(line[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && !is_space(line[j])) ++j;
    tok[n++] = line.substr(i, j - i);
    i = j;
  }
  if (n > 5) {
    *err = "trailing garbage '" + std::string(tok[5]) + "'";
    return false;
  }
  if (n < 4) {
    *err = "expected: <d0> <v> <mdata> <rho> [min_d]";
    return false;
  }
  Query q = defaults;
  double* const fields[5] = {&q.d0_m, &q.speed_mps, &q.mdata_bytes, &q.rho_per_m,
                             &q.min_distance_m};
  static constexpr const char* kNames[5] = {"d0", "v", "mdata", "rho", "min_d"};
  for (std::size_t f = 0; f < n; ++f) {
    if (!parse_number(tok[f], fields[f])) {
      *err = std::string("bad ") + kNames[f] + " '" + std::string(tok[f]) + "'";
      return false;
    }
  }
  *out = q;
  return true;
}

std::string format_decision(const Decision& d) {
  std::string out;
  append_decision(out, d);
  return out;
}

std::size_t LineServer::run(std::istream& in, std::ostream& out) const {
  if (opt_.banner) {
    out << "# skyferry_decide ready (table=" << (service_.has_table() ? "yes" : "no")
        << "); line: <d0> <v> <mdata> <rho> [min_d] | begin | end | stats | quit\n";
  }
  std::size_t served = 0;
  bool batching = false;
  std::vector<Query> batch;
  std::vector<Decision> answers;
  std::string reply;  // one decision's or one batch's replies, written at once
  const auto write_reply = [&] {
    out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
    out.flush();
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit") break;
    if (line == "stats") {
      const DecisionService::Counters c = service_.counters();
      out << "stats table=" << c.table << " exact=" << c.exact << '\n';
      continue;
    }
    if (line == "begin") {
      if (batching) {
        out << "err already batching\n";
        continue;
      }
      batching = true;
      batch.clear();
      continue;
    }
    if (line == "end") {
      if (!batching) {
        out << "err no open batch\n";
        continue;
      }
      answers.resize(batch.size());
      service_.decide(batch, answers);
      reply.clear();
      for (const Decision& d : answers) {
        append_decision(reply, d);
        reply += '\n';
      }
      write_reply();
      served += answers.size();
      batching = false;
      batch.clear();
      continue;
    }
    Query q;
    std::string err;
    if (!parse_query(line, opt_.defaults, &q, &err)) {
      out << "err " << err << '\n';
      continue;
    }
    if (batching) {
      batch.push_back(q);
      continue;
    }
    reply.clear();
    append_decision(reply, service_.decide_one(q));
    reply += '\n';
    write_reply();
    ++served;
  }
  if (batching) out << "err eof inside open batch (" << batch.size() << " queries dropped)\n";
  return served;
}

}  // namespace skyferry::policy
