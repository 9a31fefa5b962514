// The long-running front end of the decision service: a line protocol on
// an istream/ostream pair (stdin/stdout in the skyferry_decide binary, a
// stringstream in the tests), so a campaign script can hold one warm
// process open and stream decisions through the batched API instead of
// paying a process spawn per decision.
//
// Protocol (one request or directive per line):
//   <d0> <v> <mdata> <rho> [min_d]   decide; answered immediately unless
//                                    inside a begin/end batch. Fields are
//                                    separated by whitespace; each must be
//                                    one whole finite decimal number (an
//                                    optional sign, digits, '.', exponent;
//                                    no hex, inf/nan or trailing characters).
//                                    A decimal below the smallest double
//                                    reads as a signed zero.
//   begin                            start accumulating a batch
//   end                              flush the batch through ONE
//                                    decide(span, span) call, answer in
//                                    arrival order
//   stats                            "stats table=<n> exact=<n>"
//   quit                             stop serving (EOF also stops)
//   # ... / blank                    ignored
// Responses:
//   ok <d_opt> <utility> <cdelay> <discount> <boundary> <backend>
//   err <message>, one of:
//     expected: <d0> <v> <mdata> <rho> [min_d]   fewer than four fields
//     trailing garbage '<field 6>'               more than five fields
//     bad <d0|v|mdata|rho|min_d> '<field>'       a field that is not a
//                                                whole finite decimal
//     already batching | no open batch           misplaced begin / end
//     eof inside open batch (<n> queries dropped)
// Numbers are emitted with io::json_number, so every served double
// round-trips exactly (a campaign log can be replayed bit-identically).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "policy/service.h"

namespace skyferry::policy {

struct ServerOptions {
  /// Template for every parsed request: the server fills d0/v/mdata/rho
  /// (and optionally min_d) from the line and leaves the rest — so the
  /// operator can pin law, objective, or optimizer schedule per process.
  Query defaults{};
  /// Echo a "# skyferry_decide ..." banner before serving.
  bool banner{true};
};

class LineServer {
 public:
  LineServer(const DecisionService& service, ServerOptions options = {}) noexcept
      : service_(service), opt_(options) {}

  /// Serve until `quit` or EOF. Returns the number of decisions served.
  std::size_t run(std::istream& in, std::ostream& out) const;

 private:
  const DecisionService& service_;
  ServerOptions opt_;
};

/// One response line (without the trailing newline) for a decision —
/// exposed for the one-shot --query mode and the tests.
[[nodiscard]] std::string format_decision(const Decision& d);

/// Parse one request line "<d0> <v> <mdata> <rho> [min_d]" into a query
/// stamped from `defaults`. On a malformed line returns false and sets
/// `err` to the message of the protocol's `err` reply.
[[nodiscard]] bool parse_query(std::string_view line, const Query& defaults, Query* out,
                               std::string* err);

}  // namespace skyferry::policy
