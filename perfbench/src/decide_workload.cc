// decide_stream: one client in a closed loop sending begin/end batches
// of 64 seeded queries through policy::LineServer over in-memory
// streams, against an airplane-fit policy table. One operation is one
// decision; the latency sample is one batch round trip.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "policy/compiler.h"
#include "policy/server.h"
#include "sim/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace skyferry;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kDistinctBatches = 256;
constexpr std::size_t kCyclesPerPass = 16;  // a window is one cycle of the distinct batches
constexpr std::uint64_t kOpsPerPass = kCyclesPerPass * kDistinctBatches * kBatch;
constexpr std::size_t kAuditStride = 32;  // 512 audited queries
constexpr double kOutOfDomainShare = 0.05;

// The airplane fit over the compiler's default domain, on a coarser
// grid (12285 knots) so a compile fits in set-up.
policy::CompilerConfig airplane_table_config() {
  policy::CompilerConfig c;
  c.d0.n = 15;
  c.speed.n = 7;
  c.mdata.n = 13;
  c.rho.n = 9;
  c.threads = 2;
  return c;
}

struct Inputs {
  std::vector<std::vector<policy::Query>> batches;
  std::vector<std::string> text;  ///< "begin\n<query lines>end\n" per batch
};

double log_uniform(sim::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

Inputs make_inputs(std::uint64_t seed) {
  const policy::CompilerConfig dom = airplane_table_config();
  sim::Rng rng(sim::derive_seed(seed, "perfbench/decide"));
  Inputs in;
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    std::string text = "begin\n";
    std::vector<policy::Query> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      // ~5% of the queries approach from beyond the table's d0 range and
      // take the exact fallback.
      const bool outside = rng.bernoulli(kOutOfDomainShare);
      const double d0 = outside ? rng.uniform(dom.d0.hi + 1.0, 1.5 * dom.d0.hi)
                                : rng.uniform(dom.d0.lo, dom.d0.hi);
      const double fields[4] = {d0, rng.uniform(dom.speed.lo, dom.speed.hi),
                                log_uniform(rng, dom.mdata.lo, dom.mdata.hi),
                                log_uniform(rng, dom.rho.lo, dom.rho.hi)};
      std::string line;
      for (const double f : fields) line += io::json_number(f) + ' ';
      line.back() = '\n';
      // The server parses the text; replay what it will parse.
      std::istringstream parse(line);
      policy::Query q;
      parse >> q.d0_m >> q.speed_mps >> q.mdata_bytes >> q.rho_per_m;
      batch.push_back(q);
      text += line;
    }
    text += "end\n";
    in.batches.push_back(std::move(batch));
    in.text.push_back(std::move(text));
  }
  return in;
}

struct Instance {
  std::unique_ptr<core::PaperLogThroughput> model;
  std::unique_ptr<policy::DecisionService> service;
  std::unique_ptr<policy::LineServer> server;
};

// Program set-up: compile + guard + install the table, start the server.
Instance build(Tracer& tr, std::uint64_t pass) {
  Instance inst;
  inst.model = std::make_unique<core::PaperLogThroughput>(core::PaperLogThroughput::airplane());
  inst.service = std::make_unique<policy::DecisionService>(*inst.model);
  const int id = tr.open("policy.compile", pass);
  policy::PolicyTable table = policy::Compiler(airplane_table_config()).compile();
  tr.close(id);
  guard_table_model(table, *inst.model);
  inst.service->install_table(std::move(table));
  policy::ServerOptions so;
  so.banner = false;
  inst.server = std::make_unique<policy::LineServer>(*inst.service, so);
  return inst;
}

// What the service answers for each distinct batch, formatted, with its
// digest: the oracle every reply is checked against.
struct Oracle {
  std::vector<std::string> text;
  std::vector<std::uint64_t> digest;
};

// Fills the oracle from one instance and returns the served answers'
// largest relative regret against the exact solver (off the clock).
double fill_oracle(const Instance& inst, const Inputs& in, Oracle& oracle) {
  for (const auto& batch : in.batches) {
    std::vector<policy::Decision> ans(batch.size());
    inst.service->decide(batch, ans);
    std::string text;
    for (const policy::Decision& d : ans) text += policy::format_decision(d) + '\n';
    Digest d;
    d.str(text);
    oracle.digest.push_back(d.value());
    oracle.text.push_back(std::move(text));
  }
  const policy::DecisionService exact_service(*inst.model);
  double regret = 0.0;
  for (std::size_t i = 0; i < kDistinctBatches * kBatch; i += kAuditStride) {
    const policy::Query& q = in.batches[i / kBatch][i % kBatch];
    const double u_served = inst.service->decide_one(q).utility;
    const double u_exact = exact_service.decide_one(q).utility;
    if (u_exact > 0.0) regret = std::max(regret, (u_exact - u_served) / u_exact);
  }
  return regret;
}

struct PassOut {
  CheckLog checks;
  Digest digest;
  std::vector<double> window_rates;  ///< decisions/s of each cycle
  std::vector<double> latency_s;     ///< batch round trips (untraced only)
  double run_s{0.0}, decide_s{0.0};  ///< traced: LineServer::run, decide
};

// One pass: kCyclesPerPass cycles through the distinct batches, each
// cycle timed as a window of identical work.
PassOut run_pass(const Instance& inst, const Inputs& in, const Oracle& oracle, Tracer& tr,
                 bool traced, std::uint64_t round) {
  PassOut o;
  std::vector<policy::Decision> scratch(kBatch);
  for (std::size_t c = 0; c < kCyclesPerPass; ++c) {
    const double w0 = now_s();
    for (std::size_t k = 0; k < kDistinctBatches; ++k) {
      const std::uint64_t op = (round * kCyclesPerPass + c) * kDistinctBatches + k;
      // One round trip as the client sees it: write the request, serve
      // it, read the replies back.
      const int bid = tr.open("decide.batch", op);
      const double b0 = now_s();
      std::istringstream req(in.text[k]);
      std::ostringstream out;
      const int sid = tr.open("policy.LineServer::run", op);
      inst.server->run(req, out);
      tr.close(sid);
      const std::string reply = std::move(out).str();
      if (!traced) o.latency_s.push_back(now_s() - b0);
      if (check_replies(reply, oracle.text[k], kBatch, o.checks) == 0) {
        o.digest.u64(oracle.digest[k]);
      } else {
        o.digest.str(reply);
      }
      tr.close(bid);
      if (traced) {
        // The same parsed batch straight through decide(): the server's
        // own cost is the difference.
        const int did = tr.open("policy.decide", op);
        inst.service->decide(in.batches[k], scratch);
        tr.close(did);
        o.run_s += tr.spans()[static_cast<std::size_t>(sid)].duration_s();
        o.decide_s += tr.spans()[static_cast<std::size_t>(did)].duration_s();
      }
    }
    o.window_rates.push_back(static_cast<double>(kDistinctBatches * kBatch) / (now_s() - w0));
  }
  return o;
}

}  // namespace

RunResult run_decide_stream(const Options& opt) {
  RunResult r;
  r.threads = 1;
  const Inputs in = make_inputs(opt.seed);
  Tracer tracer(opt.trace);
  Oracle oracle;
  double served_regret = 0.0;
  std::vector<double> latency_s;
  double run_s = 0.0, decide_s = 0.0, table = 0.0, exact = 0.0;

  auto setup = [&](std::uint64_t round) {
    const double s0 = now_s();
    Instance inst = build(tracer, round);
    r.setup_s.push_back(now_s() - s0);
    if (oracle.text.empty()) served_regret = fill_oracle(inst, in, oracle);
    return inst;
  };
  auto merge = [&](const Instance& inst, const PassOut& o, bool traced) {
    r.ops += kOpsPerPass;
    r.checks.absorb(o.checks);
    expect_digest(r, o.digest.hex(), kOpsPerPass, traced ? "traced pass" : "pass");
    std::vector<double>& rates = traced ? r.traced_rates : r.untraced_rates;
    rates.insert(rates.end(), o.window_rates.begin(), o.window_rates.end());
    latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
    run_s += o.run_s;
    decide_s += o.decide_s;
    const policy::DecisionService::Counters c = inst.service->counters();
    table = static_cast<double>(c.table);
    exact = static_cast<double>(c.exact);
  };

  if (!opt.trace) {
    r.copies = copy_rounds(
        opt.seconds, setup,
        [&](const Instance& inst, std::uint64_t round) {
          Tracer off(false);
          return run_pass(inst, in, oracle, off, false, round);
        },
        [&](const Instance& inst, const PassOut& o) { merge(inst, o, false); });
  } else {
    // Untraced and traced passes alternate on this thread.
    pass_loop(opt.seconds, 2, [&](int kind, std::uint64_t round) {
      const Instance inst = setup(round);
      Tracer off(false);
      const double t0 = now_s();
      const PassOut o = run_pass(inst, in, oracle, kind == 1 ? tracer : off, kind == 1, round);
      const double wall = now_s() - t0;
      merge(inst, o, kind == 1);
      return wall;
    });
  }

  const TailPercentile tail = highest_tail(latency_s);
  r.extra = {
      {"op_p50_us", median(latency_s) * 1e6, "us"},
      {"op_p99_us", tail.pct >= 99.0 ? percentile(latency_s, 0.99) * 1e6 : 0.0, "us"},
      {"op_samples", static_cast<double>(tail.samples), "count"},
      {"op_tail_pct", tail.pct, "%"},
      {"op_tail_us", tail.value * 1e6, "us"},
      {"served_regret", served_regret, "1"},
  };
  if (!opt.trace) return r;

  const double lines = static_cast<double>(r.traced_rates.size() * kDistinctBatches * kBatch);
  r.layer = {
      {"policy.compile_s", median(tracer.durations("policy.compile")), "s"},
      {"policy.decide_ns", decide_s * 1e9 / lines, "ns"},
      {"policy.server_ns_per_line", (run_s - decide_s) * 1e9 / lines, "ns"},
      {"policy.table_hit_frac", table + exact > 0.0 ? table / (table + exact) : 0.0, "1"},
      {"policy.exact_calls", exact, "count"},
  };
  if (!opt.trace_out.empty()) tracer.write_jsonl(opt.trace_out);
  return r;
}

}  // namespace perfbench
