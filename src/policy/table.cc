#include "policy/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "exp/codec.h"

namespace skyferry::policy {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

const io::Json& need(const io::Json& j, const char* key) {
  const io::Json* v = j.find(key);
  if (v == nullptr) throw TableError(std::string("policy table: missing key '") + key + "'");
  return *v;
}

double need_double(const io::Json& j, const char* key) {
  try {
    return exp::field<double>(j, key);
  } catch (const exp::CodecError& e) {
    throw TableError(std::string("policy table: ") + e.what());
  }
}

int need_int(const io::Json& j, const char* key) {
  try {
    return exp::field<int>(j, key);
  } catch (const exp::CodecError& e) {
    throw TableError(std::string("policy table: ") + e.what());
  }
}

}  // namespace

double Axis::knot(int i) const noexcept {
  const double t = n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
  if (log10_spaced) {
    const double u = std::log10(lo) + t * (std::log10(hi) - std::log10(lo));
    return std::pow(10.0, u);
  }
  return lo + t * (hi - lo);
}

void Axis::locate(double x, int* i, double* frac) const noexcept {
  double t;
  if (log10_spaced) {
    const double ulo = std::log10(lo);
    t = (std::log10(x) - ulo) / (std::log10(hi) - ulo);
  } else {
    t = (x - lo) / (hi - lo);
  }
  if (!(t > 0.0)) t = 0.0;  // also catches NaN from degenerate axes
  if (t > 1.0) t = 1.0;
  const double pos = t * (n - 1);
  int idx = static_cast<int>(pos);
  if (idx > n - 2) idx = n - 2;
  *i = idx;
  *frac = pos - idx;
}

PolicyTable::PolicyTable(std::array<Axis, 4> axes, TableModelSpec model, double min_distance_m,
                         core::OptimizeOptions compiled_with, std::vector<double> d_opt,
                         std::vector<double> utility)
    : axes_(std::move(axes)),
      model_(std::move(model)),
      min_distance_m_(min_distance_m),
      opt_(compiled_with),
      d_opt_(std::move(d_opt)),
      utility_(std::move(utility)) {
  std::size_t total = 1;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const Axis& ax = axes_[a];
    if (ax.n < 2) throw TableError("policy table: axis '" + ax.name + "' needs >= 2 knots");
    if (!(ax.lo < ax.hi))
      throw TableError("policy table: axis '" + ax.name + "' needs lo < hi");
    if (ax.log10_spaced && !(ax.lo > 0.0))
      throw TableError("policy table: log axis '" + ax.name + "' needs lo > 0");
    if (ax.name != kAxisNames[a])
      throw TableError("policy table: axis " + std::to_string(a) + " must be '" +
                       kAxisNames[a] + "', got '" + ax.name + "'");
    total *= static_cast<std::size_t>(ax.n);
  }
  if (d_opt_.size() != total || utility_.size() != total)
    throw TableError("policy table: grid has " + std::to_string(total) + " knots but " +
                     std::to_string(d_opt_.size()) + " d_opt / " +
                     std::to_string(utility_.size()) + " utility values");
  for (std::size_t k = 0; k < total; ++k) {
    if (!std::isfinite(d_opt_[k]) || !std::isfinite(utility_[k]))
      throw TableError("policy table: non-finite knot at flat index " + std::to_string(k));
  }
}

std::size_t PolicyTable::index(int i0, int i1, int i2, int i3) const noexcept {
  return ((static_cast<std::size_t>(i0) * axes_[1].n + i1) * axes_[2].n + i2) * axes_[3].n + i3;
}

bool PolicyTable::covers(double d0_m, double speed_mps, double mdata_bytes,
                         double rho_per_m) const noexcept {
  return axes_[0].contains(d0_m) && axes_[1].contains(speed_mps) &&
         axes_[2].contains(mdata_bytes) && axes_[3].contains(rho_per_m);
}

PolicyTable::DOptCandidates PolicyTable::lookup_d_opt_candidates(
    double d0_m, double speed_mps, double mdata_bytes, double rho_per_m) const noexcept {
  int i[4];
  double f[4];
  const double x[4] = {d0_m, speed_mps, mdata_bytes, rho_per_m};
  for (int a = 0; a < 4; ++a) axes_[a].locate(x[a], &i[a], &f[a]);
  const std::size_t s3 = 1;
  const std::size_t s2 = s3 * static_cast<std::size_t>(axes_[3].n);
  const std::size_t s1 = s2 * static_cast<std::size_t>(axes_[2].n);
  const std::size_t s0 = s1 * static_cast<std::size_t>(axes_[1].n);
  const std::size_t base =
      static_cast<std::size_t>(i[0]) * s0 + static_cast<std::size_t>(i[1]) * s1 +
      static_cast<std::size_t>(i[2]) * s2 + static_cast<std::size_t>(i[3]) * s3;
  DOptCandidates out;
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (int c = 0; c < 16; ++c) {
    const int b0 = c & 1, b1 = (c >> 1) & 1, b2 = (c >> 2) & 1, b3 = (c >> 3) & 1;
    const double w = (b0 ? f[0] : 1.0 - f[0]) * (b1 ? f[1] : 1.0 - f[1]) *
                     (b2 ? f[2] : 1.0 - f[2]) * (b3 ? f[3] : 1.0 - f[3]);
    if (w == 0.0) continue;
    const double v = d_opt_[base + b0 * s0 + b1 * s1 + b2 * s2 + b3 * s3];
    out.blend += w * v;
    lo = first ? v : std::min(lo, v);
    hi = first ? v : std::max(hi, v);
    first = false;
  }
  out.lo = lo;
  out.hi = hi;
  return out;
}

std::string PolicyTable::checksum() const {
  // Exact-encoded knot arrays are the content; hashing their compact
  // dumps makes the tag independent of file whitespace but sensitive to
  // any single-bit knot change (the exact codec never rounds).
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, exp::encode_range(d_opt_.data(), d_opt_.size()).dump());
  h = fnv1a(h, "|");
  h = fnv1a(h, exp::encode_range(utility_.data(), utility_.size()).dump());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

io::Json PolicyTable::to_json() const {
  io::Json j = io::Json::object();
  j.set("skyferry_policy_table", kFormatVersion);
  io::Json model = io::Json::object();
  model.set("kind", "paper-log");
  model.set("a", exp::Codec<double>::encode(model_.a));
  model.set("b", exp::Codec<double>::encode(model_.b));
  model.set("scale", exp::Codec<double>::encode(model_.scale));
  model.set("min_distance_m", exp::Codec<double>::encode(model_.min_distance_m));
  model.set("name", model_.name);
  j.set("model", std::move(model));
  j.set("min_distance_m", exp::Codec<double>::encode(min_distance_m_));
  io::Json opt = io::Json::object();
  opt.set("grid_points", opt_.grid_points);
  opt.set("tolerance_m", exp::Codec<double>::encode(opt_.tolerance_m));
  opt.set("max_refine_iters", opt_.max_refine_iters);
  j.set("optimize", std::move(opt));
  io::Json axes = io::Json::array();
  for (const Axis& ax : axes_) {
    io::Json a = io::Json::object();
    a.set("name", ax.name);
    a.set("lo", exp::Codec<double>::encode(ax.lo));
    a.set("hi", exp::Codec<double>::encode(ax.hi));
    a.set("n", ax.n);
    a.set("log10", ax.log10_spaced);
    axes.push_back(std::move(a));
  }
  j.set("axes", std::move(axes));
  j.set("d_opt", exp::encode_range(d_opt_.data(), d_opt_.size()));
  j.set("utility", exp::encode_range(utility_.data(), utility_.size()));
  j.set("checksum", checksum());
  return j;
}

PolicyTable PolicyTable::from_json(const io::Json& j) {
  if (!j.is_object()) throw TableError("policy table: expected a JSON object");
  const io::Json& version = need(j, "skyferry_policy_table");
  if (!version.is_number() || static_cast<int>(version.as_number()) != kFormatVersion)
    throw TableError("policy table: unsupported format version (want " +
                     std::to_string(kFormatVersion) + ")");

  const io::Json& mj = need(j, "model");
  if (!mj.is_object()) throw TableError("policy table: 'model' must be an object");
  if (need(mj, "kind").as_string() != "paper-log")
    throw TableError("policy table: unsupported model kind '" + need(mj, "kind").as_string() +
                     "'");
  TableModelSpec model;
  model.a = need_double(mj, "a");
  model.b = need_double(mj, "b");
  model.scale = need_double(mj, "scale");
  model.min_distance_m = need_double(mj, "min_distance_m");
  model.name = need(mj, "name").as_string();

  const double min_distance = need_double(j, "min_distance_m");

  const io::Json& oj = need(j, "optimize");
  if (!oj.is_object()) throw TableError("policy table: 'optimize' must be an object");
  core::OptimizeOptions opt;
  opt.grid_points = need_int(oj, "grid_points");
  opt.tolerance_m = need_double(oj, "tolerance_m");
  opt.max_refine_iters = need_int(oj, "max_refine_iters");

  const io::Json& axesj = need(j, "axes");
  if (!axesj.is_array() || axesj.items().size() != 4)
    throw TableError("policy table: 'axes' must be an array of 4 axes");
  std::array<Axis, 4> axes;
  std::size_t total = 1;
  for (std::size_t a = 0; a < 4; ++a) {
    const io::Json& aj = axesj.items()[a];
    if (!aj.is_object()) throw TableError("policy table: axis record must be an object");
    axes[a].name = need(aj, "name").as_string();
    axes[a].lo = need_double(aj, "lo");
    axes[a].hi = need_double(aj, "hi");
    axes[a].n = need_int(aj, "n");
    const io::Json& logj = need(aj, "log10");
    if (!logj.is_bool()) throw TableError("policy table: axis 'log10' must be a bool");
    axes[a].log10_spaced = logj.as_bool();
    if (axes[a].n < 2) throw TableError("policy table: axis '" + axes[a].name + "' needs n >= 2");
    total *= static_cast<std::size_t>(axes[a].n);
  }

  std::vector<double> d_opt(total), utility(total);
  try {
    exp::decode_range(need(j, "d_opt"), d_opt.data(), total);
    exp::decode_range(need(j, "utility"), utility.data(), total);
  } catch (const exp::CodecError& e) {
    throw TableError(std::string("policy table: ") + e.what());
  }

  PolicyTable t(std::move(axes), std::move(model), min_distance, opt, std::move(d_opt),
                std::move(utility));
  const std::string want = need(j, "checksum").as_string();
  const std::string have = t.checksum();
  if (want != have)
    throw TableError("policy table: checksum mismatch (file says " + want + ", content hashes to " +
                     have + ") — the table was tampered with or corrupted");
  return t;
}

void PolicyTable::save_atomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "wb");
  if (fp == nullptr) throw TableError("policy table: cannot open " + tmp + " for writing");
  const std::string text = to_json().dump(1);
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), fp) == text.size() && std::fflush(fp) == 0;
#ifndef _WIN32
  // fsync before rename: the rename must never land ahead of the data.
  const bool synced = wrote && ::fsync(::fileno(fp)) == 0;
#else
  const bool synced = wrote;
#endif
  std::fclose(fp);
  if (!synced) {
    std::remove(tmp.c_str());
    throw TableError("policy table: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw TableError("policy table: cannot rename " + tmp + " -> " + path);
  }
}

PolicyTable PolicyTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TableError("policy table: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto j = io::Json::parse(buf.str(), &error);
  if (!j)
    throw TableError("policy table: " + path + " is truncated or not valid JSON (" + error + ")");
  try {
    return from_json(*j);
  } catch (const TableError& e) {
    throw TableError(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace skyferry::policy
