// alert_fanout: a small keyed quote relation under two thousand overlapping
// single-variable range rules (half also keyed on the symbol, mixed
// priorities) whose actions append alerts. A stream of single-row quote
// replaces, each matching tens of rules; the client drains the alerts every
// kUpdatesPerDrain updates.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

namespace {

constexpr int kSymbols = 64;
constexpr int kPxRange = 10000;
constexpr int kRules = 2000;
constexpr int kWidthMin = 100;  // rule px interval widths: ~25 unkeyed
constexpr int kWidthMax = 400;  // rules contain a given px
constexpr int kUpdatesPerDrain = 16;

struct AlertRule {
  int64_t lo = 0, hi = 0;
  int64_t sym = -1;  // -1: any symbol
};

class AlertFanout : public Workload {
 public:
  explicit AlertFanout(uint64_t seed) : rng_(seed ^ 0x616c7274ULL) {}

  std::vector<Op> SetupOps() override {
    std::vector<Op> ops;
    auto add = [&](std::string text, const char* tag) {
      ops.push_back(Op{std::move(text), OpClass::kAdmin, tag});
    };
    add("create quote (sym = int, px = int)", "ddl");
    add("create alert (r = int, sym = int, px = int)", "ddl");
    std::string frame;
    px_.resize(kSymbols);
    for (int s = 0; s < kSymbols; ++s) {
      px_[s] = rng_.Range(0, kPxRange);
      frame += "append quote (sym = " + std::to_string(s) +
               ", px = " + std::to_string(px_[s]) + ")\n";
    }
    add(frame, "load");
    add("define index on quote (sym)", "ddl");
    rules_.resize(kRules);
    for (int i = 0; i < kRules; ++i) {
      AlertRule& rule = rules_[i];
      // Rule i is centred on the i-th of kRules evenly spaced points, so
      // every seed covers the px range equally densely.
      const int64_t width = rng_.Range(kWidthMin, kWidthMax + 1);
      const int64_t centre = (2 * static_cast<int64_t>(i) + 1) * kPxRange /
                             (2 * kRules);
      rule.lo = std::max<int64_t>(0, centre - width / 2);
      rule.hi = std::min<int64_t>(kPxRange, rule.lo + width);
      std::string cond = "quote.px >= " + std::to_string(rule.lo) +
                         " and quote.px < " + std::to_string(rule.hi);
      if (i % 2 == 1) {
        rule.sym = rng_.Range(0, kSymbols);
        cond += " and quote.sym = " + std::to_string(rule.sym);
      }
      add("define rule a" + std::to_string(i) + " priority " +
              std::to_string(rng_.Range(1, 6)) + " if " + cond +
              " then append to alert (r = " + std::to_string(i) +
              ", sym = quote.sym, px = quote.px)",
          "rule");
    }
    for (int s = 0; s < kSymbols; ++s) Fire(s, px_[s]);
    add("delete alert", "flush");
    return ops;
  }

  std::vector<Op> SettleOps() override {
    return {Op{"retrieve (alert.r, alert.sym, alert.px)", OpClass::kRead,
               "drain"},
            Op{"delete alert", OpClass::kAdmin, "clear"}};
  }

  size_t RoundSize() const override { return kUpdatesPerDrain + 2; }

  Op Next() override {
    const size_t step = step_++ % RoundSize();
    if (step < kUpdatesPerDrain) {
      const int64_t sym = rng_.Range(0, kSymbols);
      const int64_t px = rng_.Range(0, kPxRange);
      return Op{"replace quote (px = " + std::to_string(px) +
                    ") where quote.sym = " + std::to_string(sym),
                OpClass::kWrite, "update"};
    }
    return SettleOps()[step - kUpdatesPerDrain];
  }

  std::vector<Op> FinalOps() override {
    return {Op{"retrieve (quote.sym, quote.px)", OpClass::kRead, "final"}};
  }

  std::string Check(const Op& op, const std::string& payload) override {
    const std::string& tag = op.tag;
    if (tag == "ddl" || tag == "rule") {
      return payload == "ok\n" ? "" : tag + ": unexpected reply " + payload;
    }
    if (tag == "load") {
      std::string want;
      for (int s = 0; s < kSymbols; ++s) want += "(1 tuples affected)\n";
      return payload == want ? "" : "load: unexpected reply";
    }
    if (tag == "flush") return ExpectAffected(payload, 0, "flush");
    if (tag == "clear") {
      std::string err = ExpectAffected(payload, alerts_.size(), "clear");
      alerts_.clear();
      return err;
    }
    if (tag == "update") {
      const int64_t px = std::stoll(op.text.substr(op.text.find("px = ") + 5));
      const int64_t sym = std::stoll(op.text.substr(op.text.rfind(' ') + 1));
      px_[sym] = px;
      Fire(sym, px);
      return ExpectAffected(payload, 1, "update");
    }
    std::vector<std::string> rows;
    std::string error;
    if (!ParseTable(payload, &rows, &error)) return tag + ": " + error;
    std::vector<std::string> want;
    if (tag == "drain") {
      // Alerts per rule first (the brute-force containment count), then the
      // exact (rule, sym, px) multiset.
      std::map<std::string, int> got_per_rule, want_per_rule;
      for (const std::string& row : rows) ++got_per_rule[row.substr(0, row.find(','))];
      for (const std::string& row : alerts_) ++want_per_rule[row.substr(0, row.find(','))];
      if (got_per_rule != want_per_rule) {
        for (const auto& [rule, n] : want_per_rule) {
          if (got_per_rule[rule] != n) {
            return "drain: rule a" + rule + " raised " +
                   std::to_string(got_per_rule[rule]) + " alerts, model has " +
                   std::to_string(n);
          }
        }
        return "drain: alerts from rules the model never fired";
      }
      want = alerts_;
    } else if (tag == "final") {
      for (int s = 0; s < kSymbols; ++s) want.push_back(Row({s, px_[s]}));
    } else {
      return "unknown op tag " + tag;
    }
    return CompareRows(std::move(rows), std::move(want), tag.c_str());
  }

 private:
  /// Brute-force interval containment: every rule whose range holds px (and
  /// whose symbol, if any, is sym) raises one alert.
  void Fire(int64_t sym, int64_t px) {
    for (int i = 0; i < kRules; ++i) {
      const AlertRule& rule = rules_[i];
      if (px >= rule.lo && px < rule.hi && (rule.sym < 0 || rule.sym == sym)) {
        alerts_.push_back(Row({i, sym, px}));
      }
    }
  }

  Rng rng_;
  std::vector<int64_t> px_;
  std::vector<AlertRule> rules_;
  std::vector<std::string> alerts_;  // raised since the last drain
  size_t step_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAlertFanout(uint64_t seed) {
  return std::make_unique<AlertFanout>(seed);
}

}  // namespace perfbench
