// rule_oltp: the paper's §6 emp/dept/job schema, scaled up, under a few
// hundred rules of each of the three paper rule types (emp only; emp joined
// with dept; emp joined with dept and job). A closed-loop mix of single-row
// commands: key replaces of sal, appends, deletes, range retrieves and
// aggregate retrieves. Every write whose new tuple satisfies a rule's
// condition makes that rule append one row to log.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

namespace {

constexpr int kEmp = 5000;          // emp rows, kept constant by the mix
constexpr int kDepts = 50;          // dept rows (dno 1..kDepts)
constexpr int kJobs = 20;           // job rows (jno 1..kJobs)
constexpr int kEmpDnos = 60;        // emp.dno range: 1/6 join no dept
constexpr int kEmpJnos = 25;        // emp.jno range: 1/5 join no job
constexpr int kRulesPerType = 200;  // rules of each of the three types
constexpr int kWidth = 250;         // sal interval of one rule
constexpr int kSalBase = 10000;
constexpr int kSalLo = kSalBase - 2 * kWidth;
constexpr int kSalHi = kSalBase + (kRulesPerType + 2) * kWidth;
constexpr int kRangeWidth = 300;    // range retrieves return ~30 rows
constexpr int kLoadFrame = 250;     // appends per set-up request

struct Emp {
  int64_t age = 0;
  int64_t sal = 0;
  int64_t dno = 0;
  int64_t jno = 0;
};

class RuleOltp : public Workload {
 public:
  explicit RuleOltp(uint64_t seed) : rng_(seed ^ 0x6f6c7470ULL) {
    for (int t = 0; t < 3; ++t) offset_[t] = rng_.Range(0, kWidth);
  }

  std::vector<Op> SetupOps() override {
    std::vector<Op> ops;
    auto add = [&](std::string text, const char* tag) {
      ops.push_back(Op{std::move(text), OpClass::kAdmin, tag});
    };
    add("create emp (eid = int, name = string, age = int, sal = int, "
        "dno = int, jno = int)",
        "ddl");
    add("create dept (dno = int, name = string, building = string)", "ddl");
    add("create job (jno = int, title = string, paygrade = int, "
        "description = string)",
        "ddl");
    add("create log (r = int, eid = int, sal = int)", "ddl");
    std::string frame;
    for (int d = 1; d <= kDepts; ++d) {
      frame += "append dept (dno = " + std::to_string(d) + ", name = \"d" +
               std::to_string(d) + "\", building = \"B" +
               std::to_string(d % 7) + "\")\n";
    }
    for (int j = 1; j <= kJobs; ++j) {
      frame += "append job (jno = " + std::to_string(j) +
               ", title = \"t" + std::to_string(j) + "\", paygrade = " +
               std::to_string(j % 9 + 1) + ", description = \"desc\")\n";
    }
    add(frame, "load");
    frame.clear();
    for (int e = 1; e <= kEmp; ++e) {
      const int64_t eid = next_eid_++;
      const Emp emp = NewEmp();
      AddEmp(eid, emp);
      frame += AppendText(eid, emp);
      if (e % kLoadFrame == 0) {
        add(frame, "load");
        frame.clear();
      }
    }
    if (!frame.empty()) add(frame, "load");
    add("define index on emp (eid)", "ddl");
    for (int t = 0; t < 3; ++t) {
      for (int i = 0; i < kRulesPerType; ++i) add(RuleText(t, i), "rule");
    }
    // The first transition after activation fires every instantiation the
    // priming queries put into the P-nodes: one per (rule, emp) match.
    for (const auto& [eid, emp] : emps_) Fire(eid, emp);
    add("delete log", "flush");
    return ops;
  }

  std::vector<Op> SettleOps() override {
    return {Op{"retrieve (log.r, log.eid, log.sal)", OpClass::kRead, "log"},
            Op{"delete log", OpClass::kAdmin, "clear"}};
  }

  size_t RoundSize() const override { return 20; }

  Op Next() override {
    if (round_.empty()) {
      // 10 replaces, 2 appends, 2 deletes, 4 range and 2 aggregate
      // retrieves, in a seeded order.
      round_ = {'r', 'r', 'r', 'r', 'r', 'r', 'r', 'r', 'r', 'r',
                'a', 'a', 'd', 'd', 'q', 'q', 'q', 'q', 'g', 'g'};
      for (size_t i = round_.size() - 1; i > 0; --i) {
        std::swap(round_[i], round_[rng_.Range(0, static_cast<int64_t>(i) + 1)]);
      }
    }
    const char kind = round_.back();
    round_.pop_back();
    switch (kind) {
      case 'r': {
        const int64_t eid = PickEid();
        const int64_t sal = rng_.Range(kSalLo, kSalHi);
        return Op{"replace emp (sal = " + std::to_string(sal) +
                      ") where emp.eid = " + std::to_string(eid),
                  OpClass::kWrite, "replace"};
      }
      case 'a':
        pending_append_ = next_eid_++;
        pending_emp_ = NewEmp();
        return Op{AppendText(pending_append_, pending_emp_), OpClass::kWrite,
                  "append"};
      case 'd':
        return Op{"delete emp where emp.eid = " + std::to_string(PickEid()),
                  OpClass::kWrite, "delete"};
      case 'q': {
        const int64_t lo = rng_.Range(kSalLo, kSalHi - kRangeWidth);
        return Op{"retrieve (emp.eid, emp.sal) where emp.sal >= " +
                      std::to_string(lo) + " and emp.sal < " +
                      std::to_string(lo + kRangeWidth),
                  OpClass::kRead, "range"};
      }
      default: {
        // A dno some emp has, so the aggregate is never over zero rows.
        int64_t dno = rng_.Range(1, kEmpDnos + 1);
        while (CountDno(dno) == 0) dno = dno % kEmpDnos + 1;
        return Op{"retrieve (n = count(emp), s = sum(emp.sal)) where "
                  "emp.dno = " + std::to_string(dno),
                  OpClass::kRead, "agg"};
      }
    }
  }

  std::vector<Op> FinalOps() override {
    return {Op{"retrieve (emp.eid, emp.age, emp.sal, emp.dno, emp.jno)",
               OpClass::kRead, "final_emp"},
            Op{"retrieve (log.r, log.eid, log.sal)", OpClass::kRead,
               "final_log"}};
  }

  std::string Check(const Op& op, const std::string& payload) override {
    const std::string& tag = op.tag;
    if (tag == "ddl" || tag == "rule") {
      return payload == "ok\n" ? "" : tag + ": unexpected reply " + payload;
    }
    if (tag == "load") {
      // One "(1 tuples affected)" line per append in the frame.
      const size_t lines = std::count(op.text.begin(), op.text.end(), '\n');
      std::string want;
      for (size_t i = 0; i < lines; ++i) want += "(1 tuples affected)\n";
      return payload == want ? "" : "load: unexpected reply";
    }
    if (tag == "flush") return ExpectAffected(payload, 0, "flush");
    if (tag == "clear") {
      std::string err = ExpectAffected(payload, log_.size(), "clear log");
      log_.clear();
      return err;
    }
    if (tag == "replace" || tag == "delete") {
      const int64_t eid = std::stoll(op.text.substr(op.text.rfind(' ') + 1));
      std::string err = ExpectAffected(payload, 1, tag.c_str());
      if (tag == "replace") {
        Emp& emp = emps_.at(eid);
        emp.sal = std::stoll(op.text.substr(op.text.find("sal = ") + 6));
        Fire(eid, emp);
      } else {
        RemoveEid(eid);
      }
      return err;
    }
    if (tag == "append") {
      AddEmp(pending_append_, pending_emp_);
      Fire(pending_append_, pending_emp_);
      return ExpectAffected(payload, 1, "append");
    }
    std::vector<std::string> rows;
    std::string error;
    if (!ParseTable(payload, &rows, &error)) return tag + ": " + error;
    std::vector<std::string> want;
    if (tag == "range") {
      const size_t ge = op.text.find(">= ") + 3;
      const int64_t lo = std::stoll(op.text.substr(ge));
      const int64_t hi = std::stoll(op.text.substr(op.text.rfind(' ') + 1));
      for (const auto& [eid, emp] : emps_) {
        if (emp.sal >= lo && emp.sal < hi) want.push_back(Row({eid, emp.sal}));
      }
    } else if (tag == "agg") {
      const int64_t dno = std::stoll(op.text.substr(op.text.rfind(' ') + 1));
      int64_t n = 0, sum = 0;
      for (const auto& [eid, emp] : emps_) {
        if (emp.dno == dno) {
          ++n;
          sum += emp.sal;
        }
      }
      want.push_back(Row({n, sum}));
    } else if (tag == "final_emp") {
      for (const auto& [eid, emp] : emps_) {
        want.push_back(Row({eid, emp.age, emp.sal, emp.dno, emp.jno}));
      }
    } else if (tag == "log" || tag == "final_log") {
      want = log_;
    } else {
      return "unknown op tag " + tag;
    }
    return CompareRows(std::move(rows), std::move(want), tag.c_str());
  }

 private:
  std::string RuleText(int t, int i) const {
    const int64_t lo = kSalBase + offset_[t] + static_cast<int64_t>(i) * kWidth;
    std::string cond = std::to_string(lo) + " < emp.sal and emp.sal <= " +
                       std::to_string(lo + kWidth);
    if (t >= 1) cond += " and emp.dno = dept.dno";
    if (t >= 2) cond += " and emp.jno = job.jno";
    return "define rule r" + std::to_string(t + 1) + "_" + std::to_string(i) +
           " if " + cond + " then append to log (r = " +
           std::to_string(RuleId(t, i)) + ", eid = emp.eid, sal = emp.sal)";
  }

  static int64_t RuleId(int t, int i) { return (t + 1) * 1000 + i; }

  /// Appends to the expected log one row per rule condition `emp` meets.
  void Fire(int64_t eid, const Emp& emp) {
    for (int t = 0; t < 3; ++t) {
      if (t >= 1 && emp.dno > kDepts) continue;
      if (t >= 2 && emp.jno > kJobs) continue;
      const int64_t above = emp.sal - (kSalBase + offset_[t]) - 1;
      if (above < 0) continue;
      const int64_t i = above / kWidth;
      if (i >= kRulesPerType) continue;
      log_.push_back(Row({RuleId(t, static_cast<int>(i)), eid, emp.sal}));
    }
  }

  Emp NewEmp() {
    return Emp{rng_.Range(20, 65), rng_.Range(kSalLo, kSalHi),
               rng_.Range(1, kEmpDnos + 1), rng_.Range(1, kEmpJnos + 1)};
  }

  static std::string AppendText(int64_t eid, const Emp& emp) {
    return "append emp (eid = " + std::to_string(eid) + ", name = \"e" +
           std::to_string(eid) + "\", age = " + std::to_string(emp.age) +
           ", sal = " + std::to_string(emp.sal) + ", dno = " +
           std::to_string(emp.dno) + ", jno = " + std::to_string(emp.jno) +
           ")\n";
  }
  void AddEmp(int64_t eid, const Emp& emp) {
    emps_.emplace(eid, emp);
    slot_[eid] = live_.size();
    live_.push_back(eid);
  }

  void RemoveEid(int64_t eid) {
    emps_.erase(eid);
    const size_t slot = slot_.at(eid);
    slot_[live_.back()] = slot;
    live_[slot] = live_.back();
    live_.pop_back();
    slot_.erase(eid);
  }

  int64_t PickEid() {
    return live_[static_cast<size_t>(
        rng_.Range(0, static_cast<int64_t>(live_.size())))];
  }

  int64_t CountDno(int64_t dno) const {
    int64_t n = 0;
    for (const auto& [eid, emp] : emps_) n += emp.dno == dno;
    return n;
  }

  Rng rng_;
  int64_t offset_[3] = {0, 0, 0};
  int64_t next_eid_ = 1;
  std::unordered_map<int64_t, Emp> emps_;
  std::unordered_map<int64_t, size_t> slot_;
  std::vector<int64_t> live_;
  std::vector<std::string> log_;  // rows the rules must have appended
  std::vector<char> round_;
  int64_t pending_append_ = 0;
  Emp pending_emp_;
};

}  // namespace

std::unique_ptr<Workload> MakeRuleOltp(uint64_t seed) {
  return std::make_unique<RuleOltp>(seed);
}

}  // namespace perfbench
