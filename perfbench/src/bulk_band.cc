// bulk_band: a large emp watched by two band-join rules
// (emp.sal >= dept.lo and emp.sal < dept.hi) and two equijoin rules over a
// dept of a few hundred rows. Each round runs a handful of set-oriented
// commands that change thousands of emp rows in one transition; the rules'
// set-oriented actions append every new (emp, dept) match to sink, which the
// benchmark reads back and empties after each command.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

namespace {

constexpr int kEmp = 10000;        // base emp rows (eid 1..kEmp, never deleted)
constexpr int kDepts = 200;        // dept rows: below the 256-row virtual cut
constexpr int kEmpDnos = 250;      // emp.dno range: 1/5 join no dept
constexpr int kSalRange = 100000;  // emp.sal starts uniform in [0, kSalRange)
constexpr int kBandMin = 200;      // dept band widths
constexpr int kBandMax = 1500;
constexpr int kReplaceRows = 3000;  // rows one bulk replace changes
constexpr int kAppendRows = 2000;   // rows one bulk append adds (and delete removes)
constexpr int64_t kCopyBase = 1000000;  // eids of appended copies
constexpr int kLoadFrame = 500;

struct Emp {
  int64_t sal = 0;
  int64_t dno = 0;
};

struct Dept {
  int64_t lo = 0, hi = 0, lo2 = 0, hi2 = 0;
};

class BulkBand : public Workload {
 public:
  explicit BulkBand(uint64_t seed) : rng_(seed ^ 0x62616e64ULL) {}

  std::vector<Op> SetupOps() override {
    std::vector<Op> ops;
    auto add = [&](std::string text, const char* tag) {
      ops.push_back(Op{std::move(text), OpClass::kAdmin, tag});
    };
    add("create emp (eid = int, sal = int, dno = int)", "ddl");
    add("create dept (dno = int, lo = int, hi = int, lo2 = int, hi2 = int)",
        "ddl");
    add("create sink (r = int, eid = int, dno = int)", "ddl");
    std::string frame;
    depts_.resize(kDepts + 1);
    // Bands start at evenly spaced points (band 2 in a seeded order), so
    // every seed covers the sal range equally densely.
    std::vector<int64_t> slots(kDepts);
    for (int d = 0; d < kDepts; ++d) slots[d] = d;
    for (int d = kDepts - 1; d > 0; --d) {
      std::swap(slots[d], slots[rng_.Range(0, d + 1)]);
    }
    const int64_t spacing = (kSalRange - kBandMax) / kDepts;
    for (int d = 1; d <= kDepts; ++d) {
      Dept& dept = depts_[d];
      dept.lo = (d - 1) * spacing + rng_.Range(0, spacing);
      dept.hi = dept.lo + rng_.Range(kBandMin, kBandMax + 1);
      dept.lo2 = slots[d - 1] * spacing + rng_.Range(0, spacing);
      dept.hi2 = dept.lo2 + rng_.Range(kBandMin, kBandMax + 1);
      frame += "append dept (dno = " + std::to_string(d) +
               ", lo = " + std::to_string(dept.lo) +
               ", hi = " + std::to_string(dept.hi) +
               ", lo2 = " + std::to_string(dept.lo2) +
               ", hi2 = " + std::to_string(dept.hi2) + ")\n";
    }
    add(frame, "load");
    frame.clear();
    for (int e = 1; e <= kEmp; ++e) {
      const Emp emp{rng_.Range(0, kSalRange), rng_.Range(1, kEmpDnos + 1)};
      emps_[e] = emp;
      frame += "append emp (eid = " + std::to_string(e) +
               ", sal = " + std::to_string(emp.sal) +
               ", dno = " + std::to_string(emp.dno) + ")\n";
      if (e % kLoadFrame == 0) {
        add(frame, "load");
        frame.clear();
      }
    }
    const char* action =
        " then append to sink (r = %d, eid = emp.eid, dno = dept.dno)";
    auto rule = [&](int r, const std::string& cond) {
      char tail[96];
      std::snprintf(tail, sizeof(tail), action, r);
      add("define rule band_" + std::to_string(r) + " if " + cond + tail,
          "rule");
    };
    rule(1, "emp.sal >= dept.lo and emp.sal < dept.hi");
    rule(2, "emp.sal >= dept.lo2 and emp.sal < dept.hi2");
    rule(3, "emp.dno = dept.dno");
    rule(4, "emp.dno = dept.dno and emp.sal >= dept.lo");
    // Activation primed every current match; the next transition fires them.
    for (const auto& [eid, emp] : emps_) Fire(eid, emp);
    add("delete sink", "flush");
    return ops;
  }

  std::vector<Op> SettleOps() override {
    return {Op{"retrieve (sink.r, sink.eid, sink.dno)", OpClass::kRead,
               "sink"},
            Op{"delete sink", OpClass::kAdmin, "clear"}};
  }

  size_t RoundSize() const override { return 8; }

  Op Next() override {
    const size_t step = step_++ % RoundSize();
    switch (step) {
      case 0: {
        const int64_t first = rng_.Range(1, kEmp - kReplaceRows + 2);
        int64_t delta = rng_.Range(-1500, 1500);
        if (delta == 0) delta = 1;
        return Op{"replace emp (sal = emp.sal + " + std::to_string(delta) +
                      ") where emp.eid >= " + std::to_string(first) +
                      " and emp.eid < " + std::to_string(first + kReplaceRows),
                  OpClass::kWrite, "replace"};
      }
      case 3: {
        const int64_t first = rng_.Range(1, kEmp - kAppendRows + 2);
        const int64_t shift = rng_.Range(-3000, 3000);
        return Op{"append emp (eid = emp.eid + " + std::to_string(kCopyBase) +
                      ", sal = emp.sal + " + std::to_string(shift) +
                      ", dno = emp.dno) where emp.eid >= " +
                      std::to_string(first) + " and emp.eid < " +
                      std::to_string(first + kAppendRows),
                  OpClass::kWrite, "append"};
      }
      case 6:
        return Op{"delete emp where emp.eid >= " + std::to_string(kCopyBase),
                  OpClass::kWrite, "delete"};
      case 7:
        return Op{"retrieve (n = count(emp), s = sum(emp.sal))",
                  OpClass::kRead, "agg"};
      default:
        // Steps 1-2 and 4-5: read back what the rules appended, then empty
        // the sink.
        return step % 3 == 1 ? SettleOps()[0] : SettleOps()[1];
    }
  }

  std::vector<Op> FinalOps() override {
    return {Op{"retrieve (emp.eid, emp.sal, emp.dno)", OpClass::kRead,
               "final_emp"}};
  }

  std::string Check(const Op& op, const std::string& payload) override {
    const std::string& tag = op.tag;
    if (tag == "ddl" || tag == "rule") {
      return payload == "ok\n" ? "" : tag + ": unexpected reply " + payload;
    }
    if (tag == "load") {
      const size_t lines = std::count(op.text.begin(), op.text.end(), '\n');
      std::string want;
      for (size_t i = 0; i < lines; ++i) want += "(1 tuples affected)\n";
      return payload == want ? "" : "load: unexpected reply";
    }
    if (tag == "flush") return ExpectAffected(payload, 0, "flush");
    if (tag == "clear") {
      std::string err = ExpectAffected(payload, sink_.size(), "clear sink");
      sink_.clear();
      return err;
    }
    if (tag == "replace" || tag == "append") {
      const int64_t delta = Number(op.text, "emp.sal + ");
      const int64_t first = Number(op.text, "emp.eid >= ");
      const int64_t end = Number(op.text, "emp.eid < ");
      size_t changed = 0;
      for (int64_t eid = first; eid < end; ++eid) {
        auto it = emps_.find(eid);
        if (it == emps_.end()) continue;
        ++changed;
        Emp emp = it->second;
        emp.sal += delta;
        const int64_t target = tag == "replace" ? eid : eid + kCopyBase;
        emps_[target] = emp;
        Fire(target, emp);
      }
      return ExpectAffected(payload, changed, tag.c_str());
    }
    if (tag == "delete") {
      size_t removed = 0;
      for (auto it = emps_.begin(); it != emps_.end();) {
        if (it->first >= kCopyBase) {
          it = emps_.erase(it);
          ++removed;
        } else {
          ++it;
        }
      }
      return ExpectAffected(payload, removed, "delete");
    }
    std::vector<std::string> rows;
    std::string error;
    if (!ParseTable(payload, &rows, &error)) return tag + ": " + error;
    std::vector<std::string> want;
    if (tag == "sink") {
      want = sink_;
    } else if (tag == "agg") {
      int64_t sum = 0;
      for (const auto& [eid, emp] : emps_) sum += emp.sal;
      want.push_back(Row({static_cast<int64_t>(emps_.size()), sum}));
    } else if (tag == "final_emp") {
      for (const auto& [eid, emp] : emps_) {
        want.push_back(Row({eid, emp.sal, emp.dno}));
      }
    } else {
      return "unknown op tag " + tag;
    }
    return CompareRows(std::move(rows), std::move(want), tag.c_str());
  }

 private:
  static int64_t Number(const std::string& text, const std::string& after) {
    return std::stoll(text.substr(text.find(after) + after.size()));
  }

  /// Appends to the expected sink every (emp, dept) match of each rule,
  /// counted by brute force over dept.
  void Fire(int64_t eid, const Emp& emp) {
    for (int d = 1; d <= kDepts; ++d) {
      const Dept& dept = depts_[d];
      if (emp.sal >= dept.lo && emp.sal < dept.hi) {
        sink_.push_back(Row({1, eid, d}));
      }
      if (emp.sal >= dept.lo2 && emp.sal < dept.hi2) {
        sink_.push_back(Row({2, eid, d}));
      }
      if (emp.dno == d) {
        sink_.push_back(Row({3, eid, d}));
        if (emp.sal >= dept.lo) sink_.push_back(Row({4, eid, d}));
      }
    }
  }

  Rng rng_;
  std::vector<Dept> depts_;
  std::unordered_map<int64_t, Emp> emps_;
  std::vector<std::string> sink_;  // rows the rules must have appended
  size_t step_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBulkBand(uint64_t seed) {
  return std::make_unique<BulkBand>(seed);
}

}  // namespace perfbench
