// The benchmark's workloads and the models that check them.
//
// A workload is a deterministic command stream (seeded) plus a model of the
// database the benchmark keeps itself. The driver asks for the next command,
// sends it, and hands the reply back to Check(), which compares it with what
// the model predicts and then applies the command's effect to the model. The
// model never reads the engine's state except through replies, so a wrong
// engine answer shows up as a mismatch, not as a new expectation.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// How an operation counts in the end-to-end metrics.
enum class OpClass : uint8_t {
  kWrite,  // a data mutation: write latency sample, rows to rows_per_s
  kRead,   // a retrieve of the workload's mix: read latency sample
  kAdmin,  // clean-up (emptying a sink after it was checked): counted as a
           // command, not sampled for latency
};

struct Op {
  std::string text;
  OpClass cls = OpClass::kAdmin;
  /// What the command is, for checks and planted faults ("replace",
  /// "range", "drain", ...).
  std::string tag;
};

/// Deterministic generator: splitmix64, so a seed gives the same stream on
/// every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }

 private:
  uint64_t state_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Schema, rows, indexes, rule definitions and the first transition that
  /// fires the instantiations rule activation primed. Timed as setup_s.
  virtual std::vector<Op> SetupOps() = 0;
  /// Checks of the primed firings and the clean-up after them (untimed).
  virtual std::vector<Op> SettleOps() = 0;
  /// Commands per round of the timed phase; a run executes whole rounds.
  virtual size_t RoundSize() const = 0;
  /// The next command of the timed phase, generated from the model's
  /// current state.
  virtual Op Next() = 0;
  /// Read-only checks of the final state (untimed).
  virtual std::vector<Op> FinalOps() = 0;
  /// Compares a successful reply with the model and applies the command to
  /// the model. Returns "" on a match, else what differed.
  virtual std::string Check(const Op& op, const std::string& payload) = 0;
};

std::unique_ptr<Workload> MakeRuleOltp(uint64_t seed);
std::unique_ptr<Workload> MakeBulkBand(uint64_t seed);
std::unique_ptr<Workload> MakeAlertFanout(uint64_t seed);

// --- Reply parsing shared by the models -----------------------------------

/// Parses a rendered retrieve result ("| a | b |" table plus "(N rows)")
/// into rows of comma-joined cells. Returns false (and sets *error) when the
/// payload is not one well-formed table.
bool ParseTable(const std::string& payload, std::vector<std::string>* rows,
                std::string* error);

/// Parses "(N tuples affected)" or "ok" (zero rows).
bool ParseAffected(const std::string& payload, size_t* affected,
                   std::string* error);

/// "" when the sorted multisets are equal; else a short description of the
/// first difference.
std::string CompareRows(std::vector<std::string> got,
                        std::vector<std::string> want, const char* what);

/// Expects an affected count; "" on a match.
std::string ExpectAffected(const std::string& payload, size_t want,
                           const char* what);

std::string Row(std::initializer_list<int64_t> cells);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
