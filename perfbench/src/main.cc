// perfbench: the repository benchmark.
//
//   perfbench --workload <rule_oltp|bulk_band|alert_fanout> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --self-test
//
// Untraced (--trace 0): starts ariel-server in process on a loopback port,
// drives the workload over one closed-loop client connection (two threads in
// all: the server loop and the client), checks every reply against the
// workload's model, and prints the end-to-end metrics.
//
// Traced (--trace 1): the same server run, then the recorded command stream
// replayed into a fresh Database through the layers Database::ExecuteCommand
// calls, with a span around each call. Prints the per-layer metrics, writes
// them and the spans under --out, and requires the replay's final
// DebugDumpState() to be byte-identical to the server's.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ariel/database.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/metrics.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: set-up time counts from
// the process's start, not from the first line of main.
const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - kProcessStart)
      .count();
}

// --- Planted faults (self-test) -------------------------------------------

enum class Fault : uint8_t {
  kNone,
  kDropRow,       // remove one row from a retrieve reply (footer kept consistent)
  kAlterCell,     // change one digit of a retrieve reply
  kBumpAffected,  // report one more affected tuple than the engine did
  kDiverge,       // the replay runs the last op with the tag once more
};

struct Plant {
  Fault fault = Fault::kNone;
  std::string tag;  // the first op with this tag gets the fault
};

std::string Tamper(Fault fault, std::string payload) {
  switch (fault) {
    case Fault::kDropRow: {
      // "...| last row |\n(N rows)\n" -> "...(N-1 rows)\n"
      const size_t footer = payload.rfind("\n(", payload.size() - 2);
      const size_t last_row = payload.rfind('\n', footer - 1);
      const size_t n = std::stoul(payload.substr(footer + 2));
      if (n == 0) return payload;
      return payload.substr(0, last_row + 1) + "(" + std::to_string(n - 1) +
             " rows)\n";
    }
    case Fault::kAlterCell: {
      const size_t footer = payload.rfind("\n(", payload.size() - 2);
      for (size_t i = footer; i-- > 0;) {
        if (payload[i] >= '0' && payload[i] <= '9') {
          payload[i] = payload[i] == '9' ? '8' : static_cast<char>(payload[i] + 1);
          break;
        }
        if (payload[i] == '\n' && i < footer) break;  // only the last row
      }
      return payload;
    }
    case Fault::kBumpAffected: {
      size_t n = 0;
      std::string error;
      if (!ParseAffected(payload, &n, &error)) return payload;
      return "(" + std::to_string(n + 1) + " tuples affected)\n";
    }
    default:
      return payload;
  }
}

// --- The server run ----------------------------------------------------------

enum class Phase : uint8_t { kSetup, kSettle, kTimed, kFinal };

struct Recorded {
  std::string text;
  Phase phase = Phase::kSetup;
  OpClass cls = OpClass::kAdmin;
  std::string tag;
  char kind = 0;
  size_t reply_hash = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of `v` (linear between closest ranks).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One window of the timed phase: whole rounds lasting at least
/// kWindowSeconds together.
struct WindowStats {
  double cmds_per_s;
  double rows_per_s;
  double write_p50_ms;  // median write latency within the window
};

constexpr double kWindowSeconds = 0.5;

struct ServerRun {
  std::string error;  // first failed check; empty when every check passed
  size_t attempted = 0;
  size_t failed = 0;
  double setup_s = 0;
  double timed_s = 0;
  size_t rows_changed = 0;
  std::vector<double> write_ms;
  size_t reads = 0;
  std::vector<WindowStats> windows;
  double rtt_sum_us = 0;
  double server_cmd_mean_us = 0;
  double peak_rss_mb = 0;
  std::vector<Recorded> stream;
  std::string dump;
};

/// Cuts the timed phase into windows at round boundaries.
class Window {
 public:
  Window(const ServerRun& run, Clock::time_point now) { Open(run, now); }

  /// Called after each round: closes the window once it is long enough.
  void Close(ServerRun& run, Clock::time_point now) {
    const double s = Seconds(start_, now);
    if (s < kWindowSeconds) return;
    run.windows.push_back(WindowStats{
        static_cast<double>(run.attempted - ops_) / s,
        static_cast<double>(run.rows_changed - rows_) / s,
        Median({run.write_ms.begin() + writes_, run.write_ms.end()})});
    Open(run, now);
  }

 private:
  void Open(const ServerRun& run, Clock::time_point now) {
    start_ = now;
    ops_ = run.attempted;
    rows_ = run.rows_changed;
    writes_ = run.write_ms.size();
  }

  Clock::time_point start_;
  size_t ops_ = 0, rows_ = 0, writes_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "rule_oltp") return MakeRuleOltp(seed);
  if (name == "bulk_band") return MakeBulkBand(seed);
  if (name == "alert_fanout") return MakeAlertFanout(seed);
  return nullptr;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

ariel::HistogramData HistogramNamed(const std::string& name) {
  for (auto& [n, data] : ariel::Metrics().registry.Histograms()) {
    if (n == name) return data;
  }
  return {};
}

/// Runs the workload through ariel-server. `rounds` > 0 runs exactly that
/// many rounds instead of `seconds` (the self-test).
ServerRun RunThroughServer(Workload& workload, double seconds, size_t rounds,
                           bool keep_dump, const Plant& plant) {
  ServerRun run;
  ariel::Metrics().firing_trace.Clear();
  auto db = std::make_unique<ariel::Database>();
  ariel::server::ServerOptions options;
  options.port = 0;
  ariel::server::ArielServer server(db.get(), options);
  if (ariel::Status s = server.Start(); !s.ok()) {
    run.error = "server start failed: " + s.ToString();
    return run;
  }
  ariel::Status serve_status;
  std::thread serve([&] { serve_status = server.Run(); });
  struct Joiner {
    ariel::server::ArielServer& server;
    std::thread& thread;
    ~Joiner() {
      server.RequestShutdown();
      if (thread.joinable()) thread.join();
    }
  } joiner{server, serve};

  auto connected =
      ariel::server::ClientConnection::Connect("127.0.0.1", server.port());
  if (!connected.ok()) {
    run.error = "connect failed: " + connected.status().ToString();
    return run;
  }
  ariel::server::ClientConnection client = std::move(connected).value();
  bool planted = false;

  // Sends one op, checks the reply, records it. Returns false when the
  // transport broke (the run cannot continue).
  auto execute = [&](const Op& op, Phase phase) -> bool {
    const Clock::time_point t0 = Clock::now();
    auto response = client.RoundTrip(op.text);
    const Clock::time_point t1 = Clock::now();
    if (!response.ok()) {
      run.error = "transport: " + response.status().ToString();
      return false;
    }
    std::string payload = std::move(response->payload);
    run.stream.push_back(Recorded{op.text, phase, op.cls, op.tag, response->kind,
                                  std::hash<std::string>{}(payload)});
    if (!planted && plant.fault != Fault::kNone &&
        plant.fault != Fault::kDiverge && op.tag == plant.tag) {
      payload = Tamper(plant.fault, std::move(payload));
      planted = true;
    }
    if (phase == Phase::kTimed) {
      ++run.attempted;
      const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      run.rtt_sum_us += ms * 1000.0;
      if (op.cls == OpClass::kWrite) run.write_ms.push_back(ms);
      if (op.cls == OpClass::kRead) ++run.reads;
    }
    if (response->kind != ariel::server::kRespOk) {
      // A failed command rolled back; the model does not apply it.
      if (phase == Phase::kTimed) {
        ++run.failed;
      } else if (run.error.empty()) {
        run.error = op.tag + " failed: " + payload;
      }
      return true;
    }
    if (op.cls == OpClass::kWrite) {
      size_t affected = 0;
      std::string ignored;
      if (ParseAffected(payload, &affected, &ignored)) run.rows_changed += affected;
    }
    std::string mismatch = workload.Check(op, payload);
    if (!mismatch.empty() && run.error.empty()) run.error = mismatch;
    return true;
  };

  for (const Op& op : workload.SetupOps()) {
    if (!execute(op, Phase::kSetup)) return run;
  }
  run.setup_s = Seconds(kProcessStart, Clock::now());
  for (const Op& op : workload.SettleOps()) {
    if (!execute(op, Phase::kSettle)) return run;
  }

  const ariel::HistogramData cmd_before = HistogramNamed("server_command_ns");
  const Clock::time_point start = Clock::now();
  Window window(run, start);
  for (size_t round = 0; run.error.empty(); ++round) {
    if (rounds > 0 ? round >= rounds
                   : Seconds(start, Clock::now()) >= seconds) {
      break;
    }
    for (size_t i = 0; i < workload.RoundSize(); ++i) {
      if (!execute(workload.Next(), Phase::kTimed)) return run;
    }
    window.Close(run, Clock::now());
  }
  run.timed_s = Seconds(start, Clock::now());
  const ariel::HistogramData cmd_after = HistogramNamed("server_command_ns");
  if (cmd_after.count > cmd_before.count) {
    run.server_cmd_mean_us =
        static_cast<double>(cmd_after.sum - cmd_before.sum) /
        static_cast<double>(cmd_after.count - cmd_before.count) / 1000.0;
  }

  for (const Op& op : workload.FinalOps()) {
    if (!execute(op, Phase::kFinal)) return run;
  }
  if (plant.fault != Fault::kNone && plant.fault != Fault::kDiverge &&
      !planted) {
    run.error = "planted fault found no op tagged " + plant.tag;
  }
  run.peak_rss_mb = PeakRssMb();
  client.Close();
  server.RequestShutdown();
  serve.join();
  if (!serve_status.ok() && run.error.empty()) {
    run.error = "server: " + serve_status.ToString();
  }
  if (keep_dump) run.dump = db->DebugDumpState();
  return run;
}

// --- The traced replay -------------------------------------------------------

enum Layer : uint8_t {
  kCommand,     // the whole command (parent of the others)
  kParse,       // ParseScript
  kTxnBegin,    // TransactionContext::BeginCommand
  kTransBegin,  // TransitionManager::BeginTransition
  kExecute,     // Executor::Execute (inner: token_process_ns)
  kTransEnd,    // TransitionManager::EndTransition
  kCycle,       // RuleExecutionMonitor::RunCycle (inner: rule_firing_ns)
  kTxnEnd,      // TransactionContext::CommitCommand / AbortCommand
  kSnapshot,    // Database::AcquireReadSnapshot
  kRead,        // Database::ExecuteReadOnly
  kNumLayers,
};

const char* const kLayerNames[kNumLayers] = {
    "command", "parser.parse",    "txn.begin",      "network.begin_transition",
    "exec.execute", "network.end_transition", "rules.run_cycle", "txn.end",
    "storage.snapshot", "exec.read"};

struct Span {
  uint32_t cmd;
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  int64_t inner_ns;  // time of the named child histogram inside the span
};

class Tracer {
 public:
  template <typename F>
  auto Time(uint32_t cmd, Layer layer, F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    spans_.push_back(Span{cmd, layer, Nanos(t0), Nanos(Clock::now()), 0});
    return result;
  }
  /// Like Time, also recording how much of the span `inner` observed.
  template <typename F>
  auto TimeWithInner(uint32_t cmd, Layer layer, const ariel::Histogram& inner,
                     F&& f) {
    const uint64_t inner_before = inner.Snapshot().sum;
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    const Clock::time_point t1 = Clock::now();
    spans_.push_back(Span{cmd, layer, Nanos(t0), Nanos(t1),
                          static_cast<int64_t>(inner.Snapshot().sum -
                                               inner_before)});
    return result;
  }
  void Add(Span span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

bool IsDml(ariel::CommandKind kind) {
  return kind == ariel::CommandKind::kAppend ||
         kind == ariel::CommandKind::kDelete ||
         kind == ariel::CommandKind::kReplace;
}

/// One command through the layers, in the order Database::ExecuteCommand
/// calls them (ExecuteTransacted -> ExecuteDml for a DML command, the
/// snapshot read path for a read-only one).
ariel::Result<ariel::CommandResult> ExecuteLayered(ariel::Database& db,
                                                   const ariel::Command& cmd,
                                                   uint32_t id,
                                                   Tracer& tracer) {
  using ariel::Status;
  if (ariel::IsReadOnlyCommand(cmd)) {
    const ariel::ReadSnapshot snapshot = tracer.Time(
        id, kSnapshot, [&] { return db.AcquireReadSnapshot(); });
    return tracer.Time(id, kRead,
                       [&] { return db.ExecuteReadOnly(cmd, snapshot); });
  }
  if (!IsDml(cmd.kind)) return db.ExecuteCommand(cmd);
  ariel::EngineMetrics& m = ariel::Metrics();
  if (Status s = tracer.Time(id, kTxnBegin,
                             [&] { return db.txn().BeginCommand(); });
      !s.ok()) {
    return s;
  }
  ariel::Result<ariel::CommandResult> result = [&]()
      -> ariel::Result<ariel::CommandResult> {
    tracer.Time(id, kTransBegin, [&] {
      db.transitions().BeginTransition();
      return 0;
    });
    ariel::Result<ariel::CommandResult> executed = tracer.TimeWithInner(
        id, kExecute, m.token_process_ns,
        [&] { return db.executor().Execute(cmd); });
    Status end = tracer.Time(id, kTransEnd,
                             [&] { return db.transitions().EndTransition(); });
    if (!executed.ok()) return executed.status();
    if (!end.ok()) return end;
    Status cycle = tracer.TimeWithInner(id, kCycle, m.rule_firing_ns,
                                        [&] { return db.monitor().RunCycle(); });
    if (!cycle.ok()) return cycle;
    return executed;
  }();
  Status closed = tracer.Time(id, kTxnEnd, [&] {
    return result.ok() ? db.txn().CommitCommand() : db.txn().AbortCommand();
  });
  if (!closed.ok()) return closed;
  return result;
}

/// The wire rendering Session gives a request's results.
std::pair<char, std::string> Render(
    const ariel::Result<std::vector<ariel::CommandResult>>& results) {
  if (!results.ok()) {
    return {ariel::server::kRespError,
            "error: " + results.status().ToString() + "\n"};
  }
  if (results->empty()) return {ariel::server::kRespOk, "ok\n"};
  std::string payload;
  for (const ariel::CommandResult& r : *results) {
    payload += ariel::server::RenderCommandResult(r);
  }
  return {ariel::server::kRespOk, std::move(payload)};
}

uint64_t CounterNamed(const std::vector<std::pair<std::string, uint64_t>>& all,
                      const char* name) {
  for (const auto& [n, v] : all) {
    if (n == name) return v;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one in-process replay of a server run's command stream measured.
struct Replayed {
  std::string error;
  double cmd_ns = 0;  // summed wall time of the timed-phase commands
  size_t cmds = 0, reads = 0, writes = 0;
  double install_s = 0, activate_s = 0;
  std::vector<std::pair<std::string, uint64_t>> counters_start, counters_end;
  ariel::HistogramData token_start, token_end, firing_start, firing_end;
};

/// Replays the recorded stream into a fresh Database: untraced through
/// Database::ExecuteAll when `tracer` is null, else layer by layer with
/// spans. Every timed-phase reply must equal the server's, and the final
/// state must equal `server_run.dump` byte for byte.
Replayed Replay(const ServerRun& server_run, Tracer* tracer,
                const Plant& plant) {
  Replayed out;
  ariel::Metrics().firing_trace.Clear();
  ariel::Database db;
  size_t diverge_at = 0;
  bool timed_started = false;
  for (size_t i = 0; i < server_run.stream.size(); ++i) {
    const Recorded& rec = server_run.stream[i];
    if (rec.phase == Phase::kFinal) continue;  // read-only checks
    if (rec.phase != Phase::kTimed) {
      auto parsed = ariel::ParseScript(rec.text);
      if (!parsed.ok()) {
        out.error = "replay parse: " + parsed.status().ToString();
        return out;
      }
      for (const ariel::CommandPtr& cmd : *parsed) {
        if (tracer != nullptr &&
            cmd->kind == ariel::CommandKind::kDefineRule) {
          // Database::ExecuteCommand with auto_activate_rules: install, then
          // activate (the priming queries), timed apart.
          const auto& def = static_cast<const ariel::DefineRuleCommand&>(*cmd);
          const Clock::time_point t0 = Clock::now();
          ariel::Status s = db.rules().DefineRule(def);
          const Clock::time_point t1 = Clock::now();
          if (s.ok()) s = db.rules().ActivateRule(def.rule_name);
          out.install_s += Seconds(t0, t1);
          out.activate_s += Seconds(t1, Clock::now());
          if (!s.ok()) {
            out.error = "replay define rule: " + s.ToString();
            return out;
          }
        } else if (auto r = db.ExecuteCommand(*cmd); !r.ok()) {
          out.error = "replay set-up: " + r.status().ToString();
          return out;
        }
      }
      continue;
    }
    if (!timed_started) {
      timed_started = true;
      out.counters_start = ariel::Metrics().registry.Counters();
      out.token_start = HistogramNamed("token_process_ns");
      out.firing_start = HistogramNamed("rule_firing_ns");
    }
    const uint32_t id = static_cast<uint32_t>(out.cmds++);
    if (rec.cls == OpClass::kRead) ++out.reads;
    if (rec.tag == plant.tag) diverge_at = i;
    const Clock::time_point t0 = Clock::now();
    ariel::Result<std::vector<ariel::CommandResult>> results =
        [&]() -> ariel::Result<std::vector<ariel::CommandResult>> {
      if (tracer == nullptr) return db.ExecuteAll(rec.text);
      auto parsed = tracer->Time(
          id, kParse, [&] { return ariel::ParseScript(rec.text); });
      if (!parsed.ok()) return parsed.status();
      std::vector<ariel::CommandResult> rs;
      for (const ariel::CommandPtr& cmd : *parsed) {
        if (IsDml(cmd->kind)) ++out.writes;
        auto r = ExecuteLayered(db, *cmd, id, *tracer);
        if (!r.ok()) return r.status();
        rs.push_back(std::move(r).value());
      }
      return rs;
    }();
    const Clock::time_point t1 = Clock::now();
    out.cmd_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (tracer != nullptr) {
      tracer->Add(Span{id, kCommand, Nanos(t0), Nanos(t1), 0});
    }
    auto [kind, payload] = Render(results);
    if (out.error.empty() &&
        (kind != rec.kind ||
         std::hash<std::string>{}(payload) != rec.reply_hash)) {
      out.error = "replayed reply differs from the server's for: " +
                  rec.text.substr(0, 80);
    }
  }
  out.counters_end = ariel::Metrics().registry.Counters();
  out.token_end = HistogramNamed("token_process_ns");
  out.firing_end = HistogramNamed("rule_firing_ns");
  if (plant.fault == Fault::kDiverge && diverge_at > 0) {
    // Only the final-state comparison can see this: no reply follows it.
    ARIEL_IGNORE_STATUS(db.Execute(server_run.stream[diverge_at].text).status());
  }
  if (out.error.empty()) {
    const std::string dump = db.DebugDumpState();
    if (dump != server_run.dump) {
      size_t at = 0;
      while (at < dump.size() && at < server_run.dump.size() &&
             dump[at] == server_run.dump[at]) {
        ++at;
      }
      out.error = std::string(tracer != nullptr ? "traced" : "untraced") +
                  " replay state differs from the server run's at byte " +
                  std::to_string(at) + " of " +
                  std::to_string(server_run.dump.size());
    }
  }
  return out;
}

/// The per-layer metrics: span sums from the traced replay, counter and
/// histogram deltas over its timed phase, the server run's round trips, and
/// the traced replay's time per command against the untraced replay's.
std::vector<Metric> LayerMetrics(const ServerRun& server_run,
                                 const Replayed& traced,
                                 const Replayed& untraced,
                                 const std::vector<Span>& spans) {
  auto delta = [&](const char* name) {
    return static_cast<double>(CounterNamed(traced.counters_end, name) -
                               CounterNamed(traced.counters_start, name));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto hist_mean_us = [](const ariel::HistogramData& a,
                         const ariel::HistogramData& b) {
    return b.count > a.count ? static_cast<double>(b.sum - a.sum) /
                                   static_cast<double>(b.count - a.count) /
                                   1000.0
                             : 0.0;
  };
  double layer_ns[kNumLayers] = {};
  double exec_inner_ns = 0, cycle_inner_ns = 0;
  for (const Span& span : spans) {
    layer_ns[span.layer] += static_cast<double>(span.end_ns - span.start_ns);
    if (span.layer == kExecute) exec_inner_ns += static_cast<double>(span.inner_ns);
    if (span.layer == kCycle) cycle_inner_ns += static_cast<double>(span.inner_ns);
  }
  const double n = static_cast<double>(traced.cmds);
  const double reads = static_cast<double>(traced.reads);
  const double writes = static_cast<double>(traced.writes);
  const double tokens = delta("tokens_emitted");
  const double traced_us = ratio(traced.cmd_ns, n) / 1000.0;
  const double untraced_us =
      ratio(untraced.cmd_ns, static_cast<double>(untraced.cmds)) / 1000.0;
  const double rtt_us = ratio(server_run.rtt_sum_us,
                              static_cast<double>(server_run.attempted));
  return {
      {"server.rtt_overhead_us", rtt_us - server_run.server_cmd_mean_us, "us"},
      {"parser.parse_us", ratio(layer_ns[kParse], n) / 1000.0, "us"},
      {"exec.execute_self_us",
       ratio(layer_ns[kExecute] - exec_inner_ns + layer_ns[kRead], n) / 1000.0,
       "us"},
      {"exec.read_us", ratio(layer_ns[kRead], reads) / 1000.0, "us"},
      {"exec.plans_built_per_cmd", ratio(delta("plans_built"), n), "1/cmd"},
      {"exec.tuples_scanned_per_cmd", ratio(delta("tuples_scanned"), n),
       "1/cmd"},
      {"exec.columnar_batches_built_per_cmd",
       ratio(delta("columnar_batches_built"), n), "1/cmd"},
      {"exec.values_copied_per_cmd", ratio(delta("values_copied"), n),
       "1/cmd"},
      {"storage.snapshot_pins_per_read", ratio(delta("snapshot_pins"), reads),
       "1/read"},
      {"network.token_us", hist_mean_us(traced.token_start, traced.token_end),
       "us"},
      {"network.tokens_per_cmd", ratio(tokens, n), "1/cmd"},
      {"network.join_probes_per_token", ratio(delta("join_probes"), tokens),
       "1/token"},
      {"network.virtual_alpha_scans_per_token",
       ratio(delta("virtual_alpha_scans"), tokens), "1/token"},
      {"isl.node_visits_per_stab",
       ratio(delta("isl_node_visits"), delta("selection_stabs")), "1/stab"},
      {"network.selection_matches_per_token",
       ratio(delta("selection_matches"), delta("selection_tokens")),
       "1/token"},
      {"network.pnode_bindings_per_cmd",
       ratio(delta("pnode_bindings_created"), n), "1/cmd"},
      {"rules.cycle_self_us",
       ratio(layer_ns[kCycle] - cycle_inner_ns, writes) / 1000.0, "us"},
      {"rules.firing_us",
       hist_mean_us(traced.firing_start, traced.firing_end), "us"},
      {"rules.firings_per_cmd", ratio(delta("rules_fired"), n), "1/cmd"},
      {"rules.install_s", traced.install_s, "s"},
      {"rules.activate_s", traced.activate_s, "s"},
      {"txn.bracket_us",
       ratio(layer_ns[kTxnBegin] + layer_ns[kTxnEnd], writes) / 1000.0, "us"},
      {"txn.undo_records_per_cmd", ratio(delta("txn_undo_records"), n),
       "1/cmd"},
      {"trace.cmd_us", traced_us, "us"},
      {"trace.untraced_cmd_us", untraced_us, "us"},
      {"trace.overhead_pct", ratio(traced_us - untraced_us, untraced_us) * 100,
       "%"},
  };
}

// --- Output ----------------------------------------------------------------


/// A per-window figure at the slow end of the run: the q-quantile over
/// windows (0.1 for rates, 0.9 for latencies). The host this benchmark was
/// built on switches between a slow and a ~1.6x faster speed state every
/// few seconds; the slow state shows up in nearly every run, so the figure
/// at its end repeats from run to run where a median over the whole run
/// follows the share of time spent fast.
double SlowEnd(const std::vector<WindowStats>& windows, double WindowStats::*field,
               double q) {
  std::vector<double> v;
  for (const WindowStats& window : windows) v.push_back(window.*field);
  return Quantile(std::move(v), q);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void WriteTraceFiles(const std::string& dir, const std::string& stem,
                     const std::vector<Metric>& metrics,
                     const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return;
  }
  std::ofstream layers(dir + "/" + stem + "-layers.json");
  layers << MetricsJson(metrics) << "\n";
  std::ofstream csv(dir + "/" + stem + "-spans.csv");
  csv << "cmd,layer,parent,start_ns,end_ns,inner_ns\n";
  for (const Span& span : spans) {
    csv << span.cmd << ',' << kLayerNames[span.layer] << ','
        << (span.layer == kCommand ? "" : "command") << ',' << span.start_ns
        << ',' << span.end_ns << ',' << span.inner_ns << '\n';
  }
}

/// Keeps the whole process on one CPU (the last it may use). The server loop
/// and the closed-loop client never run at once, and a request handed
/// between two CPUs pays a cross-CPU wakeup whose latency depends on how the
/// host schedules the idle one.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::perror("sched_setaffinity");
    }
    return;
  }
}

void ClearArielEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ARIEL_", 6) == 0) {
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq != nullptr ? eq - *env : std::strlen(*env));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

// --- Self-test ----------------------------------------------------------------

/// Runs each workload once clean and once per planted fault, for a few
/// rounds each; every check must pass clean and fail with its fault.
int SelfTest() {
  struct Case {
    const char* workload;
    Fault fault;
    const char* tag;
  };
  const Case cases[] = {
      {"rule_oltp", Fault::kNone, ""},
      {"rule_oltp", Fault::kDropRow, "log"},
      {"rule_oltp", Fault::kDropRow, "range"},
      {"rule_oltp", Fault::kAlterCell, "agg"},
      {"rule_oltp", Fault::kBumpAffected, "replace"},
      {"rule_oltp", Fault::kDropRow, "final_log"},
      {"rule_oltp", Fault::kAlterCell, "final_emp"},
      {"rule_oltp", Fault::kDiverge, "replace"},
      {"bulk_band", Fault::kNone, ""},
      {"bulk_band", Fault::kBumpAffected, "replace"},
      {"bulk_band", Fault::kDropRow, "sink"},
      {"bulk_band", Fault::kAlterCell, "agg"},
      {"bulk_band", Fault::kDropRow, "final_emp"},
      {"bulk_band", Fault::kDiverge, "replace"},
      {"alert_fanout", Fault::kNone, ""},
      {"alert_fanout", Fault::kDropRow, "drain"},
      {"alert_fanout", Fault::kBumpAffected, "update"},
      {"alert_fanout", Fault::kAlterCell, "final"},
      {"alert_fanout", Fault::kDiverge, "update"},
  };
  const char* const kFaultNames[] = {"none", "drop a row", "alter a cell",
                                     "bump affected", "diverge replay"};
  int bad = 0;
  for (const Case& c : cases) {
    std::unique_ptr<Workload> workload = MakeWorkload(c.workload, 1);
    const Plant plant{c.fault, c.tag};
    const bool traced = c.fault == Fault::kNone || c.fault == Fault::kDiverge;
    ServerRun run = RunThroughServer(*workload, 0, 3, traced, plant);
    std::string error = run.error;
    Tracer tracer;
    if (error.empty() && traced) error = Replay(run, &tracer, plant).error;
    const bool want_failure = c.fault != Fault::kNone;
    const bool ok = want_failure != error.empty();
    if (!ok) ++bad;
    std::printf("%-4s %-12s %-14s %-10s -> %s\n", ok ? "ok" : "BAD",
                c.workload, kFaultNames[static_cast<int>(c.fault)], c.tag,
                error.empty() ? "all checks passed" : error.c_str());
  }
  std::printf("self-test: %s\n", bad == 0 ? "every check passes clean and "
                                            "fails on its planted fault"
                                          : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <rule_oltp|bulk_band|alert_fanout> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n"
               "       perfbench --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  ClearArielEnvironment();
  PinToOneCpu();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--self-test") return SelfTest();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args[key.substr(2)] = argv[++i];
  }
  const std::string name = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const std::string out_dir =
      args.count("out") ? args["out"] : ".bench_build/perfbench-out";
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
  if (workload == nullptr || seconds <= 0) return Usage();

  ServerRun run = RunThroughServer(*workload, seconds, 0, trace, Plant{});
  std::string error = run.error;
  std::vector<Metric> metrics;
  if (trace) {
    // The untraced replay first: the traced one then runs in a process
    // whose allocator and caches the same work has already warmed.
    const Replayed untraced = Replay(run, nullptr, Plant{});
    Tracer tracer;
    const Replayed traced = Replay(run, &tracer, Plant{});
    for (const std::string* e : {&untraced.error, &traced.error}) {
      if (error.empty()) error = *e;
    }
    metrics = LayerMetrics(run, traced, untraced, tracer.spans());
    WriteTraceFiles(out_dir, name + "-seed" + std::to_string(seed), metrics,
                    tracer.spans());
  } else {
    metrics = {
        {"setup_s", run.setup_s, "s"},
        {"cmds_per_s", SlowEnd(run.windows, &WindowStats::cmds_per_s, 0.1),
         "commands/s"},
        {"write_p50_ms", SlowEnd(run.windows, &WindowStats::write_p50_ms, 0.9), "ms"},
        {"rows_per_s", SlowEnd(run.windows, &WindowStats::rows_per_s, 0.1),
         "rows/s"},
        {"peak_rss_mb", run.peak_rss_mb, "MB"},
    };
  }
  std::printf("workload %s seed %llu: %zu commands in %.3f s (%zu writes, "
              "%zu reads), %zu failed\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              run.attempted, run.timed_s, run.write_ms.size(),
              run.reads, run.failed);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!error.empty()) std::printf("CHECK FAILED: %s\n", error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              error.empty() ? "true" : "false", run.attempted, run.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
