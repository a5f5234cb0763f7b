// bftreg_run: command-line experiment runner.
//
// Assembles a cluster for any protocol, runs a workload against chosen
// Byzantine strategies, prints latency statistics, and passes the recorded
// execution through the safety/regularity/atomicity checkers. Everything
// is deterministic in --seed.
//
// Examples:
//   bftreg_run --protocol=bsr --n=9 --f=2 --byzantine=fabricate --ops=500
//   bftreg_run --protocol=bcsr --n=11 --f=2 --value-size=4096 --read-ratio=0.9
//   bftreg_run --protocol=bsr2r --scenario=theorem3
//   bftreg_run --protocol=bsr --n=4 --f=1 --scenario=theorem5 --trace
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "adversary/churn.h"
#include "checker/consistency.h"
#include "common/stats.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

using namespace bftreg;

namespace {

struct Options {
  registers::ProtocolVariant protocol{registers::ProtocolVariant::kBsr};
  size_t n{0};  // 0 = min for protocol
  size_t f{1};
  size_t ops{200};
  double read_ratio{0.9};
  size_t value_size{64};
  uint64_t seed{1};
  std::string byzantine;  // strategy name, applied to f servers
  std::string scenario;   // "", "theorem3", "theorem5"
  bool trace{false};
};

void usage() {
  std::string keys;
  for (const auto& p : registers::kProtocolNames) {
    keys += (keys.empty() ? "" : "|") + std::string(p.key);
  }
  std::printf(
      "bftreg_run -- deterministic register-emulation experiments\n\n"
      "  --protocol=%s   protocol (default bsr)\n"
      "  --n=<int>            servers (default: protocol minimum for f)\n"
      "  --f=<int>            Byzantine budget (default 1)\n"
      "  --ops=<int>          operations to run (default 200)\n"
      "  --read-ratio=<0..1>  workload mix (default 0.9)\n"
      "  --value-size=<int>   bytes per written value (default 64)\n"
      "  --seed=<int>         RNG seed (default 1)\n"
      "  --byzantine=<kind>   silent|stale|fabricate|collude|double-reply|\n"
      "                       malformed|turncoat  (applied to f servers)\n"
      "  --scenario=<name>    theorem3 | theorem5 (proof schedules), or\n"
      "                       churn-crash-write | churn-crash-writeback |\n"
      "                       churn-rejoin (crash/rejoin drills; server 1 is\n"
      "                       bounced mid-operation, WAL-backed, and must\n"
      "                       catch up from a quorum before serving again)\n"
      "  --trace              dump the recorded execution\n",
      keys.c_str());
}

std::optional<std::string> arg_value(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (auto v = arg_value(a, "--protocol")) {
      auto protocol = registers::protocol_by_key(*v);
      if (!protocol) {
        std::fprintf(stderr, "unknown protocol '%s'\n", v->c_str());
        return std::nullopt;
      }
      o.protocol = *protocol;
    } else if (auto v = arg_value(a, "--n")) {
      o.n = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = arg_value(a, "--f")) {
      o.f = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = arg_value(a, "--ops")) {
      o.ops = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = arg_value(a, "--read-ratio")) {
      o.read_ratio = std::strtod(v->c_str(), nullptr);
    } else if (auto v = arg_value(a, "--value-size")) {
      o.value_size = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = arg_value(a, "--seed")) {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = arg_value(a, "--byzantine")) {
      o.byzantine = *v;
    } else if (auto v = arg_value(a, "--scenario")) {
      o.scenario = *v;
    } else if (std::strcmp(a, "--trace") == 0) {
      o.trace = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n\n", a);
      return std::nullopt;
    }
  }
  if (o.n == 0) o.n = registers::min_servers(o.protocol, o.f);
  return o;
}

std::optional<adversary::StrategyKind> strategy_by_name(const std::string& name) {
  for (auto kind : adversary::kAllStrategyKinds) {
    if (name == adversary::to_string(kind)) return kind;
  }
  return std::nullopt;
}

int run_scenario(const Options& o) {
  // Scenarios replay the paper's impossibility schedules, which *deliberately*
  // run below the resilience bound (e.g. theorem5 at n = 4f); only the
  // protocol-independent sanity checks apply here.
  auto config = registers::SystemConfig::builder().n(o.n).f(o.f).build();
  if (!config) {
    std::fprintf(stderr, "%s\n", config.error().detail.c_str());
    return 2;
  }

  harness::ClusterOptions co;
  co.protocol = o.protocol;
  co.config = config.value();
  co.seed = o.seed;
  co.num_readers = 1;

  checker::CheckOptions copts;
  copts.reads_report_tags = o.protocol != registers::ProtocolVariant::kBcsr;

  if (o.scenario == "theorem3") {
    co.num_writers = 5;
    harness::SimCluster cluster(co);
    const auto r = harness::run_theorem3_schedule(cluster);
    std::printf("theorem-3 schedule on %s (n=%zu, f=%zu): read returned \"%s\"\n",
                to_string(o.protocol), o.n, o.f,
                std::string(r.value.begin(), r.value.end()).c_str());
    const auto safe = checker::check_safety(cluster.recorder().ops(), copts);
    const auto reg = checker::check_regularity(cluster.recorder().ops(), copts);
    std::printf("  safety:     %s\n", safe.ok ? "OK" : safe.violation.c_str());
    std::printf("  regularity: %s\n", reg.ok ? "OK" : reg.violation.c_str());
    if (o.trace) std::printf("\n%s", cluster.recorder().dump().c_str());
    return 0;
  }
  if (o.scenario == "theorem5") {
    co.num_writers = 2;
    harness::SimCluster cluster(co);
    for (size_t i = 0; i < o.f; ++i) {
      cluster.set_byzantine(i, std::make_unique<harness::LaggingLiar>());
    }
    const Bytes got = harness::run_theorem5_schedule(cluster);
    std::printf("theorem-5 schedule on %s (n=%zu, f=%zu): read returned \"%s\"\n",
                to_string(o.protocol), o.n, o.f,
                std::string(got.begin(), got.end()).c_str());
    const auto safe = checker::check_safety(cluster.recorder().ops(), copts);
    std::printf("  safety: %s\n", safe.ok ? "OK" : safe.violation.c_str());
    if (o.trace) {
      std::printf("\n%s\n%s", cluster.recorder().dump().c_str(),
                  cluster.recorder().dump_timeline().c_str());
    }
    return 0;
  }
  if (o.scenario.rfind("churn-", 0) == 0) {
    adversary::ChurnSchedule schedule;
    if (o.scenario == "churn-crash-write") {
      schedule = adversary::crash_during_write_schedule(1);
    } else if (o.scenario == "churn-crash-writeback") {
      schedule = adversary::crash_during_read_writeback_schedule(1);
    } else if (o.scenario == "churn-rejoin") {
      schedule = adversary::rejoin_mid_round_schedule(1);
    } else {
      std::fprintf(stderr, "unknown churn scenario '%s'\n", o.scenario.c_str());
      return 2;
    }
    if (o.protocol == registers::ProtocolVariant::kRb) {
      std::fprintf(stderr,
                   "scenario '%s' restarts WAL-backed servers, but %s servers "
                   "keep no WAL\n",
                   o.scenario.c_str(), to_string(o.protocol));
      return 2;
    }

    // Restarts need durable server state: stage WAL files in a temp dir.
    const auto wal_dir =
        std::filesystem::temp_directory_path() /
        ("bftreg_run_churn_" + std::to_string(::getpid()));
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    co.wal_dir = wal_dir.string();

    int rc = 0;
    {
      harness::SimCluster cluster(co);
      const auto out = harness::run_churn_schedule(cluster, schedule);
      std::printf(
          "churn schedule '%s' on %s (n=%zu, f=%zu): %zu writes, %zu reads\n",
          schedule.name.c_str(), to_string(o.protocol), o.n, o.f,
          out.write_ids.size(), out.read_ids.size());
      std::printf("  effective seed:        0x%016llx\n",
                  static_cast<unsigned long long>(out.seed));
      std::printf("  recovered & serving:   %s\n",
                  out.recovered_serving ? "yes" : "NO");
      std::printf("  refused in catch-up:   %llu requests (dropped, never "
                  "answered)\n",
                  static_cast<unsigned long long>(out.refused_during_catch_up));
      const auto safe = checker::check_safety(cluster.recorder().ops(), copts);
      const auto reg = checker::check_regularity(cluster.recorder().ops(), copts);
      const auto atom = checker::check_atomicity(cluster.recorder().ops(), copts);
      std::printf("  safety:     %s\n", safe.ok ? "OK" : safe.violation.c_str());
      std::printf("  regularity: %s\n", reg.ok ? "OK" : reg.violation.c_str());
      std::printf("  atomicity:  %s\n", atom.ok ? "OK" : atom.violation.c_str());
      if (o.trace) {
        std::printf("\n%s\n%s", cluster.recorder().dump().c_str(),
                    cluster.recorder().dump_timeline().c_str());
      }
      rc = (safe.ok && reg.ok && out.recovered_serving) ? 0 : 1;
    }
    std::filesystem::remove_all(wal_dir);
    return rc;
  }
  std::fprintf(stderr, "unknown scenario '%s'\n", o.scenario.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  const Options& o = *parsed;

  if (!o.scenario.empty()) return run_scenario(o);

  // A bad (n, f) for the protocol is a printed error, not an assert deep
  // inside a client constructor.
  auto config = registers::SystemConfig::builder().n(o.n).f(o.f).build_for(o.protocol);
  if (!config) {
    std::fprintf(stderr, "%s\n", config.error().detail.c_str());
    return 2;
  }

  harness::ClusterOptions co;
  co.protocol = o.protocol;
  co.config = config.value();
  co.seed = o.seed;
  co.num_writers = 2;
  co.num_readers = 2;
  harness::SimCluster cluster(co);

  if (!o.byzantine.empty()) {
    auto kind = strategy_by_name(o.byzantine);
    if (!kind) {
      std::fprintf(stderr, "unknown byzantine strategy '%s'\n", o.byzantine.c_str());
      return 2;
    }
    // f distinct servers: a repeated draw is redrawn.
    Rng rng(o.seed * 31);
    std::vector<bool> picked(o.n, false);
    for (size_t i = 0; i < o.f; ++i) {
      size_t index = rng.uniform(o.n);
      while (picked[index]) index = rng.uniform(o.n);
      picked[index] = true;
      cluster.set_byzantine(index, *kind);
      std::printf("server %zu: Byzantine (%s)\n", index, o.byzantine.c_str());
    }
  }

  std::printf("%s  n=%zu f=%zu  ops=%zu  read-ratio=%.3f  value=%zuB  seed=%llu\n\n",
              to_string(o.protocol), o.n, o.f, o.ops, o.read_ratio, o.value_size,
              static_cast<unsigned long long>(o.seed));

  workload::WorkloadOptions wo;
  wo.read_ratio = o.read_ratio;
  wo.num_ops = o.ops;
  wo.value_size = o.value_size;
  wo.seed = o.seed;
  workload::WorkloadGenerator gen(wo);

  Samples reads, writes;
  size_t turn = 0;
  while (!gen.done()) {
    const auto op = gen.next();
    const size_t client = turn++ % 2;
    if (op.is_read) {
      const auto r = cluster.read(client);
      reads.add(static_cast<double>(r.completed_at - r.invoked_at));
    } else {
      const auto w = cluster.write(client, op.value);
      writes.add(static_cast<double>(w.completed_at - w.invoked_at));
    }
  }

  const auto m = cluster.sim().metrics().snapshot();
  std::printf("reads : %zu ops, median %.1f us, p99 %.1f us\n", reads.count(),
              reads.median() / 1000, reads.p99() / 1000);
  std::printf("writes: %zu ops, median %.1f us, p99 %.1f us\n", writes.count(),
              writes.median() / 1000, writes.p99() / 1000);
  std::printf("network: %llu messages, %llu bytes, %llu auth failures\n\n",
              static_cast<unsigned long long>(m.messages_sent),
              static_cast<unsigned long long>(m.bytes_sent),
              static_cast<unsigned long long>(m.auth_failures));

  checker::CheckOptions copts;
  copts.reads_report_tags = o.protocol != registers::ProtocolVariant::kBcsr;
  const auto safe = checker::check_safety(cluster.recorder().ops(), copts);
  const auto reg = checker::check_regularity(cluster.recorder().ops(), copts);
  const auto atom = checker::check_atomicity(cluster.recorder().ops(), copts);
  std::printf("safety:     %s\n", safe.ok ? "OK" : safe.violation.c_str());
  std::printf("regularity: %s\n", reg.ok ? "OK" : reg.violation.c_str());
  std::printf("atomicity:  %s\n", atom.ok ? "OK" : atom.violation.c_str());
  if (o.trace) {
    std::printf("\n%s\n%s", cluster.recorder().dump().c_str(),
                cluster.recorder().dump_timeline().c_str());
  }
  return safe.ok ? 0 : 1;
}
