#include "cli/commands.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <sstream>
#include <thread>

#include "core/failpoint.h"
#include "core/flags.h"
#include "core/fs.h"
#include "core/random.h"
#include "core/strings.h"
#include "core/threadpool.h"
#include "data/distribution.h"
#include "data/io.h"
#include "data/rounding.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/obs.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace rangesyn {
namespace {

/// Parses a FlagSet from string args (argv-style, without argv[0]).
Status ParseArgs(FlagSet* flags, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  std::string program = "rangesyn";
  argv.push_back(program.data());
  std::vector<std::string> storage(args);
  for (std::string& a : storage) argv.push_back(a.data());
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

Result<std::string> CmdGenerate(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn generate", "write a synthetic distribution CSV");
  flags.DefineString("dist", "zipf", "distribution family");
  flags.DefineInt64("n", 127, "domain size");
  flags.DefineDouble("volume", 2000.0, "total record count");
  flags.DefineInt64("seed", 20010521, "generator seed");
  flags.DefineString("out", "data.csv", "output path");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  RANGESYN_ASSIGN_OR_RETURN(
      std::vector<double> floats,
      MakeNamedDistribution(flags.GetString("dist"), flags.GetInt64("n"),
                            flags.GetDouble("volume"), &rng));
  RANGESYN_ASSIGN_OR_RETURN(
      std::vector<int64_t> data,
      RandomRound(floats, RandomRoundingMode::kHalf, &rng));
  RANGESYN_RETURN_IF_ERROR(
      SaveDistributionCsv(data, flags.GetString("out")));
  int64_t total = 0;
  for (int64_t v : data) total += v;
  return StrCat("wrote ", data.size(), " counts (", total, " records) to ",
                flags.GetString("out"), "\n");
}

Result<std::string> CmdBuild(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn build", "build and persist a synopsis");
  flags.DefineString("data", "data.csv", "input distribution CSV");
  flags.DefineString("method", "sap1", "synopsis method");
  flags.DefineInt64("budget", 24, "storage budget (words)");
  flags.DefineInt64("granularity", 2, "OPT-A-ROUNDED granularity");
  flags.DefineString("out", "synopsis.rsn", "output path");
  flags.DefineInt64("deadline-ms", 0,
                    "build deadline in milliseconds (0 = unlimited); on "
                    "expiry a cheaper fallback construction is built "
                    "instead of failing");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(std::vector<int64_t> data,
                            LoadDistributionCsv(flags.GetString("data")));
  SynopsisSpec spec;
  spec.method = flags.GetString("method");
  spec.budget_words = flags.GetInt64("budget");
  spec.granularity = flags.GetInt64("granularity");
  BuildOptions build_options;
  const int64_t deadline_ms = flags.GetInt64("deadline-ms");
  if (deadline_ms < 0) {
    return InvalidArgumentError("--deadline-ms must be >= 0");
  }
  if (deadline_ms > 0) {
    build_options.deadline =
        Deadline::After(static_cast<double>(deadline_ms) / 1000.0);
  }
  RANGESYN_ASSIGN_OR_RETURN(BuildOutcome outcome,
                            BuildSynopsisWithOptions(spec, data,
                                                     build_options));
  const FlatSynopsis& synopsis = *outcome.synopsis;
  RANGESYN_RETURN_IF_ERROR(SaveFlatSynopsis(synopsis, flags.GetString("out")));
  // Total-mass self-check: one real query through the freshly built
  // synopsis, so even a bare `build` run exercises the query path.
  const double total = synopsis.EstimateOne(1, synopsis.n());
  RANGESYN_OBS_COUNTER_INC("engine.query.count");
  std::string degraded_note;
  if (outcome.degraded) {
    degraded_note =
        StrCat("note: degraded '", outcome.degraded_from, "' -> '",
               outcome.built_method, "' (", outcome.fallback_reason, ")\n");
  }
  return StrCat(degraded_note, "built ", synopsis.Name(), " (",
                synopsis.StorageWords(), " words over domain ",
                synopsis.n(), ") -> ", flags.GetString("out"),
                "\nself-check: s[1,", synopsis.n(), "] ~= ",
                FormatG(total, 10), "\n");
}

Result<std::string> CmdInspect(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn inspect", "describe a persisted synopsis");
  flags.DefineString("synopsis", "synopsis.rsn", "synopsis path");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  // The RSF1 file is mmap'd, checked once, and served from the mapping.
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> synopsis,
                            OpenFlatMapped(flags.GetString("synopsis")));
  return StrCat("name:    ", synopsis->Name(), "\nstorage: ",
                synopsis->StorageWords(), " words\ndomain:  1..",
                synopsis->n(), "\n");
}

Result<std::string> CmdEstimate(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn estimate", "answer one range query");
  flags.DefineString("synopsis", "synopsis.rsn", "synopsis path");
  flags.DefineInt64("a", 1, "range start (1-based, inclusive)");
  flags.DefineInt64("b", 1, "range end (inclusive)");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> synopsis,
                            OpenFlatMapped(flags.GetString("synopsis")));
  const int64_t a = flags.GetInt64("a");
  const int64_t b = flags.GetInt64("b");
  if (a < 1 || a > b || b > synopsis->n()) {
    return InvalidArgumentError(
        StrCat("bad range [", a, ",", b, "] for domain 1..",
               synopsis->n()));
  }
  return StrCat("s[", a, ",", b, "] ~= ",
                FormatG(synopsis->EstimateOne(a, b), 10), "\n");
}

Result<std::string> CmdEvaluate(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn evaluate",
                "score a synopsis against exact answers");
  flags.DefineString("synopsis", "synopsis.rsn", "synopsis path");
  flags.DefineString("data", "data.csv", "ground-truth distribution CSV");
  flags.DefineString("workload", "",
                     "optional query-log CSV (default: all ranges)");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> synopsis,
                            OpenFlatMapped(flags.GetString("synopsis")));
  RANGESYN_ASSIGN_OR_RETURN(std::vector<int64_t> data,
                            LoadDistributionCsv(flags.GetString("data")));
  ErrorStats stats;
  if (flags.GetString("workload").empty()) {
    RANGESYN_ASSIGN_OR_RETURN(stats, AllRangesStats(data, *synopsis));
  } else {
    RANGESYN_ASSIGN_OR_RETURN(std::vector<RangeQuery> queries,
                              LoadWorkloadCsv(flags.GetString("workload")));
    RANGESYN_ASSIGN_OR_RETURN(stats,
                              EvaluateOnWorkload(data, *synopsis, queries));
  }
  return StrCat("queries:  ", stats.count, "\nSSE:      ",
                FormatG(stats.sse, 10), "\nRMSE:     ",
                FormatG(stats.rmse, 6), "\nmax|err|: ",
                FormatG(stats.max_abs, 6), "\n");
}

Result<std::string> CmdSweep(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn sweep", "Figure-1 style storage sweep");
  flags.DefineString("data", "data.csv", "input distribution CSV");
  flags.DefineString("methods", "naive,pointopt,a0,sap0,sap1",
                     "comma-separated methods");
  flags.DefineString("budgets", "8,16,32,64", "comma-separated budgets");
  flags.DefineBool("csv", false, "emit CSV");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(std::vector<int64_t> data,
                            LoadDistributionCsv(flags.GetString("data")));
  SweepOptions sweep;
  sweep.methods = StrSplit(flags.GetString("methods"), ',');
  for (const std::string& b : StrSplit(flags.GetString("budgets"), ',')) {
    int64_t v = 0;
    if (!ParseInt64(b, &v)) {
      return InvalidArgumentError(StrCat("bad budget '", b, "'"));
    }
    sweep.budgets_words.push_back(v);
  }
  RANGESYN_ASSIGN_OR_RETURN(std::vector<ExperimentRow> rows,
                            RunStorageSweep(data, sweep));
  std::ostringstream os;
  if (flags.GetBool("csv")) {
    PrintSweepCsv(rows, os);
  } else {
    PrintSweep(rows, os);
  }
  return os.str();
}

Result<std::string> CmdStats(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn stats",
                "run an instrumented pipeline and report obs metrics");
  flags.DefineString("data", "",
                     "input distribution CSV (default: synthetic Zipf)");
  flags.DefineString("method", "sap1", "synopsis method");
  flags.DefineInt64("budget", 24, "storage budget (words)");
  flags.DefineBool("json", false, "emit the metrics registry as JSON");
  flags.DefineString("format", "",
                     "output format: text (default), json, or prometheus "
                     "(text exposition for a textfile collector)");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  std::string format = flags.GetString("format");
  if (format.empty()) format = flags.GetBool("json") ? "json" : "text";
  if (format != "text" && format != "json" && format != "prometheus") {
    return InvalidArgumentError(StrCat(
        "--format: expected text, json, or prometheus; got '", format, "'"));
  }
  std::vector<int64_t> data;
  if (flags.GetString("data").empty()) {
    Rng rng(20010521);
    RANGESYN_ASSIGN_OR_RETURN(
        std::vector<double> floats,
        MakeNamedDistribution("zipf", 127, 2000.0, &rng));
    RANGESYN_ASSIGN_OR_RETURN(
        data, RandomRound(floats, RandomRoundingMode::kHalf, &rng));
  } else {
    RANGESYN_ASSIGN_OR_RETURN(data,
                              LoadDistributionCsv(flags.GetString("data")));
  }
  SynopsisSpec spec;
  spec.method = flags.GetString("method");
  spec.budget_words = flags.GetInt64("budget");
  // Build -> evaluate -> encode, so the dump below covers every
  // instrumented phase of the pipeline.
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> synopsis,
                            BuildSynopsis(spec, data));
  RANGESYN_ASSIGN_OR_RETURN(ErrorStats err, AllRangesStats(data, *synopsis));
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes,
                            EncodeFlatSynopsis(*synopsis));
  // Eagerly register the serving metrics (serve.request.*, serve.queue.*,
  // ...) so scrapers see the full serving series — at zero — even from a
  // process that never handled a request.
  (void)serve::GetServingMetrics();
  const obs::RegistrySnapshot snapshot = obs::Registry::Get().Snapshot();
  if (format == "json") {
    std::ostringstream os;
    obs::WriteStatsJson(snapshot, os);
    return os.str();
  }
  if (format == "prometheus") return obs::FormatStatsPrometheus(snapshot);
  return StrCat("pipeline: ", synopsis->Name(), " budget=",
                flags.GetInt64("budget"), " n=", data.size(), " queries=",
                err.count, " sse=", FormatG(err.sse, 6), " bytes=",
                bytes.size(), "\n\n", obs::FormatStatsText(snapshot));
}

/// Catalog-source flags shared by `serve` and `loadgen`: either a
/// persisted catalog file or one distribution CSV built under an explicit
/// key. Both tools build from the same flags, and synopsis construction
/// is deterministic, so a loadgen pointed at the same source holds a
/// bit-exact oracle for the daemon's answers.
void DefineCatalogSourceFlags(FlagSet* flags) {
  flags->DefineString("catalog", "",
                      "persisted catalog file (engine/catalog Save format)");
  flags->DefineString("data", "",
                      "distribution CSV to build a one-entry catalog from "
                      "(alternative to --catalog)");
  flags->DefineString("key", "default",
                      "synopsis key for the --data entry");
  flags->DefineString("method", "sap1", "synopsis method for --data");
  flags->DefineInt64("budget", 24, "storage budget (words) for --data");
}

Result<SynopsisCatalog> LoadServeCatalog(const FlagSet& flags) {
  const std::string catalog_path = flags.GetString("catalog");
  const std::string data_path = flags.GetString("data");
  if (!catalog_path.empty() && !data_path.empty()) {
    return InvalidArgumentError("pass --catalog or --data, not both");
  }
  if (!catalog_path.empty()) {
    SynopsisCatalog::LoadReport report;
    RANGESYN_ASSIGN_OR_RETURN(
        SynopsisCatalog catalog,
        SynopsisCatalog::LoadFromFileWithReport(catalog_path, &report));
    if (!report.quarantined.empty()) {
      RANGESYN_LOG_EVENT(Warning, "serve.catalog.quarantined")
          .Arg("file", catalog_path)
          .Arg("entries",
               static_cast<int64_t>(report.quarantined.size()));
    }
    return catalog;
  }
  if (data_path.empty()) {
    return InvalidArgumentError("pass --catalog=FILE or --data=CSV");
  }
  RANGESYN_ASSIGN_OR_RETURN(std::vector<int64_t> counts,
                            LoadDistributionCsv(data_path));
  AttributeDistribution distribution;
  distribution.domain_lo = 1;
  distribution.counts = std::move(counts);
  SynopsisSpec spec;
  spec.method = flags.GetString("method");
  spec.budget_words = flags.GetInt64("budget");
  SynopsisCatalog catalog;
  RANGESYN_RETURN_IF_ERROR(catalog.RegisterDistribution(
      flags.GetString("key"), std::move(distribution), spec));
  return catalog;
}

/// Set by the SIGTERM/SIGINT handler while `rangesyn serve` runs. A
/// lock-free store is the only thing an async-signal-safe handler may do;
/// the serve loop polls it and performs the actual drain.
std::atomic<bool> g_serve_drain_requested{false};

void HandleServeSignal(int /*signum*/) {
  g_serve_drain_requested.store(true, std::memory_order_release);
}

Result<std::string> CmdServe(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn serve",
                "serve synopsis estimates over RSP1 until SIGTERM");
  DefineCatalogSourceFlags(&flags);
  flags.DefineString("host", "127.0.0.1", "address to bind");
  flags.DefineInt64("port", 0, "TCP port (0 = ephemeral)");
  flags.DefineString("port-file", "",
                     "write the bound port to this file once listening");
  flags.DefineInt64("max-conns", 64,
                    "connection cap (excess get a typed OVERLOADED)");
  flags.DefineInt64("queue-limit", 256,
                    "admitted-request cap (excess are shed, typed)");
  flags.DefineInt64("eval-chunk", 256,
                    "queries evaluated between deadline polls");
  flags.DefineInt64("drain-after-ms", 0,
                    "drain this long after start (0 = on signal only; "
                    "for tests and scripted runs)");
  flags.DefineDouble("grace-s", 30.0, "drain grace window, seconds");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(SynopsisCatalog catalog,
                            LoadServeCatalog(flags));
  serve::ServerOptions options;
  options.host = flags.GetString("host");
  options.port = static_cast<uint16_t>(flags.GetInt64("port"));
  options.max_connections = static_cast<int>(flags.GetInt64("max-conns"));
  options.queue_limit = static_cast<int>(flags.GetInt64("queue-limit"));
  options.eval_chunk = static_cast<int>(flags.GetInt64("eval-chunk"));
  RANGESYN_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::Server> server,
      serve::Server::Create(std::move(catalog), options));
  RANGESYN_RETURN_IF_ERROR(server->Start());
  if (!flags.GetString("port-file").empty()) {
    RANGESYN_RETURN_IF_ERROR(AtomicWriteFile(
        flags.GetString("port-file"), StrCat(server->port(), "\n")));
  }
  g_serve_drain_requested.store(false, std::memory_order_release);
  auto previous_term = std::signal(SIGTERM, HandleServeSignal);
  auto previous_int = std::signal(SIGINT, HandleServeSignal);
  const int64_t drain_after_ms = flags.GetInt64("drain-after-ms");
  const auto started = std::chrono::steady_clock::now();
  while (!g_serve_drain_requested.load(std::memory_order_acquire)) {
    if (drain_after_ms > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::milliseconds(drain_after_ms)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const Status drained = server->DrainAndWait(flags.GetDouble("grace-s"));
  (void)std::signal(SIGTERM, previous_term);
  (void)std::signal(SIGINT, previous_int);
  const std::string summary = server->SummaryLine();
  RANGESYN_RETURN_IF_ERROR(drained);
  return StrCat("drained cleanly\n", summary, "\n");
}

Result<std::string> CmdLoadgen(const std::vector<std::string>& args) {
  FlagSet flags("rangesyn loadgen",
                "generate deterministic traffic against a serve daemon");
  DefineCatalogSourceFlags(&flags);
  flags.DefineString("host", "127.0.0.1", "daemon address");
  flags.DefineInt64("port", 0, "daemon port");
  flags.DefineString("port-file", "",
                     "read the port from this file (written by serve "
                     "--port-file; polled until it appears)");
  flags.DefineDouble("port-wait-s", 10.0,
                     "how long to wait for --port-file to appear");
  flags.DefineInt64("requests", 1000, "total query requests");
  flags.DefineInt64("concurrency", 4, "worker connections");
  flags.DefineInt64("batch", 8, "ranges per request");
  flags.DefineInt64("deadline-ms", 1000,
                    "per-request deadline and retry budget (0 = none)");
  flags.DefineInt64("max-attempts", 3, "attempts per request");
  flags.DefineInt64("seed", 1, "traffic seed (replayable)");
  flags.DefineBool("verify", true,
                   "check responses bit-exactly against a local build");
  flags.DefineBool("json", false, "emit the report as JSON");
  RANGESYN_RETURN_IF_ERROR(ParseArgs(&flags, args));
  RANGESYN_ASSIGN_OR_RETURN(SynopsisCatalog catalog,
                            LoadServeCatalog(flags));
  std::unordered_map<std::string, std::shared_ptr<const FlatSynopsis>>
      views;
  std::vector<std::string> keys;
  for (const SynopsisCatalog::EntryInfo& info : catalog.ListEntries()) {
    RANGESYN_ASSIGN_OR_RETURN(
        std::shared_ptr<const FlatSynopsis> view,
        catalog.FlatView(info.key));
    views.emplace(info.key, std::move(view));
    keys.push_back(info.key);
  }
  serve::LoadgenOptions options;
  options.client.host = flags.GetString("host");
  int64_t port = flags.GetInt64("port");
  if (!flags.GetString("port-file").empty()) {
    const auto wait_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(flags.GetDouble("port-wait-s")));
    for (;;) {
      Result<std::string> text =
          ReadFileToString(flags.GetString("port-file"));
      if (text.ok() && ParseInt64(StripWhitespace(*text), &port)) break;
      if (std::chrono::steady_clock::now() >= wait_deadline) {
        return DeadlineExceededError(
            StrCat("loadgen: port file '", flags.GetString("port-file"),
                   "' did not appear within ",
                   flags.GetDouble("port-wait-s"), "s"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (port <= 0 || port > 65535) {
    return InvalidArgumentError(
        StrCat("loadgen: invalid port ", port,
               " (pass --port or --port-file)"));
  }
  options.client.port = static_cast<uint16_t>(port);
  options.client.max_attempts =
      static_cast<int>(flags.GetInt64("max-attempts"));
  options.keys = std::move(keys);
  options.requests = flags.GetInt64("requests");
  options.concurrency = static_cast<int>(flags.GetInt64("concurrency"));
  options.batch = static_cast<int>(flags.GetInt64("batch"));
  options.deadline_ms =
      static_cast<uint32_t>(flags.GetInt64("deadline-ms"));
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.verify = flags.GetBool("verify");
  RANGESYN_ASSIGN_OR_RETURN(serve::LoadgenReport report,
                            serve::RunLoadgen(options, views));
  if (report.mismatched > 0) {
    return InternalError(
        StrCat("loadgen: ", report.mismatched,
               " responses were not bit-identical to the local oracle\n",
               report.ToText()));
  }
  return flags.GetBool("json") ? StrCat(report.ToJson(), "\n")
                               : report.ToText();
}

}  // namespace

std::string CliUsage() {
  return
      "rangesyn — summary statistics for range aggregates (PODS 2001)\n"
      "\n"
      "usage: rangesyn <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  generate   write a synthetic attribute-value distribution CSV\n"
      "  build      build a synopsis from a CSV and persist it\n"
      "  inspect    describe a persisted synopsis\n"
      "  estimate   answer one range query from a synopsis\n"
      "  evaluate   score a synopsis against exact answers\n"
      "  sweep      run a Figure-1 style storage sweep\n"
      "  stats      run an instrumented pipeline and report obs metrics\n"
      "  serve      serve synopsis estimates over RSP1 until SIGTERM\n"
      "  loadgen    generate deterministic traffic against a serve "
      "daemon\n"
      "  help       show this text\n"
      "\n"
      "global flags (any command):\n"
      "  --trace-out=FILE   write a Chrome trace (chrome://tracing) of the "
      "run\n"
      "  --stats-json=FILE  dump the metrics registry as JSON after the "
      "run\n"
      "  --threads=N        worker threads for parallel construction "
      "(0 = all cores, 1 = serial; default: RANGESYN_THREADS env or 0). "
      "Results are bit-identical at every thread count.\n"
      "  --failpoints=SPEC  activate fault-injection sites (debugging/"
      "testing; e.g. 'io.*=once;alloc.interval_dp=prob:0.1:42'). "
      "Default: RANGESYN_FAILPOINTS env. Requires a build with "
      "RANGESYN_FAILPOINTS=ON (the default).\n"
      "  --log-level=LEVEL  minimum severity emitted to the structured "
      "log (debug|info|warning|error; default info)\n"
      "  --log-json         emit structured log events as JSON lines "
      "instead of text\n"
      "  --flight-dir=DIR   write flight-recorder postmortem dumps into "
      "DIR on crash/degradation/quarantine (default: RANGESYN_FLIGHT_DIR "
      "env; unset disables dumps)\n"
      "\n"
      "run 'rangesyn <command> --help' for per-command flags.\n";
}

Result<std::string> RunCliCommand(const std::vector<std::string>& args) {
  // Global observability flags work on every command; strip them here so
  // the per-command FlagSets stay unaware of them.
  std::string trace_out;
  std::string stats_json;
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (const std::string& a : args) {
    if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(sizeof("--trace-out=") - 1);
    } else if (a.rfind("--stats-json=", 0) == 0) {
      stats_json = a.substr(sizeof("--stats-json=") - 1);
    } else if (a.rfind("--threads=", 0) == 0) {
      const std::string value = a.substr(sizeof("--threads=") - 1);
      int64_t threads = 0;
      if (!ParseInt64(value, &threads) || threads < 0) {
        return InvalidArgumentError(
            StrCat("--threads: expected a non-negative integer, got '",
                   value, "'"));
      }
      SetGlobalThreads(static_cast<int>(threads));
    } else if (a.rfind("--failpoints=", 0) == 0) {
      const std::string spec = a.substr(sizeof("--failpoints=") - 1);
      if (!failpoint::kCompiledIn) {
        return FailedPreconditionError(
            "--failpoints: this binary was built with "
            "RANGESYN_FAILPOINTS=OFF");
      }
      RANGESYN_RETURN_IF_ERROR(failpoint::Configure(spec));
    } else if (a.rfind("--log-level=", 0) == 0) {
      const std::string value = a.substr(sizeof("--log-level=") - 1);
      LogSeverity level;
      if (!obs::ParseLogLevel(value, &level)) {
        return InvalidArgumentError(
            StrCat("--log-level: expected debug, info, warning, or error; "
                   "got '", value, "'"));
      }
      SetMinLogSeverity(level);
    } else if (a == "--log-json") {
      obs::LogSink::Get().SetJson(true);
    } else if (a.rfind("--flight-dir=", 0) == 0) {
      obs::FlightRecorder::Get().SetDumpDir(
          a.substr(sizeof("--flight-dir=") - 1));
    } else {
      kept.push_back(a);
    }
  }
  if (kept.empty() || kept[0] == "help" || kept[0] == "--help") {
    return CliUsage();
  }
  const std::string& command = kept[0];
  const std::vector<std::string> rest(kept.begin() + 1, kept.end());
  if (!trace_out.empty()) obs::Tracer::Get().Start();
  Result<std::string> result = [&]() -> Result<std::string> {
    if (command == "generate") return CmdGenerate(rest);
    if (command == "build") return CmdBuild(rest);
    if (command == "inspect") return CmdInspect(rest);
    if (command == "estimate") return CmdEstimate(rest);
    if (command == "evaluate") return CmdEvaluate(rest);
    if (command == "sweep") return CmdSweep(rest);
    if (command == "stats") return CmdStats(rest);
    if (command == "serve") return CmdServe(rest);
    if (command == "loadgen") return CmdLoadgen(rest);
    return InvalidArgumentError(
        StrCat("unknown command '", command, "'\n\n", CliUsage()));
  }();
  // Export even when the command failed (a partial trace is still useful
  // for debugging), but let the command's own error win.
  std::string notes;
  if (!trace_out.empty()) {
    obs::Tracer::Get().Stop();
    if (Status s = obs::WriteTraceJsonFile(trace_out); !s.ok()) {
      if (result.ok()) return s;
    } else {
      notes += StrCat("wrote trace -> ", trace_out, "\n");
    }
  }
  if (!stats_json.empty()) {
    if (Status s = obs::WriteStatsJsonFile(obs::Registry::Get().Snapshot(),
                                           stats_json);
        !s.ok()) {
      if (result.ok()) return s;
    } else {
      notes += StrCat("wrote stats -> ", stats_json, "\n");
    }
  }
  if (!result.ok()) return result;
  return result.value() + notes;
}

}  // namespace rangesyn
