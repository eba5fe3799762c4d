#ifndef RANGESYN_CLI_COMMANDS_H_
#define RANGESYN_CLI_COMMANDS_H_

#include <string>
#include <vector>

#include "core/result.h"

namespace rangesyn {

/// The rangesyn command-line tool, as a library so the dispatcher is unit
/// testable. Each command takes argv-style arguments (without the program
/// name) and returns its human-readable output.
///
/// `build` writes the synopsis as an RSF1 file (qpath/flat_file.h);
/// `inspect`, `estimate` and `evaluate` mmap it and serve from it.
///
/// Commands:
///   generate  --dist=zipf --n=127 --volume=2000 --seed=7 --out=data.csv
///   build     --data=data.csv --method=sap1 --budget=24 --out=syn.rsn
///   inspect   --synopsis=syn.rsn
///   estimate  --synopsis=syn.rsn --a=3 --b=40
///   evaluate  --synopsis=syn.rsn --data=data.csv [--workload=log.csv]
///   sweep     --data=data.csv --methods=a0,sap1 --budgets=8,16,32 [--csv]
///   serve     --data=data.csv|--catalog=cat.rsc [--port=0 --port-file=p]
///   loadgen   --data=data.csv|--catalog=cat.rsc --port-file=p
///             [--requests=1000 --concurrency=4 --batch=8 --json]
///
/// `RunCliCommand({"build", "--data=...", ...})` dispatches on the first
/// element; unknown commands and `help` return the usage text.
Result<std::string> RunCliCommand(const std::vector<std::string>& args);

/// Top-level usage text.
std::string CliUsage();

}  // namespace rangesyn

#endif  // RANGESYN_CLI_COMMANDS_H_
