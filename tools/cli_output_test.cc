// End-to-end CLI tests: run the actual cousins_cli binary and verify
// the content (not just the exit code) of what it prints.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// `env_prefix` is prepended to the shell command ("VAR=value "), which
/// is how the fault-drill tests arm COUSINS_FAULT_SPEC inside the child
/// CLI process only.
RunResult RunCli(const std::string& args, const std::string& env_prefix = "") {
  const std::string command =
      env_prefix + std::string(CLI_BINARY) + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string Data(const std::string& name) {
  return std::string(CLI_TESTDATA) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

TEST(CliOutputTest, FrequentReportsThePaperPattern) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("(Gnetum, Welwitschia, 0) support=4"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(Ginkgoales, Ephedra, 1.5) support=2"),
            std::string::npos);
}

TEST(CliOutputTest, FrequentCsvIsMachineReadable) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") + " --csv");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("label1,label2,distance,support,occurrences\n",
                           0),
            0u)
      << r.output;
  EXPECT_NE(r.output.find("Gnetum,Welwitschia,0,4,4"), std::string::npos);
}

TEST(CliOutputTest, ConsensusEmitsNewick) {
  RunResult r =
      RunCli("consensus " + Data("primates.nex") + " --method=strict");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Homo_sapiens"), std::string::npos);
  EXPECT_EQ(r.output.back(), '\n');
  EXPECT_NE(r.output.find(");"), std::string::npos);
}

TEST(CliOutputTest, DistanceMatrixHasZeroDiagonal) {
  RunResult r = RunCli("distance " + Data("primates.nex"));
  EXPECT_EQ(r.exit_code, 0);
  // Three trees -> three rows; each row i has 0.000000 at position i.
  EXPECT_EQ(r.output.rfind("0.000000,", 0), 0u) << r.output;
}

TEST(CliOutputTest, StatsHeaderAndRows) {
  RunResult r = RunCli("stats " + Data("seed_plants.nwk"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("tree,nodes,taxa,internal", 0), 0u);
  int lines = 0;
  for (char c : r.output) lines += c == '\n';
  EXPECT_EQ(lines, 5);  // header + 4 trees
}

TEST(CliOutputTest, ShowRendersAsciiArt) {
  RunResult r = RunCli("show " + Data("primates.nex"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("└──"), std::string::npos);
  EXPECT_NE(r.output.find("Hylobates_lar"), std::string::npos);
}

TEST(CliOutputTest, ConvertNexusRoundTrips) {
  RunResult r = RunCli("convert " + Data("seed_plants.nwk") + " --nexus");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("#NEXUS", 0), 0u);
  EXPECT_NE(r.output.find("TRANSLATE"), std::string::npos);
  EXPECT_NE(r.output.find("END;"), std::string::npos);
}

TEST(CliOutputTest, UsageOnBadInvocation) {
  RunResult r = RunCli("nonsense-command somefile");
  EXPECT_NE(r.exit_code, 0);
  RunResult no_args = RunCli("");
  EXPECT_NE(no_args.exit_code, 0);
  EXPECT_NE(no_args.output.find("usage:"), std::string::npos);
}

TEST(CliOutputTest, ErrorsGoToStderrWithNonZeroExit) {
  RunResult r = RunCli("mine /definitely/not/a/file.nwk");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("NotFound"), std::string::npos) << r.output;
}

TEST(CliOutputTest, MalformedFlagValueIsAUsageError) {
  RunResult r =
      RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("--minsup"), std::string::npos) << r.output;
}

TEST(CliOutputTest, UnknownFlagIsRejected) {
  RunResult r =
      RunCli("mine " + Data("seed_plants.nwk") + " --no-such-flag=1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown flag '--no-such-flag=1'"),
            std::string::npos)
      << r.output;
}

TEST(CliOutputTest, ParseErrorReportsLineAndColumn) {
  const std::string path =
      std::string(::testing::TempDir()) + "/cli_parse_error.nwk";
  {
    std::ofstream out(path);
    out << "(a,(b,c);\n";  // missing ')'
  }
  RunResult r = RunCli("mine " + path);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("line 1"), std::string::npos) << r.output;
}

TEST(CliOutputTest, MaxItemsBudgetTruncatesWithExitThree) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") +
                       " --minsup=2 --max-items=1");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("truncated"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ResourceExhausted"), std::string::npos)
      << r.output;
}

TEST(CliOutputTest, ExpiredDeadlineTruncatesWithExitThree) {
  RunResult r = RunCli("mine " + Data("seed_plants.nwk") +
                       " --deadline-ms=0");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("DeadlineExceeded"), std::string::npos)
      << r.output;
}

TEST(CliOutputTest, SigtermMidRunWritesPartialStateAndExitsThree) {
  // A real operator interrupt: SIGTERM a long run and demand the same
  // contract as any governance trip — exit 3, the truncation warning,
  // a surviving checkpoint, and a health report naming the signal.
  // The workload (300 star trees of 400 leaves) runs >1s, so a signal
  // a fraction of a second in reliably lands mid-forest; if the box is
  // fast enough to finish first we retry with a shorter fuse.
  const std::string base = std::string(::testing::TempDir());
  const std::string forest = base + "/cli_sigterm_forest.nwk";
  {
    std::ofstream out(forest);
    std::string star = "(";
    for (int i = 0; i < 400; ++i) {
      star += (i == 0 ? "L" : ",L") + std::to_string(i);
    }
    star += ");\n";
    for (int i = 0; i < 300; ++i) out << star;
  }
  const std::string ckpt = base + "/cli_sigterm_ckpt";
  const std::string report = base + "/cli_sigterm_health.json";
  const std::string out_path = base + "/cli_sigterm.out";
  const std::string rc_path = base + "/cli_sigterm.rc";

  int rc = -1;
  std::string output;
  for (const char* fuse : {"0.3", "0.1", "0.02"}) {
    std::remove(ckpt.c_str());
    std::remove(report.c_str());
    const std::string command =
        std::string(CLI_BINARY) + " frequent " + forest +
        " --csv --minsup=300 --threads=1 --checkpoint=" + ckpt +
        " --checkpoint-every=20 --health-report=" + report + " > " +
        out_path + " 2>&1 & pid=$!; sleep " + fuse +
        "; kill -TERM $pid 2>/dev/null; wait $pid; echo $? > " + rc_path;
    ASSERT_EQ(std::system(("sh -c '" + command + "'").c_str()), 0);
    rc = std::atoi(ReadAll(rc_path).c_str());
    output = ReadAll(out_path);
    if (rc == 3) break;  // the signal landed mid-run
  }
  std::remove(forest.c_str());
  std::remove(out_path.c_str());
  std::remove(rc_path.c_str());
  if (rc == 0) {
    std::remove(ckpt.c_str());
    std::remove(report.c_str());
    GTEST_SKIP() << "run completed before any SIGTERM fuse";
  }
  EXPECT_EQ(rc, 3) << output;
  EXPECT_NE(output.find("output truncated"), std::string::npos) << output;
  EXPECT_NE(output.find("Cancelled"), std::string::npos) << output;
  // The interrupted run still checkpointed the mined prefix...
  std::ifstream surviving(ckpt);
  EXPECT_TRUE(surviving.good()) << "no checkpoint after SIGTERM";
  // ...and the health report records both the exit and the signal.
  const std::string body = ReadAll(report);
  EXPECT_NE(body.find("\"exit_code\": 3"), std::string::npos) << body;
  EXPECT_NE(body.find("\"interrupt_signal\": 15"), std::string::npos)
      << body;
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove(report.c_str());
}

/// A 12-tree forest with enough shared structure that --minsup=2 has
/// stable frequent pairs; written to TempDir/<name> for the checkpoint
/// drills. Each drill passes its own name: ctest runs them in parallel, and
/// one drill's cleanup must not delete the forest another is resuming over.
std::string WriteCheckpointForest(const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path);
  for (int i = 0; i < 4; ++i) {
    out << "((a,b),(c,(d,e)));\n";
    out << "((a,c),(b,(d,e)));\n";
    out << "((a,(b,c)),(d,e));\n";
  }
  return path;
}

TEST(CliOutputTest, CheckpointResumeAfterMidRunKillMatchesUninterrupted) {
  const std::string forest = WriteCheckpointForest("cli_ckpt_kill_forest.nwk");
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_ckpt_state";
  std::remove(ckpt.c_str());
  const std::string flags = " --csv --minsup=2 --threads=2";

  RunResult baseline = RunCli("frequent " + forest + flags);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;

  // Kill the run mid-forest: with 2 workers per 3-tree batch, the 5th
  // worker-body hit lands in the third batch, after two checkpoints.
  RunResult killed =
      RunCli("frequent " + forest + flags + " --checkpoint=" + ckpt +
                 " --checkpoint-every=3",
             "COUSINS_FAULT_SPEC=parallel.worker:5 ");
  EXPECT_EQ(killed.exit_code, 1) << killed.output;
  EXPECT_NE(killed.output.find("injected fault at parallel.worker"),
            std::string::npos)
      << killed.output;

  // Disarmed resume from the surviving checkpoint completes and is
  // byte-identical to the uninterrupted run.
  RunResult resumed = RunCli("frequent " + forest + flags +
                             " --checkpoint=" + ckpt +
                             " --checkpoint-every=3 --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, baseline.output);

  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove(forest.c_str());
}

TEST(CliOutputTest, CheckpointResumeAfterGovernanceTripMatchesBaseline) {
  const std::string forest = WriteCheckpointForest("cli_ckpt_trip_forest.nwk");
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_ckpt_trip_state";
  std::remove(ckpt.c_str());
  const std::string flags = " --csv --minsup=2 --threads=1";

  RunResult baseline = RunCli("frequent " + forest + flags);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;

  // A budget trip (works in every build, no fault sites needed) leaves
  // a partial checkpoint behind...
  RunResult tripped = RunCli("frequent " + forest + flags +
                             " --max-items=5 --checkpoint=" + ckpt +
                             " --checkpoint-every=3");
  EXPECT_EQ(tripped.exit_code, 3) << tripped.output;
  EXPECT_NE(tripped.output.find("ResourceExhausted"), std::string::npos)
      << tripped.output;

  // ...and a resume with a roomier budget finishes the forest exactly.
  RunResult resumed = RunCli("frequent " + forest + flags +
                             " --checkpoint=" + ckpt +
                             " --checkpoint-every=3 --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, baseline.output);

  std::remove(ckpt.c_str());
  std::remove(forest.c_str());
}

TEST(CliOutputTest, ResumeWithoutCheckpointPathIsAUsageError) {
  RunResult r =
      RunCli("frequent " + Data("seed_plants.nwk") + " --resume");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--resume requires --checkpoint"),
            std::string::npos)
      << r.output;
}

TEST(CliOutputTest, NonPositiveCheckpointEveryIsAUsageError) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") +
                       " --checkpoint=/tmp/x --checkpoint-every=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--checkpoint-every"), std::string::npos)
      << r.output;
}

TEST(CliOutputTest, StdoutWriteFailureIsReportedWithExitOne) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2",
                       "COUSINS_FAULT_SPEC=cli.stdout:1 ");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("stdout write failed"), std::string::npos)
      << r.output;
}

TEST(CliOutputTest, InputReadFailureIsReportedWithExitOne) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2",
                       "COUSINS_FAULT_SPEC=cli.read:1 ");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("read error"), std::string::npos) << r.output;
}

TEST(CliOutputTest, MalformedFaultSpecEnvAbortsLoudly) {
  // A typo'd drill must never silently run faultless: the process
  // aborts (non-zero, not a normal exit path) and names the bad spec.
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk"),
                       "COUSINS_FAULT_SPEC=parallel.worker:oops ");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.exit_code, 3);
  EXPECT_NE(r.output.find("COUSINS_FAULT_SPEC"), std::string::npos)
      << r.output;
}

TEST(CliOutputTest, GovernedRunWithRoomyLimitsMatchesUngoverned) {
  RunResult governed = RunCli("frequent " + Data("seed_plants.nwk") +
                              " --minsup=2 --deadline-ms=60000");
  RunResult plain =
      RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2");
  EXPECT_EQ(governed.exit_code, 0);
  EXPECT_EQ(governed.output, plain.output);
}

// ---------------------------------------------------------------------------
// Degraded mode (--lenient / --health-report / --watchdog-ms).
// testdata/dirty_forest.nwk is a BOM+CRLF file of six entries where
// entries 1 (unbalanced parens), 3 (oversized label) and 5 (garbage)
// are malformed and 0, 2, 4 are healthy.

TEST(CliDegradedTest, StrictModeFailsAtTheFirstDirtyEntry) {
  RunResult r = RunCli("frequent " + Data("dirty_forest.nwk") +
                       " --minsup=2");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The first malformed entry sits on line 2 of the (BOM-less) file.
  EXPECT_NE(r.output.find("line 2, column 2"), std::string::npos)
      << r.output;
}

TEST(CliDegradedTest, LenientModeMinesExactlyTheHealthySubset) {
  RunResult lenient = RunCli("frequent " + Data("dirty_forest.nwk") +
                             " --minsup=2 --csv --lenient");
  EXPECT_EQ(lenient.exit_code, 0) << lenient.output;

  // A clean file holding just the three healthy entries mines
  // byte-identically.
  const std::string clean =
      std::string(::testing::TempDir()) + "/cli_clean_subset.nwk";
  {
    std::ofstream out(clean);
    out << "(A,(B,C));\n(B,(C,D));\n((A,C),(B,D));\n";
  }
  RunResult strict = RunCli("frequent " + clean + " --minsup=2 --csv");
  std::remove(clean.c_str());
  ASSERT_EQ(strict.exit_code, 0) << strict.output;
  EXPECT_EQ(lenient.output, strict.output);
}

TEST(CliDegradedTest, LenientFlagOnCleanInputChangesNothing) {
  RunResult lenient = RunCli("frequent " + Data("seed_plants.nwk") +
                             " --minsup=2 --lenient");
  RunResult plain =
      RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2");
  EXPECT_EQ(lenient.exit_code, 0);
  EXPECT_EQ(lenient.output, plain.output);
}

TEST(CliDegradedTest, HealthReportNamesEveryPoisonedEntry) {
  const std::string report =
      std::string(::testing::TempDir()) + "/cli_health.json";
  std::remove(report.c_str());
  RunResult r = RunCli("frequent " + Data("dirty_forest.nwk") +
                       " --minsup=2 --lenient --health-report=" + report);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string body = ReadAll(report);
  std::remove(report.c_str());
  for (const char* expected :
       {"\"command\": \"frequent\"", "\"lenient\": true",
        "\"exit_code\": 0", "\"trees_loaded\": 3",
        "\"trees_quarantined\": 3", "\"tree_index\": 1", "\"tree_index\": 3",
        "\"tree_index\": 5", "\"stage\": \"parse\"",
        "\"line\": 2", "\"column\": 2",
        "\"code\": \"ResourceExhausted\"",
        "\"degraded.quarantined\": 3"}) {
    EXPECT_NE(body.find(expected), std::string::npos)
        << "missing " << expected << " in:\n"
        << body;
  }
  // The healthy entries are not in the quarantine section.
  EXPECT_EQ(body.find("\"tree_index\": 0"), std::string::npos) << body;
}

TEST(CliDegradedTest, HealthReportIsWrittenForStrictFailuresToo) {
  const std::string report =
      std::string(::testing::TempDir()) + "/cli_health_strict.json";
  std::remove(report.c_str());
  RunResult r = RunCli("frequent " + Data("dirty_forest.nwk") +
                       " --minsup=2 --health-report=" + report);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string body = ReadAll(report);
  std::remove(report.c_str());
  EXPECT_NE(body.find("\"exit_code\": 1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"lenient\": false"), std::string::npos) << body;
}

TEST(CliDegradedTest, WatchdogStallTripsWithExitThree) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") +
                           " --minsup=2 --threads=3 --watchdog-ms=100",
                       "COUSINS_FAULT_SPEC=watchdog.stall:1 ");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("watchdog"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("shard"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("DeadlineExceeded"), std::string::npos)
      << r.output;
}

TEST(CliDegradedTest, WatchdogOnAHealthyRunChangesNothing) {
  RunResult watched = RunCli("frequent " + Data("seed_plants.nwk") +
                             " --minsup=2 --threads=3 --watchdog-ms=5000");
  RunResult plain =
      RunCli("frequent " + Data("seed_plants.nwk") + " --minsup=2");
  EXPECT_EQ(watched.exit_code, 0) << watched.output;
  EXPECT_EQ(watched.output, plain.output);
}

TEST(CliDegradedTest, BadDegradedFlagValuesAreUsageErrors) {
  RunResult attempts = RunCli("frequent " + Data("seed_plants.nwk") +
                              " --retry-attempts=0");
  EXPECT_EQ(attempts.exit_code, 2) << attempts.output;
  EXPECT_NE(attempts.output.find("--retry-attempts"), std::string::npos);
  RunResult watchdog = RunCli("frequent " + Data("seed_plants.nwk") +
                              " --watchdog-ms=-5");
  EXPECT_EQ(watchdog.exit_code, 2) << watchdog.output;
  EXPECT_NE(watchdog.output.find("--watchdog-ms"), std::string::npos);
}

TEST(CliDegradedTest, TransientReadFaultIsRetriedUnderRetryAttempts) {
  // Strict default is fail-fast (covered by InputReadFailureIsReported
  // WithExitOne); with --retry-attempts=3 the same one-shot fault is
  // absorbed by the second attempt.
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") +
                           " --minsup=2 --retry-attempts=3",
                       "COUSINS_FAULT_SPEC=cli.read:1 ");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(Gnetum, Welwitschia, 0) support=4"),
            std::string::npos)
      << r.output;
}

/// Writes a 60-entry forest where every 10th entry is malformed —
/// large enough for several checkpoint boundaries under
/// --checkpoint-every=5 with three healthy trees per batch surviving.
std::string WriteDirtyCheckpointForest() {
  const std::string path =
      std::string(::testing::TempDir()) + "/cli_dirty_ckpt_forest.nwk";
  std::ofstream out(path);
  for (int i = 0; i < 60; ++i) {
    if (i % 10 == 0) {
      out << "((p,q,(r;\n";
    } else if (i % 3 == 0) {
      out << "((a,b),(c,(d,e)));\n";
    } else if (i % 3 == 1) {
      out << "((a,c),(b,(d,e)));\n";
    } else {
      out << "((a,(b,c)),(d,e));\n";
    }
  }
  return path;
}

TEST(CliDegradedTest, KilledLenientRunResumesToIdenticalCsvAndLedger) {
  const std::string forest = WriteDirtyCheckpointForest();
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_lenient_ckpt";
  const std::string report =
      std::string(::testing::TempDir()) + "/cli_lenient_health.json";
  const std::string flags =
      " --csv --minsup=2 --threads=2 --lenient --health-report=" + report;

  // Uninterrupted lenient baseline (no checkpointing).
  RunResult baseline = RunCli("frequent " + forest + flags);
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string baseline_report = ReadAll(report);
  std::remove(report.c_str());

  // Kill a checkpointed lenient run mid-forest.
  std::remove(ckpt.c_str());
  RunResult killed =
      RunCli("frequent " + forest + flags + " --checkpoint=" + ckpt +
                 " --checkpoint-every=5",
             "COUSINS_FAULT_SPEC=parallel.worker:9 ");
  EXPECT_EQ(killed.exit_code, 1) << killed.output;

  // Disarmed resume: byte-identical CSV AND byte-identical quarantine
  // ledger in the health report (modulo the exit code recorded for the
  // killed attempt, which the report of the resumed run overwrites).
  std::remove(report.c_str());
  RunResult resumed = RunCli("frequent " + forest + flags +
                             " --checkpoint=" + ckpt +
                             " --checkpoint-every=5 --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, baseline.output);
  EXPECT_EQ(ReadAll(report), baseline_report);

  std::remove(report.c_str());
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove(forest.c_str());
}

// ---------------------------------------------------------------------------
// Multi-process mining (--workers): the supervisor forks workers that
// mine mmap'd forest shards under journaled leases; its CSV, ledger and
// checkpoint must be byte-identical to the sequential run, including
// across injected worker kills and a supervisor death + --resume.

/// Removes the checkpoint plus the lease journal and shard snapshots
/// the multi-process run keeps next to it.
void RemoveProcArtifacts(const std::string& ckpt) {
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  const std::string journal = ckpt + ".leases";
  std::remove(journal.c_str());
  for (int shard = 0; shard < 64; ++shard) {
    std::remove((journal + ".shard" + std::to_string(shard)).c_str());
  }
}

/// A 24-entry forest (clean or with malformed entries mixed in) —
/// enough lines for the default 4*workers shard plan to really shard.
std::string WriteProcForest(const std::string& name, bool dirty) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path);
  for (int i = 0; i < 24; ++i) {
    if (dirty && i % 7 == 2) {
      out << "((oops,(;\n";
    } else if (i % 3 == 0) {
      out << "((a,b),(c,(d,e)));\n";
    } else if (i % 3 == 1) {
      out << "((a,c),(b,(d,e)));\n";
    } else {
      out << "((a,(b,c)),(d,e));\n";
    }
  }
  return path;
}

TEST(CliMultiProcTest, WorkersMatchTheSequentialRunByteForByte) {
  const std::string forest = WriteProcForest("cli_mp_clean.nwk", false);
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_mp_clean_ckpt";
  RemoveProcArtifacts(ckpt);

  RunResult sequential =
      RunCli("frequent " + forest + " --csv --minsup=2");
  ASSERT_EQ(sequential.exit_code, 0) << sequential.output;

  RunResult multi = RunCli("frequent " + forest +
                           " --csv --minsup=2 --workers=3 --checkpoint=" +
                           ckpt);
  EXPECT_EQ(multi.exit_code, 0) << multi.output;
  EXPECT_EQ(multi.output, sequential.output);

  RemoveProcArtifacts(ckpt);
  std::remove(forest.c_str());
}

TEST(CliMultiProcTest, DirtyLenientWorkersMatchTheSequentialRun) {
  const std::string forest = WriteProcForest("cli_mp_dirty.nwk", true);
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_mp_dirty_ckpt";
  RemoveProcArtifacts(ckpt);

  RunResult sequential =
      RunCli("frequent " + forest + " --csv --minsup=2 --lenient");
  ASSERT_EQ(sequential.exit_code, 0) << sequential.output;

  RunResult multi = RunCli("frequent " + forest +
                           " --csv --minsup=2 --lenient --workers=3"
                           " --checkpoint=" +
                           ckpt);
  EXPECT_EQ(multi.exit_code, 0) << multi.output;
  EXPECT_EQ(multi.output, sequential.output);

  RemoveProcArtifacts(ckpt);
  std::remove(forest.c_str());
}

TEST(CliMultiProcTest, KilledWorkerDrillStillMatchesSequential) {
  const std::string forest = WriteProcForest("cli_mp_kill.nwk", false);
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_mp_kill_ckpt";
  RemoveProcArtifacts(ckpt);

  RunResult sequential =
      RunCli("frequent " + forest + " --csv --minsup=2");
  ASSERT_EQ(sequential.exit_code, 0) << sequential.output;

  // SIGKILL the worker holding the second granted lease, mid-run. The
  // supervisor reaps it, re-issues the shard, and completes with the
  // exact sequential bytes.
  RunResult drilled = RunCli("frequent " + forest +
                                 " --csv --minsup=2 --workers=3"
                                 " --checkpoint=" +
                                 ckpt,
                             "COUSINS_FAULT_SPEC=proc.kill_worker:2 ");
  EXPECT_EQ(drilled.exit_code, 0) << drilled.output;
  EXPECT_EQ(drilled.output, sequential.output);

  RemoveProcArtifacts(ckpt);
  std::remove(forest.c_str());
}

TEST(CliMultiProcTest, SupervisorDeathResumesToIdenticalOutput) {
  const std::string forest = WriteProcForest("cli_mp_die.nwk", false);
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_mp_die_ckpt";
  RemoveProcArtifacts(ckpt);

  RunResult sequential =
      RunCli("frequent " + forest + " --csv --minsup=2");
  ASSERT_EQ(sequential.exit_code, 0) << sequential.output;

  // The supervisor _exit(137)s right after recording the first DONE —
  // the fsync'd journal and that shard's snapshot survive the crash.
  RunResult killed = RunCli("frequent " + forest +
                                " --csv --minsup=2 --workers=3"
                                " --checkpoint=" +
                                ckpt,
                            "COUSINS_FAULT_SPEC=proc.supervisor.die:1 ");
  EXPECT_EQ(killed.exit_code, 137) << killed.output;

  // Disarmed --resume readopts the completed shard, re-mines the rest,
  // and emits the sequential bytes.
  RunResult resumed = RunCli("frequent " + forest +
                             " --csv --minsup=2 --workers=3 --resume"
                             " --checkpoint=" +
                             ckpt);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(resumed.output, sequential.output);

  RemoveProcArtifacts(ckpt);
  std::remove(forest.c_str());
}

TEST(CliMultiProcTest, HealthReportPinsThePerWorkerSchema) {
  const std::string forest = WriteProcForest("cli_mp_health.nwk", true);
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/cli_mp_health_ckpt";
  const std::string report =
      std::string(::testing::TempDir()) + "/cli_mp_health.json";
  RemoveProcArtifacts(ckpt);
  std::remove(report.c_str());

  RunResult r = RunCli("frequent " + forest +
                       " --csv --minsup=2 --lenient --workers=2"
                       " --checkpoint=" +
                       ckpt + " --health-report=" + report);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string body = ReadAll(report);
  std::remove(report.c_str());
  for (const char* expected :
       {"\"proc\"", "\"workers\": 2", "\"shards_total\"",
        "\"shards_recovered\": 0", "\"workers_died\": 0",
        "\"leases_reissued\": 0", "\"rss_peak_kb\"", "\"worker\"",
        "\"slot\": 0", "\"slot\": 1", "\"pid\"", "\"restarts\": 0",
        "\"exit_code\": 0", "\"term_signal\": 0", "\"shards_mined\"",
        "\"proc.shards_mined\"", "\"proc.leases_granted\"",
        "\"stage\": \"parse\""}) {
    EXPECT_NE(body.find(expected), std::string::npos)
        << "missing " << expected << " in:\n"
        << body;
  }

  RemoveProcArtifacts(ckpt);
  std::remove(forest.c_str());
}

TEST(CliMultiProcTest, ConflictingOrIncompleteFlagsAreUsageErrors) {
  const std::string input = Data("seed_plants.nwk");
  RunResult no_ckpt = RunCli("frequent " + input + " --workers=2");
  EXPECT_EQ(no_ckpt.exit_code, 2) << no_ckpt.output;
  EXPECT_NE(no_ckpt.output.find("--workers requires --checkpoint"),
            std::string::npos)
      << no_ckpt.output;

  RunResult threads = RunCli("frequent " + input +
                             " --workers=2 --threads=2 --checkpoint=/tmp/x");
  EXPECT_EQ(threads.exit_code, 2) << threads.output;
  EXPECT_NE(threads.output.find("--threads cannot be combined with "
                                "--workers"),
            std::string::npos)
      << threads.output;

  RunResult watchdog =
      RunCli("frequent " + input +
             " --workers=2 --watchdog-ms=100 --checkpoint=/tmp/x");
  EXPECT_EQ(watchdog.exit_code, 2) << watchdog.output;
  EXPECT_NE(watchdog.output.find("--watchdog-ms cannot be combined with "
                                 "--workers"),
            std::string::npos)
      << watchdog.output;

  RunResult bad_count =
      RunCli("frequent " + input + " --workers=0 --checkpoint=/tmp/x");
  EXPECT_EQ(bad_count.exit_code, 2) << bad_count.output;
  EXPECT_NE(bad_count.output.find("--workers must be an integer in "
                                  "[1, 256]"),
            std::string::npos)
      << bad_count.output;

  RunResult bad_lease = RunCli(
      "frequent " + input +
      " --workers=2 --lease-timeout-ms=0 --checkpoint=/tmp/x");
  EXPECT_EQ(bad_lease.exit_code, 2) << bad_lease.output;
  EXPECT_NE(bad_lease.output.find("--lease-timeout-ms"), std::string::npos)
      << bad_lease.output;
}

TEST(CliMultiProcTest, ClosedStdoutPipeExitsOneNotSigpipeDeath) {
  // A forest whose pair table overflows the 64 KiB pipe buffer, so
  // `cousins frequent ... | head -n 1` has head close the pipe while
  // the CLI is still printing. SIGPIPE is ignored; the strict output
  // path must turn the EPIPE into exit code 1 — not a signal death.
  const std::string forest =
      std::string(::testing::TempDir()) + "/cli_mp_sigpipe.nwk";
  {
    std::ofstream out(forest);
    out << "(";
    for (int i = 0; i < 400; ++i) {
      out << (i == 0 ? "" : ",") << "T" << i;
    }
    out << ");\n";
  }
  const std::string rc_path =
      std::string(::testing::TempDir()) + "/cli_mp_sigpipe.rc";
  std::remove(rc_path.c_str());
  const std::string command =
      "( " + std::string(CLI_BINARY) + " frequent " + forest +
      " --csv --minsup=1 2>/dev/null; echo $? > " + rc_path +
      " ) | head -n 1 > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0);
  const std::string rc = ReadAll(rc_path);
  std::remove(rc_path.c_str());
  std::remove(forest.c_str());
  EXPECT_EQ(rc, "1\n");
}

// --- Daemon health schema ----------------------------------------------

TEST(CliDaemonTest, HealthAndDrainReportPinStorageSchema) {
  // The daemon's HEALTH payload and its --health-report file both
  // carry the storage section; its keys are an operator contract
  // consumed by tools/daemon_drill.sh and dashboards, so the whole
  // schema is pinned here against the real binary.
  const std::string base = ::testing::TempDir();
  const std::string wal = base + "/cli_daemon_wal";
  const std::string sock = base + "/cli_daemon.sock";
  const std::string report = base + "/cli_daemon_health.json";
  const std::string daemon = DAEMON_BINARY;
  const std::string script =
      "rm -rf '" + wal + "' '" + sock + "' '" + report + "'; " + daemon +
      " serve --wal='" + wal + "' --socket='" + sock +
      "' --health-report='" + report +
      "' & pid=$!; "
      "for i in $(seq 1 100); do " +
      daemon + " client --socket='" + sock +
      "' HEALTH 2>/dev/null && break; sleep 0.1; done; " + daemon +
      " client --socket='" + sock + "' DRAIN >/dev/null 2>&1; wait $pid; "
      "cat '" + report + "'";
  RunResult r;
  std::FILE* pipe = popen((script + " 2>&1").c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    r.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* key :
       {"\"storage\":{\"segments\":", "\"wal_bytes\":", "\"sealed_bytes\":",
        "\"last_compaction\":", "\"replayed_records\":", "\"recovery_ms\":",
        "\"read_only\":false", "\"reason\":\"\""}) {
    // Twice: once in the live HEALTH payload, once in the drain report.
    const size_t first = r.output.find(key);
    ASSERT_NE(first, std::string::npos) << key << "\n" << r.output;
    EXPECT_NE(r.output.find(key, first + 1), std::string::npos)
        << key << " missing from the drain report\n"
        << r.output;
  }
  std::remove(report.c_str());
  std::filesystem::remove_all(wal);
}

// --- SIMD dispatch flag ----------------------------------------------

TEST(CliSimdTest, RejectsUnknownSimdMode) {
  RunResult r = RunCli("frequent " + Data("seed_plants.nwk") + " --simd=sse42");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--simd"), std::string::npos) << r.output;
}

TEST(CliSimdTest, ScalarModeProducesByteIdenticalCsv) {
  const std::string args =
      "frequent " + Data("seed_plants.nwk") + " --minsup=2 --csv";
  RunResult auto_mode = RunCli(args);
  RunResult scalar = RunCli(args + " --simd=scalar");
  ASSERT_EQ(auto_mode.exit_code, 0) << auto_mode.output;
  ASSERT_EQ(scalar.exit_code, 0) << scalar.output;
  EXPECT_EQ(auto_mode.output, scalar.output);
}

TEST(CliSimdTest, Avx2ModeMatchesScalarOrRefusesCleanly) {
  const std::string args =
      "frequent " + Data("seed_plants.nwk") + " --minsup=2 --csv";
  RunResult avx2 = RunCli(args + " --simd=avx2");
  if (avx2.exit_code == 0) {
    // AVX2 machine: the forced-vector run must be byte-identical to
    // the forced-scalar run.
    RunResult scalar = RunCli(args + " --simd=scalar");
    ASSERT_EQ(scalar.exit_code, 0) << scalar.output;
    EXPECT_EQ(avx2.output, scalar.output);
  } else {
    // No AVX2: an explicit pin must be refused as a usage error, not
    // silently demoted.
    EXPECT_EQ(avx2.exit_code, 2);
    EXPECT_NE(avx2.output.find("AVX2"), std::string::npos) << avx2.output;
  }
}

TEST(CliSimdTest, EnvOverrideAcceptsScalar) {
  const std::string args =
      "frequent " + Data("seed_plants.nwk") + " --minsup=2 --csv";
  RunResult env_scalar = RunCli(args, "COUSINS_SIMD=scalar ");
  RunResult flag_scalar = RunCli(args + " --simd=scalar");
  ASSERT_EQ(env_scalar.exit_code, 0) << env_scalar.output;
  EXPECT_EQ(env_scalar.output, flag_scalar.output);
}

// --- bench_diff key-drift categories ---------------------------------

RunResult RunBenchDiff(const std::string& args) {
  const std::string command =
      std::string(BENCH_DIFF_BINARY) + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Writes a minimal bench report named `name` with the given results
/// into `dir`/BENCH_`name`.json and returns the path.
std::string WriteBenchReport(const std::filesystem::path& dir,
                             const std::string& name,
                             const std::string& results_json) {
  const std::filesystem::path path = dir / ("BENCH_" + name + ".json");
  std::ofstream out(path);
  out << "{\"name\":\"" << name << "\",\"status\":\"ok\",\"results\":"
      << results_json << "}\n";
  return path.string();
}

TEST(BenchDiffTest, MissingKeyFailsAsDistinctCategory) {
  const auto dir = std::filesystem::temp_directory_path() / "bd_missing";
  std::filesystem::create_directories(dir / "base");
  std::filesystem::create_directories(dir / "cur");
  WriteBenchReport(dir / "base", "m", "{\"wall_us\":100,\"extra_us\":5}");
  WriteBenchReport(dir / "cur", "m", "{\"wall_us\":100}");
  RunResult r = RunBenchDiff("--baseline " + (dir / "base").string() +
                             " --current " + (dir / "cur").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("MISSING m.extra_us"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 missing, 0 newly added"), std::string::npos)
      << r.output;
  std::filesystem::remove_all(dir);
}

TEST(BenchDiffTest, NewKeyPassesButIsReportedDistinctly) {
  const auto dir = std::filesystem::temp_directory_path() / "bd_new";
  std::filesystem::create_directories(dir / "base");
  std::filesystem::create_directories(dir / "cur");
  WriteBenchReport(dir / "base", "n", "{\"wall_us\":100}");
  WriteBenchReport(dir / "cur", "n",
                   "{\"wall_us\":100,\"simd_batches\":42}");
  RunResult r = RunBenchDiff("--baseline " + (dir / "base").string() +
                             " --current " + (dir / "cur").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("NEW     n.simd_batches"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("0 missing, 1 newly added"), std::string::npos)
      << r.output;
  std::filesystem::remove_all(dir);
}

TEST(BenchDiffTest, NewReportWithoutBaselineIsReportedNotFailed) {
  const auto dir = std::filesystem::temp_directory_path() / "bd_newrep";
  std::filesystem::create_directories(dir / "base");
  std::filesystem::create_directories(dir / "cur");
  WriteBenchReport(dir / "base", "old", "{\"wall_us\":100}");
  WriteBenchReport(dir / "cur", "old", "{\"wall_us\":100}");
  WriteBenchReport(dir / "cur", "brand_new", "{\"wall_us\":7}");
  RunResult r = RunBenchDiff("--baseline " + (dir / "base").string() +
                             " --current " + (dir / "cur").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("NEW     brand_new:"), std::string::npos)
      << r.output;
  std::filesystem::remove_all(dir);
}

TEST(BenchDiffTest, MissingReportFailsAsMissingCategory) {
  const auto dir = std::filesystem::temp_directory_path() / "bd_misrep";
  std::filesystem::create_directories(dir / "base");
  std::filesystem::create_directories(dir / "cur");
  WriteBenchReport(dir / "base", "gone", "{\"wall_us\":100}");
  WriteBenchReport(dir / "cur", "other", "{\"wall_us\":100}");
  RunResult r = RunBenchDiff("--baseline " + (dir / "base").string() +
                             " --current " + (dir / "cur").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("MISSING gone:"), std::string::npos) << r.output;
  std::filesystem::remove_all(dir);
}

}  // namespace
