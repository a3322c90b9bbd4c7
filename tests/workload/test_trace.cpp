// Tests for job-trace serialisation.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <type_traits>

#include "util/error.hpp"
#include "workload/trace.hpp"

namespace hpcem {
namespace {

// Jobs are plain bytes: an AppId, not a heap-allocated name.  The size
// bounds record the layout (JobSpec was 112 bytes and JobRecord 168 while
// the name was a std::string).
static_assert(std::is_trivially_copyable_v<JobSpec>);
static_assert(std::is_trivially_copyable_v<JobRecord>);
static_assert(sizeof(JobSpec) <= 80);
static_assert(sizeof(JobRecord) <= 136);

/// The ARCHER2 catalogue plus short-named entries "x", "y" and "z" (copies
/// of a production application) for terse CSV rows.
const AppCatalog& catalog() {
  static const AppCatalog cat = [] {
    const NodePowerParams np;
    AppCatalog c = AppCatalog::archer2(np);
    for (const char* name : {"x", "y", "z"}) {
      ApplicationSpec spec = c.at("VASP (production)").spec();
      spec.name = name;
      c.add(spec, np);
    }
    return c;
  }();
  return cat;
}

std::vector<JobSpec> sample_jobs() {
  JobSpec a;
  a.id = 1;
  a.app = catalog().id("VASP (production)");
  a.nodes = 8;
  a.ref_runtime = Duration::hours(2.5);
  a.submit_time = sim_time_from_date({2022, 5, 9});
  a.requested_walltime = Duration::hours(5.0);
  a.silicon_factor = 1.05;

  JobSpec b;
  b.id = 2;
  b.app = catalog().id("LAMMPS Ethanol");
  b.nodes = 4;
  b.ref_runtime = Duration::hours(1.0);
  b.submit_time = a.submit_time + Duration::minutes(10.0);
  b.requested_walltime = Duration::hours(2.0);
  b.user_pstate = pstates::kHighTurbo;
  b.silicon_factor = 0.97;
  return {a, b};
}

TEST(Trace, RoundTripPreservesJobs) {
  const auto jobs = sample_jobs();
  const auto parsed =
      jobs_from_csv(jobs_to_csv(jobs, catalog()), catalog());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 1u);
  EXPECT_EQ(parsed[0].app, catalog().id("VASP (production)"));
  EXPECT_EQ(parsed[1].app, catalog().id("LAMMPS Ethanol"));
  EXPECT_EQ(parsed[0].nodes, 8u);
  EXPECT_NEAR(parsed[0].ref_runtime.hrs(), 2.5, 1e-3);
  EXPECT_FALSE(parsed[0].user_pstate.has_value());
  EXPECT_NEAR(parsed[0].silicon_factor, 1.05, 1e-6);
  ASSERT_TRUE(parsed[1].user_pstate.has_value());
  EXPECT_EQ(*parsed[1].user_pstate, pstates::kHighTurbo);
}

TEST(Trace, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "hpcem_jobs_test.csv";
  write_jobs_file(path, sample_jobs(), catalog());
  const auto parsed = read_jobs_file(path, catalog());
  EXPECT_EQ(parsed.size(), 2u);
  std::filesystem::remove(path);
}

TEST(Trace, MalformedInputThrows) {
  EXPECT_THROW(jobs_from_csv("id,app\n1,x\n", catalog()),
               ParseError);  // cols missing
  const std::string header =
      "id,app,nodes,ref_runtime_s,submit_s,walltime_s,user_pstate,silicon\n";
  EXPECT_THROW(jobs_from_csv(header + "1,x,0,100,0,200,,1\n", catalog()),
               ParseError);
  EXPECT_THROW(jobs_from_csv(header + "1,x,abc,100,0,200,,1\n", catalog()),
               ParseError);
  EXPECT_THROW(
      jobs_from_csv(header + "1,x,4,100,0,200,3.70+turbo,1\n", catalog()),
      ParseError);
}

/// The ParseError text `jobs_from_csv` gives for `rows`, or "accepted".
std::string trace_error(const std::string& rows) {
  const std::string header =
      "id,app,nodes,ref_runtime_s,submit_s,walltime_s,user_pstate,silicon\n";
  try {
    (void)jobs_from_csv(header + rows, catalog());
  } catch (const ParseError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Trace, NegativeWidthIsAOneLineParseError) {
  EXPECT_EQ(trace_error("1,x,-3,100,0,200,,1\n"),
            "job trace: line 2: bad nodes: -3 (must be an integer in "
            "[1, 2^53])");
  EXPECT_EQ(trace_error("1,x,0,100,0,200,,1\n"),
            "job trace: line 2: bad nodes: 0 (must be an integer in "
            "[1, 2^53])");
  EXPECT_EQ(trace_error("1,x,2.5,100,0,200,,1\n"),
            "job trace: line 2: bad nodes: 2.5 (must be an integer in "
            "[1, 2^53])");
  EXPECT_EQ(trace_error("1,x,1e30,100,0,200,,1\n"),
            "job trace: line 2: bad nodes: 1e30 (must be an integer in "
            "[1, 2^53])");
}

TEST(Trace, FractionalIdIsAOneLineParseError) {
  EXPECT_EQ(trace_error("2.5,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 2.5 (must be an integer in [0, 2^53])");
  EXPECT_EQ(trace_error("-1,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: -1 (must be an integer in [0, 2^53])");
  EXPECT_EQ(trace_error("nan,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: nan (must be an integer in [0, 2^53])");
}

TEST(Trace, IdAbove2To53IsAOneLineParseError) {
  EXPECT_EQ(trace_error("1e30,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 1e30 (must be an integer in "
            "[0, 2^53])");
  EXPECT_EQ(trace_error("9007199254740994,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 9007199254740994 (must be an "
            "integer in [0, 2^53])");
  // 2^53 + 1 has no double; it is read exactly, not rounded to 2^53.
  EXPECT_EQ(trace_error("9007199254740993,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 9007199254740993 (must be an "
            "integer in [0, 2^53])");
  // Only decimal digits: exponent and fraction spellings are rejected.
  EXPECT_EQ(trace_error("1e3,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 1e3 (must be an integer in [0, 2^53])");
  EXPECT_EQ(trace_error("12.0,x,4,100,0,200,,1\n"),
            "job trace: line 2: bad id: 12.0 (must be an integer in "
            "[0, 2^53])");
  const auto jobs = jobs_from_csv(
      "id,app,nodes,ref_runtime_s,submit_s,walltime_s,user_pstate,silicon\n"
      "0,x,1,100,0,200,,1\n"
      "9007199254740992,x,4,100,0,200,,1\n",
      catalog());
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 0u);
  EXPECT_EQ(jobs[1].id, 9007199254740992u);
}

TEST(Trace, RepeatedIdIsAOneLineParseError) {
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,y,4,100,0,200,,1\n"
                        "1,z,8,100,60,200,,1\n"),
            "job trace: line 4: duplicate id: 1");
}

TEST(Trace, NonFiniteNumbersAreOneLineParseErrors) {
  // A non-finite runtime used to replay as a job that never finishes, and
  // a NaN submit time to surface far from the trace as a bad window.
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,x,4,inf,0,200,,1\n"),
            "job trace: line 3: bad ref_runtime_s: inf");
  EXPECT_EQ(trace_error("1,x,4,100,nan,200,,1\n"),
            "job trace: line 2: bad submit_s: nan");
  EXPECT_EQ(trace_error("1,x,4,100,0,-inf,,1\n"),
            "job trace: line 2: bad walltime_s: -inf");
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,NaN\n"),
            "job trace: line 2: bad silicon: NaN");
  // Overflow to infinity is rejected too.
  EXPECT_EQ(trace_error("1,x,4,1e999,0,200,,1\n"),
            "job trace: line 2: bad ref_runtime_s: 1e999");
}

TEST(Trace, RowErrorsNameTheirLine) {
  // Blank lines count: the error names the line in the file.
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "\n"
                        "2,x,4,100,0,200,3.70+turbo,1\n"),
            "job trace: line 4: bad pstate: 3.70+turbo");
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,x,4,100,0,200,fast,1\n"),
            "job trace: line 3: bad pstate: fast");
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,x,4,100s,0,200,,1\n"),
            "job trace: line 3: bad ref_runtime_s: 100s");
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,x,4,100,0,200,1\n"),
            "CSV line 3: row width mismatch: expected 8, got 7");
}

TEST(Trace, NamesRoundTripThroughTheCatalogue) {
  // Every entry's id is written as its name and read back as the same id.
  std::vector<JobSpec> jobs(catalog().size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].app = static_cast<AppId>(i);
  }
  const std::string csv = jobs_to_csv(jobs, catalog());
  const auto parsed = jobs_from_csv(csv, catalog());
  ASSERT_EQ(parsed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(parsed[i].app, jobs[i].app);
    EXPECT_NE(csv.find("," + catalog().name(jobs[i].app) + ","),
              std::string::npos);
  }
  // An id the catalogue does not hold has no name to write.
  jobs[0].app = static_cast<AppId>(catalog().size());
  EXPECT_THROW((void)jobs_to_csv(jobs, catalog()), InvalidArgument);
}

TEST(Trace, UnknownApplicationIsAOneLineParseError) {
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "2,not-in-catalogue,4,100,0,200,,1\n"),
            "job trace: line 3: unknown application: not-in-catalogue");
  // Lines count from the header, blank lines included.
  EXPECT_EQ(trace_error("1,x,4,100,0,200,,1\n"
                        "\n"
                        "2,VASP,4,100,0,200,,1\n"),
            "job trace: line 4: unknown application: VASP");
}

TEST(Trace, RecordsExportHasAccountingColumns) {
  JobRecord r;
  r.spec = sample_jobs()[0];
  r.start_time = r.spec.submit_time + Duration::minutes(5.0);
  r.end_time = r.start_time + Duration::hours(2.5);
  r.pstate = pstates::kMid;
  r.mode = DeterminismMode::kPerformanceDeterminism;
  r.node_energy = Energy::kwh(7.5);
  r.node_power_w = Power::watts(375.0);
  const std::string csv = records_to_csv({r}, catalog());
  EXPECT_NE(csv.find(",VASP (production),"), std::string::npos);
  EXPECT_NE(csv.find("node_energy_kwh"), std::string::npos);
  EXPECT_NE(csv.find("performance determinism"), std::string::npos);
  EXPECT_NE(csv.find("7.500"), std::string::npos);
  EXPECT_NE(csv.find("2.00"), std::string::npos);  // pstate code
}

TEST(Trace, JobRecordDerivedQuantities) {
  JobRecord r;
  r.spec = sample_jobs()[0];
  r.start_time = r.spec.submit_time + Duration::minutes(30.0);
  r.end_time = r.start_time + Duration::hours(2.0);
  EXPECT_NEAR(r.runtime().hrs(), 2.0, 1e-12);
  EXPECT_NEAR(r.wait_time().min(), 30.0, 1e-12);
  EXPECT_NEAR(r.node_hours(), 16.0, 1e-12);
}

}  // namespace
}  // namespace hpcem
