// Job-trace serialisation (CSV), for replaying workloads and exporting
// simulated accounting data in a Slurm-sacct-like layout.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "workload/catalog.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

// The CSV `app` column holds catalogue names: ids are rendered through the
// catalogue on write and resolved through it on read.

/// Serialise submitted jobs (a workload) to CSV text.  Throws
/// InvalidArgument on an id the catalogue does not hold.
[[nodiscard]] std::string jobs_to_csv(const std::vector<JobSpec>& jobs,
                                      const AppCatalog& catalog);

/// Parse a workload written by jobs_to_csv; throws ParseError on bad input
/// (a non-finite number, an application name the catalogue does not hold,
/// ...), naming the row's line: `job trace: line N: ...`.
[[nodiscard]] std::vector<JobSpec> jobs_from_csv(const std::string& text,
                                                 const AppCatalog& catalog);

/// Write/read workload files.
void write_jobs_file(const std::filesystem::path& path,
                     const std::vector<JobSpec>& jobs,
                     const AppCatalog& catalog);
[[nodiscard]] std::vector<JobSpec> read_jobs_file(
    const std::filesystem::path& path, const AppCatalog& catalog);

/// Serialise completed-job accounting records (sacct-like) to CSV text.
[[nodiscard]] std::string records_to_csv(const std::vector<JobRecord>& recs,
                                         const AppCatalog& catalog);

}  // namespace hpcem
