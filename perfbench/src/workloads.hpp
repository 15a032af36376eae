// The benchmark's workloads, as lists of jobs built from --seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"

namespace perfbench {

/// The seed the pins in expected.json (and the packs' own digests and
/// expectations) hold at. Any other seed is checked by the identities.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Batch size of batch-drain.
inline constexpr std::uint64_t kBatchPackets = 32768;
/// Active-slot budget of one jammed-stream run.
inline constexpr std::uint64_t kStreamActiveSlots = 2000000;
/// Pinned jam-seed of jammed-stream: one fixed adversary for every seed.
inline constexpr std::uint64_t kStreamJamSeed = 7;

/// One simulation run of a workload.
struct Job {
  std::string label;
  lowsense::Scenario scenario;
  std::uint64_t seed = 0;
  /// golden-packs: index into Workload::entries (seed shifted by --seed,
  /// pins kept only at the default seed); measured via run_pack_entry.
  std::optional<std::size_t> entry;
};

struct Workload {
  std::string name;
  std::vector<lowsense::PackEntry> entries;  ///< golden-packs only
  std::vector<Job> jobs;
};

/// Builds `name` at `seed`; pack files are read from `packs_dir`.
/// Returns false and sets *error on an unknown name or a bad pack.
bool build_workload(const std::string& name, std::uint64_t seed, const std::string& packs_dir,
                    Workload* out, std::string* error);

/// Field-by-field bit identity of two results of one scenario at one
/// seed (what the determinism contract promises across engine, shards
/// and tracing). Storage-placement fields (slab counts) are excluded.
/// Returns "" when identical, else the first differing field.
std::string first_difference(const lowsense::RunResult& a, const lowsense::RunResult& b);

/// Exact channel accesses of a run.
std::uint64_t accesses_of(const lowsense::RunResult& r);

}  // namespace perfbench
