#include "src/corpus/corpus.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/corpus/templates.h"
#include "src/support/check.h"
#include "src/support/str.h"

namespace gist {
namespace {

// Keeps program seeds disjoint from every other DeriveSeed stream in the
// repo (fleet runs, fault plans) even when the user reuses a fleet seed as
// the corpus seed.
constexpr uint64_t kCorpusSeedSalt = 0x636f7270'75733031;  // "corpus01"

std::string IndexJson(const CorpusOptions& options,
                      const std::vector<GeneratedProgram>& programs) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"gist.corpus.v1\",\n";
  out << "  \"seed\": " << options.seed << ",\n";
  out << "  \"count\": " << options.count << ",\n";
  out << "  \"families\": [";
  for (size_t i = 0; i < options.families.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << BugFamilyName(options.families[i]) << "\"";
  }
  out << "],\n";
  out << "  \"programs\": [";
  for (size_t i = 0; i < programs.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << programs[i].manifest.name << "\"";
  }
  out << "]\n";
  out << "}\n";
  return out.str();
}

bool WriteFile(const std::string& path, const std::string& bytes, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

std::vector<BugFamily> FamiliesOrAll(const std::vector<BugFamily>& families) {
  if (!families.empty()) {
    return families;
  }
  std::vector<BugFamily> all;
  for (size_t i = 0; i < kNumBugFamilies; ++i) {
    all.push_back(static_cast<BugFamily>(i));
  }
  return all;
}

}  // namespace

uint64_t CorpusProgramSeed(uint64_t corpus_seed, uint32_t index) {
  return DeriveSeed(corpus_seed ^ kCorpusSeedSalt, index);
}

std::string CorpusProgramName(uint32_t index, BugFamily family) {
  return StrFormat("%03u_%s", index, BugFamilyName(family));
}

GeneratedProgram GenerateProgram(BugFamily family, uint64_t program_seed,
                                 const std::string& name, uint32_t index) {
  GeneratedProgram program;
  program.index = index;
  program.module = std::make_unique<Module>();

  // Fixed draw order: params first, then whatever the template consumes.
  // Everything downstream of `program_seed` is pure, so the same seed always
  // emits byte-identical program text and manifest.
  Rng rng(program_seed);
  TemplateParams params;
  params.threads = static_cast<uint32_t>(rng.NextBelow(3));
  params.heap_cells = 1 + static_cast<uint32_t>(rng.NextBelow(4));
  params.branch_depth = static_cast<uint32_t>(rng.NextBelow(3));
  params.noise_iters = 1 + static_cast<uint32_t>(rng.NextBelow(6));

  program.manifest = BuildTemplate(family, params, *program.module, rng);
  program.manifest.name = name;
  program.manifest.program_seed = program_seed;
  program.manifest.params = params;

  const std::string violation = ValidateManifest(program.manifest, *program.module);
  GIST_CHECK(violation.empty()) << "template " << BugFamilyName(family)
                                << " emitted an invalid manifest: " << violation;
  return program;
}

std::vector<GeneratedProgram> GenerateCorpus(const CorpusOptions& options) {
  const std::vector<BugFamily> families = FamiliesOrAll(options.families);
  std::vector<GeneratedProgram> programs;
  programs.reserve(options.count);
  for (uint32_t i = 0; i < options.count; ++i) {
    const BugFamily family = families[i % families.size()];
    programs.push_back(GenerateProgram(family, CorpusProgramSeed(options.seed, i),
                                       CorpusProgramName(i, family), i));
  }
  return programs;
}

Workload CorpusWorkload(const CorpusManifest& manifest, uint64_t /*run_index*/, Rng& rng) {
  Workload workload;
  workload.schedule_seed = rng.NextU64();
  workload.inputs.reserve(manifest.inputs.size());
  for (const InputSpec& spec : manifest.inputs) {
    workload.inputs.push_back(static_cast<Word>(rng.NextInRange(spec.lo, spec.hi)));
  }
  return workload;
}

bool WriteCorpusDir(const std::string& dir, const std::vector<GeneratedProgram>& programs,
                    const CorpusOptions& options, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  CorpusOptions canonical = options;
  canonical.families = FamiliesOrAll(options.families);
  for (const GeneratedProgram& program : programs) {
    const std::string stem = dir + "/" + program.manifest.name;
    if (!WriteFile(stem + ".gir", program.module->ToString(), error) ||
        !WriteFile(stem + ".manifest.json", program.manifest.ToJson(), error)) {
      return false;
    }
  }
  return WriteFile(dir + "/corpus.json", IndexJson(canonical, programs), error);
}

bool LoadCorpusIndex(const std::string& dir, CorpusOptions* options, std::string* error) {
  const std::string path = dir + "/corpus.json";
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  if (text.find("\"gist.corpus.v1\"") == std::string::npos) {
    *error = path + " is not a gist.corpus.v1 index";
    return false;
  }
  // The value after `"key":` must be a plain decimal number in [0, max].
  auto find_number = [&](const std::string& key, uint64_t max, uint64_t* value) {
    const std::string needle = "\"" + key + "\":";
    size_t begin = text.find(needle);
    if (begin == std::string::npos) {
      return false;
    }
    begin = text.find_first_not_of(' ', begin + needle.size());
    const size_t end = text.find_first_not_of("0123456789", begin);
    return begin != std::string::npos &&
           ParseU64(std::string_view(text).substr(begin, end - begin), max, value);
  };
  uint64_t seed = 0;
  uint64_t count = 0;
  if (!find_number("seed", UINT64_MAX, &seed) || !find_number("count", UINT32_MAX, &count)) {
    *error = path + " is missing seed/count or has one out of range";
    return false;
  }
  options->seed = seed;
  options->count = static_cast<uint32_t>(count);

  options->families.clear();
  const size_t fam_at = text.find("\"families\":");
  const size_t open = text.find('[', fam_at);
  const size_t close = text.find(']', fam_at);
  if (fam_at == std::string::npos || open == std::string::npos || close == std::string::npos) {
    *error = path + " is missing the families list";
    return false;
  }
  size_t pos = open;
  while (true) {
    const size_t q1 = text.find('"', pos);
    if (q1 == std::string::npos || q1 > close) {
      break;
    }
    const size_t q2 = text.find('"', q1 + 1);
    BugFamily family;
    const std::string name = text.substr(q1 + 1, q2 - q1 - 1);
    if (!ParseBugFamily(name, &family)) {
      *error = path + " lists unknown family \"" + name + "\"";
      return false;
    }
    options->families.push_back(family);
    pos = q2 + 1;
  }
  if (options->families.empty()) {
    *error = path + " lists no families";
    return false;
  }
  return true;
}

}  // namespace gist
