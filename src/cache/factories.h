// Cache-aware factories: the one place key derivation, byte codecs, and
// builders for each artifact kind live together (DESIGN.md §11). A key must
// cover every input the builder consumes — the pairing in this file is the
// contract that keeps hits bit-identical to cold builds.
//
// Every factory accepts a null store and then simply runs the builder, so
// callers thread `options.store` through unconditionally and cache-off paths
// stay byte-identical to the pre-cache code.
//
// The rotation-list factory lives in src/core (GetOrBuildRotations needs
// InstrumentationPlan internals); only its key helper is here.

#ifndef GIST_SRC_CACHE_FACTORIES_H_
#define GIST_SRC_CACHE_FACTORIES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/artifact_store.h"
#include "src/ir/ids.h"
#include "src/vm/observer.h"  // CoreId

namespace gist {

class Module;
class Ticfg;
class DecodedModule;
struct StaticSlice;
struct PtDecodeResult;

// 128-bit content hash: two independent FNV-1a passes over the same bytes.
struct ContentHash {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

ContentHash HashContent(const void* data, size_t size);
// Hashes the module's full textual form — the stable content identity every
// module-derived artifact keys on.
ContentHash HashModule(const Module& module);

// --- key derivation (kept adjacent to the builders below) -------------------
ArtifactKey DecodedModuleKey(const ContentHash& module_hash);
ArtifactKey TicfgKey(const ContentHash& module_hash);
ArtifactKey SliceKey(const ContentHash& module_hash, InstrId failure);
ArtifactKey PtDecodeKey(const ContentHash& module_hash, CoreId core,
                        const std::vector<uint8_t>& bytes);
ArtifactKey PlanRotationsKey(const ContentHash& module_hash, uint64_t plan_hash, uint32_t slots);

// --- factories --------------------------------------------------------------
// Object tier: the DecodedModule borrows instruction pointers from `module`,
// so `module` itself is the entry's owner.
std::shared_ptr<const DecodedModule> GetOrDecodeModule(ArtifactStore* store, const Module& module,
                                                       const ContentHash& module_hash);

// Object tier: the Ticfg holds CFG references into `module`.
std::shared_ptr<const Ticfg> GetOrBuildTicfg(ArtifactStore* store, const Module& module,
                                             const ContentHash& module_hash);

// Serialized tier: backward slice per failing statement (disk-capable).
std::shared_ptr<const StaticSlice> GetOrComputeSlice(ArtifactStore* store, const Ticfg& ticfg,
                                                     const ContentHash& module_hash,
                                                     InstrId failure);

// Serialized tier: PT decode keyed on (module, core, packet bytes). Empty
// buffers bypass the store — decoding nothing is cheaper than a lookup, and
// they would drown the stats in trivial entries.
std::shared_ptr<const PtDecodeResult> GetOrDecodePt(ArtifactStore* store, const Module& module,
                                                    const ContentHash& module_hash, CoreId core,
                                                    const std::vector<uint8_t>& bytes);

// --- codecs (exposed for cache_test round-trips) ----------------------------
std::string EncodeSlice(const StaticSlice& slice);
std::optional<StaticSlice> DecodeSliceBytes(std::string_view bytes);
std::string EncodePtDecodeResult(const PtDecodeResult& result);
std::optional<PtDecodeResult> DecodePtDecodeResultBytes(std::string_view bytes);

}  // namespace gist

#endif  // GIST_SRC_CACHE_FACTORIES_H_
