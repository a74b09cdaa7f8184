//===----------------------------------------------------------------------===//
///
/// \file
/// Two-semispace heap with per-processor allocation chunks.
///
/// Reproduces the memory system of paper section 2.1.2:
///  - each processor allocates out of a private chunk via a local pointer,
///  - chunks are replenished from a single lock-protected global heap,
///  - large objects are allocated directly from the global heap to avoid
///    chunk fragmentation,
///  - exhausting the global heap triggers a (parallel, stop-and-copy)
///    garbage collection, implemented in Gc.cpp.
///
/// Symbols and code templates live in a separate *permanent* area that is
/// never collected (a simplification of the paper's static data area; see
/// DESIGN.md fidelity notes).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_RUNTIME_HEAP_H
#define MULT_RUNTIME_HEAP_H

#include "runtime/Object.h"
#include "support/VirtualLock.h"

#include <memory>
#include <string>
#include <vector>

namespace mult {

/// Cycle costs of the allocation paths, in abstract NS32332 instructions.
namespace heapcost {
inline constexpr uint64_t ChunkBump = 4;   ///< open-coded cons from a chunk
inline constexpr uint64_t ChunkRefill = 16; ///< plus global-lock wait
inline constexpr uint64_t LargeObject = 18; ///< plus global-lock wait
inline constexpr uint64_t GlobalLockHold = 4;
} // namespace heapcost

/// The shared heap. Thread-free: the virtual-time machine serializes all
/// access on the host; contention is modelled by VirtualLock.
class Heap {
public:
  struct Config {
    size_t SemispaceWords = size_t(1) << 22;
    size_t ChunkWords = 4096;
    /// Objects at least this many total words bypass the chunk system.
    size_t LargeObjectWords = 512;
    unsigned NumAllocators = 1;
  };

  struct AllocResult {
    Object *Obj = nullptr; ///< Null means: trigger a GC and retry.
    uint64_t Cycles = 0;   ///< Virtual cycles to charge the allocator.
  };

  explicit Heap(const Config &C);

  /// Allocates a collectable object with \p SizeWords payload words on
  /// behalf of allocator (processor) \p AllocatorId at virtual time \p Now.
  /// Returns a null object if the global heap is exhausted, in which case
  /// the caller must run a collection and retry. \p Aux stamps the header's
  /// owner tag (GroupId + 1 when tenant quota accounting is armed; 0 =
  /// untracked) so the collector can attribute survivors to groups.
  AllocResult allocate(unsigned AllocatorId, uint64_t Now, TypeTag Tag,
                       uint32_t SizeWords, uint8_t Flags = 0,
                       uint16_t Aux = 0);

  /// Allocates an object in the permanent area (symbols, templates, quoted
  /// program data). Never fails short of host OOM; never collected or
  /// moved. Non-raw permanent objects form the "static data area" that the
  /// collector scans in segments (paper section 2.1.2, step 3).
  Object *allocatePermanent(TypeTag Tag, uint32_t SizeWords,
                            uint8_t Flags = 0);

  /// Number of non-raw permanent objects (the scannable static area).
  size_t staticAreaSize() const { return PermanentScannable.size(); }

  /// Returns the \p I'th of \p NumSegments roughly equal static-area
  /// segments as a (begin, end) index range into the static area.
  std::pair<size_t, size_t> staticAreaSegment(unsigned I,
                                              unsigned NumSegments) const;

  /// The \p Idx'th scannable permanent object.
  Object *staticAreaObject(size_t Idx) const {
    return PermanentScannable[Idx];
  }

  /// \name Collector interface
  /// @{
  /// Prepares the idle semispace to receive survivors and invalidates all
  /// mutator chunks. False when the heap cannot start a collection (one
  /// is already running, or the heap is wedged); the caller must treat
  /// this as fatal heap exhaustion, not abort.
  bool beginCollection();
  /// Bump-allocates \p TotalWords (header included) in the to-space on
  /// behalf of collector \p AllocatorId, using GC-private chunks; when the
  /// to-space has no chunk left for it, in the unused tail of another
  /// collector's chunk. Returns null on to-space overflow (fatal heap
  /// exhaustion).
  Object *copyAllocate(unsigned AllocatorId, uint32_t TotalWords);
  /// Flips the semispaces; subsequent allocation continues after the
  /// survivors.
  void endCollection();
  /// True if \p O lies in the currently active semispace (the from-space
  /// while a collection is running).
  bool inActiveSpace(const Object *O) const;
  /// True if \p O lies in the to-space of the running collection (i.e. it
  /// has already been copied; roots reached twice must be left alone).
  bool inToSpace(const Object *O) const;

  /// Declares the heap unusable (to-space overflow mid-copy: from-space
  /// is half-evacuated, so neither space is coherent). Every subsequent
  /// allocate() fails and beginCollection() refuses; the engine reports a
  /// structured HeapExhausted result instead of the host aborting.
  void markWedged(std::string Reason);
  bool wedged() const { return Wedged; }
  const std::string &wedgedReason() const { return WedgedReason; }
  /// @}

  /// \name Introspection
  /// @{
  /// Debug: 0/1 = semispace index, -1 = outside the heap entirely.
  int debugSpaceOf(const Object *O) const;
  size_t usedWords() const;
  size_t capacityWords() const { return Cfg.SemispaceWords; }
  size_t permanentWords() const { return PermanentUsed; }
  uint64_t globalLockWaits() const { return GlobalLock.waitedCycles(); }
  uint64_t globalLockAcquisitions() const {
    return GlobalLock.acquisitions();
  }
  const Config &config() const { return Cfg; }
  /// @}

private:
  struct ChunkState {
    size_t Cur = 0; ///< Next free word index, absolute within the space.
    size_t End = 0; ///< One past the last usable word.
  };

  /// Carves a fresh chunk for \p Chunk out of space \p SpaceIdx (Debug
  /// builds poison it on the way out). Returns false when the space is
  /// exhausted.
  bool refillChunk(ChunkState &Chunk, int SpaceIdx, size_t &GlobalCursor);

  Object *objectAt(int SpaceIdx, size_t WordIndex) {
    return reinterpret_cast<Object *>(Spaces[SpaceIdx] + WordIndex);
  }

  Config Cfg;
  /// Both semispaces, uninitialised: pages commit on first touch, and no
  /// word is read before the allocator hands it out and its owner writes
  /// it (DESIGN.md, "Heap memory is committed on first touch").
  std::unique_ptr<uint64_t[]> Buffer;
  uint64_t *Spaces[2];
  int ActiveSpace = 0;
  size_t GlobalFree = 0;   ///< Bump cursor in the active space.
  size_t GcGlobalFree = 0; ///< Bump cursor in the to-space during GC.
  bool Collecting = false;
  bool Wedged = false;
  std::string WedgedReason;
  VirtualLock GlobalLock;
  std::vector<ChunkState> Chunks;   ///< Mutator chunks, one per allocator.
  std::vector<ChunkState> GcChunks; ///< Collector chunks, one per allocator.

  /// Permanent area: a list of malloc'd blocks.
  std::vector<std::unique_ptr<uint64_t[]>> PermanentBlocks;
  /// Non-raw permanent objects, in allocation order (the static area).
  std::vector<Object *> PermanentScannable;
  size_t PermanentBlockUsed = 0;
  size_t PermanentBlockCap = 0;
  size_t PermanentUsed = 0;
};

} // namespace mult

#endif // MULT_RUNTIME_HEAP_H
