//===----------------------------------------------------------------------===//
///
/// \file
/// Heap implementation: chunked bump allocation over two semispaces plus a
/// permanent area.
///
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace mult;

/// Debug builds fill each region with the from-space pattern the moment
/// it is handed out, so no reader can depend on fresh pages being zero.
/// Poisoning per region keeps Debug engines lazy: an untouched page is
/// never committed.
static void poison(uint64_t *Words, size_t N) {
#ifndef NDEBUG
  std::memset(Words, 0xAB, N * sizeof(uint64_t));
#else
  (void)Words;
  (void)N;
#endif
}

Heap::Heap(const Config &C) : Cfg(C) {
  assert(Cfg.SemispaceWords >= Cfg.ChunkWords && "semispace smaller than a chunk");
  assert(Cfg.LargeObjectWords <= Cfg.ChunkWords &&
         "large-object threshold must fit a chunk");
  assert(Cfg.NumAllocators >= 1 && "need at least one allocator");
  // Left uninitialised: the OS commits a page when the allocator first
  // touches it, so an engine pays only for the chunks it is handed out.
  Buffer = std::make_unique_for_overwrite<uint64_t[]>(Cfg.SemispaceWords * 2);
  Spaces[0] = Buffer.get();
  Spaces[1] = Buffer.get() + Cfg.SemispaceWords;
  Chunks.resize(Cfg.NumAllocators);
  GcChunks.resize(Cfg.NumAllocators);
}

bool Heap::refillChunk(ChunkState &Chunk, int SpaceIdx, size_t &GlobalCursor) {
  if (GlobalCursor >= Cfg.SemispaceWords)
    return false;
  // Hand out a final partial chunk when a full one no longer fits.
  Chunk.Cur = GlobalCursor;
  Chunk.End = std::min(GlobalCursor + Cfg.ChunkWords, Cfg.SemispaceWords);
  GlobalCursor = Chunk.End;
  poison(Spaces[SpaceIdx] + Chunk.Cur, Chunk.End - Chunk.Cur);
  return true;
}

Heap::AllocResult Heap::allocate(unsigned AllocatorId, uint64_t Now,
                                 TypeTag Tag, uint32_t SizeWords,
                                 uint8_t Flags, uint16_t Aux) {
  assert(AllocatorId < Chunks.size() && "bad allocator id");
  assert(SizeWords >= 1 && "objects carry at least one payload word");

  uint32_t Total = SizeWords + 1;
  AllocResult R;

  // A wedged heap (to-space overflow mid-copy) can satisfy nothing, and a
  // mutator request while a collection runs is a guest-level fault, not a
  // host invariant: fail the allocation and let the engine surface a
  // structured heap-exhausted result.
  if (Collecting || Wedged) {
    R.Cycles = heapcost::ChunkBump;
    return R;
  }

  // Large objects go straight to the global heap (paper: avoids chunk
  // fragmentation; no locality penalty on a bus-based machine).
  if (Total >= Cfg.LargeObjectWords) {
    uint64_t LockCycles = GlobalLock.acquire(Now, heapcost::GlobalLockHold);
    if (GlobalFree + Total > Cfg.SemispaceWords) {
      R.Cycles = heapcost::LargeObject + LockCycles;
      return R; // GC needed.
    }
    Object *O = objectAt(ActiveSpace, GlobalFree);
    poison(Spaces[ActiveSpace] + GlobalFree, Total);
    GlobalFree += Total;
    O->initHeader(Tag, SizeWords, Flags);
    O->setAux(Aux);
    R.Obj = O;
    R.Cycles = heapcost::LargeObject + LockCycles;
    return R;
  }

  ChunkState &Chunk = Chunks[AllocatorId];
  if (Chunk.Cur + Total > Chunk.End) {
    // Replenish from the global heap under the lock.
    uint64_t LockCycles = GlobalLock.acquire(Now, heapcost::GlobalLockHold);
    if (!refillChunk(Chunk, ActiveSpace, GlobalFree)) {
      R.Cycles = heapcost::ChunkRefill + LockCycles;
      return R; // GC needed.
    }
    R.Cycles += heapcost::ChunkRefill + LockCycles;
    if (Chunk.Cur + Total > Chunk.End) {
      // A fresh chunk that still can't fit it (object just below the large
      // threshold, partial trailing chunk). Treat as exhaustion.
      return R;
    }
  }

  Object *O = objectAt(ActiveSpace, Chunk.Cur);
  Chunk.Cur += Total;
  O->initHeader(Tag, SizeWords, Flags);
  O->setAux(Aux);
  R.Obj = O;
  R.Cycles += heapcost::ChunkBump;
  return R;
}

Object *Heap::allocatePermanent(TypeTag Tag, uint32_t SizeWords,
                                uint8_t Flags) {
  assert(SizeWords >= 1 && "objects carry at least one payload word");
  uint32_t Total = SizeWords + 1;
  if (PermanentBlockUsed + Total > PermanentBlockCap) {
    size_t BlockWords = std::max<size_t>(Total, size_t(1) << 16);
    PermanentBlocks.push_back(
        std::make_unique_for_overwrite<uint64_t[]>(BlockWords));
    PermanentBlockUsed = 0;
    PermanentBlockCap = BlockWords;
  }
  uint64_t *Words = PermanentBlocks.back().get() + PermanentBlockUsed;
  poison(Words, Total);
  auto *O = reinterpret_cast<Object *>(Words);
  PermanentBlockUsed += Total;
  PermanentUsed += Total;
  O->initHeader(Tag, SizeWords,
                static_cast<uint8_t>(Flags | Object::FlagPermanent));
  if (!(Flags & Object::FlagRaw))
    PermanentScannable.push_back(O);
  return O;
}

std::pair<size_t, size_t> Heap::staticAreaSegment(unsigned I,
                                                  unsigned NumSegments) const {
  assert(NumSegments > 0 && I < NumSegments && "bad segment request");
  size_t N = PermanentScannable.size();
  return {N * I / NumSegments, N * (I + 1) / NumSegments};
}

bool Heap::beginCollection() {
  if (Collecting || Wedged)
    return false;
  Collecting = true;
  GcGlobalFree = 0;
  for (ChunkState &C : GcChunks)
    C = ChunkState();
  return true;
}

void Heap::markWedged(std::string Reason) {
  Wedged = true;
  WedgedReason = std::move(Reason);
  // The aborted collection never flips; drop the Collecting flag so the
  // engine can keep reading from-space objects (they are still intact —
  // copied objects leave forwarding pointers, not garbage).
  Collecting = false;
}

Object *Heap::copyAllocate(unsigned AllocatorId, uint32_t TotalWords) {
  assert(Collecting && "copyAllocate outside a collection");
  assert(AllocatorId < GcChunks.size() && "bad allocator id");
  int ToSpace = 1 - ActiveSpace;

  if (TotalWords >= Cfg.LargeObjectWords) {
    if (GcGlobalFree + TotalWords > Cfg.SemispaceWords)
      return nullptr;
    Object *O = objectAt(ToSpace, GcGlobalFree);
    poison(Spaces[ToSpace] + GcGlobalFree, TotalWords);
    GcGlobalFree += TotalWords;
    return O;
  }

  ChunkState *Chunk = &GcChunks[AllocatorId];
  if (Chunk->Cur + TotalWords > Chunk->End &&
      (!refillChunk(*Chunk, ToSpace, GcGlobalFree) ||
       Chunk->Cur + TotalWords > Chunk->End)) {
    // No chunk is left for this collector. The survivors may still fit in
    // the unused tails of the other collectors' chunks, as they do when
    // one collector copies them all; take the first tail that fits, in
    // allocator-id order, before reporting overflow.
    auto Tail = std::find_if(GcChunks.begin(), GcChunks.end(),
                             [&](const ChunkState &C) {
                               return C.Cur + TotalWords <= C.End;
                             });
    if (Tail == GcChunks.end())
      return nullptr;
    Chunk = &*Tail;
  }
  Object *O = objectAt(ToSpace, Chunk->Cur);
  Chunk->Cur += TotalWords;
  return O;
}

void Heap::endCollection() {
  assert(Collecting && "no collection running");
  Collecting = false;
  // Poison the handed-out prefix of the from-space so stale pointers
  // fault fast in debug builds; the rest was never touched.
  poison(Spaces[ActiveSpace], GlobalFree);
  ActiveSpace = 1 - ActiveSpace;
  // Survivors sit below GcGlobalFree, except that GC chunks may have
  // unused tails. Conservatively resume global allocation at the high-water
  // mark; the chunk tails are wasted until the next flip, exactly like a
  // real chunked collector.
  GlobalFree = GcGlobalFree;
  for (ChunkState &C : Chunks)
    C = ChunkState();
}

bool Heap::inActiveSpace(const Object *O) const {
  auto *P = reinterpret_cast<const uint64_t *>(O);
  return P >= Spaces[ActiveSpace] && P < Spaces[ActiveSpace] + Cfg.SemispaceWords;
}

bool Heap::inToSpace(const Object *O) const {
  assert(Collecting && "inToSpace is only meaningful during a collection");
  auto *P = reinterpret_cast<const uint64_t *>(O);
  int ToSpace = 1 - ActiveSpace;
  return P >= Spaces[ToSpace] && P < Spaces[ToSpace] + Cfg.SemispaceWords;
}

int Heap::debugSpaceOf(const Object *O) const {
  auto *P = reinterpret_cast<const uint64_t *>(O);
  for (int S = 0; S < 2; ++S)
    if (P >= Spaces[S] && P < Spaces[S] + Cfg.SemispaceWords)
      return S;
  return -1;
}

size_t Heap::usedWords() const {
  // GlobalFree counts handed-out chunks as used; that is the honest number
  // for "can I still allocate".
  return GlobalFree;
}
