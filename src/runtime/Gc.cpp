//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel stop-and-copy collector implementation.
///
/// The collection is simulated cooperatively: one host thread plays all
/// processors, always advancing the processor with the smallest GC clock,
/// which yields a deterministic interleaving that faithfully models the
/// parallel work distribution (shared segment queue, private copy stacks).
///
//===----------------------------------------------------------------------===//

#include "runtime/Gc.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace mult;

GcClient::~GcClient() = default;

namespace {

/// Per-processor collector state.
struct ProcGcState {
  uint64_t Clock = 0;               ///< Virtual clock during the collection.
  std::vector<Object *> CopyStack;  ///< Depth-first scan stack.
  bool ScannedOwnRoots = false;
  bool Finished = false;
  bool GcDead = false; ///< fail-stopped mid-collection (GcClient::pollGcKill)
  uint64_t WorkCycles = 0;
};

/// The guts of one collection; bundles the shared state the per-processor
/// steps need.
class Collection {
public:
  Collection(Heap &H, GcClient &Client, unsigned NumProcs)
      : TheHeap(H), Client(Client), Procs(NumProcs) {}

  bool run(std::vector<uint64_t> &ProcClocks, Gc::CollectionStats &Out);

private:
  /// Moves the object behind \p V (if any) to to-space and updates \p V.
  /// Splices out resolved futures. Charges cycles to processor \p P.
  void visitRoot(Value &V, unsigned P);

  /// Scans every payload slot of \p O (already in to-space).
  void scanObject(Object *O, unsigned P);

  /// Executes one unit of work for processor \p P. Returns false if the
  /// processor found nothing to do.
  bool stepProcessor(unsigned P);

  Heap &TheHeap;
  GcClient &Client;
  std::vector<ProcGcState> Procs;
  VirtualLock SegmentLock;
  unsigned NextSegment = 0;
  unsigned NumSegments = 0;
  bool Overflowed = false;
  bool TallyLive = false; ///< cached wantsLiveWordsTally() for this collection
  uint64_t ObjectsCopied = 0;
  uint64_t WordsCopied = 0;
  uint64_t FuturesSpliced = 0;
};

void Collection::visitRoot(Value &V, unsigned P) {
  ProcGcState &PS = Procs[P];
  PS.WorkCycles += gccost::ScanSlot;

  // Splice out chains of resolved futures (reading from-space is fine:
  // resolved futures are immutable).
  while (V.isFuture() && !V.pointee()->isForwarded() &&
         V.pointee()->futureResolved()) {
    V = V.pointee()->futureValue();
    ++FuturesSpliced;
    PS.WorkCycles += 2;
  }

  if (!V.isPointer())
    return;
  Object *O = V.pointee();
  if (O->isPermanent())
    return;
  if (!TheHeap.inActiveSpace(O)) {
    // Roots can be reached twice (a processor's current task is also in
    // the task-registry segment); the second visit sees an already
    // forwarded slot pointing into to-space. Copying it again would
    // split the object, so leave it alone.
    assert(TheHeap.inToSpace(O) && "root points outside both semispaces");
    return;
  }

  bool FutureBit = V.isFuture();
  PS.WorkCycles += gccost::ForwardedCheck;
  if (O->isForwarded()) {
    Object *New = O->forwardedTo();
    V = FutureBit ? Value::future(New) : Value::object(New);
    return;
  }

  uint32_t Total = O->totalWords();
  Object *New = TheHeap.copyAllocate(P, Total);
  if (!New) {
    Overflowed = true;
    return;
  }
  std::memcpy(New, O, size_t(Total) * 8);
  O->forwardTo(New);
  V = FutureBit ? Value::future(New) : Value::object(New);
  ++ObjectsCopied;
  WordsCopied += Total;
  if (TallyLive)
    Client.noteLiveObject(New->aux(), Total);
  PS.WorkCycles += gccost::MoveObjectBase + Total;
  if (!New->isRaw())
    PS.CopyStack.push_back(New);
}

void Collection::scanObject(Object *O, unsigned P) {
  assert(!O->isRaw() && "raw objects are never scanned");
  for (uint32_t I = 0, E = O->sizeWords(); I != E && !Overflowed; ++I) {
    Value Slot = O->slot(I);
    visitRoot(Slot, P);
    O->setSlot(I, Slot);
  }
}

bool Collection::stepProcessor(unsigned P) {
  ProcGcState &PS = Procs[P];
  uint64_t Before = PS.WorkCycles;

  if (!PS.ScannedOwnRoots) {
    // Paper step 3: root from the task this processor was executing.
    PS.ScannedOwnRoots = true;
    Client.scanProcessorRoots(P, [&](Value &V) { visitRoot(V, P); });
    PS.Clock += PS.WorkCycles - Before;
    return true;
  }

  if (!PS.CopyStack.empty()) {
    Object *O = PS.CopyStack.back();
    PS.CopyStack.pop_back();
    scanObject(O, P);
    PS.Clock += PS.WorkCycles - Before;
    return true;
  }

  if (NextSegment < NumSegments) {
    uint64_t LockCycles = SegmentLock.acquire(PS.Clock, gccost::SegmentFetchHold);
    PS.WorkCycles += LockCycles;
    unsigned Seg = NextSegment++;
    Client.scanRootSegment(Seg, [&](Value &V) { visitRoot(V, P); });
    PS.Clock += PS.WorkCycles - Before;
    return true;
  }

  return false;
}

bool Collection::run(std::vector<uint64_t> &ProcClocks,
                     Gc::CollectionStats &Out) {
  assert(ProcClocks.size() == Procs.size() && "clock/processor mismatch");
  if (!TheHeap.beginCollection())
    return false; // wedged (or re-entered): cannot collect, only report
  TallyLive = Client.wantsLiveWordsTally();
  const bool PollKills = Client.pollsGcKills();
  NumSegments = Client.numRootSegments();

  // Step 1: rendezvous. Everybody arrives at the triggering processor's
  // signal; collection begins at the latest clock plus the signal cost.
  uint64_t Start =
      *std::max_element(ProcClocks.begin(), ProcClocks.end()) +
      gccost::SignalRendezvous;
  for (ProcGcState &PS : Procs)
    PS.Clock = Start;

  // Steps 2-3: cooperative parallel collection, least-clock-first.
  for (;;) {
    if (Overflowed) {
      // From-space is half-evacuated and to-space is full: no coherent
      // heap remains. Record the fact instead of asserting; the engine
      // turns it into a structured fatal result.
      TheHeap.markWedged(
          "to-space overflow while copying survivors (live data exceeds a "
          "semispace)");
      return false;
    }
    unsigned Best = 0;
    bool Any = false;
    for (unsigned P = 0; P < Procs.size(); ++P) {
      if (Procs[P].Finished)
        continue;
      if (!Any || Procs[P].Clock < Procs[Best].Clock) {
        Best = P;
        Any = true;
      }
    }
    if (!Any)
      break;
    unsigned Victim = ~0u;
    if (PollKills && Client.pollGcKill(Procs[Best].Clock, Victim) &&
        Victim < Procs.size() && !Procs[Victim].GcDead) {
      // A proc-kill fault landed inside the collection. The fail-stop is
      // modelled between the victim's scan and copy phases: its root scan
      // must still happen (the tasks it was running are recovered after
      // the collection, so their state has to be evacuated), but its
      // private copy stack — work it claimed by moving objects — is
      // completed by a survivor so the heap is never left half-copied.
      ProcGcState &V = Procs[Victim];
      V.GcDead = true;
      if (!V.ScannedOwnRoots) {
        uint64_t Before = V.WorkCycles;
        V.ScannedOwnRoots = true;
        Client.scanProcessorRoots(Victim, [&](Value &Val) {
          visitRoot(Val, Victim);
        });
        V.Clock += V.WorkCycles - Before;
      }
      if (!V.CopyStack.empty()) {
        unsigned Heir = ~0u;
        for (unsigned Off = 1; Off < Procs.size(); ++Off) {
          unsigned C = (Victim + Off) % unsigned(Procs.size());
          if (!Procs[C].GcDead) {
            Heir = C;
            break;
          }
        }
        if (Heir != ~0u) {
          ProcGcState &H = Procs[Heir];
          H.CopyStack.insert(H.CopyStack.end(), V.CopyStack.begin(),
                             V.CopyStack.end());
          H.Finished = false; // revive: it has inherited work now
          V.CopyStack.clear();
        }
      }
      V.Finished = true;
      continue;
    }
    if (!stepProcessor(Best)) {
      // No work right now. Another processor's scanning can't feed this
      // one (copy stacks are private; segments are all claimed), so this
      // processor is done until the final barrier.
      Procs[Best].Finished = true;
    }
  }

  // Step 4: synchronize and resume.
  uint64_t End = Start;
  for (ProcGcState &PS : Procs)
    End = std::max(End, PS.Clock);
  End += gccost::Resume;
  for (uint64_t &C : ProcClocks)
    C = End;

  Client.remapWeakCaches();
  Client.preFlip();
  TheHeap.endCollection();

  Out.ObjectsCopied = ObjectsCopied;
  Out.WordsCopied = WordsCopied;
  Out.FuturesSpliced = FuturesSpliced;
  Out.PauseCycles = End - (Start - gccost::SignalRendezvous);
  Out.WorkCycles = 0;
  Out.MaxProcWorkCycles = 0;
  for (ProcGcState &PS : Procs) {
    Out.WorkCycles += PS.WorkCycles;
    Out.MaxProcWorkCycles = std::max(Out.MaxProcWorkCycles, PS.WorkCycles);
  }
  return true;
}

} // namespace

bool Gc::collect(GcClient &Client, std::vector<uint64_t> &ProcClocks) {
  Collection C(TheHeap, Client, NumProcs);
  CollectionStats CS;
  if (!C.run(ProcClocks, CS))
    return false;
  ++AllStats.Collections;
  AllStats.TotalPauseCycles += CS.PauseCycles;
  AllStats.MaxPauseCycles = std::max(AllStats.MaxPauseCycles, CS.PauseCycles);
  AllStats.TotalWorkCycles += CS.WorkCycles;
  AllStats.TotalWordsCopied += CS.WordsCopied;
  AllStats.Last = CS;
  return true;
}
